// Set intersection of tile index lists (Algorithm 2, lines 6-18).
//
// Matching the non-empty tiles of a tile row of A against a tile column of
// B is a sorted-set intersection. The paper searches each element of the
// shorter list in the longer one with a binary search whose left bound is
// narrowed after every hit (both lists are sorted). intersect_tiles keeps
// that search and a two-pointer merge as the reference the tests, the
// tSparse baseline and the Section 3.3 ablation use.
//
// The pipeline intersects through TileRowIndex instead: a per-thread index
// of one A tile row that turns each probe of B's column into one load. On a
// CPU the binary search's data-dependent probes stall the core, and every
// C tile of a tile row re-searches the same A row. It also drops the dead
// pairs, whose 16-bit occupancy words share no bit (see TileOccupancy).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/bitops.h"
#include "common/config.h"

namespace tsg {

/// How the reference intersection walks the two lists.
enum class IntersectMethod {
  kBinarySearch,  ///< the paper's choice: probe the shorter list into the longer
  kMerge,         ///< two-pointer merge, for the ablation
};

/// One matched (A_ik, B_kj) tile pair, by storage id.
struct MatchedPair {
  offset_t tile_a;
  offset_t tile_b;
};

namespace detail {

/// Lower-bound binary search in arr[lo, hi) for `key`; returns hi if absent.
inline index_t lower_bound_idx(const index_t* arr, index_t lo, index_t hi, index_t key) {
  while (lo < hi) {
    const index_t mid = lo + (hi - lo) / 2;
    if (arr[mid] < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace detail

/// Intersect the sorted tile-column list of A's tile row i
/// (a_cols[0..len_a), whose s-th entry is tile id a_base+s) with the sorted
/// tile-row list of B's tile column j (b_rows[0..len_b), whose s-th entry is
/// tile id b_ids[s]). Appends matched pairs to `out` in increasing k order.
inline void intersect_tiles(const index_t* a_cols, offset_t a_base, index_t len_a,
                            const index_t* b_rows, const offset_t* b_ids, index_t len_b,
                            IntersectMethod method, std::vector<MatchedPair>& out) {
  if (len_a == 0 || len_b == 0) return;

  if (method == IntersectMethod::kMerge) {
    index_t ia = 0, ib = 0;
    while (ia < len_a && ib < len_b) {
      if (a_cols[ia] == b_rows[ib]) {
        out.push_back({a_base + ia, b_ids[ib]});
        ++ia;
        ++ib;
      } else if (a_cols[ia] < b_rows[ib]) {
        ++ia;
      } else {
        ++ib;
      }
    }
    return;
  }

  // Binary search: probe each element of the shorter list into the longer
  // one. After a hit the left search bound moves past the match (both lists
  // are sorted), shrinking every subsequent search range.
  if (len_a <= len_b) {
    index_t left = 0;
    for (index_t s = 0; s < len_a; ++s) {
      const index_t pos = detail::lower_bound_idx(b_rows, left, len_b, a_cols[s]);
      if (pos < len_b && b_rows[pos] == a_cols[s]) {
        out.push_back({a_base + s, b_ids[pos]});
        left = pos + 1;
      } else {
        left = pos;
      }
      if (left >= len_b) break;
    }
  } else {
    index_t left = 0;
    for (index_t s = 0; s < len_b; ++s) {
      const index_t pos = detail::lower_bound_idx(a_cols, left, len_a, b_rows[s]);
      if (pos < len_a && a_cols[pos] == b_rows[s]) {
        out.push_back({a_base + pos, b_ids[s]});
        left = pos + 1;
      } else {
        left = pos;
      }
      if (left >= len_a) break;
    }
  }
}

/// Whether TileRowIndex::intersect binary-searches A's keys into B's column
/// instead of walking the column: when the column is much longer than A's
/// row, len_a searches of log2(len_b) probes beat a len_b-entry walk. The
/// factor 4 leaves the walk every case where the two are close, since its
/// sequential loads cost less per step than a search's dependent ones.
constexpr bool intersect_by_search(index_t len_a, index_t len_b) {
  return static_cast<std::int64_t>(len_b) >
         4 * static_cast<std::int64_t>(len_a) *
             std::bit_width(static_cast<std::uint32_t>(len_b));
}

/// Stamped index of one tile row of A, owned by one worker thread: for each
/// tile column k, the position of k in the bound row. An entry counts only
/// while it carries the current stamp, so binding a new row writes that
/// row's entries and bumps the stamp, and the old row's entries lapse
/// without a clear. C tiles of one tile row are visited back to back, so a
/// row is bound once and then probed by every B column it meets.
class TileRowIndex {
 public:
  /// Size the index to `width` tile columns (A.tile_cols; grow-only) and
  /// unbind it. Call before every loop that intersects through it: the next
  /// loop may read another A whose rows have the same numbers.
  void reset(index_t width) {
    if (entries_.size() < static_cast<std::size_t>(width)) {
      entries_.assign(static_cast<std::size_t>(width), Entry{});
      stamp_ = 0;
    }
    row_ = kUnbound;
  }

  /// Append to `out` the live matched pairs of A's tile row `row`
  /// (a_cols[0, len_a), the s-th entry being tile a_base+s with column
  /// occupancy a_occ[s]) and a tile column of B (b_rows[0, len_b) with
  /// tile ids b_ids and row occupancies b_occ): the pairs of
  /// intersect_tiles less those whose two words share no bit. The order
  /// stays ascending k, so every product accumulates in the same order
  /// whichever branch runs.
  void intersect(index_t row, const index_t* a_cols, const rowmask_t* a_occ, offset_t a_base,
                 index_t len_a, const index_t* b_rows, const rowmask_t* b_occ,
                 const offset_t* b_ids, index_t len_b, std::vector<MatchedPair>& out) {
    if (len_a == 0 || len_b == 0) return;
    if (intersect_by_search(len_a, len_b)) {
      // intersect_tiles' search of the shorter list, A's, into B's.
      index_t left = 0;
      for (index_t s = 0; s < len_a && left < len_b; ++s) {
        const index_t pos = detail::lower_bound_idx(b_rows, left, len_b, a_cols[s]);
        left = pos;
        if (pos == len_b || b_rows[pos] != a_cols[s]) continue;
        if ((a_occ[s] & b_occ[pos]) != 0) out.push_back({a_base + s, b_ids[pos]});
        left = pos + 1;
      }
      return;
    }
    if (row != row_) bind(row, a_cols, a_occ, len_a);
    // B keys above A's last key cannot match; the rest are one load each.
    // Whether a key yields a live pair is data-dependent and mispredicts as
    // a branch, so every probe writes its pair and only a live one
    // advances the end.
    const index_t last = a_cols[len_a - 1];
    std::size_t n = out.size();
    out.resize(n + static_cast<std::size_t>(len_b));
    MatchedPair* dst = out.data();
    for (index_t s = 0; s < len_b && b_rows[s] <= last; ++s) {
      const Entry e = entries_[static_cast<std::size_t>(b_rows[s])];
      const bool live = (e.stamp == stamp_) & ((e.occ & b_occ[s]) != 0);
      dst[n] = {a_base + e.pos, b_ids[s]};
      n += live ? 1 : 0;
    }
    out.resize(n);
  }

  std::size_t bytes() const { return entries_.capacity() * sizeof(Entry); }

 private:
  struct Entry {
    std::uint32_t stamp = 0;
    index_t pos = 0;
    rowmask_t occ = 0;  ///< the tile's column occupancy
  };
  static constexpr index_t kUnbound = -1;

  void bind(index_t row, const index_t* a_cols, const rowmask_t* a_occ, index_t len_a) {
    if (++stamp_ == 0) {  // wrapped: lapse every entry for real, once
      std::fill(entries_.begin(), entries_.end(), Entry{});
      stamp_ = 1;
    }
    for (index_t s = 0; s < len_a; ++s) {
      entries_[static_cast<std::size_t>(a_cols[s])] = {stamp_, s, a_occ[s]};
    }
    row_ = row;
  }

  std::vector<Entry> entries_;
  std::uint32_t stamp_ = 0;
  index_t row_ = kUnbound;
};

}  // namespace tsg
