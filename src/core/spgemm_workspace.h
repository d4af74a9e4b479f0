// Pooled workspace for the TileSpGEMM pipeline.
//
// Every tile_spgemm() call needs the same family of scratch buffers: the
// column-major view of B's tile layout, the symbolic tile structure of C,
// step 1's per-tile-row column lists, the cost/schedule arrays of the
// binned scheduler, the CSR placement of a CSR caller's C, and per-thread
// buffers (intersection scratch, A tile-row
// index, pair cache, staged fused values, the stamped tile set). On the GPU
// all of this is either on-chip or allocated once per launch; on the CPU the
// repeated malloc/free of these buffers dominates the iterated workloads
// (AMG Galerkin chains, Markov clustering). SpgemmWorkspace owns all of
// them with capacity-preserving reuse: a SpgemmContext keeps one instance
// per value type and every run() clears sizes but keeps capacity, so
// steady-state iterations allocate (almost) only the output matrix.
//
// The tracked buffers still report through MemoryTracker, so Fig. 9 style
// peak accounting sees the pool exactly like any other workspace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/cancellation.h"
#include "core/intersect.h"
#include "core/step1.h"
#include "core/tile_convert.h"
#include "core/tile_format.h"

namespace tsg {

namespace detail {

/// Byte footprint of a vector's capacity with the element size widened to
/// std::size_t before the multiply. capacity() is already size_t, but every
/// footprint sum in this header goes through here so the widening (and the
/// place to audit it) is explicit rather than re-derived per call site.
template <class Vec>
constexpr std::size_t capacity_bytes(const Vec& v) {
  return v.capacity() * static_cast<std::size_t>(sizeof(typename Vec::value_type));
}

/// Location of a per-tile record inside a per-thread buffer: step 2 hands
/// each output tile to exactly one thread, which appends the tile's pairs
/// (or staged values) to its own buffer and notes where they landed.
struct TileSlot {
  std::uint32_t thread = 0;
  offset_t offset = 0;
  std::uint32_t count = 0;
};

/// Sentinel `thread` value marking a pair_slot entry whose tile was *not*
/// cached (its cost bin is below the plan's cache threshold, so step 3
/// falls back to the paper's recompute policy for it). Distinct from a
/// cached-but-empty slot ({tid, off, 0}), which step 3 may consume as an
/// empty pair list without re-intersecting.
inline constexpr std::uint32_t kTileSlotUncached = 0xFFFFFFFFu;

static_assert(std::is_trivially_copyable_v<TileSlot>,
              "TileSlot arrays are assign()-filled and copied per chunk");

/// Stamped set of tile columns, reused across tile rows without clearing:
/// bumping the stamp invalidates every entry in O(1).
struct StampedTileSet {
  std::vector<std::uint32_t> seen;
  std::vector<index_t> cols;
  std::uint32_t stamp = 0;

  void prepare(index_t width) {
    if (seen.size() < static_cast<std::size_t>(width)) {
      seen.assign(static_cast<std::size_t>(width), 0);
      stamp = 0;
    }
    ++stamp;
    cols.clear();
  }

  void insert(index_t c) {
    if (seen[static_cast<std::size_t>(c)] != stamp) {
      seen[static_cast<std::size_t>(c)] = stamp;
      cols.push_back(c);
    }
  }

  std::size_t bytes() const { return capacity_bytes(seen) + capacity_bytes(cols); }
};

}  // namespace detail

/// Upper bound on the bytes one C tile's output needs during steps 2-3, in
/// the output's layout: step 2's symbolic record (an offset, 16 local row
/// pointers, 16 masks) plus, at the 256-nonzero tile maximum, two local
/// indices and a value per slot (tile layout) or a column index and a value
/// per slot and the tile's CSR placement, 16 within-row offsets and its
/// rank (CSR). The context's budget planner and the service's admission
/// estimate both charge it.
template <class T>
constexpr std::size_t tile_output_bytes_bound(bool csr_out) {
  constexpr std::size_t symbolic =
      sizeof(offset_t) +
      static_cast<std::size_t>(kTileDim) * (sizeof(std::uint8_t) + sizeof(rowmask_t));
  if (csr_out) {
    return symbolic + static_cast<std::size_t>(kTileNnzMax) * (sizeof(index_t) + sizeof(T)) +
           static_cast<std::size_t>(kTileDim) * sizeof(index_t) + sizeof(offset_t);
  }
  return symbolic + static_cast<std::size_t>(kTileNnzMax) * (2 * sizeof(std::uint8_t) + sizeof(T));
}

/// Per-call execution schedule handed to steps 2 and 3 by SpgemmContext.
/// `order`, when non-null, is a permutation of [0, numtiles) that both
/// steps follow instead of the natural tile order — the cost-binned
/// scheduler places heavy bins first so the long-pole tiles are dispatched
/// before the dynamically scheduled loop runs out of parallel slack.
struct ExecutionPlan {
  const offset_t* order = nullptr;  ///< visit order over C tiles; null = natural
  /// Per-tile cost bin (the scheduler's ws.cost_bin), null when binning is
  /// off. Lets the pair cache be selected per cost bin: re-intersecting a
  /// light tile costs less than staging and reloading its pairs, so only
  /// bins >= cache_min_bin record pairs; the rest keep the paper's
  /// recompute policy. Results are bit-identical either way.
  const offset_t* tile_bin = nullptr;
  bool cache_pairs = false;         ///< record matched pairs for step 3
  int cache_min_bin = 0;            ///< lowest cost bin that caches pairs
  bool fuse_light = false;          ///< fuse step 3 into step 2 for light tiles
  /// Fallback nnz cap for fusing when binning is off (tile_bin == null).
  index_t fuse_threshold = kAccumulatorThreshold;
  /// Highest cost bin the fused step-2→3 path handles when binning is on:
  /// whole bins fuse, so the decision depends only on scheduling cost (the
  /// matched-list lengths), not on the symbolic result. Bins 0..1 stage at
  /// most kTileNnzMax values per tile, which the workspace already bounds.
  int fuse_max_bin = 1;
  /// Cooperative cancellation/deadline for this call. Default token is
  /// inert (one null test per check). Parallel bodies in src/core must not
  /// throw (`throw-in-parallel`), so steps 2/3 poll it and *skip* remaining
  /// tiles; the serial pipeline layer converts the latched reason into a
  /// kCancelled/kDeadlineExceeded Error with balanced accounting. Also the
  /// liveness channel: note_progress() at bin/chunk boundaries feeds the
  /// service watchdog.
  CancelToken cancel;

  /// Whether tile `t` records its matched pairs for step 3.
  bool caches_tile(offset_t t) const {
    return cache_pairs &&
           (tile_bin == nullptr ||
            tile_bin[static_cast<std::size_t>(t)] >= static_cast<offset_t>(cache_min_bin));
  }

  /// Whether tile `t` (with `nnz` symbolic nonzeros) runs the fused
  /// step-2→3 path: per cost bin when binning is on, by nnz otherwise.
  bool fuses_tile(offset_t t, index_t nnz) const {
    if (!fuse_light || nnz <= 0) return false;
    if (tile_bin != nullptr) {
      return tile_bin[static_cast<std::size_t>(t)] <= static_cast<offset_t>(fuse_max_bin);
    }
    return nnz <= fuse_threshold;
  }
};

/// All reusable scratch of one SpgemmContext for one value type.
template <class T>
struct SpgemmWorkspace {
  /// Buffers owned by one worker thread. Tiles are visited by exactly one
  /// thread, so appends need no synchronisation; per-tile TileSlot records
  /// say which thread's buffer holds a tile's data. Cache-line aligned:
  /// the vector headers are written on every append, and adjacent slots
  /// sharing a line would false-share across threads (the thread_local
  /// buffers this pool replaced got that isolation for free).
  struct alignas(128) ThreadSlot {
    std::vector<MatchedPair> pairs;     ///< intersection scratch (per visit)
    tracked_vector<MatchedPair> cache;  ///< matched pairs kept for step 3
    tracked_vector<T> staged;           ///< fused-path values staged in step 2
    detail::StampedTileSet sym;         ///< step-1 stamped column set
    TileRowIndex row_index;             ///< index of the A tile row last matched

    /// Matched (A_ik, B_kj) pairs of C tile (tile_i, tile_j), in ascending
    /// k, left in `pairs`. The loop around it must have called
    /// SpgemmWorkspace::reset_row_index for this A.
    const std::vector<MatchedPair>& match(const TileMatrix<T>& a, const TileLayoutCsc& b_csc,
                                          index_t tile_i, index_t tile_j) {
      pairs.clear();
      const offset_t a_base = a.tile_ptr[tile_i];
      const index_t len_a = static_cast<index_t>(a.tile_ptr[tile_i + 1] - a_base);
      const offset_t b_base = b_csc.col_ptr[tile_j];
      const index_t len_b = static_cast<index_t>(b_csc.col_ptr[tile_j + 1] - b_base);
      row_index.intersect(tile_i, a.tile_col_idx.data() + a_base, a_base, len_a,
                          b_csc.row_idx.data() + b_base, b_csc.tile_id.data() + b_base, len_b,
                          pairs);
      return pairs;
    }

    std::size_t bytes() const {
      return detail::capacity_bytes(pairs) + detail::capacity_bytes(cache) +
             detail::capacity_bytes(staged) + sym.bytes() + row_index.bytes();
    }
  };

  // One slot per worker; adjacent slots must not share a cache line or the
  // per-append header writes false-share across threads.
  static_assert(alignof(ThreadSlot) >= 128,
                "ThreadSlot must keep its cache-line isolation");
  static_assert(kAccumulatorThreshold <= kTileNnzMax,
                "the fused path stages at most one full tile of values");

  TileLayoutCsc b_csc;        ///< column-major view of B's tile layout
  TileStructure structure;    ///< step-1 tile structure of C
  std::vector<std::vector<index_t>> step1_rows;  ///< step-1 per-tile-row columns
  tracked_vector<offset_t> cost_bin;  ///< per-tile cost bin (scheduler scratch)
  tracked_vector<offset_t> schedule;  ///< binned visit order over C tiles
  tracked_vector<detail::TileSlot> pair_slot;    ///< per tile, iff cache_pairs
  tracked_vector<detail::TileSlot> staged_slot;  ///< per tile, iff fuse_light
  CsrPlacement csr_place;             ///< where C's tiles land, iff C is CSR
  std::vector<ThreadSlot> slots;      ///< one per worker thread
  /// Per-call cancellation token for step 1, which runs before an
  /// ExecutionPlan exists (the plan carries the token for steps 2/3).
  /// Stamped by SpgemmContext::run_impl at call entry; inert by default.
  CancelToken cancel;

  /// Grow (never shrink) the per-thread slot array. Must be called before
  /// any parallel section that indexes slots by worker_rank().
  void ensure_threads(int n) {
    if (static_cast<int>(slots.size()) < n) slots.resize(static_cast<std::size_t>(n));
  }

  ThreadSlot& slot(int tid) { return slots[static_cast<std::size_t>(tid)]; }

  /// Size every thread's row index to A's tile columns and unbind it. Call
  /// after ensure_threads, before each loop that calls ThreadSlot::match.
  void reset_row_index(index_t a_tile_cols) {
    for (ThreadSlot& s : slots) s.row_index.reset(a_tile_cols);
  }

  /// Reset per-call contents, keeping every buffer's capacity. Also drops
  /// the previous call's cancellation token: a token tripped by request N
  /// must never silently skip tiles of request N+1 on a reused context
  /// (the pipeline re-stamps its own token right after begin_call()).
  void begin_call() {
    for (ThreadSlot& s : slots) {
      s.cache.clear();
      s.staged.clear();
    }
    pair_slot.clear();
    staged_slot.clear();
    cancel = CancelToken{};
  }

  /// Bytes currently held by the pool (capacities, tracked and untracked) —
  /// the high-water mark the reuse tests pin down.
  std::size_t bytes() const {
    std::size_t total = detail::capacity_bytes(b_csc.col_ptr) +
                        detail::capacity_bytes(b_csc.row_idx) +
                        detail::capacity_bytes(b_csc.tile_id) +
                        detail::capacity_bytes(structure.tile_ptr) +
                        detail::capacity_bytes(structure.tile_col_idx) +
                        detail::capacity_bytes(structure.tile_row_idx) +
                        detail::capacity_bytes(cost_bin) + detail::capacity_bytes(schedule) +
                        detail::capacity_bytes(pair_slot) + detail::capacity_bytes(staged_slot) +
                        detail::capacity_bytes(csr_place.slot) +
                        detail::capacity_bytes(csr_place.offset) +
                        detail::capacity_bytes(csr_place.row_tiles);
    for (const std::vector<index_t>& row : step1_rows) {
      total += detail::capacity_bytes(row);
    }
    total += step1_rows.capacity() * sizeof(std::vector<index_t>);
    for (const ThreadSlot& s : slots) total += s.bytes();
    return total;
  }

  /// Drop every pooled buffer (used by SpgemmContext::release_workspaces).
  void release() { *this = SpgemmWorkspace{}; }
};

}  // namespace tsg
