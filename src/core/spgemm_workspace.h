// Pooled workspace for the TileSpGEMM pipeline.
//
// Every tile_spgemm() call needs the same family of scratch buffers: the
// column-major view of B's tile layout, the occupancy words of both
// operands' tiles, the symbolic tile structure of C, step 1's per-tile-row
// column lists, the cost/schedule arrays of the
// binned scheduler, the CSR placement of a CSR caller's C, and per-thread
// buffers (intersection scratch, A tile-row index, the stamped tile set).
// None of it holds an output tile's intermediate state: step 3 re-runs the
// intersection instead of reading pairs stored by step 2, as the paper's
// kernels do. On the GPU all of this is either on-chip or allocated once per
// launch; on the CPU the repeated malloc/free of these buffers dominates the
// iterated workloads (AMG Galerkin chains, Markov clustering).
// SpgemmWorkspace owns all of them with capacity-preserving reuse: a
// SpgemmContext keeps one instance per value type and every run() clears
// sizes but keeps capacity, so steady-state iterations allocate (almost)
// only the output matrix.
//
// The tracked buffers still report through MemoryTracker, so Fig. 9 style
// peak accounting sees the pool exactly like any other workspace.
#pragma once

#include <cstddef>
#include <cstdint>
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

/// The two 16-bit occupancy words of a product's operand tiles, in the
/// orders their readers walk, derived once per call by
/// derive_tile_occupancy (core/step1.h). A's tile A_ik
/// has a nonzero in local column c iff bit c of its colocc is set (the OR
/// of its 16 row masks); B's tile B_kj has a non-empty local row r iff bit
/// r of its rowocc is set. The pair (A_ik, B_kj) carries a product iff
/// colocc(A_ik) & rowocc(B_kj) != 0: the test is exact, so step 1 keeps
/// only C tiles that hold a nonzero and the intersections drop every pair
/// that carries none.
struct TileOccupancy {
  tracked_vector<rowmask_t> a_col;      ///< colocc per A tile, storage order
  tracked_vector<rowmask_t> b_row_csc;  ///< rowocc per B tile, b_csc order (match)
  /// B's rowocc words transposed for step 1, kTileDim words per 64 B tiles
  /// in storage order: bit kb % 64 of word kTileDim * (kb / 64) + r is set
  /// iff B's tile kb has a non-empty local row r. ORing the words of A_ik's
  /// column bits over B's tile row k gives its live tiles 64 at a time.
  /// Empty outside step 1.
  tracked_vector<std::uint64_t> b_row_bits;

  std::size_t bytes() const {
    return detail::capacity_bytes(a_col) + detail::capacity_bytes(b_row_csc) +
           detail::capacity_bytes(b_row_bits);
  }
};

/// Upper bound on the bytes one C tile needs during steps 2-3, in
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
  /// A masked product's filter, null otherwise: the 16 row masks of M's
  /// tile for each tile of the structure (which is M's own), ANDed into the
  /// tile's words before step 2 derives C's masks from them.
  const rowmask_t* mask = nullptr;
  /// Cooperative cancellation/deadline for this call. Default token is
  /// inert (one null test per check). Parallel bodies in src/core must not
  /// throw (`throw-in-parallel`), so steps 2/3 poll it and *skip* remaining
  /// tiles; the serial pipeline layer converts the latched reason into a
  /// kCancelled/kDeadlineExceeded Error with balanced accounting. Also the
  /// liveness channel: note_progress() at bin/chunk boundaries feeds the
  /// service watchdog.
  CancelToken cancel;
};

/// All reusable scratch of one SpgemmContext for one value type.
template <class T>
struct SpgemmWorkspace {
  /// Buffers owned by one worker thread. Tiles are visited by exactly one
  /// thread, so appends need no synchronisation. Cache-line aligned: the
  /// vector headers are written on every append, and adjacent slots
  /// sharing a line would false-share across threads (the thread_local
  /// buffers this pool replaced got that isolation for free).
  struct alignas(128) ThreadSlot {
    std::vector<MatchedPair> pairs;     ///< intersection scratch (per visit)
    detail::StampedTileSet sym;         ///< step-1 stamped column set
    TileRowIndex row_index;             ///< index of the A tile row last matched

    /// Live matched (A_ik, B_kj) pairs of C tile (tile_i, tile_j) — those
    /// whose occupancy words share a bit — in ascending k, left in
    /// `pairs`. A dead pair carries no product, so dropping it changes no
    /// value. `occ` holds the words of this A and B; the loop around the
    /// call must have called SpgemmWorkspace::reset_row_index for this A.
    const std::vector<MatchedPair>& match(const TileMatrix<T>& a, const TileLayoutCsc& b_csc,
                                          const TileOccupancy& occ, index_t tile_i,
                                          index_t tile_j) {
      pairs.clear();
      const offset_t a_base = a.tile_ptr[tile_i];
      const index_t len_a = static_cast<index_t>(a.tile_ptr[tile_i + 1] - a_base);
      const offset_t b_base = b_csc.col_ptr[tile_j];
      const index_t len_b = static_cast<index_t>(b_csc.col_ptr[tile_j + 1] - b_base);
      row_index.intersect(tile_i, a.tile_col_idx.data() + a_base, occ.a_col.data() + a_base,
                          a_base, len_a, b_csc.row_idx.data() + b_base,
                          occ.b_row_csc.data() + b_base, b_csc.tile_id.data() + b_base, len_b,
                          pairs);
      return pairs;
    }

    std::size_t bytes() const {
      return detail::capacity_bytes(pairs) + sym.bytes() + row_index.bytes();
    }
  };

  // One slot per worker; adjacent slots must not share a cache line or the
  // per-append header writes false-share across threads.
  static_assert(alignof(ThreadSlot) >= 128,
                "ThreadSlot must keep its cache-line isolation");

  TileLayoutCsc b_csc;        ///< column-major view of B's tile layout
  TileOccupancy occ;          ///< occupancy words of A's and B's tiles
  TileStructure structure;    ///< step-1 tile structure of C
  std::vector<std::vector<index_t>> step1_rows;  ///< step-1 per-tile-row columns
  tracked_vector<offset_t> cost_bin;  ///< per-tile cost bin (scheduler scratch)
  tracked_vector<offset_t> schedule;  ///< binned visit order over C tiles
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

  /// Start a call: drops the previous call's cancellation token, so a
  /// token tripped by request N never silently skips tiles of request N+1
  /// on a reused context (the pipeline re-stamps its own token right after
  /// begin_call()). Every other buffer is overwritten by the step that
  /// uses it and keeps its capacity.
  void begin_call() { cancel = CancelToken{}; }

  /// Bytes currently held by the pool (capacities, tracked and untracked) —
  /// the high-water mark the reuse tests pin down.
  std::size_t bytes() const {
    std::size_t total = detail::capacity_bytes(b_csc.col_ptr) +
                        detail::capacity_bytes(b_csc.row_idx) +
                        detail::capacity_bytes(b_csc.tile_id) + occ.bytes() +
                        detail::capacity_bytes(structure.tile_ptr) +
                        detail::capacity_bytes(structure.tile_col_idx) +
                        detail::capacity_bytes(structure.tile_row_idx) +
                        detail::capacity_bytes(cost_bin) + detail::capacity_bytes(schedule) +
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
