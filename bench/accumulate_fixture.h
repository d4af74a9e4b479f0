// Kernel-level timing of step 3's per-tile accumulate over a real product's
// C tiles, shared by bench_ablation_design and bench_micro_kernels. The
// live matched pairs of every C tile of A*A are gathered once, outside the
// timed pass, through the pipeline's own ThreadSlot::match, so a pass times
// only the accumulate: the rank-indexed walk, the scalar dense walk, or the
// dispatched row kernel.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/timer.h"
#include "core/intersect.h"
#include "core/simd_dispatch.h"
#include "core/spgemm_workspace.h"
#include "core/tile_convert.h"
#include "core/tile_kernels.h"
#include "core/tile_spgemm.h"

namespace tsg::bench {

struct AccumulateFixture {
  TileMatrix<double> a;           ///< the operand; the product is a * a
  TileMatrix<double> c;           ///< the product: masks, row pointers, offsets
  std::vector<offset_t> tiles;    ///< C's tiles, in storage order
  std::vector<std::size_t> first; ///< tiles[i]'s pairs: [first[i], first[i + 1])
  std::vector<MatchedPair> pairs;

  explicit AccumulateFixture(const Csr<double>& m) : a(csr_to_tile(m)), c(tile_spgemm(a, a).c) {
    SpgemmWorkspace<double> ws;
    ws.ensure_threads(1);
    tile_layout_csc(a, ws.b_csc);
    derive_tile_occupancy(a, a, ws);
    ws.reset_row_index(a.tile_cols);
    first.push_back(0);
    index_t tile_row = 0;
    for (offset_t t = 0; t < c.num_tiles(); ++t) {
      while (c.tile_ptr[tile_row + 1] <= t) ++tile_row;
      const std::vector<MatchedPair>& live = ws.slot(0).match(
          a, ws.b_csc, ws.occ, tile_row, c.tile_col_idx[static_cast<std::size_t>(t)]);
      pairs.insert(pairs.end(), live.begin(), live.end());
      tiles.push_back(t);
      first.push_back(pairs.size());
    }
  }

  /// One serial pass over every tile: the rank-indexed walk
  /// for tiles of at most `cut` nonzeros, accumulate_pairs_dense through
  /// `nops` above it (cut 0: dense everywhere; kTileNnzMax: scatter
  /// everywhere). Values land in `out` (resized to C's nnz) so passes can
  /// be compared bit for bit.
  void pass(index_t cut, const simd::NumericOps& nops, std::vector<double>& out) const {
    out.resize(static_cast<std::size_t>(c.nnz()));
    for (std::size_t i = 0; i < tiles.size(); ++i) {
      const offset_t t = tiles[i];
      const index_t nnz = c.tile_nnz_of(t);
      const MatchedPair* p = pairs.data() + first[i];
      const std::size_t n = first[i + 1] - first[i];
      double slots[kTileNnzMax];
      if (nnz <= cut) {
        detail::accumulate_pairs_walk<PlusTimes<double>, false>(
            a, a, p, n, c.tile_mask(t), c.row_ptr.data() + static_cast<std::size_t>(t) * kTileDim,
            nnz, slots);
      } else {
        detail::accumulate_pairs_dense(a, a, p, n, c.tile_mask(t), slots, nops);
      }
      std::copy(slots, slots + nnz, out.begin() + c.tile_nnz[static_cast<std::size_t>(t)]);
    }
  }

  /// Milliseconds of one pass(). Callers comparing variants interleave
  /// them within each rep and keep each one's best, so drift in the host's
  /// speed lands on every variant alike.
  double time_pass(index_t cut, const simd::NumericOps& nops, std::vector<double>& out) const {
    Timer timer;
    pass(cut, nops, out);
    return timer.milliseconds();
  }
};

}  // namespace tsg::bench
