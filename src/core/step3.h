// Step 3 of TileSpGEMM (Algorithm 3): the numeric phase. For every tile of
// C the matched tile pairs are re-gathered (the intersection is cheap and
// re-running it keeps no pair lists in global memory, as on the GPU; step 2
// leaves only the tile's masks, row pointers and nonzero count behind)
// and the products are accumulated into a dense 16x16 tile on the stack,
// one dispatched B-row multiply-add per A nonzero (only the lanes in B's
// row mask change), then compressed through C's masks. This departs from
// the paper's tnnz = 192 switch between a sparse and a dense accumulator
// (DESIGN.md says why); only tiles of at most detail::kRankScatterMaxNnz
// nonzeros keep the rank-indexed walk straight into their final slots.
//
// The pass is one template on the semiring, since steps 1-2 look only at
// structure: exactly PlusTimes<T> accumulates as above, and any other
// semiring takes the rank-indexed walk with its identity/combine/reduce at
// every tile size. step3.cpp instantiates the plus-times pass for double
// and float; SpgemmContext::try_run instantiates the others from
// this body. The pipeline picks one pass per call (Step3Fn), never per
// tile.
//
// C is written once, in the caller's layout: either the tile layout's
// low-level arrays, or, for a CSR caller, straight into C's CSR rows at the
// positions the offset pass (place_csr_rows) fixed from step 2's masks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/parallel.h"
#include "core/semiring.h"
#include "core/simd_dispatch.h"
#include "core/spgemm_workspace.h"
#include "core/step2.h"
#include "core/tile_convert.h"
#include "core/tile_kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tsg {

/// Where step 3 writes C's entries; exactly one layout is set.
template <class T>
struct Step3Output {
  /// Tile layout: C's row_idx/col_idx/val, sized to the symbolic nnz and
  /// filled in tile storage order.
  TileMatrix<T>* tile = nullptr;
  /// CSR: C's arrays, with row_ptr already final for the structure's tile
  /// rows and col_idx/val sized to match, plus the structure's placement.
  Csr<T>* csr = nullptr;
  const CsrPlacement* place = nullptr;
};

/// Numeric pass over the tiles of `structure` over `Semiring`, whose
/// symbolic result step 2 left in `symbolic`. `ws` holds the per-thread
/// intersection scratch and the occupancy words; see spgemm_context.cpp
/// for the assembly around it.
template <class Semiring, class T>
void step3_numeric(const TileMatrix<T>& a, const TileMatrix<T>& b,
                   const TileLayoutCsc& b_csc, const TileStructure& structure,
                   simd::Level level, const Step2Result& symbolic,
                   SpgemmWorkspace<T>& ws, const ExecutionPlan& plan,
                   const Step3Output<T>& out) {
  const offset_t ntiles = structure.num_tiles();
  ws.ensure_threads(max_workers());
  ws.reset_row_index(a.tile_cols);

  TileMatrix<T>* const tile_out = out.tile;
  Csr<T>* const csr_out = out.csr;
  // Numeric kernel table of the run's dispatch level. Materialize is safe to
  // aim at C's shared arrays at every level (exact-store contract); the
  // dense compress only ever targets the local `slots` scratch.
  const simd::NumericOps& nops = simd::numeric_ops(level);
  // Only a masked product has products outside C's masks for the walk to
  // skip.
  const bool masked = plan.mask != nullptr;

  // Per-tile detail instruments (see step2.cpp); the gate is read once per
  // call so the hot loop branches on a local bool.
  const bool detail_metrics = obs::metrics_detail_enabled();
  static obs::Counter& m_rows =
      obs::MetricsRegistry::instance().counter("spgemm.accumulate.row_kernel");
  static obs::Counter& m_walk =
      obs::MetricsRegistry::instance().counter("spgemm.accumulate.rank_scatter");
  static obs::Histogram& m_visit_us = obs::MetricsRegistry::instance().histogram(
      "spgemm.tile_visit_us", {1, 2, 5, 10, 25, 50, 100, 1000});

  parallel_for(offset_t{0}, ntiles, [&](offset_t i) {
    // Guard, not inline observes: a visit that leaves early must still
    // land in the duration histogram.
    struct VisitGuard {
      bool on;
      double start_us;
      obs::Histogram& hist;
      ~VisitGuard() {
        if (on) {
          hist.observe(static_cast<std::int64_t>(obs::TraceCollector::now_us() - start_us));
        }
      }
    } visit{detail_metrics, detail_metrics ? obs::TraceCollector::now_us() : 0.0, m_visit_us};
    // Cooperative cancellation, every 64th tile (see step2.cpp): skip the
    // tile, never throw. C's values for skipped tiles stay unwritten — the
    // pipeline layer discards the partial output when it converts the
    // latched reason.
    if ((i & 63) == 0) {
      plan.cancel.note_progress();
      if (plan.cancel.should_stop()) return;
    }
    // A CSR C is visited in tile order instead: consecutive tiles of a tile
    // row then write adjacent segments of the same CSR rows from one
    // thread, which beats the binned order's scattered row writes.
    const offset_t t = plan.order != nullptr && csr_out == nullptr ? plan.order[i] : i;
    const index_t tile_i = structure.tile_row_idx[static_cast<std::size_t>(t)];
    const index_t tile_j = structure.tile_col_idx[static_cast<std::size_t>(t)];
    const offset_t nz_base = symbolic.tile_nnz[static_cast<std::size_t>(t)];
    const auto nnz_c =
        static_cast<index_t>(symbolic.tile_nnz[static_cast<std::size_t>(t) + 1] - nz_base);
    const std::size_t sym_base = static_cast<std::size_t>(t) * kTileDim;
    const rowmask_t* mask_c = symbolic.mask.data() + sym_base;
    const std::uint8_t* row_ptr_c = symbolic.row_ptr.data() + sym_base;

    // Tile layout: materialise the local row/column indices from the masks;
    // the mask bit order is the storage order.
    if (tile_out != nullptr) {
      nops.materialize(mask_c, tile_out->row_idx.data() + nz_base,
                       tile_out->col_idx.data() + nz_base);
    }
    // Only a masked product leaves a tile empty (M's tile, with no product
    // inside M): nothing to gather or write.
    if (nnz_c == 0) return;

    // Re-gather the matched pairs (the paper's zero-global-memory choice:
    // step 2 kept none) and accumulate the tile's values.
    const std::vector<MatchedPair>& pairs =
        ws.slot(worker_rank()).match(a, b_csc, ws.occ, tile_i, tile_j);
    T slots[kTileNnzMax];
    if constexpr (std::is_same_v<Semiring, PlusTimes<T>>) {
      const detail::AccumulatePath path = detail::accumulate_tile_values(
          a, b, pairs.data(), pairs.size(), mask_c, row_ptr_c, nnz_c, masked, slots, nops);
      if (detail_metrics) {
        (path == detail::AccumulatePath::kRankScatter ? m_walk : m_rows).inc();
      }
    } else {
      // Reassociating a caller's reduce into the row kernel is not the
      // dispatch family's call to make: the walk takes every tile.
      if (masked) {
        detail::accumulate_pairs_walk<Semiring, true>(a, b, pairs.data(), pairs.size(), mask_c,
                                                      row_ptr_c, nnz_c, slots);
      } else {
        detail::accumulate_pairs_walk<Semiring, false>(a, b, pairs.data(), pairs.size(),
                                                       mask_c, row_ptr_c, nnz_c, slots);
      }
      if (detail_metrics) m_walk.inc();
    }

    // The tile's values, in storage order, land in C's layout: one
    // contiguous run of the tile arrays, or one segment per local row of
    // the CSR rows, at the place the offset pass fixed.
    if (csr_out != nullptr) {
      write_tile_rows(mask_c, slots, tile_j * kTileDim,
                      csr_out->row_ptr.data() + static_cast<std::size_t>(tile_i) * kTileDim,
                      out.place->offsets_of(t), csr_out->col_idx.data(), csr_out->val.data());
    } else {
      std::copy_n(slots, nnz_c, tile_out->val.data() + nz_base);
    }
  });
}

/// A numeric pass as the pipeline takes it: one step3_numeric instance,
/// chosen per call.
template <class T>
using Step3Fn = void (*)(const TileMatrix<T>&, const TileMatrix<T>&, const TileLayoutCsc&,
                         const TileStructure&, simd::Level, const Step2Result&,
                         SpgemmWorkspace<T>&, const ExecutionPlan&, const Step3Output<T>&);

extern template void step3_numeric<PlusTimes<double>>(
    const TileMatrix<double>&, const TileMatrix<double>&, const TileLayoutCsc&,
    const TileStructure&, simd::Level, const Step2Result&,
    SpgemmWorkspace<double>&, const ExecutionPlan&, const Step3Output<double>&);
extern template void step3_numeric<PlusTimes<float>>(
    const TileMatrix<float>&, const TileMatrix<float>&, const TileLayoutCsc&,
    const TileStructure&, simd::Level, const Step2Result&,
    SpgemmWorkspace<float>&, const ExecutionPlan&, const Step3Output<float>&);

}  // namespace tsg
