#include "core/step3.h"

#include <algorithm>
#include <vector>

#include "common/parallel.h"
#include "core/simd_dispatch.h"
#include "core/spgemm_workspace.h"
#include "core/tile_kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tsg {

template <class T>
void step3_numeric(const TileMatrix<T>& a, const TileMatrix<T>& b,
                   const TileLayoutCsc& b_csc, const TileStructure& structure,
                   const TileSpgemmOptions& options, const Step2Result& symbolic,
                   SpgemmWorkspace<T>& ws, const ExecutionPlan& plan,
                   const Step3Output<T>& out) {
  const offset_t ntiles = structure.num_tiles();
  ws.ensure_threads(max_workers());
  ws.reset_row_index(a.tile_cols);

  TileMatrix<T>* const tile_out = out.tile;
  Csr<T>* const csr_out = out.csr;
  // Numeric kernel table, resolved once per call. Materialize is safe to
  // aim at C's shared arrays at every level (exact-store contract); the
  // dense compress only ever targets the local `slots` scratch.
  const simd::NumericOps& nops = simd::numeric_ops(effective_simd_level(options));

  // Per-tile detail instruments (see step2.cpp); the gate is read once per
  // call so the hot loop branches on a local bool.
  const bool detail_metrics = obs::metrics_detail_enabled();
  static obs::Counter& m_rows =
      obs::MetricsRegistry::instance().counter("spgemm.accumulate.row_kernel");
  static obs::Counter& m_scatter =
      obs::MetricsRegistry::instance().counter("spgemm.accumulate.rank_scatter");
  static obs::Histogram& m_visit_us = obs::MetricsRegistry::instance().histogram(
      "spgemm.tile_visit_us", {1, 2, 5, 10, 25, 50, 100, 1000});

  parallel_for(offset_t{0}, ntiles, [&](offset_t i) {
    // Guard, not inline observes: the empty-tile path leaves early and must
    // still land in the duration histogram.
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

    if (nnz_c == 0) return;  // step 1 may keep tiles that turned out empty
    // Tile layout: materialise the local row/column indices from the masks;
    // the mask bit order is the storage order.
    if (tile_out != nullptr) {
      nops.materialize(mask_c, tile_out->row_idx.data() + nz_base,
                       tile_out->col_idx.data() + nz_base);
    }

    // Re-gather the matched pairs (the paper's zero-global-memory choice:
    // step 2 kept none) and accumulate the tile's values.
    const std::vector<MatchedPair>& pairs =
        ws.slot(worker_rank()).match(a, b_csc, tile_i, tile_j);
    T slots[kTileNnzMax];
    const detail::AccumulatePath path = detail::accumulate_tile_values(
        a, b, pairs.data(), pairs.size(), mask_c, row_ptr_c, nnz_c, slots, nops);
    if (detail_metrics) {
      (path == detail::AccumulatePath::kRankScatter ? m_scatter : m_rows).inc();
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

template void step3_numeric(const TileMatrix<double>&, const TileMatrix<double>&,
                            const TileLayoutCsc&, const TileStructure&,
                            const TileSpgemmOptions&, const Step2Result&,
                            SpgemmWorkspace<double>&, const ExecutionPlan&,
                            const Step3Output<double>&);
template void step3_numeric(const TileMatrix<float>&, const TileMatrix<float>&,
                            const TileLayoutCsc&, const TileStructure&,
                            const TileSpgemmOptions&, const Step2Result&,
                            SpgemmWorkspace<float>&, const ExecutionPlan&,
                            const Step3Output<float>&);

}  // namespace tsg
