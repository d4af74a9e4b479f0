// TileSpGEMM — the paper's contribution: C = A*B where A, B, C are stored
// as sparse 16x16 tiles. Three steps (Section 3.3):
//   1. symbolic SpGEMM on the tile layouts -> tile structure of C
//   2. per-tile set intersection + bit-mask symbolic -> nnz / row pointers /
//      masks of every C tile; allocate C once
//   3. numeric phase: a dispatched B-row multiply-add into a dense tile
//
// Public entry points:
//   * SpgemmContext::try_run(Request) — the execution engine
//                      (spgemm_context.h): every product (plain, A*B^T,
//                      masked, any semiring) on CSR or tile operands, with
//                      pooled workspaces reused across calls and failures
//                      returned as a Status.
//   * tile_spgemm()  — one-shot C = A*B on tile operands through a
//                      transient context, with per-step timings (Fig. 10)
//   * spgemm_tile()  — one-shot C = A*B in CSR, the drop-in comparator used
//                      by the benches and tests
#pragma once

#include <array>
#include <cstddef>
#include <memory>

#include "core/step3.h"
#include "core/tile_convert.h"
#include "matrix/csr.h"

namespace tsg::obs {
struct MetricsSnapshot;
}  // namespace tsg::obs

namespace tsg {

/// Per-step wall-clock attribution, matching the paper's Fig. 10 categories
/// plus the scheduling counters of the SpgemmContext engine.
struct TileSpgemmTimings {
  double step1_ms = 0.0;    ///< tile-structure symbolic SpGEMM
  double step2_ms = 0.0;    ///< per-tile symbolic (intersection + masks)
  double step3_ms = 0.0;    ///< numeric accumulation
  /// Memory allocation for C (and views); on the CSR path also the offset
  /// pass that fixes where C's tiles land in CSR.
  double alloc_ms = 0.0;
  double plan_ms = 0.0;     ///< cost model + binned schedule construction
  /// CSR->tile conversion of the operands (zero for tile-native runs). The
  /// CSR path has no tile->CSR conversion of C: step 3 writes C's CSR rows
  /// directly, so C's assembly lands in alloc_ms and step3_ms instead.
  double convert_ms = 0.0;

  /// Tiles per cost bin (bin 0 lightest).
  std::array<offset_t, kCostBins> bin_tiles{};
  offset_t scheduled_tiles = 0;     ///< C tiles visited by steps 2/3
  /// Always 0: the engine has no fused step-2+3 path. Kept only because the
  /// end-to-end benchmark still reads it; remove it with that reader.
  offset_t fused_tiles = 0;
  /// Kernel dispatch level the run executed at (numeric value of
  /// simd::Level: 0 scalar, 1 swar, 2 avx2, 3 avx512).
  int simd_level = 0;
  std::size_t workspace_bytes = 0;  ///< pooled workspace footprint after the run
  /// Execution chunks the run was split into. 1 = single shot; >= 2 means
  /// the modeled device budget forced graceful degradation over C's tile
  /// rows (results are bit-identical either way).
  int chunks = 1;
  /// True when the estimated footprint exceeded the device budget and the
  /// run degraded to chunked execution (the Fig. 9 "completes where others
  /// fail" scenario, now enforced rather than merely modeled).
  bool budget_limited = false;
  /// Registry activity of this run (counters/histograms as deltas, gauges
  /// as end-of-run values). Populated only when the context ran with
  /// metrics detail enabled (Config::with_metrics / TSG_METRICS); null
  /// otherwise — the always-on counters still accumulate in the global
  /// obs::MetricsRegistry either way.
  std::shared_ptr<const obs::MetricsSnapshot> metrics;

  /// Algorithm time: the paper's Fig. 10 categories plus plan construction.
  double core_ms() const {
    return step1_ms + step2_ms + step3_ms + alloc_ms + plan_ms;
  }
  /// End-to-end time including CSR<->tile conversion (Fig. 12's numerator
  /// plus denominator; conversion is excluded from the paper's algorithm
  /// timings, Section 4.6).
  double total_ms() const { return core_ms() + convert_ms; }
};

/// C and the timings of the run that made it. `Matrix` is the operands'
/// form, Csr<T> or TileMatrix<T>: C comes back in it.
template <class Matrix>
struct SpgemmResult {
  Matrix c;
  TileSpgemmTimings timings;
};

template <class T>
using TileSpgemmResult = SpgemmResult<TileMatrix<T>>;

/// C = A * B on tile-format operands through a transient SpgemmContext;
/// throws tsg::Error carrying the Status on failure.
template <class T>
TileSpgemmResult<T> tile_spgemm(const TileMatrix<T>& a, const TileMatrix<T>& b);

/// C = A * B in CSR through a transient SpgemmContext: the operands are
/// converted, and step 3 writes C's CSR rows directly. Throws tsg::Error
/// carrying the Status on failure. For the timings (conversion included,
/// in convert_ms), run a CSR Request on a context.
template <class T>
Csr<T> spgemm_tile(const Csr<T>& a, const Csr<T>& b);

extern template TileSpgemmResult<double> tile_spgemm(const TileMatrix<double>&,
                                                     const TileMatrix<double>&);
extern template TileSpgemmResult<float> tile_spgemm(const TileMatrix<float>&,
                                                    const TileMatrix<float>&);
extern template Csr<double> spgemm_tile(const Csr<double>&, const Csr<double>&);
extern template Csr<float> spgemm_tile(const Csr<float>&, const Csr<float>&);

}  // namespace tsg
