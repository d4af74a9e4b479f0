// Step 3 of TileSpGEMM (Algorithm 3): the numeric phase. For every tile of
// C the matched tile pairs are re-gathered (the intersection is cheap and
// re-running it avoids storing pair lists in global memory, as on the GPU)
// and the products are accumulated into a dense 16x16 tile on the stack,
// one dispatched B-row multiply-add per A nonzero (only the lanes in B's
// row mask change), then compressed through C's masks. This departs from
// the paper's tnnz = 192 switch between a sparse and a dense accumulator
// (DESIGN.md says why); only tiles of at most detail::kRankScatterMaxNnz
// nonzeros keep the rank-indexed scatter straight into their final slots.
//
// When the ExecutionPlan enabled the pair cache, step 2 left each tile's
// matched pairs in the workspace and this pass skips the re-intersection;
// when it enabled fusion, light tiles arrive with their values already
// staged and only need copying into place.
#pragma once

#include "core/step2.h"

namespace tsg {

/// Numeric pass: fills the low-level arrays of C (row_idx/col_idx/val).
/// `c` must already carry its high-level structure and the step-2 results;
/// see spgemm_context.cpp for the assembly. `ws` holds the per-thread
/// intersection scratch plus any pair-cache / staged-value records written
/// by step 2 under the same plan.
template <class T>
void step3_numeric(const TileMatrix<T>& a, const TileMatrix<T>& b,
                   const TileLayoutCsc& b_csc, const TileStructure& structure,
                   const TileSpgemmOptions& options, TileMatrix<T>& c,
                   SpgemmWorkspace<T>& ws, const ExecutionPlan& plan);

extern template void step3_numeric(const TileMatrix<double>&, const TileMatrix<double>&,
                                   const TileLayoutCsc&, const TileStructure&,
                                   const TileSpgemmOptions&, TileMatrix<double>&,
                                   SpgemmWorkspace<double>&, const ExecutionPlan&);
extern template void step3_numeric(const TileMatrix<float>&, const TileMatrix<float>&,
                                   const TileLayoutCsc&, const TileStructure&,
                                   const TileSpgemmOptions&, TileMatrix<float>&,
                                   SpgemmWorkspace<float>&, const ExecutionPlan&);

}  // namespace tsg
