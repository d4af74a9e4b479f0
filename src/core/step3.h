// Step 3 of TileSpGEMM (Algorithm 3): the numeric phase. For every tile of
// C the matched tile pairs are re-gathered (the intersection is cheap and
// re-running it keeps no pair lists in global memory, as on the GPU; step 2
// leaves only the tile's masks, row pointers and nonzero count behind)
// and the products are accumulated into a dense 16x16 tile on the stack,
// one dispatched B-row multiply-add per A nonzero (only the lanes in B's
// row mask change), then compressed through C's masks. This departs from
// the paper's tnnz = 192 switch between a sparse and a dense accumulator
// (DESIGN.md says why); only tiles of at most detail::kRankScatterMaxNnz
// nonzeros keep the rank-indexed scatter straight into their final slots.
//
// C is written once, in the caller's layout: either the tile layout's
// low-level arrays, or, for a CSR caller, straight into C's CSR rows at the
// positions the offset pass (place_csr_rows) fixed from step 2's masks.
#pragma once

#include "core/step2.h"
#include "core/tile_convert.h"

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

/// Numeric pass over the tiles of `structure`, whose symbolic result step 2
/// left in `symbolic`. `ws` holds the per-thread intersection scratch; see
/// spgemm_context.cpp for the assembly around it.
template <class T>
void step3_numeric(const TileMatrix<T>& a, const TileMatrix<T>& b,
                   const TileLayoutCsc& b_csc, const TileStructure& structure,
                   const TileSpgemmOptions& options, const Step2Result& symbolic,
                   SpgemmWorkspace<T>& ws, const ExecutionPlan& plan,
                   const Step3Output<T>& out);

extern template void step3_numeric(const TileMatrix<double>&, const TileMatrix<double>&,
                                   const TileLayoutCsc&, const TileStructure&,
                                   const TileSpgemmOptions&, const Step2Result&,
                                   SpgemmWorkspace<double>&, const ExecutionPlan&,
                                   const Step3Output<double>&);
extern template void step3_numeric(const TileMatrix<float>&, const TileMatrix<float>&,
                                   const TileLayoutCsc&, const TileStructure&,
                                   const TileSpgemmOptions&, const Step2Result&,
                                   SpgemmWorkspace<float>&, const ExecutionPlan&,
                                   const Step3Output<float>&);

}  // namespace tsg
