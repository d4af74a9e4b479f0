// Step 2 of TileSpGEMM (Algorithm 2, Figures 4-5): for every tile of C,
// gather the matched (A_ik, B_kj) tile pairs by set intersection, OR the
// row masks of B selected by A's nonzeros into the C tile masks, and derive
// the per-tile nonzero count and local row pointer. All per-tile state is
// bounded by 16 masks / 256 nonzeros and lives on the stack — no global
// intermediate space, which is the paper's answer to performance issue #2.
// The matched pairs are not kept either: step 3 re-runs the intersection.
//
// The ExecutionPlan sets the visit order (the binned heavy-first schedule),
// carries the cancellation token and, for a masked product, M's row masks:
// they AND into each tile's words before its masks are derived, so C keeps
// only the product's entries inside M.
#pragma once

#include <cstdint>

#include "core/options.h"
#include "core/step1.h"

namespace tsg {

struct ExecutionPlan;
template <class T>
struct SpgemmWorkspace;

/// Per-tile symbolic results for C. The three arrays are fresh allocations
/// (they are moved into the output matrix); every scratch buffer the pass
/// uses comes from the workspace.
struct Step2Result {
  tracked_vector<offset_t> tile_nnz;    ///< size numtiles+1, offsets
  tracked_vector<std::uint8_t> row_ptr; ///< numtiles*16 local row pointers
  tracked_vector<rowmask_t> mask;       ///< numtiles*16 row masks

  offset_t nnz() const { return tile_nnz.empty() ? 0 : tile_nnz.back(); }
};

/// Symbolic per-tile pass over C's tile structure: step 1's exact one,
/// where every tile has a live pair, or a masked product's M, whose tiles
/// may come out empty. Every tile derives all 16 of its masks and row
/// pointers. `b_csc` is the column-major view of B's tile layout
/// (tileColPtr_B / tileRowidx_B in Algorithm 2). `ws` supplies the
/// per-thread intersection scratch and the occupancy words; `plan` sets the
/// visit order and the mask.
template <class T>
Step2Result step2_symbolic(const TileMatrix<T>& a, const TileMatrix<T>& b,
                           const TileLayoutCsc& b_csc, const TileStructure& structure,
                           const TileSpgemmOptions& options, SpgemmWorkspace<T>& ws,
                           const ExecutionPlan& plan);

extern template Step2Result step2_symbolic(const TileMatrix<double>&, const TileMatrix<double>&,
                                           const TileLayoutCsc&, const TileStructure&,
                                           const TileSpgemmOptions&, SpgemmWorkspace<double>&,
                                           const ExecutionPlan&);
extern template Step2Result step2_symbolic(const TileMatrix<float>&, const TileMatrix<float>&,
                                           const TileLayoutCsc&, const TileStructure&,
                                           const TileSpgemmOptions&, SpgemmWorkspace<float>&,
                                           const ExecutionPlan&);

}  // namespace tsg
