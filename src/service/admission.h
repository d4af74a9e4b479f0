// Admission-control footprint estimation for SpgemmService.
//
// The context's own budget planner (plan_budget, spgemm_context.cpp) bounds
// a multiply's device footprint *after* step 1 has fixed C's tile
// structure. A service deciding whether to admit a request cannot afford to
// run step 1 on the submission thread, so this header computes the same
// kind of bound from the CSR operands alone, in one O(nnz(A) + nnz(B))
// pass: it counts A's occupied tiles per tile-column and B's occupied
// tiles per tile-row exactly, and from them bounds the number of matched
// tile pairs, which also bounds ntiles(C): the planner charges one constant
// bound per C tile. OCEAN-style estimate-before-execute (PAPERS.md): plan
// in O(sample-ish), execute only what was admitted.
//
// The estimate is deliberately an *upper bound*, never an undercount, so
// admission decisions made from it are always safe: a request admitted as
// "fits" may still be degraded by the context's authoritative post-step-1
// check, but a request this header calls over-budget genuinely is.
#pragma once

#include <cstddef>

#include "matrix/csr.h"

namespace tsg::service {

/// Upper bound on the device-side footprint of C = A * B in bytes, plus
/// the intermediate counts it was derived from (reported through the
/// service metrics so operators can see *why* a request was degraded).
struct FootprintEstimate {
  std::size_t bytes = 0;        ///< SIZE_MAX when the arithmetic saturated
  std::size_t tile_pairs = 0;   ///< bound on matched (A_ik, B_kj) tile pairs
  std::size_t c_tiles = 0;      ///< bound on nonzero tiles of C
};

/// Estimate the footprint of C = A * B from CSR operands. `b` may alias `a`
/// (the C = A*A case); the scan then runs once. Both operands must be
/// structurally valid CSR (the service validates before estimating).
FootprintEstimate estimate_footprint(const Csr<double>& a, const Csr<double>& b);

}  // namespace tsg::service
