// Semiring-generic TileSpGEMM and SpMV. A semiring product is a Request
// whose Semiring parameter is not plus-times:
//
//     ctx.try_run(Request<Csr<double>, MinPlus<double>>{&a, &b})
//
// runs the context's one pipeline (steps 1 and 2 are purely structural)
// with step 3's numeric pass instantiated for the semiring's
// identity/combine/reduce (step3.h), under the same contract as any other
// request.
//
// Semantics note: the output structure is the *structural* product — an
// entry exists wherever at least one (A_ik, B_kj) product lands, with value
// reduce over those products. For semirings whose identity annihilates
// (min-plus: +inf) this is exactly the algebraic product restricted to
// reachable entries.
#pragma once

#include <algorithm>

#include "common/parallel.h"
#include "core/semiring.h"
#include "core/spgemm_context.h"
#include "core/tile_convert.h"
#include "core/tile_spgemm.h"

namespace tsg {

/// C = A (x) B over the given semiring through a reusable context, tile
/// format in and out; throws tsg::Error carrying the Status. Kept only
/// because the end-to-end benchmark (perfbench/) calls it; new code runs a
/// Request.
template <class Semiring, class T>
TileMatrix<T> tile_spgemm_semiring(SpgemmContext& ctx, const TileMatrix<T>& a,
                                   const TileMatrix<T>& b) {
  return ctx.try_run(Request<TileMatrix<T>, Semiring>{&a, &b}).value().c;
}

/// Semiring SpMV on the tile format: y = A (x) x with a dense vector whose
/// "missing" entries are the semiring identity.
template <class Semiring, class T>
void tile_spmv_semiring(const TileMatrix<T>& a, const tracked_vector<T>& x,
                        tracked_vector<T>& y) {
  if (static_cast<index_t>(x.size()) != a.cols) {
    throw Error(Status::dimension_mismatch("tile_spmv_semiring: x size mismatch"));
  }
  y.assign(static_cast<std::size_t>(a.rows), Semiring::identity());
  parallel_for(index_t{0}, a.tile_rows, [&](index_t tr) {
    T lanes[kTileDim];
    for (index_t r = 0; r < kTileDim; ++r) lanes[r] = Semiring::identity();
    for (offset_t t = a.tile_ptr[tr]; t < a.tile_ptr[tr + 1]; ++t) {
      const index_t col_base = a.tile_col_idx[t] * kTileDim;
      const offset_t nz_base = a.tile_nnz[static_cast<std::size_t>(t)];
      const index_t count = a.tile_nnz_of(t);
      for (index_t k = 0; k < count; ++k) {
        const std::size_t g = static_cast<std::size_t>(nz_base + k);
        T& lane = lanes[a.row_idx[g]];
        lane = Semiring::reduce(
            lane, Semiring::combine(a.val[g],
                                    x[static_cast<std::size_t>(col_base + a.col_idx[g])]));
      }
    }
    const index_t row_base = tr * kTileDim;
    const index_t row_end = std::min<index_t>(row_base + kTileDim, a.rows);
    for (index_t r = row_base; r < row_end; ++r) {
      y[static_cast<std::size_t>(r)] = lanes[r - row_base];
    }
  });
}

}  // namespace tsg
