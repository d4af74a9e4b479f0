// Semiring-generic TileSpGEMM: the context's one pipeline (steps 1 and 2
// are purely structural), with step 3's numeric pass instantiated for the
// semiring's identity/combine/reduce (SpgemmContext::try_run_semiring,
// step3.h).
//
// Semantics note: the output structure is the *structural* product — an
// entry exists wherever at least one (A_ik, B_kj) product lands, with value
// reduce over those products. For semirings whose identity annihilates
// (min-plus: +inf) this is exactly the algebraic product restricted to
// reachable entries.
#pragma once

#include <algorithm>
#include <utility>

#include "common/parallel.h"
#include "core/semiring.h"
#include "core/spgemm_context.h"
#include "core/tile_convert.h"
#include "core/tile_spgemm.h"

namespace tsg {

/// C = A (x) B over the given semiring through a reusable context: the
/// throwing form of SpgemmContext::try_run_semiring (tsg::Error carries the
/// Status).
template <class Semiring, class T>
TileMatrix<T> tile_spgemm_semiring(SpgemmContext& ctx, const TileMatrix<T>& a,
                                   const TileMatrix<T>& b) {
  return std::move(ctx.try_run_semiring<Semiring>(a, b)).value().c;
}

/// C = A (x) B over the given semiring, tile format in and out (transient
/// context).
template <class Semiring, class T>
TileMatrix<T> tile_spgemm_semiring(const TileMatrix<T>& a, const TileMatrix<T>& b,
                                   const TileSpgemmOptions& options = {}) {
  SpgemmContext ctx(SpgemmContext::Config{}.with_options(options));
  return tile_spgemm_semiring<Semiring>(ctx, a, b);
}

/// CSR convenience wrapper.
template <class Semiring, class T>
Csr<T> spgemm_semiring(const Csr<T>& a, const Csr<T>& b,
                       const TileSpgemmOptions& options = {}) {
  return tile_to_csr(tile_spgemm_semiring<Semiring>(csr_to_tile(a), csr_to_tile(b), options));
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
