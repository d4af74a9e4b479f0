#include "core/tile_spgemm.h"

#include <utility>

#include "core/spgemm_context.h"

namespace tsg {

// The one-shot forms: each call runs one Request on a transient context,
// so iterated workloads hold a context instead and reuse its pooled
// workspaces.

template <class T>
TileSpgemmResult<T> tile_spgemm(const TileMatrix<T>& a, const TileMatrix<T>& b) {
  return SpgemmContext{}.try_run(Request<TileMatrix<T>>{&a, &b}).value();
}

template <class T>
Csr<T> spgemm_tile(const Csr<T>& a, const Csr<T>& b) {
  return SpgemmContext{}.try_run(Request<Csr<T>>{&a, &b}).value().c;
}

template TileSpgemmResult<double> tile_spgemm(const TileMatrix<double>&,
                                              const TileMatrix<double>&);
template TileSpgemmResult<float> tile_spgemm(const TileMatrix<float>&, const TileMatrix<float>&);
template Csr<double> spgemm_tile(const Csr<double>&, const Csr<double>&);
template Csr<float> spgemm_tile(const Csr<float>&, const Csr<float>&);

}  // namespace tsg
