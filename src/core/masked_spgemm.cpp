#include "core/masked_spgemm.h"

#include "core/spgemm_context.h"
#include "core/tile_convert.h"

namespace tsg {

template <class T>
TileMatrix<T> tile_spgemm_masked(const TileMatrix<T>& a, const TileMatrix<T>& b,
                                 const TileMatrix<T>& mask,
                                 const TileSpgemmOptions& options) {
  SpgemmContext ctx(SpgemmContext::Config{}.with_options(options));
  return ctx.run_masked(a, b, mask);
}

template <class T>
Csr<T> spgemm_tile_masked(const Csr<T>& a, const Csr<T>& b, const Csr<T>& mask,
                          const TileSpgemmOptions& options) {
  return tile_to_csr(
      tile_spgemm_masked(csr_to_tile(a), csr_to_tile(b), csr_to_tile(mask), options));
}

template TileMatrix<double> tile_spgemm_masked(const TileMatrix<double>&,
                                               const TileMatrix<double>&,
                                               const TileMatrix<double>&,
                                               const TileSpgemmOptions&);
template TileMatrix<float> tile_spgemm_masked(const TileMatrix<float>&,
                                              const TileMatrix<float>&,
                                              const TileMatrix<float>&,
                                              const TileSpgemmOptions&);
template Csr<double> spgemm_tile_masked(const Csr<double>&, const Csr<double>&,
                                        const Csr<double>&, const TileSpgemmOptions&);
template Csr<float> spgemm_tile_masked(const Csr<float>&, const Csr<float>&,
                                       const Csr<float>&, const TileSpgemmOptions&);

}  // namespace tsg
