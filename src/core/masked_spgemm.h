// Masked SpGEMM on the tile format: C = (A*B) .* structure(M).
//
// The GraphBLAS-style masked product is the natural extension of
// TileSpGEMM for the graph workloads the paper motivates (triangle
// counting computes (L*L).*L). The mask composes with the tile design as a
// step-2 filter: M's tile layout takes the place of step 1's, so no output
// tile outside M exists, and M's 16-bit row masks AND into each tile's
// step-2 words, so C's masks hold only the product's entries inside M and
// the dense intermediate (L*L) is never materialised. Step 3 is the plain
// product's: up to 16 nonzeros per tile the rank-indexed walk skips every
// product outside the mask, and above that the row kernel multiplies whole
// B rows and the compress drops the entries outside it (DESIGN.md).
#pragma once

#include "core/step1.h"
#include "core/tile_spgemm.h"

namespace tsg {

/// C = (A*B) .* structure(mask). Values come from the product; entries of
/// the product outside the mask's pattern are dropped. C keeps every tile
/// of the mask, empty ones included. Transient-context wrapper around
/// SpgemmContext::run_masked — iterated callers should hold a context
/// instead (see spgemm_context.h).
template <class T>
TileMatrix<T> tile_spgemm_masked(const TileMatrix<T>& a, const TileMatrix<T>& b,
                                 const TileMatrix<T>& mask,
                                 const TileSpgemmOptions& options = {});

/// CSR convenience wrapper.
template <class T>
Csr<T> spgemm_tile_masked(const Csr<T>& a, const Csr<T>& b, const Csr<T>& mask,
                          const TileSpgemmOptions& options = {});

extern template TileMatrix<double> tile_spgemm_masked(const TileMatrix<double>&,
                                                      const TileMatrix<double>&,
                                                      const TileMatrix<double>&,
                                                      const TileSpgemmOptions&);
extern template TileMatrix<float> tile_spgemm_masked(const TileMatrix<float>&,
                                                     const TileMatrix<float>&,
                                                     const TileMatrix<float>&,
                                                     const TileSpgemmOptions&);
extern template Csr<double> spgemm_tile_masked(const Csr<double>&, const Csr<double>&,
                                               const Csr<double>&, const TileSpgemmOptions&);
extern template Csr<float> spgemm_tile_masked(const Csr<float>&, const Csr<float>&,
                                              const Csr<float>&, const TileSpgemmOptions&);

}  // namespace tsg
