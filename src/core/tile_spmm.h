// Sparse-matrix times dense-matrix (SpMM) on the tile format: Y = A * X
// with X, Y dense row-major. SpMM is the other level-3 workhorse the
// paper's introduction situates SpGEMM against (GNN feature propagation,
// blocked Krylov methods); supporting it on the same storage completes the
// tiled kernel family (SpMV, SpMM, SpGEMM, add, transpose).
#pragma once

#include <cstddef>

#include "core/tile_format.h"

namespace tsg {

/// Dense row-major matrix of size rows x cols (leading dimension = cols).
template <class T>
struct DenseMatrix {
  index_t rows = 0;
  index_t cols = 0;
  tracked_vector<T> data;

  DenseMatrix() = default;
  /// Zero-filled: tile_spmm accumulates into it.
  DenseMatrix(index_t r, index_t c)
      : rows(r),
        cols(c),
        data(checked_size_mul(static_cast<std::size_t>(r), static_cast<std::size_t>(c)), T{}) {}

  T& at(index_t r, index_t c) {
    return data[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols) +
                static_cast<std::size_t>(c)];
  }
  const T& at(index_t r, index_t c) const {
    return data[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols) +
                static_cast<std::size_t>(c)];
  }
};

/// Y = A * X. One task per tile row of A; each tile streams its nonzeros
/// against X's 16-row panel.
template <class T>
DenseMatrix<T> tile_spmm(const TileMatrix<T>& a, const DenseMatrix<T>& x);

extern template struct DenseMatrix<double>;
extern template struct DenseMatrix<float>;
extern template DenseMatrix<double> tile_spmm(const TileMatrix<double>&,
                                              const DenseMatrix<double>&);
extern template DenseMatrix<float> tile_spmm(const TileMatrix<float>&,
                                             const DenseMatrix<float>&);

}  // namespace tsg
