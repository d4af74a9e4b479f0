// Synthetic sparse-matrix generators.
//
// The paper evaluates on SuiteSparse matrices, which are not available in
// this offline environment. These generators produce deterministic matrices
// spanning the same structural classes the paper's dataset covers:
//   * FEM/stencil matrices (pdb1HYS, cant, pwtk, af_shell10, ...):
//     clustered_rows / stencil_* / banded
//   * power-law web/graph matrices (webbase-1M, wiki-Vote): rmat
//   * hyper-sparse circuit/economics matrices (scircuit, mac_econ): erdos_renyi
//     with tiny average degree
//   * high-compression-rate matrices (SiO2, gupta3, TSOPF): dense_blocks
// Every generator is deterministic in its seed.
#pragma once

#include <cstdint>

#include "matrix/csr.h"

namespace tsg::gen {

/// Values are drawn uniformly from [lo, hi); defaults avoid zero so that
/// additive cancellation is the only source of explicit zeros in products.
struct ValueDist {
  double lo = 0.1;
  double hi = 1.1;
};

/// Uniformly random pattern with ~`nnz_target` nonzeros (duplicates are
/// merged, so the realised count can be slightly lower).
Csr<double> erdos_renyi(index_t rows, index_t cols, offset_t nnz_target, std::uint64_t seed,
                        ValueDist dist = {});

/// Recursive-matrix (R-MAT) power-law graph on n = 2^scale vertices with
/// ~edge_factor*n edges. Defaults (a,b,c) follow the Graph500 generator;
/// produces the few-very-long-rows skew of webbase-1M.
Csr<double> rmat(int scale, double edge_factor, std::uint64_t seed, double a = 0.57,
                 double b = 0.19, double c = 0.19, ValueDist dist = {});

/// 5-point Laplacian stencil on an nx-by-ny grid (n = nx*ny).
Csr<double> stencil_5pt(index_t nx, index_t ny);

/// 9-point stencil on an nx-by-ny grid.
Csr<double> stencil_9pt(index_t nx, index_t ny);

/// 27-point stencil on an nx-by-ny-by-nz grid.
Csr<double> stencil_27pt(index_t nx, index_t ny, index_t nz);

/// Band matrix: row i holds all columns in [i-half_bw, i+half_bw] (clipped).
/// A^2 of a band matrix has compression rate ~ half_bw, giving precise
/// control of the Fig. 6 x-axis.
Csr<double> banded(index_t n, index_t half_bw, std::uint64_t seed, ValueDist dist = {});

/// Block-diagonal matrix of `blocks` dense blocks of size `block_dim`
/// (n = blocks*block_dim). A^2 has compression rate ~ block_dim: the proxy
/// for gupta3/TSOPF-class matrices whose intermediate-product volume breaks
/// row-row methods.
Csr<double> dense_blocks(index_t blocks, index_t block_dim, std::uint64_t seed,
                         ValueDist dist = {});

/// FEM-style rows: each row holds `clusters` runs of `run_len` consecutive
/// columns around randomly placed centres (plus the diagonal), mimicking the
/// blocked structure of pdb1HYS / cant / shipsec1.
Csr<double> clustered_rows(index_t n, int clusters, int run_len, std::uint64_t seed,
                           ValueDist dist = {});

/// Column-plus-diagonal matrix: row i holds column 0 and column i (row 0
/// only column 0). Every tile row has at most two tiles while tile column 0
/// holds one tile per tile row, so A*A intersects two-tile rows of A with a
/// column of B as long as the matrix: the worst case for walking B's column
/// instead of searching it.
Csr<double> column_plus_diagonal(index_t n, std::uint64_t seed, ValueDist dist = {});

/// Symmetrise the pattern: returns A + A^T structure with A's values where
/// present (value of a mirrored-only entry is the mirrored value).
Csr<double> symmetrized(const Csr<double>& a);

/// Kronecker (tensor) product A (x) B: entry ((ia*rowsB+ib),(ja*colsB+jb))
/// = a[ia][ja] * b[ib][jb]. The classic recursive-graph construction
/// (Kronecker graphs generalise R-MAT) and a rich algebra for property
/// tests: (A (x) B)(C (x) D) = (AC) (x) (BD).
Csr<double> kronecker(const Csr<double>& a, const Csr<double>& b);

/// Cast values (structure shared) to another value type.
template <class Dst, class Src>
Csr<Dst> cast_values(const Csr<Src>& a) {
  Csr<Dst> out;
  out.rows = a.rows;
  out.cols = a.cols;
  out.row_ptr = a.row_ptr;
  out.col_idx = a.col_idx;
  out.val.reserve(a.val.size());
  for (const auto& v : a.val) out.val.push_back(static_cast<Dst>(v));
  return out;
}

}  // namespace tsg::gen
