// Algebraic-multigrid Galerkin products — the flagship SpGEMM application
// the paper cites (Section 4.6: "AMG solvers use the output matrices from
// an SpGEMM as the input of another SpGEMM in the next round", which is
// what amortises the one-off tile-format conversion).
//
// This example builds a 2D Poisson problem, constructs a hierarchy of
// coarse grids with piecewise aggregation, and forms each coarse operator
// A_{l+1} = R * A_l * P via two chained TileSpGEMM calls, verifying the
// Galerkin identities along the way.
#include <iostream>
#include <vector>

#include "core/spgemm_context.h"
#include "gen/generators.h"
#include "matrix/convert.h"
#include "matrix/stats.h"
#include "matrix/transpose.h"

namespace {

using namespace tsg;

/// Piecewise-constant aggregation prolongator: groups of `agg` consecutive
/// fine points map to one coarse point.
Csr<double> aggregation_prolongator(index_t fine_n, index_t agg) {
  const index_t coarse_n = (fine_n + agg - 1) / agg;
  Coo<double> coo;
  coo.rows = fine_n;
  coo.cols = coarse_n;
  for (index_t i = 0; i < fine_n; ++i) coo.push_back(i, i / agg, 1.0);
  return coo_to_csr(std::move(coo));
}

}  // namespace

int main() {
  // Fine-level operator: 5-point Laplacian on a 128x128 grid.
  Csr<double> a_fine = gen::stencil_5pt(128, 128);
  std::cout << "AMG setup via Galerkin triple products R*A*P (TileSpGEMM)\n";
  std::cout << "level 0: n = " << a_fine.rows << ", nnz = " << a_fine.nnz() << "\n";

  Csr<double> a = a_fine;
  // One context across the whole hierarchy: every Galerkin product on every
  // level reuses the same pooled workspaces.
  SpgemmContext ctx;
  int level = 0;
  while (a.rows > 64) {
    const Csr<double> p = aggregation_prolongator(a.rows, 4);
    const Csr<double> r = transpose(p);

    // The Galerkin product: two SpGEMMs. The paper's point: operands and
    // results stay in the tiled format across the chain, so conversion is
    // paid once per level, not per product.
    const SpgemmResult<Csr<double>> ap = ctx.try_run(Request<Csr<double>>{&a, &p}).value();
    const SpgemmResult<Csr<double>> rap =
        ctx.try_run(Request<Csr<double>>{&r, &ap.c}).value();
    const Csr<double>& a_coarse = rap.c;

    // Galerkin identity on the constant vector: since P*1 = 1,
    // (R*A*P)*1 = R*(A*1), i.e. each coarse row sum equals the sum of the
    // fine row sums over its aggregate. Holds for any A, any aggregation.
    std::vector<double> fine_row_sum(static_cast<std::size_t>(a.rows), 0.0);
    for (index_t i = 0; i < a.rows; ++i) {
      for (offset_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
        fine_row_sum[static_cast<std::size_t>(i)] += a.val[k];
      }
    }
    double max_err = 0.0;
    for (index_t ci = 0; ci < a_coarse.rows; ++ci) {
      double coarse_sum = 0.0;
      for (offset_t k = a_coarse.row_ptr[ci]; k < a_coarse.row_ptr[ci + 1]; ++k) {
        coarse_sum += a_coarse.val[k];
      }
      double expected = 0.0;
      for (offset_t k = r.row_ptr[ci]; k < r.row_ptr[ci + 1]; ++k) {
        expected += r.val[k] * fine_row_sum[static_cast<std::size_t>(r.col_idx[k])];
      }
      max_err = std::max(max_err, std::abs(coarse_sum - expected));
    }

    ++level;
    std::cout << "level " << level << ": n = " << a_coarse.rows
              << ", nnz = " << a_coarse.nnz()
              << ", spgemm time " << ap.timings.total_ms() + rap.timings.total_ms() << " ms"
              << ", Galerkin identity error " << max_err << "\n";
    if (max_err > 1e-8) {
      std::cerr << "Galerkin identity violated!\n";
      return 1;
    }
    a = a_coarse;
  }

  std::cout << "hierarchy complete: " << level + 1 << " levels\n";
  return 0;
}
