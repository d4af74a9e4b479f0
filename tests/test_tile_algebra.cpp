// Cross-kernel algebraic identities on the tile-native operations: these
// tie SpGEMM, add, transpose, SpMV and the masked product together, so a
// regression in any one of them breaks an equation rather than a single
// unit expectation.
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/spgemm_context.h"
#include "core/tile_add.h"
#include "core/tile_spgemm.h"
#include "core/tile_spmv.h"
#include "core/tile_transpose.h"
#include "gen/generators.h"
#include "matrix/compare.h"
#include "matrix/ops.h"
#include "test_support.h"

namespace tsg {
namespace {

class TileAlgebra : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Csr<double> a_ = gen::erdos_renyi(120, 120, 900, GetParam());
  Csr<double> b_ = gen::erdos_renyi(120, 120, 850, GetParam() + 100);
  TileMatrix<double> ta_ = csr_to_tile(a_);
  TileMatrix<double> tb_ = csr_to_tile(b_);
};

TEST_P(TileAlgebra, RightDistributivityAllTileNative) {
  // (A+B)*C == A*C + B*C computed entirely with tile kernels.
  const Csr<double> c = gen::erdos_renyi(120, 120, 700, GetParam() + 200);
  const TileMatrix<double> tc = csr_to_tile(c);
  const TileMatrix<double> lhs = tile_spgemm(tile_add(ta_, tb_), tc).c;
  const TileMatrix<double> rhs = tile_add(tile_spgemm(ta_, tc).c, tile_spgemm(tb_, tc).c);
  CompareOptions opt;
  opt.rel_tol = 1e-9;
  opt.prune_zeros = true;
  opt.prune_tol = 1e-10;
  const CompareResult r = compare(tile_to_csr(rhs), tile_to_csr(lhs), opt);
  EXPECT_TRUE(r.equal) << r.message;
}

TEST_P(TileAlgebra, TransposeOfProductTileNative) {
  // (A*B)^T == B^T * A^T with tile_transpose on both sides.
  const TileMatrix<double> lhs = tile_transpose(tile_spgemm(ta_, tb_).c);
  const TileMatrix<double> rhs = tile_spgemm(tile_transpose(tb_), tile_transpose(ta_)).c;
  test::expect_equal(tile_to_csr(rhs), tile_to_csr(lhs), "(AB)^T tile-native");
}

TEST_P(TileAlgebra, SpmvDistributesOverAdd) {
  // (A+B)x == Ax + Bx.
  Xoshiro256 rng(GetParam() + 300);
  tracked_vector<double> x(120);
  for (auto& v : x) v = rng.next_double() - 0.5;
  tracked_vector<double> sum_then_apply, ya, yb;
  tile_spmv(tile_add(ta_, tb_), x, sum_then_apply);
  tile_spmv(ta_, x, ya);
  tile_spmv(tb_, x, yb);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_NEAR(sum_then_apply[i], ya[i] + yb[i], 1e-10) << i;
  }
}

TEST_P(TileAlgebra, ProductActionEqualsComposedAction) {
  // (A*B) x == A (B x): SpGEMM and SpMV agree on the operator they define.
  Xoshiro256 rng(GetParam() + 400);
  tracked_vector<double> x(120);
  for (auto& v : x) v = rng.next_double() - 0.5;
  tracked_vector<double> via_product, bx, via_composition;
  tile_spmv(tile_spgemm(ta_, tb_).c, x, via_product);
  tile_spmv(tb_, x, bx);
  tile_spmv(ta_, bx, via_composition);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_NEAR(via_product[i], via_composition[i],
                1e-9 * (std::abs(via_composition[i]) + 1.0))
        << i;
  }
}

TEST_P(TileAlgebra, MaskedProductIsRestrictionOfFullProduct) {
  // masked(A,B,M) entries == full product entries on M's pattern; and the
  // masked result never exceeds M's pattern.
  const Csr<double> m = gen::erdos_renyi(120, 120, 400, GetParam() + 500);
  const TileMatrix<double> tm = csr_to_tile(m);
  const Csr<double> masked = tile_to_csr(
      SpgemmContext{}.try_run(Request<TileMatrix<double>>{&ta_, &tb_, &tm}).value().c);
  const Csr<double> full = tile_to_csr(tile_spgemm(ta_, tb_).c);
  const Csr<double> expected = structural_mask(full, m);
  test::expect_equal(expected, masked, "masked = restricted product");
  // Pattern containment in M.
  const Csr<double> h = hadamard(masked, m);
  EXPECT_EQ(h.nnz(), masked.nnz());
}

TEST_P(TileAlgebra, AddIsCommutativeAndScales) {
  const Csr<double> ab = tile_to_csr(tile_add(ta_, tb_, 2.0, 3.0));
  const Csr<double> ba = tile_to_csr(tile_add(tb_, ta_, 3.0, 2.0));
  test::expect_equal(ab, ba, "tile_add commutes with swapped coefficients", 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TileAlgebra, ::testing::Values(1u, 2u, 3u, 4u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace tsg
