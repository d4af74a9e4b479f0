// Extensions on the tile format: SpMV, addition, masked SpGEMM, and the
// input-aware dispatcher.
#include <gtest/gtest.h>

#include "baselines/auto_select.h"
#include "baselines/reference.h"
#include "common/random.h"
#include "core/spgemm_context.h"
#include "core/tile_add.h"
#include "core/tile_convert.h"
#include "core/tile_spmm.h"
#include "core/tile_spmv.h"
#include "core/tile_transpose.h"
#include "matrix/transpose.h"
#include "gen/generators.h"
#include "matrix/convert.h"
#include "matrix/ops.h"
#include "matrix/spmv.h"
#include "test_support.h"

namespace tsg {
namespace {

// ------------------------------------------------------------------ SpMV --

class TileSpmvSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TileSpmvSweep, MatchesCsrSpmv) {
  const Csr<double> a = gen::erdos_renyi(150 + 7 * static_cast<index_t>(GetParam()),
                                         90 + 11 * static_cast<index_t>(GetParam()), 1200,
                                         GetParam());
  const TileMatrix<double> t = csr_to_tile(a);
  tracked_vector<double> x(static_cast<std::size_t>(a.cols));
  Xoshiro256 rng(GetParam() + 99);
  for (auto& v : x) v = rng.next_double() - 0.5;

  tracked_vector<double> y_csr, y_tile;
  spmv(a, x, y_csr);
  tile_spmv(t, x, y_tile);
  ASSERT_EQ(y_csr.size(), y_tile.size());
  for (std::size_t i = 0; i < y_csr.size(); ++i) {
    EXPECT_NEAR(y_csr[i], y_tile[i], 1e-10) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TileSpmvSweep, ::testing::Values(1u, 2u, 3u, 4u));

TEST(TileSpmv, IdentityActsAsCopy) {
  const Csr<double> i = identity<double>(77);
  const TileMatrix<double> t = csr_to_tile(i);
  tracked_vector<double> x(77);
  for (std::size_t k = 0; k < 77; ++k) x[k] = static_cast<double>(k) * 0.25;
  tracked_vector<double> y;
  tile_spmv(t, x, y);
  EXPECT_EQ(x, y);
}

TEST(TileSpmv, SizeMismatchThrows) {
  const TileMatrix<double> t = csr_to_tile(gen::banded(40, 2, 5));
  tracked_vector<double> x(39), y;
  EXPECT_THROW(tile_spmv(t, x, y), std::invalid_argument);
}

TEST(TileSpmv, EmptyMatrixGivesZeroVector) {
  const TileMatrix<double> t = csr_to_tile(Csr<double>(30, 20));
  tracked_vector<double> x(20, 1.0), y;
  tile_spmv(t, x, y);
  ASSERT_EQ(y.size(), 30u);
  for (double v : y) EXPECT_EQ(v, 0.0);
}

// -------------------------------------------------------------- tile add --

class TileAddSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TileAddSweep, MatchesCsrAdd) {
  const std::uint64_t seed = GetParam();
  const Csr<double> a = gen::erdos_renyi(130, 110, 800, seed);
  const Csr<double> b = gen::erdos_renyi(130, 110, 700, seed + 10);
  const Csr<double> expected = add(a, b, 2.0, -0.5);
  const TileMatrix<double> tc = tile_add(csr_to_tile(a), csr_to_tile(b), 2.0, -0.5);
  ASSERT_TRUE(tc.validate().empty()) << tc.validate();
  test::expect_equal(expected, tile_to_csr(tc), "tile_add");
}

INSTANTIATE_TEST_SUITE_P(Seeds, TileAddSweep, ::testing::Values(11u, 12u, 13u, 14u));

TEST(TileAdd, DisjointAndIdenticalPatterns) {
  // Disjoint: nnz adds up.
  Coo<double> c1, c2;
  c1.rows = c1.cols = c2.rows = c2.cols = 40;
  for (index_t i = 0; i < 40; i += 2) c1.push_back(i, i, 1.0);
  for (index_t i = 1; i < 40; i += 2) c2.push_back(i, i, 2.0);
  const TileMatrix<double> sum =
      tile_add(csr_to_tile(coo_to_csr(std::move(c1))), csr_to_tile(coo_to_csr(std::move(c2))));
  EXPECT_EQ(sum.nnz(), 40);

  // Identical: A + (-1)*A has A's pattern with zero values (no pruning).
  const Csr<double> a = gen::banded(50, 3, 21);
  const TileMatrix<double> z = tile_add(csr_to_tile(a), csr_to_tile(a), 1.0, -1.0);
  EXPECT_EQ(z.nnz(), a.nnz());
  const Csr<double> zc = tile_to_csr(z);
  for (double v : zc.val) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(TileAdd, ShapeMismatchThrows) {
  const TileMatrix<double> a = csr_to_tile(gen::banded(30, 2, 22));
  const TileMatrix<double> b = csr_to_tile(gen::banded(31, 2, 23));
  EXPECT_THROW(tile_add(a, b), std::invalid_argument);
}

// --------------------------------------------------------- masked SpGEMM --

/// C = (A * B) .* structure(M), CSR in and out.
Csr<double> masked_product(const Csr<double>& a, const Csr<double>& b, const Csr<double>& m) {
  return SpgemmContext{}.try_run(Request<Csr<double>>{&a, &b, &m}).value().c;
}

class MaskedSpgemmSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaskedSpgemmSweep, EqualsHadamardOfFullProduct) {
  const std::uint64_t seed = GetParam();
  const Csr<double> a = gen::erdos_renyi(120, 120, 900, seed + 30);
  const Csr<double> m = gen::erdos_renyi(120, 120, 500, seed + 31);
  const Csr<double> full = spgemm_reference(a, a);
  const Csr<double> expected = structural_mask(full, m);
  const Csr<double> actual = masked_product(a, a, m);
  test::expect_equal(expected, actual, "masked spgemm");
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaskedSpgemmSweep, ::testing::Values(1u, 2u, 3u));

TEST(MaskedSpgemm, ColumnPlusDiagonalEqualsHadamardOfFullProduct) {
  // Both passes intersect two-tile A rows with B's full-length tile column 0
  // (the binary-search branch); the mask keeps column 0, the diagonal and a
  // random scatter.
  const Csr<double> a = test::make_col_diag();
  const Csr<double> m = add(a, gen::erdos_renyi(a.rows, a.cols, 3000, 33));
  const Csr<double> expected = structural_mask(spgemm_reference(a, a), m);
  test::expect_equal(expected, masked_product(a, a, m), "masked column+diagonal");
}

TEST(MaskedSpgemm, TriangleCountingFormulation) {
  // count = sum((L*L) .* L) — masked product never materialises L*L.
  Csr<double> g = gen::symmetrized(gen::erdos_renyi(200, 200, 1500, 41));
  for (auto& v : g.val) v = 1.0;
  const Csr<double> l = tril_strict(g);
  const Csr<double> masked = masked_product(l, l, l);
  const Csr<double> expected = structural_mask(spgemm_reference(l, l), l);
  EXPECT_NEAR(value_sum(masked), value_sum(expected), 1e-9);
}

TEST(MaskedSpgemm, EmptyMaskGivesEmptyResult) {
  const Csr<double> a = gen::banded(60, 4, 42);
  const Csr<double> empty(60, 60);
  EXPECT_EQ(masked_product(a, a, empty).nnz(), 0);
}

TEST(MaskedSpgemm, FullMaskEqualsUnmaskedProduct) {
  const Csr<double> a = gen::erdos_renyi(70, 70, 500, 43);
  // Dense mask (all ones).
  Coo<double> coo;
  coo.rows = coo.cols = 70;
  for (index_t i = 0; i < 70; ++i) {
    for (index_t j = 0; j < 70; ++j) coo.push_back(i, j, 1.0);
  }
  const Csr<double> full_mask = coo_to_csr(std::move(coo));
  test::expect_equal(spgemm_reference(a, a), masked_product(a, a, full_mask),
                     "full mask");
}

TEST(MaskedSpgemm, ShapeChecks) {
  const Csr<double> a = gen::erdos_renyi(20, 30, 100, 44);
  const Csr<double> b = gen::erdos_renyi(30, 25, 100, 45);
  const Csr<double> bad_mask = gen::erdos_renyi(20, 30, 50, 46);
  EXPECT_EQ(SpgemmContext{}.try_run(Request<Csr<double>>{&a, &b, &bad_mask}).status().code(),
            StatusCode::kDimensionMismatch);
}

// -------------------------------------------------------- tile transpose --

class TileTransposeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TileTransposeSweep, MatchesCsrTranspose) {
  const std::uint64_t seed = GetParam();
  const Csr<double> a = gen::erdos_renyi(140, 95, 1000, seed + 60);
  const TileMatrix<double> t = tile_transpose(csr_to_tile(a));
  ASSERT_TRUE(t.validate().empty()) << t.validate();
  test::expect_equal(transpose(a), tile_to_csr(t), "tile transpose", 1e-15);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TileTransposeSweep, ::testing::Values(1u, 2u, 3u, 4u));

TEST(TileTranspose, DoubleTransposeIsIdentity) {
  const Csr<double> a = gen::rmat(9, 5.0, 71);
  const TileMatrix<double> t = csr_to_tile(a);
  const TileMatrix<double> tt = tile_transpose(tile_transpose(t));
  ASSERT_TRUE(tt.validate().empty()) << tt.validate();
  test::expect_equal(a, tile_to_csr(tt), "transpose^2", 1e-15);
}

TEST(TileTranspose, FullTile) {
  const Csr<double> a = gen::dense_blocks(1, 16, 72);
  const TileMatrix<double> t = tile_transpose(csr_to_tile(a));
  EXPECT_EQ(t.nnz(), 256);
  test::expect_equal(transpose(a), tile_to_csr(t), "full tile transpose", 1e-15);
}

TEST(TileTranspose, EmptyAndRectangular) {
  const TileMatrix<double> e = tile_transpose(csr_to_tile(Csr<double>(33, 20)));
  EXPECT_EQ(e.rows, 20);
  EXPECT_EQ(e.cols, 33);
  EXPECT_EQ(e.nnz(), 0);
}

// -------------------------------------------------------------- tile SpMM --

TEST(TileSpmm, MatchesColumnwiseSpmv) {
  const Csr<double> a = gen::erdos_renyi(90, 60, 700, 81);
  const TileMatrix<double> t = csr_to_tile(a);
  DenseMatrix<double> x(60, 5);
  Xoshiro256 rng(82);
  for (auto& v : x.data) v = rng.next_double() - 0.5;

  const DenseMatrix<double> y = tile_spmm(t, x);
  ASSERT_EQ(y.rows, 90);
  ASSERT_EQ(y.cols, 5);

  for (index_t c = 0; c < 5; ++c) {
    tracked_vector<double> xc(60), yc;
    for (index_t r = 0; r < 60; ++r) xc[static_cast<std::size_t>(r)] = x.at(r, c);
    spmv(a, xc, yc);
    for (index_t r = 0; r < 90; ++r) {
      ASSERT_NEAR(yc[static_cast<std::size_t>(r)], y.at(r, c), 1e-10)
          << "(" << r << "," << c << ")";
    }
  }
}

TEST(TileSpmm, SingleColumnEqualsSpmv) {
  const Csr<double> a = gen::banded(128, 6, 83);
  const TileMatrix<double> t = csr_to_tile(a);
  DenseMatrix<double> x(128, 1);
  for (index_t r = 0; r < 128; ++r) x.at(r, 0) = 1.0 + 0.01 * r;
  tracked_vector<double> xv(x.data.begin(), x.data.end()), yv;
  tile_spmv(t, xv, yv);
  const DenseMatrix<double> y = tile_spmm(t, x);
  for (index_t r = 0; r < 128; ++r) {
    ASSERT_NEAR(yv[static_cast<std::size_t>(r)], y.at(r, 0), 1e-12);
  }
}

TEST(TileSpmm, ShapeMismatchThrows) {
  const TileMatrix<double> t = csr_to_tile(gen::banded(40, 2, 84));
  EXPECT_THROW(tile_spmm(t, DenseMatrix<double>(41, 3)), std::invalid_argument);
}

// -------------------------------------------------------------- dispatch --

TEST(AutoSelect, PicksHashForHyperSparse) {
  const Csr<double> a = gen::erdos_renyi(4000, 4000, 6000, 51);  // ~1 nnz/tile
  SpgemmChoice choice;
  const Csr<double> c = spgemm_auto(a, a, &choice);
  EXPECT_EQ(choice, SpgemmChoice::kHash);
  test::expect_equal(spgemm_reference(a, a), c, "auto hyper-sparse");
}

TEST(AutoSelect, PicksTileForBlockedStructures) {
  const Csr<double> a = gen::dense_blocks(4, 24, 52);
  SpgemmChoice choice;
  const Csr<double> c = spgemm_auto(a, a, &choice);
  EXPECT_EQ(choice, SpgemmChoice::kTile);
  test::expect_equal(spgemm_reference(a, a), c, "auto blocked");
}

TEST(AutoSelect, FallsBackToTileWhenProductsExceedDevice) {
  // Hyper-sparse features but a huge product volume: hash would blow the
  // modeled device budget, so the dispatcher must pick tile.
  WorkloadFeatures f;
  f.avg_nnz_per_tile_a = 1.1;
  f.avg_nnz_per_tile_b = 1.2;
  f.products_fit_device = false;
  EXPECT_EQ(select_algorithm(f), SpgemmChoice::kTile);
  f.products_fit_device = true;
  EXPECT_EQ(select_algorithm(f), SpgemmChoice::kHash);
  f.avg_nnz_per_tile_a = 30.0;
  EXPECT_EQ(select_algorithm(f), SpgemmChoice::kTile);
}

TEST(AutoSelect, FeaturesAreSane) {
  const Csr<double> a = gen::dense_blocks(2, 16, 53);  // two full tiles
  const WorkloadFeatures f = analyze_workload(a, a);
  EXPECT_EQ(f.nnz_a, 512);
  EXPECT_DOUBLE_EQ(f.avg_nnz_per_tile_a, 256.0);
  EXPECT_EQ(f.intermediate_products, 512 * 16);
  EXPECT_TRUE(f.products_fit_device);
}

}  // namespace
}  // namespace tsg
