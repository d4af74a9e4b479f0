// Validation of the TileSpGEMM core against the serial reference: structure
// classes, shapes, edge cases, and the exact output semantics (explicit
// cancellation zeros are kept; empty tiles from step 1 are tolerated).
#include <gtest/gtest.h>

#include "core/tile_convert.h"
#include "core/tile_spgemm.h"
#include "gen/generators.h"
#include "matrix/convert.h"
#include "matrix/ops.h"
#include "matrix/transpose.h"
#include "test_support.h"

namespace tsg {
namespace {

using test::check_against_reference;
using test::expect_equal;

Csr<double> run_tile(const Csr<double>& a, const Csr<double>& b) {
  return spgemm_tile(a, b);
}

// ---------------------------------------------------------------- sweeps --

struct SweepCase {
  const char* name;
  Csr<double> (*make)();
};

class TileSpgemmSquare : public ::testing::TestWithParam<SweepCase> {};

TEST_P(TileSpgemmSquare, MatchesReferenceOnASquared) {
  const Csr<double> a = GetParam().make();
  check_against_reference(a, a, run_tile, GetParam().name);
}

TEST_P(TileSpgemmSquare, MatchesReferenceOnAAT) {
  const Csr<double> a = GetParam().make();
  const Csr<double> at = transpose(a);
  check_against_reference(a, at, run_tile, GetParam().name);
}

TEST_P(TileSpgemmSquare, MatchesReferenceOnATA) {
  const Csr<double> a = GetParam().make();
  const Csr<double> at = transpose(a);
  check_against_reference(at, a, run_tile, GetParam().name);
}

INSTANTIATE_TEST_SUITE_P(
    StructureClasses, TileSpgemmSquare,
    ::testing::Values(SweepCase{"er_small", test::make_er_small},
                      SweepCase{"er_dense", test::make_er_dense},
                      SweepCase{"rmat", test::make_rmat_small},
                      SweepCase{"stencil5", test::make_stencil},
                      SweepCase{"stencil9", test::make_stencil9},
                      SweepCase{"band", test::make_band},
                      SweepCase{"band_wide", test::make_band_wide},
                      SweepCase{"blocks", test::make_blocks},
                      SweepCase{"blocks_large", test::make_blocks_large},
                      SweepCase{"clustered", test::make_clustered},
                      SweepCase{"hyper_sparse", test::make_hyper_sparse},
                      SweepCase{"col_diag", test::make_col_diag}),
    [](const auto& info) { return std::string(info.param.name); });

// ------------------------------------------------------ rectangular cases --

TEST(TileSpgemmRect, TallTimesWide) {
  const Csr<double> a = gen::erdos_renyi(190, 40, 700, 101);
  const Csr<double> b = gen::erdos_renyi(40, 230, 650, 102);
  check_against_reference(a, b, run_tile, "tall*wide");
}

TEST(TileSpgemmRect, WideTimesTall) {
  const Csr<double> a = gen::erdos_renyi(33, 500, 800, 103);
  const Csr<double> b = gen::erdos_renyi(500, 47, 900, 104);
  check_against_reference(a, b, run_tile, "wide*tall");
}

TEST(TileSpgemmRect, InnerDimMismatchThrows) {
  const Csr<double> a = gen::erdos_renyi(20, 30, 50, 105);
  const Csr<double> b = gen::erdos_renyi(31, 20, 50, 106);
  EXPECT_THROW(spgemm_tile(a, b), tsg::Error);
}

// ------------------------------------------------------------- edge cases --

TEST(TileSpgemmEdge, OneByOne) {
  Coo<double> coo;
  coo.rows = coo.cols = 1;
  coo.push_back(0, 0, 3.0);
  const Csr<double> a = coo_to_csr(std::move(coo));
  const Csr<double> c = spgemm_tile(a, a);
  ASSERT_EQ(c.nnz(), 1);
  EXPECT_DOUBLE_EQ(c.val[0], 9.0);
}

TEST(TileSpgemmEdge, EmptyMatrix) {
  const Csr<double> a(37, 41);
  const Csr<double> b(41, 12);
  const Csr<double> c = spgemm_tile(a, b);
  EXPECT_EQ(c.rows, 37);
  EXPECT_EQ(c.cols, 12);
  EXPECT_EQ(c.nnz(), 0);
}

TEST(TileSpgemmEdge, EmptyTimesNonempty) {
  const Csr<double> a(16, 16);
  const Csr<double> b = gen::erdos_renyi(16, 16, 40, 107);
  EXPECT_EQ(spgemm_tile(a, b).nnz(), 0);
  EXPECT_EQ(spgemm_tile(b, a).nnz(), 0);
}

TEST(TileSpgemmEdge, IdentityIsNeutral) {
  const Csr<double> a = gen::erdos_renyi(130, 130, 900, 108);
  const Csr<double> i = identity<double>(130);
  expect_equal(a, spgemm_tile(a, i), "A*I");
  expect_equal(a, spgemm_tile(i, a), "I*A");
}

TEST(TileSpgemmEdge, SingleFullTile) {
  // A completely dense 16x16 tile (256 nonzeros) exercises the row-pointer
  // uint8 boundary: offsets reach 240 and the implied 17th entry is 256.
  const Csr<double> a = gen::dense_blocks(1, 16, 109);
  check_against_reference(a, a, run_tile, "full_tile");
}

TEST(TileSpgemmEdge, DimensionNotMultipleOf16) {
  const Csr<double> a = gen::erdos_renyi(17, 17, 60, 110);
  check_against_reference(a, a, run_tile, "n=17");
  const Csr<double> b = gen::erdos_renyi(15, 15, 50, 111);
  check_against_reference(b, b, run_tile, "n=15");
  const Csr<double> c = gen::erdos_renyi(255, 255, 2000, 112);
  check_against_reference(c, c, run_tile, "n=255");
  // Hyper-sparse: most of C's tiles are step-1 candidates that step 2
  // finds empty, which tile_to_csr skips while placing every row of the
  // tiles it keeps, the partial last tile row's included.
  const Csr<double> d = gen::erdos_renyi(2003, 2003, 3000, 61);
  const TileMatrix<double> td = csr_to_tile(d);
  const TileMatrix<double> tc = tile_spgemm(td, td).c;
  offset_t empty = 0;
  for (offset_t t = 0; t < tc.num_tiles(); ++t) empty += tc.tile_nnz_of(t) == 0 ? 1 : 0;
  ASSERT_GT(2 * empty, tc.num_tiles()) << empty << " of " << tc.num_tiles() << " empty";
  check_against_reference(d, d, run_tile, "n=2003, mostly empty C tiles");
}

TEST(TileSpgemmEdge, KeepsCancellationZeros) {
  // A = [[1, 1], [0, 0]], B = [[1, 0], [-1, 0]] -> C = [[0, 0], [0, 0]]
  // with exactly one *explicit* zero at (0,0): the paper's methods do no
  // numerical cancellation pruning.
  Coo<double> ca;
  ca.rows = ca.cols = 2;
  ca.push_back(0, 0, 1.0);
  ca.push_back(0, 1, 1.0);
  Coo<double> cb;
  cb.rows = cb.cols = 2;
  cb.push_back(0, 0, 1.0);
  cb.push_back(1, 0, -1.0);
  const Csr<double> a = coo_to_csr(std::move(ca));
  const Csr<double> b = coo_to_csr(std::move(cb));
  const Csr<double> c = spgemm_tile(a, b);
  ASSERT_EQ(c.nnz(), 1);
  EXPECT_EQ(c.col_idx[0], 0);
  EXPECT_DOUBLE_EQ(c.val[0], 0.0);
}

TEST(TileSpgemmEdge, PermutationTimesPermutationIsPermutation) {
  tracked_vector<index_t> p1, p2;
  const index_t n = 100;
  for (index_t i = 0; i < n; ++i) {
    p1.push_back((i * 37 + 11) % n);  // 37 coprime to 100
    p2.push_back((i * 13 + 5) % n);   // 13 coprime to 100
  }
  const Csr<double> a = permutation<double>(p1);
  const Csr<double> b = permutation<double>(p2);
  const Csr<double> c = spgemm_tile(a, b);
  EXPECT_EQ(c.nnz(), n);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_EQ(c.row_nnz(i), 1);
    EXPECT_DOUBLE_EQ(c.val[c.row_ptr[i]], 1.0);
  }
}

// ------------------------------------------------- step-level invariants --

TEST(TileSpgemmSteps, Step1CoversStep2Tiles) {
  // Step 1's tile structure is an upper bound: every tile with nonzeros in
  // the final C must be present, and extra tiles must come out empty.
  const Csr<double> a = gen::rmat(10, 3.0, 113);
  const TileMatrix<double> ta = csr_to_tile(a);
  const TileSpgemmResult<double> res = tile_spgemm(ta, ta);
  const TileMatrix<double>& c = res.c;
  ASSERT_TRUE(c.validate().empty()) << c.validate();

  offset_t nonempty = 0;
  for (offset_t t = 0; t < c.num_tiles(); ++t) {
    if (c.tile_nnz_of(t) > 0) ++nonempty;
  }
  EXPECT_GT(nonempty, 0);
  EXPECT_LE(nonempty, c.num_tiles());

  // Reconverting must agree with the reference product.
  expect_equal(spgemm_reference(a, a), tile_to_csr(c), "roundtrip");
}

TEST(TileSpgemmSteps, TimingsArePopulated) {
  const Csr<double> a = gen::banded(800, 12, 114);
  TileSpgemmTimings tm;
  (void)spgemm_tile(a, a, {}, &tm);
  EXPECT_GT(tm.total_ms(), 0.0);
  EXPECT_GE(tm.step1_ms, 0.0);
  EXPECT_GE(tm.step2_ms, 0.0);
  EXPECT_GT(tm.step3_ms, 0.0);
}

}  // namespace
}  // namespace tsg
