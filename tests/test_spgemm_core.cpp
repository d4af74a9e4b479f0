// Validation of the TileSpGEMM core against the serial reference: structure
// classes, shapes, edge cases, and the exact output semantics (explicit
// cancellation zeros are kept; step 1 keeps no empty tile).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/spgemm_context.h"
#include "core/step1.h"
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
  // Hyper-sparse: most tile pairs step 1 meets carry no product, and it
  // keeps no C tile for them; tile_to_csr places every row of the tiles
  // it keeps, the partial last tile row's included.
  const Csr<double> d = gen::erdos_renyi(2003, 2003, 3000, 61);
  const TileMatrix<double> td = csr_to_tile(d);
  const TileMatrix<double> tc = tile_spgemm(td, td).c;
  offset_t empty = 0;
  for (offset_t t = 0; t < tc.num_tiles(); ++t) empty += tc.tile_nnz_of(t) == 0 ? 1 : 0;
  ASSERT_GT(tc.num_tiles(), 0);
  EXPECT_EQ(empty, 0) << empty << " of " << tc.num_tiles() << " empty";
  check_against_reference(d, d, run_tile, "n=2003, hyper-sparse");
}

TEST(TileSpgemmEdge, TileToCsrSkipsEmptyTilesOfAMaskedProduct) {
  // A masked product keeps every tile of the mask, so a mask wider than the
  // product leaves tiles that come out empty; tile_to_csr skips them while
  // placing the rows of the rest. The mask here is A*A plus a stripe of
  // tiles A*A misses, so the masked product equals the reference A*A.
  const Csr<double> a = gen::erdos_renyi(2003, 2003, 3000, 62);
  const Csr<double> product = spgemm_reference(a, a);
  Coo<double> wide;
  wide.rows = wide.cols = a.rows;
  for (index_t r = 0; r < product.rows; ++r) {
    for (offset_t p = product.row_ptr[r]; p < product.row_ptr[r + 1]; ++p) {
      wide.push_back(r, product.col_idx[p], 1.0);
    }
  }
  for (index_t r = 0; r < a.rows; r += 7) {
    const index_t c = (r * 31 + 5) % a.cols;
    const auto* row_begin = product.col_idx.data() + product.row_ptr[r];
    const auto* row_end = product.col_idx.data() + product.row_ptr[r + 1];
    if (!std::binary_search(row_begin, row_end, c)) wide.push_back(r, c, 1.0);
  }
  const Csr<double> mask = coo_to_csr(std::move(wide));
  const TileMatrix<double> ta = csr_to_tile(a);
  const TileMatrix<double> tm = csr_to_tile(mask);
  const TileMatrix<double> c =
      SpgemmContext{}.try_run(Request<TileMatrix<double>>{&ta, &ta, &tm}).value().c;
  offset_t empty = 0;
  for (offset_t t = 0; t < c.num_tiles(); ++t) empty += c.tile_nnz_of(t) == 0 ? 1 : 0;
  ASSERT_GT(empty, 0) << "the mask must keep tiles the product misses";
  ASSERT_TRUE(c.validate().empty()) << c.validate();
  expect_equal(product, tile_to_csr(c), "masked, with empty tiles");
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

TEST(TileSpgemmSteps, Step1KeepsExactlyTheNonEmptyTiles) {
  // Step 1's tile structure is exact: its tiles are the non-empty tiles of
  // the reference product, no more (no empty tile survives) and no fewer.
  // The pipeline's C then holds the same tiles, each with a nonzero.
  struct Product {
    std::string name;
    Csr<double> a, b;
  };
  std::vector<Product> products;
  for (const test::GenCase& g : std::vector<test::GenCase>{
           {"er_small", test::make_er_small},     {"er_dense", test::make_er_dense},
           {"rmat_small", test::make_rmat_small}, {"stencil", test::make_stencil},
           {"stencil9", test::make_stencil9},     {"band", test::make_band},
           {"band_wide", test::make_band_wide},   {"blocks", test::make_blocks},
           {"blocks_large", test::make_blocks_large},
           {"clustered", test::make_clustered},   {"hyper_sparse", test::make_hyper_sparse},
           {"col_diag", test::make_col_diag}}) {
    const Csr<double> a = g.make();
    products.push_back({g.name, a, a});
  }
  products.push_back({"rmat", gen::rmat(10, 3.0, 113), gen::rmat(10, 3.0, 113)});
  // 6000 nonzeros over 188^2 tile slots: about 1.1 per non-empty tile.
  const Csr<double> one_per_tile = gen::erdos_renyi(3000, 3000, 6000, 114);
  products.push_back({"er_1_per_tile", one_per_tile, one_per_tile});
  const Csr<double> cpd = gen::column_plus_diagonal(2048, 115);
  products.push_back({"column_plus_diagonal", cpd, cpd});
  products.push_back({"rect_a_times_b", test::make_er_rect(), test::make_er_rect_rhs()});
  products.push_back(
      {"empty_product", test::make_empty_product_lhs(), test::make_empty_product_rhs()});

  for (const Product& p : products) {
    SCOPED_TRACE(p.name);
    const TileMatrix<double> ta = csr_to_tile(p.a);
    const TileMatrix<double> tb = csr_to_tile(p.b);
    const TileStructure st = step1_tile_structure(ta, tb);
    const TileMatrix<double> ref = csr_to_tile(spgemm_reference(p.a, p.b));
    ASSERT_EQ(st.tile_ptr.size(), ref.tile_ptr.size());
    EXPECT_TRUE(std::equal(st.tile_ptr.begin(), st.tile_ptr.end(), ref.tile_ptr.begin()));
    ASSERT_EQ(st.num_tiles(), ref.num_tiles());
    EXPECT_TRUE(std::equal(st.tile_col_idx.begin(), st.tile_col_idx.end(),
                           ref.tile_col_idx.begin()));

    const TileMatrix<double> c = tile_spgemm(ta, tb).c;
    ASSERT_TRUE(c.validate().empty()) << c.validate();
    ASSERT_EQ(c.num_tiles(), ref.num_tiles());
    for (offset_t t = 0; t < c.num_tiles(); ++t) ASSERT_GT(c.tile_nnz_of(t), 0) << "tile " << t;
    expect_equal(spgemm_reference(p.a, p.b), tile_to_csr(c), "roundtrip");
  }
}

TEST(TileSpgemmSteps, TimingsArePopulated) {
  const Csr<double> a = gen::banded(800, 12, 114);
  const TileSpgemmTimings tm =
      SpgemmContext{}.try_run(Request<Csr<double>>{&a, &a}).value().timings;
  EXPECT_GT(tm.total_ms(), 0.0);
  EXPECT_GE(tm.step1_ms, 0.0);
  EXPECT_GE(tm.step2_ms, 0.0);
  EXPECT_GT(tm.step3_ms, 0.0);
}

}  // namespace
}  // namespace tsg
