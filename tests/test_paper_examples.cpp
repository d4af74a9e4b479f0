// Worked examples from the paper's figures, reconstructed at tile
// granularity (the figures draw 4x4 tiles for readability; the library
// fixes 16x16, so the examples are embedded in the top-left 4 columns of
// real tiles — the arithmetic is identical).
#include <gtest/gtest.h>

#include "baselines/reference.h"
#include "core/step1.h"
#include "core/tile_convert.h"
#include "core/tile_spgemm.h"
#include "matrix/convert.h"
#include "test_support.h"

namespace tsg {
namespace {

/// Build a matrix from (tile_row, tile_col, local_row, local_col, value).
struct Entry {
  index_t tr, tc, r, c;
  double v;
};

Csr<double> from_entries(index_t tile_grid, const std::vector<Entry>& entries) {
  Coo<double> coo;
  coo.rows = coo.cols = tile_grid * kTileDim;
  for (const Entry& e : entries) {
    coo.push_back(e.tr * kTileDim + e.r, e.tc * kTileDim + e.c, e.v);
  }
  return coo_to_csr(std::move(coo));
}

// Figure 3: the first step treats each sparse tile as one nonzero and runs
// a symbolic SpGEMM on the tile layouts. We reconstruct a layout with A of
// 8 tiles and B of 6 tiles and check C's tile structure equals the symbolic
// product of the layouts.
TEST(PaperExamples, Fig3TileStructureIsSymbolicLayoutProduct) {
  // Tile layouts (4x4 grids). One nonzero per used tile is enough: step 1
  // only sees layouts.
  const std::vector<std::pair<index_t, index_t>> layout_a = {
      {0, 0}, {0, 2}, {1, 1}, {1, 3}, {2, 0}, {2, 2}, {3, 1}, {3, 3}};  // 8 tiles
  const std::vector<std::pair<index_t, index_t>> layout_b = {
      {0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 1}, {3, 2}};  // 6 tiles
  std::vector<Entry> ea, eb;
  for (auto [tr, tc] : layout_a) ea.push_back({tr, tc, 1, 1, 1.0});
  for (auto [tr, tc] : layout_b) eb.push_back({tr, tc, 1, 1, 1.0});
  const TileMatrix<double> a = csr_to_tile(from_entries(4, ea));
  const TileMatrix<double> b = csr_to_tile(from_entries(4, eb));
  ASSERT_EQ(a.num_tiles(), 8);
  ASSERT_EQ(b.num_tiles(), 6);

  const TileStructure c = step1_tile_structure(a, b);

  // Brute-force symbolic product of the two layouts.
  bool grid_a[4][4] = {}, grid_b[4][4] = {}, grid_c[4][4] = {};
  for (auto [tr, tc] : layout_a) grid_a[tr][tc] = true;
  for (auto [tr, tc] : layout_b) grid_b[tr][tc] = true;
  int expected_tiles = 0;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      for (int k = 0; k < 4; ++k) grid_c[i][j] |= grid_a[i][k] && grid_b[k][j];
      expected_tiles += grid_c[i][j] ? 1 : 0;
    }
  }
  ASSERT_EQ(c.num_tiles(), expected_tiles);
  for (offset_t t = 0; t < c.num_tiles(); ++t) {
    EXPECT_TRUE(grid_c[c.tile_row_idx[static_cast<std::size_t>(t)]]
                      [c.tile_col_idx[static_cast<std::size_t>(t)]]);
  }
}

// Figure 4/5: C12 is produced by the matched pairs (A11,B12) and (A13,B32);
// the first row mask of C12 comes from OR-ing B's row masks selected by
// A11's nonzeros a00 (column 0) and a02 (column 2): 1100 | 1010 = 1110.
TEST(PaperExamples, Fig5MaskAccumulation) {
  // A tile (1,1): row 0 holds a00 at local col 0 and a02 at local col 2.
  // A tile (1,3): empty row 0 (so C row 0 only gets B12 contributions).
  std::vector<Entry> ea = {
      {1, 1, 0, 0, 1.0},  // a00
      {1, 1, 0, 2, 1.0},  // a02
      {1, 3, 5, 5, 1.0},  // A13 exists but does not touch row 0
  };
  // B tile (1,2): row 0 mask 1100 (cols 0,1), row 2 mask 1010 (cols 0,2).
  std::vector<Entry> eb = {
      {1, 2, 0, 0, 1.0},
      {1, 2, 0, 1, 1.0},  // b10 = 1100 (reading left-to-right as the figure)
      {1, 2, 2, 0, 1.0},
      {1, 2, 2, 2, 1.0},  // b12 = 1010
      {3, 2, 7, 7, 1.0},  // B32 exists but contributes nothing to row 0
  };
  const TileMatrix<double> a = csr_to_tile(from_entries(4, ea));
  const TileMatrix<double> b = csr_to_tile(from_entries(4, eb));
  const TileSpgemmResult<double> res = tile_spgemm(a, b);

  // Find tile (1,2) of C.
  const TileMatrix<double>& c = res.c;
  offset_t tile_c12 = -1;
  for (offset_t t = c.tile_ptr[1]; t < c.tile_ptr[2]; ++t) {
    if (c.tile_col_idx[t] == 2) tile_c12 = t;
  }
  ASSERT_GE(tile_c12, 0);
  // Row 0 mask: cols {0,1} from b10 OR cols {0,2} from b12 -> {0,1,2}.
  EXPECT_EQ(c.tile_mask(tile_c12)[0], rowmask_t{0b0111});
  EXPECT_EQ(popcount16(c.tile_mask(tile_c12)[0]), 3);
}

// Figure 1's headline: multiplying sparse A and B gives sparse C whose nnz
// is neither the flop count nor bounded by nnz(A)+nnz(B); the example has
// nnz(A)=8, nnz(B)=10, nnz(C)=11. We reproduce exact counts with a
// constructed pair of 6x6 matrices of those sizes.
TEST(PaperExamples, Fig1NnzRelationship) {
  Coo<double> ca, cb;
  ca.rows = ca.cols = cb.rows = cb.cols = 6;
  // A: 8 nonzeros spread over 5 rows.
  const std::pair<int, int> pa[] = {{0, 1}, {0, 4}, {1, 2}, {2, 0},
                                    {2, 5}, {3, 3}, {4, 2}, {4, 4}};
  for (auto [r, c] : pa) ca.push_back(r, c, 1.0);
  // B: 10 nonzeros chosen so C ends up with 11.
  const std::pair<int, int> pb[] = {{0, 0}, {1, 1}, {1, 3}, {2, 2}, {2, 4},
                                    {3, 5}, {4, 1}, {4, 2}, {5, 0}, {5, 5}};
  for (auto [r, c] : pb) cb.push_back(r, c, 1.0);
  const Csr<double> a = coo_to_csr(std::move(ca));
  const Csr<double> b = coo_to_csr(std::move(cb));
  ASSERT_EQ(a.nnz(), 8);
  ASSERT_EQ(b.nnz(), 10);
  const Csr<double> c_ref = spgemm_reference(a, b);
  const Csr<double> c_tile = spgemm_tile(a, b);
  EXPECT_EQ(c_ref.nnz(), 11);
  test::expect_equal(c_ref, c_tile, "fig1");
}

// Section 3.3: "the final C is allowed to store empty tiles" — build a case
// where step 1 predicts a tile that receives no nonzero because the
// contributing rows/columns of the operand tiles miss each other.
TEST(PaperExamples, EmptyTilesAreAllowedInC) {
  // A tile (0,0) has a nonzero only in column 5; B tile (0,0) has rows only
  // at row 9 — the product tile (0,0) of C is structurally empty, but the
  // tile-level symbolic (step 1) must still predict it.
  std::vector<Entry> ea = {{0, 0, 3, 5, 1.0}};
  std::vector<Entry> eb = {{0, 0, 9, 2, 1.0}};
  const TileMatrix<double> a = csr_to_tile(from_entries(1, ea));
  const TileMatrix<double> b = csr_to_tile(from_entries(1, eb));
  const TileSpgemmResult<double> res = tile_spgemm(a, b);
  ASSERT_EQ(res.c.num_tiles(), 1);    // step 1 kept the candidate tile
  EXPECT_EQ(res.c.tile_nnz_of(0), 0); // but it is empty
  EXPECT_EQ(res.c.nnz(), 0);
  EXPECT_TRUE(res.c.validate().empty()) << res.c.validate();
  // Converting back must give an all-empty CSR.
  EXPECT_EQ(tile_to_csr(res.c).nnz(), 0);
}

}  // namespace
}  // namespace tsg
