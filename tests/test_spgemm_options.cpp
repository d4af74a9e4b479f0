// The algorithm's tunables: every option setting must give bit-identical
// structure and tolerance-identical values — they are performance choices,
// not semantics. The intersection routines must return exactly the same
// matched pairs in the same order.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/random.h"
#include "core/intersect.h"
#include "core/spgemm_workspace.h"
#include "core/tile_convert.h"
#include "core/tile_spgemm.h"
#include "gen/generators.h"
#include "test_support.h"

namespace tsg {
namespace {

struct OptionsCase {
  const char* name;
  TileSpgemmOptions options;
};

class OptionsSweep : public ::testing::TestWithParam<OptionsCase> {};

TEST_P(OptionsSweep, AllConfigurationsMatchReference) {
  const TileSpgemmOptions& opt = GetParam().options;
  for (auto make : {test::make_er_small, test::make_band_wide, test::make_blocks,
                    test::make_rmat_small, test::make_blocks_large}) {
    const Csr<double> a = make();
    test::check_against_reference(
        a, a, [&](const Csr<double>& x, const Csr<double>& y) { return spgemm_tile(x, y, opt); },
        GetParam().name);
  }
}

std::vector<OptionsCase> option_grid() {
  std::vector<OptionsCase> grid;
  grid.push_back({"defaults", {}});
  TileSpgemmOptions o;
  o.simd = simd::Level::kScalar;
  grid.push_back({"scalar", o});
  return grid;
}

INSTANTIATE_TEST_SUITE_P(Grid, OptionsSweep, ::testing::ValuesIn(option_grid()),
                         [](const auto& info) { return std::string(info.param.name); });

// ------------------------------------------------- intersect unit tests --

std::vector<offset_t> b_ids_for(const std::vector<index_t>& b_rows) {
  std::vector<offset_t> ids(b_rows.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = 100 + static_cast<offset_t>(i);
  return ids;
}

std::vector<MatchedPair> run_intersect(const std::vector<index_t>& a_cols,
                                       const std::vector<index_t>& b_rows,
                                       IntersectMethod method) {
  const std::vector<offset_t> b_ids = b_ids_for(b_rows);
  std::vector<MatchedPair> out;
  intersect_tiles(a_cols.data(), 0, static_cast<index_t>(a_cols.size()), b_rows.data(),
                  b_ids.data(), static_cast<index_t>(b_rows.size()), method, out);
  return out;
}

/// The pipeline's routine: A's list as tile row `row` of an index sized to
/// `width` tile columns (default: one past the largest key of either list,
/// as A.tile_cols bounds both in a product). Every occupancy word is full,
/// so every pair is live and the routine must return the reference pairs.
std::vector<MatchedPair> run_indexed(TileRowIndex& index, index_t row,
                                     const std::vector<index_t>& a_cols,
                                     const std::vector<index_t>& b_rows) {
  const std::vector<offset_t> b_ids = b_ids_for(b_rows);
  const std::vector<rowmask_t> a_occ(a_cols.size(), 0xFFFF);
  const std::vector<rowmask_t> b_occ(b_rows.size(), 0xFFFF);
  std::vector<MatchedPair> out;
  index.intersect(row, a_cols.data(), a_occ.data(), 0, static_cast<index_t>(a_cols.size()),
                  b_rows.data(), b_occ.data(), b_ids.data(), static_cast<index_t>(b_rows.size()),
                  out);
  return out;
}

std::vector<MatchedPair> run_indexed(const std::vector<index_t>& a_cols,
                                     const std::vector<index_t>& b_rows,
                                     index_t width = -1) {
  if (width < 0) {
    width = 1;
    for (index_t k : a_cols) width = std::max(width, k + 1);
    for (index_t k : b_rows) width = std::max(width, k + 1);
  }
  TileRowIndex index;
  index.reset(width);
  return run_indexed(index, 0, a_cols, b_rows);
}

void expect_same_pairs(const std::vector<MatchedPair>& want,
                       const std::vector<MatchedPair>& got, const std::string& context) {
  ASSERT_EQ(want.size(), got.size()) << context;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].tile_a, got[i].tile_a) << context << " pair " << i;
    ASSERT_EQ(want[i].tile_b, got[i].tile_b) << context << " pair " << i;
  }
}

/// Both reference methods and the indexed routine on one list pair.
void expect_all_agree(const std::vector<index_t>& a, const std::vector<index_t>& b,
                      const std::string& context) {
  const auto ref = run_intersect(a, b, IntersectMethod::kBinarySearch);
  expect_same_pairs(ref, run_intersect(a, b, IntersectMethod::kMerge), context + " merge");
  expect_same_pairs(ref, run_indexed(a, b), context + " indexed");
}

TEST(Intersect, AllMethodsAgreeOnRandomSets) {
  Xoshiro256 rng(11);
  // One index across every trial, reset per trial like a pipeline loop: each
  // trial is a different A whose list is bound under the same row number.
  TileRowIndex index;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<index_t> a, b;
    index_t va = 0, vb = 0;
    const int la = 1 + static_cast<int>(rng.next_below(20));
    const int lb = 1 + static_cast<int>(rng.next_below(20));
    for (int i = 0; i < la; ++i) a.push_back(va += 1 + static_cast<index_t>(rng.next_below(4)));
    for (int i = 0; i < lb; ++i) b.push_back(vb += 1 + static_cast<index_t>(rng.next_below(4)));

    const std::string context = "trial " + std::to_string(trial);
    expect_all_agree(a, b, context);
    index.reset(std::max(va, vb) + 1);
    expect_same_pairs(run_intersect(a, b, IntersectMethod::kBinarySearch),
                      run_indexed(index, 0, a, b), context + " reused index");
  }
}

TEST(Intersect, PaperFigure4Example) {
  // Fig. 4: tilecolidx_A(row 1) = {0,1,3}, tilerowidx_B(col 2) = {1,3}
  // -> matches at tiles (A11,B12) and (A13,B32).
  for (const auto& r : {run_intersect({0, 1, 3}, {1, 3}, IntersectMethod::kBinarySearch),
                        run_indexed({0, 1, 3}, {1, 3})}) {
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0].tile_a, 1);    // position of '1' in A's list
    EXPECT_EQ(r[0].tile_b, 100);  // first B tile id
    EXPECT_EQ(r[1].tile_a, 2);
    EXPECT_EQ(r[1].tile_b, 101);
  }
}

TEST(Intersect, EmptyAndDisjoint) {
  EXPECT_TRUE(run_intersect({}, {1, 2}, IntersectMethod::kBinarySearch).empty());
  EXPECT_TRUE(run_intersect({1, 2}, {}, IntersectMethod::kBinarySearch).empty());
  EXPECT_TRUE(run_intersect({0, 2, 4}, {1, 3, 5}, IntersectMethod::kBinarySearch).empty());
  EXPECT_TRUE(run_intersect({0, 2, 4}, {1, 3, 5}, IntersectMethod::kMerge).empty());
  EXPECT_TRUE(run_indexed({}, {1, 2}).empty());
  EXPECT_TRUE(run_indexed({1, 2}, {}).empty());
  EXPECT_TRUE(run_indexed({0, 2, 4}, {1, 3, 5}).empty());
}

TEST(Intersect, IdenticalSetsMatchFully) {
  const std::vector<index_t> s = {2, 5, 9, 11, 40};
  for (const auto& r : {run_intersect(s, s, IntersectMethod::kBinarySearch),
                        run_indexed(s, s)}) {
    ASSERT_EQ(r.size(), s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      EXPECT_EQ(r[i].tile_a, static_cast<offset_t>(i));
      EXPECT_EQ(r[i].tile_b, 100 + static_cast<offset_t>(i));
    }
  }
}

TEST(Intersect, SingleEntryLists) {
  expect_all_agree({7}, {7}, "hit");
  expect_all_agree({7}, {3}, "miss below");
  expect_all_agree({3}, {7}, "miss above");
  expect_all_agree({3}, {1, 3, 8}, "single A");
  expect_all_agree({1, 3, 8}, {8}, "single B");
  ASSERT_EQ(run_indexed({7}, {7}).size(), 1u);
}

TEST(Intersect, BKeysAboveALastKeyAreNeverProbed) {
  // The walk stops at A's last key: an index only as wide as A's keys must
  // still give the reference pairs when B's column runs far past them.
  const std::vector<index_t> a = {1, 4};
  const std::vector<index_t> b = {0, 1, 4, 5, 9, 30, 31};
  const auto ref = run_intersect(a, b, IntersectMethod::kBinarySearch);
  ASSERT_EQ(ref.size(), 2u);
  expect_same_pairs(ref, run_indexed(a, b, /*width=*/5), "narrow index");
  expect_all_agree(a, b, "wide index");
}

TEST(Intersect, LongBColumnTakesTheSearchBranch) {
  // Column-plus-diagonal shape: a two-tile A row against a B column as long
  // as the matrix. Past the length rule the routine binary-searches A's keys
  // into B; just below it, it walks. Both must give the reference pairs.
  std::vector<index_t> b(1000);
  for (index_t k = 0; k < 1000; ++k) b[static_cast<std::size_t>(k)] = k;
  const std::vector<index_t> a = {0, 731};
  ASSERT_TRUE(intersect_by_search(2, 1000));
  expect_all_agree(a, b, "search branch");

  // 48 == 4 * 2 * bit_width(48): the last length that still walks.
  const std::vector<index_t> b_short(b.begin(), b.begin() + 48);
  ASSERT_FALSE(intersect_by_search(2, 48));
  expect_all_agree({0, 47}, b_short, "walk at the boundary");
  const std::vector<index_t> b_past(b.begin(), b.begin() + 49);
  ASSERT_TRUE(intersect_by_search(2, 49));
  expect_all_agree({0, 48}, b_past, "search past the boundary");
}

/// intersect_tiles' pairs of A's tile row ti and B's tile column tj, less
/// those whose occupancy words share no bit — what ThreadSlot::match must
/// return, in the same (ascending k) order.
std::vector<MatchedPair> live_reference(const TileMatrix<double>& a, const TileMatrix<double>& b,
                                        const TileLayoutCsc& b_csc, index_t ti, index_t tj) {
  std::vector<MatchedPair> all;
  const offset_t a_base = a.tile_ptr[ti];
  const offset_t b_base = b_csc.col_ptr[tj];
  intersect_tiles(a.tile_col_idx.data() + a_base, a_base,
                  static_cast<index_t>(a.tile_ptr[ti + 1] - a_base),
                  b_csc.row_idx.data() + b_base, b_csc.tile_id.data() + b_base,
                  static_cast<index_t>(b_csc.col_ptr[tj + 1] - b_base),
                  IntersectMethod::kBinarySearch, all);
  std::vector<MatchedPair> live;
  for (const MatchedPair& p : all) {
    rowmask_t col = 0, row = 0;
    for (index_t r = 0; r < kTileDim; ++r) {
      col = static_cast<rowmask_t>(col | a.tile_mask(p.tile_a)[r]);
      if (b.tile_mask(p.tile_b)[r] != 0) row = static_cast<rowmask_t>(row | bit_of(r));
    }
    if ((col & row) != 0) live.push_back(p);
  }
  return live;
}

TEST(Intersect, ThreadSlotRebindsAcrossRowsAndAfterReset) {
  // One thread slot matches tiles of two tile rows (binding, rebinding, and
  // binding back), then — after the loop reset and a fresh occupancy pass —
  // tiles of a different A whose rows carry the same numbers but other
  // tile columns. Each result must equal the live reference pairs of that
  // A's row.
  const TileMatrix<double> a1 = csr_to_tile(gen::erdos_renyi(160, 160, 700, 301));
  const TileMatrix<double> a2 = csr_to_tile(gen::banded(160, 20, 302));
  const TileMatrix<double> b = csr_to_tile(gen::erdos_renyi(160, 160, 700, 303));
  SpgemmWorkspace<double> ws;
  ws.ensure_threads(1);
  tile_layout_csc(b, ws.b_csc);
  SpgemmWorkspace<double>::ThreadSlot& slot = ws.slot(0);

  auto expect_match = [&](const TileMatrix<double>& a, index_t ti, index_t tj) {
    expect_same_pairs(live_reference(a, b, ws.b_csc, ti, tj),
                      slot.match(a, ws.b_csc, ws.occ, ti, tj),
                      "row " + std::to_string(ti) + " col " + std::to_string(tj));
  };

  derive_tile_occupancy(a1, b, ws);
  ws.reset_row_index(a1.tile_cols);
  for (index_t tj = 0; tj < b.tile_cols; ++tj) expect_match(a1, 2, tj);
  for (index_t tj = 0; tj < b.tile_cols; ++tj) expect_match(a1, 7, tj);
  for (index_t tj = 0; tj < b.tile_cols; ++tj) expect_match(a1, 2, tj);

  derive_tile_occupancy(a2, b, ws);
  ws.reset_row_index(a2.tile_cols);
  for (index_t tj = 0; tj < b.tile_cols; ++tj) expect_match(a2, 2, tj);
  for (index_t tj = 0; tj < b.tile_cols; ++tj) expect_match(a2, 7, tj);
}

/// A rows x cols matrix of the given (row, col) entries, all 1.
Csr<double> from_cells(index_t rows, index_t cols,
                       std::vector<std::pair<index_t, index_t>> cells) {
  std::sort(cells.begin(), cells.end());
  Csr<double> m(rows, cols);
  for (const auto& [r, c] : cells) {
    m.row_ptr[static_cast<std::size_t>(r) + 1] += 1;
    m.col_idx.push_back(c);
    m.val.push_back(1.0);
  }
  for (index_t r = 0; r < rows; ++r) {
    m.row_ptr[static_cast<std::size_t>(r) + 1] += m.row_ptr[static_cast<std::size_t>(r)];
  }
  return m;
}

TEST(Intersect, MatchDropsDeadPairsOnBothSidesOfTheSearchRule) {
  // A is 32 x (16 * len) with two tile rows, B is (16 * len) x 16: one tile
  // column whose list holds every tile row k < len. A's tile row 0 has
  // tiles at k = 0 and k = len - 1, tile row 1 at k = 0, 1 and len - 1.
  // Local column 3 of A's tiles meets local row 3 of B's at even k (live);
  // odd k put A's nonzero in column 5 against B's row 9 (dead), so match
  // must return the reference pairs of even k only, in ascending k. With
  // len = 48 and 49 the two-tile row walks and binary-searches (the
  // intersect_by_search boundary), and the three-tile row walks both times.
  for (const index_t len : {48, 49}) {
    std::vector<std::pair<index_t, index_t>> a_cells, b_cells;
    for (index_t k = 0; k < len; ++k) {
      b_cells.emplace_back(16 * k + (k % 2 == 0 ? 3 : 9), k % kTileDim);
    }
    auto a_entry = [&](index_t r, index_t k) {
      a_cells.emplace_back(r, 16 * k + (k % 2 == 0 ? 3 : 5));
    };
    a_entry(1, 0);
    a_entry(1, len - 1);
    a_entry(17, 0);
    a_entry(17, 1);
    a_entry(17, len - 1);
    const TileMatrix<double> a = csr_to_tile(from_cells(32, 16 * len, a_cells));
    const TileMatrix<double> b = csr_to_tile(from_cells(16 * len, 16, b_cells));
    ASSERT_EQ(intersect_by_search(2, len), len == 49);
    ASSERT_FALSE(intersect_by_search(3, len));

    SpgemmWorkspace<double> ws;
    ws.ensure_threads(1);
    tile_layout_csc(b, ws.b_csc);
    derive_tile_occupancy(a, b, ws);
    ws.reset_row_index(a.tile_cols);
    SpgemmWorkspace<double>::ThreadSlot& slot = ws.slot(0);
    const std::string context = "len " + std::to_string(len);
    // Row 0, then row 1 (a rebind), then row 0 again.
    for (const index_t ti : {0, 1, 0}) {
      const std::vector<MatchedPair> want = live_reference(a, b, ws.b_csc, ti, 0);
      const std::vector<MatchedPair>& got = slot.match(a, ws.b_csc, ws.occ, ti, 0);
      expect_same_pairs(want, got, context + " row " + std::to_string(ti));
      // k = 0 is live; len - 1 is live iff it is even, and k = 1 is dead.
      ASSERT_EQ(got.size(), len % 2 == 1 ? 2u : 1u) << context;
      EXPECT_EQ(got[0].tile_a, a.tile_ptr[ti]) << context;
      for (std::size_t i = 1; i < got.size(); ++i) {
        EXPECT_LT(got[i - 1].tile_a, got[i].tile_a) << context << " ascending k";
      }
    }
  }
}

}  // namespace
}  // namespace tsg
