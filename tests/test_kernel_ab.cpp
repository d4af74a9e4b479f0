// A/B bit-identity contracts for the hot-path kernels: the default
// dispatch level's step-2 symbolic kernel vs the scalar reference level,
// and chunked execution under a 1 MB device budget vs a roomy single shot,
// for plain, masked and min-plus products alike (they run one pipeline).
// "Bit-identical" means every array of the produced TileMatrix — structure
// and values — compares equal byte-for-byte; the optimisations only
// reorder *reads*, never the accumulation order.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/memory.h"
#include "common/random.h"
#include "core/semiring.h"
#include "core/spgemm_context.h"
#include "core/tile_convert.h"
#include "core/tile_spgemm.h"
#include "gen/generators.h"
#include "matrix/convert.h"
#include "test_support.h"

namespace tsg {
namespace {

template <class V>
void expect_bytes_equal(const tracked_vector<V>& x, const tracked_vector<V>& y,
                        const std::string& what) {
  ASSERT_EQ(x.size(), y.size()) << what << " size";
  if (!x.empty()) {
    EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size() * sizeof(V)), 0) << what;
  }
}

/// Bit-exact TileMatrix equality, including the double payload (memcmp, not
/// tolerance compare: the A/B paths must not change even one ulp).
void expect_tiles_identical(const TileMatrix<double>& x, const TileMatrix<double>& y,
                            const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(x.rows, y.rows);
  ASSERT_EQ(x.cols, y.cols);
  expect_bytes_equal(x.tile_ptr, y.tile_ptr, "tile_ptr");
  expect_bytes_equal(x.tile_col_idx, y.tile_col_idx, "tile_col_idx");
  expect_bytes_equal(x.tile_nnz, y.tile_nnz, "tile_nnz");
  expect_bytes_equal(x.row_ptr, y.row_ptr, "row_ptr");
  expect_bytes_equal(x.row_idx, y.row_idx, "row_idx");
  expect_bytes_equal(x.col_idx, y.col_idx, "col_idx");
  expect_bytes_equal(x.mask, y.mask, "mask");
  expect_bytes_equal(x.val, y.val, "val");
}

/// Seed-dependent square matrix mixing the structure classes that stress
/// both sides of the packed kernel's sparse/dense dispatch.
Csr<double> fuzz_matrix(std::uint64_t seed) {
  Xoshiro256 rng(seed * 6364136223846793005ull + 1442695040888963407ull);
  const index_t n = 16 + static_cast<index_t>(rng.next_below(280));
  switch (rng.next_below(5)) {
    case 0: return gen::erdos_renyi(n, n, static_cast<offset_t>(n) * 4, rng.next());
    case 1: return gen::dense_blocks(1 + n / 24, 16, rng.next());
    case 2: return gen::banded(n, 1 + static_cast<index_t>(rng.next_below(30)), rng.next());
    case 3: return gen::clustered_rows(n, 3, 8, rng.next());
    default: return gen::rmat(8, 6.0, rng.next());
  }
}

/// A's pattern plus, in every row i, column (i + offset) mod n: with A
/// banded far narrower than `offset`, A*A reaches none of the stripe's
/// tiles, so a product masked by it has empty C tiles.
Csr<double> pattern_plus_stripe(const Csr<double>& a, index_t offset) {
  Coo<double> coo;
  coo.rows = a.rows;
  coo.cols = a.cols;
  for (index_t i = 0; i < a.rows; ++i) {
    for (offset_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      coo.push_back(i, a.col_idx[k], 1.0);
    }
    coo.push_back(i, (i + offset) % a.cols, 1.0);
  }
  return coo_to_csr(std::move(coo));
}

/// A product of A with itself, masked by M.
struct MaskedCase {
  std::string name;
  Csr<double> a;
  Csr<double> mask;
};

/// The two mask shapes the masked pipeline must get right: tiles of M that
/// the product misses (C keeps them, empty), and C tiles above the
/// rank-walk cut of 16 nonzeros whose products partly fall outside M (the
/// row kernel computes them and the compress drops them). Large enough
/// that a 1 MB budget chunks both.
std::vector<MaskedCase> masked_cases() {
  const Csr<double> narrow = gen::banded(3000, 3, 9401);
  const Csr<double> wide = gen::banded(2000, 20, 9402);
  return {{"mask_misses_tiles", narrow, pattern_plus_stripe(narrow, 1500)},
          {"mask_cuts_dense_tiles", wide, wide}};
}

/// In a masked C against the unmasked C of the same product: the masked
/// C's empty tiles, and its tiles above 16 nonzeros that the mask cut.
struct MaskShape {
  int empty = 0;
  int cut_above_16 = 0;
};

MaskShape mask_shape(const TileMatrix<double>& masked, const TileMatrix<double>& plain) {
  MaskShape shape;
  for (index_t tr = 0; tr < masked.tile_rows; ++tr) {
    offset_t p = plain.tile_ptr[tr];
    for (offset_t t = masked.tile_ptr[tr]; t < masked.tile_ptr[tr + 1]; ++t) {
      const index_t nnz = masked.tile_nnz_of(t);
      if (nnz == 0) ++shape.empty;
      while (p < plain.tile_ptr[tr + 1] && plain.tile_col_idx[p] < masked.tile_col_idx[t]) ++p;
      if (nnz > 16 && p < plain.tile_ptr[tr + 1] &&
          plain.tile_col_idx[p] == masked.tile_col_idx[t] && plain.tile_nnz_of(p) > nnz) {
        ++shape.cut_above_16;
      }
    }
  }
  return shape;
}

using TileRequest = Request<TileMatrix<double>>;
using MinPlusRequest = Request<TileMatrix<double>, MinPlus<double>>;

/// The plain, masked (by `mask`) and min-plus products of A with itself.
struct Products {
  TileSpgemmResult<double> plain, masked, min_plus;
};

Products products_of(SpgemmContext& ctx, const TileMatrix<double>& a,
                     const TileMatrix<double>& mask) {
  return {ctx.try_run(TileRequest{&a, &a}).value(),
          ctx.try_run(TileRequest{&a, &a, &mask}).value(),
          ctx.try_run(MinPlusRequest{&a, &a}).value()};
}

void expect_products_identical(const Products& x, const Products& y, const std::string& context) {
  expect_tiles_identical(x.plain.c, y.plain.c, context + " plain");
  expect_tiles_identical(x.masked.c, y.masked.c, context + " masked");
  expect_tiles_identical(x.min_plus.c, y.min_plus.c, context + " min-plus");
}

// ---------------------------------------- default level vs scalar oracle --

/// The scalar reference level; a default Config runs the best available
/// level (or the one TSG_SIMD forces).
SpgemmContext::Config scalar_config() {
  return SpgemmContext::Config{}.with_simd_level(simd::Level::kScalar);
}

class SymbolicAb : public ::testing::TestWithParam<int> {};

TEST_P(SymbolicAb, DefaultLevelMatchesScalarBitExact) {
  const Csr<double> a = fuzz_matrix(static_cast<std::uint64_t>(GetParam()));
  const TileMatrix<double> ta = csr_to_tile(a);
  SpgemmContext scalar(scalar_config());
  SpgemmContext dflt;
  expect_tiles_identical(scalar.try_run(TileRequest{&ta, &ta}).value().c,
                         dflt.try_run(TileRequest{&ta, &ta}).value().c,
                         "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Fuzz, SymbolicAb, ::testing::Range(0, 32));

TEST(SymbolicAb, StructureClassesMatchBitExact) {
  const test::GenCase cases[] = {
      {"er_small", test::make_er_small},     {"er_dense", test::make_er_dense},
      {"rmat_small", test::make_rmat_small}, {"stencil9", test::make_stencil9},
      {"band_wide", test::make_band_wide},   {"blocks", test::make_blocks},
      {"clustered", test::make_clustered},   {"hyper_sparse", test::make_hyper_sparse},
  };
  SpgemmContext scalar(scalar_config());
  SpgemmContext dflt;
  // Masked by the operand's own pattern: the default level's step 2 ANDs M
  // into its packed words, the scalar oracle row by row.
  for (const test::GenCase& gc : cases) {
    const TileMatrix<double> t = csr_to_tile(gc.make());
    expect_products_identical(products_of(scalar, t, t), products_of(dflt, t, t), gc.name);
  }
  MaskShape covered;
  for (const MaskedCase& mc : masked_cases()) {
    const TileMatrix<double> t = csr_to_tile(mc.a);
    const TileMatrix<double> m = csr_to_tile(mc.mask);
    const Products want = products_of(scalar, t, m);
    expect_products_identical(want, products_of(dflt, t, m), mc.name);
    const MaskShape shape = mask_shape(want.masked.c, want.plain.c);
    covered.empty += shape.empty;
    covered.cut_above_16 += shape.cut_above_16;
  }
  EXPECT_GT(covered.empty, 0) << "no masked case leaves a C tile empty";
  EXPECT_GT(covered.cut_above_16, 0) << "no masked case cuts a C tile above 16 nonzeros";
}

TEST(SymbolicAb, DefaultLevelStillMatchesReferenceProduct) {
  // Belt and braces: beyond A/B identity, the default level also has to be
  // the right answer.
  const Csr<double> a = gen::dense_blocks(8, 16, 9301);
  test::check_against_reference(
      a, a, [](const Csr<double>& x, const Csr<double>& y) { return spgemm_tile(x, y); },
      "default level vs reference");
}

// ------------------------------------------- budget-degraded (chunked) AB --

/// Restores the process-wide budget override on scope exit.
struct BudgetOverrideGuard {
  ~BudgetOverrideGuard() { set_device_memory_budget_bytes(0); }
};

TEST(ChunkedAb, FuzzStaysBitExact) {
  BudgetOverrideGuard guard;
  std::vector<MaskedCase> cases;
  for (int seed = 0; seed < 8; ++seed) {
    const Csr<double> a = fuzz_matrix(static_cast<std::uint64_t>(seed) + 7000);
    cases.push_back({"seed " + std::to_string(seed), a, a});
  }
  for (MaskedCase& mc : masked_cases()) cases.push_back(std::move(mc));

  int chunked_masked = 0;
  int chunked_min_plus = 0;
  for (const MaskedCase& mc : cases) {
    const TileMatrix<double> t = csr_to_tile(mc.a);
    const TileMatrix<double> m = csr_to_tile(mc.mask);
    // The budget is process-wide and set when a context is built, so each
    // context runs everything it needs before the next one is built.
    SpgemmContext roomy(SpgemmContext::Config{}.with_device_mem_mb(4096));
    const Products gold = products_of(roomy, t, m);
    SpgemmContext squeezed(SpgemmContext::Config{}.with_device_mem_mb(1));
    const Products got = products_of(squeezed, t, m);
    if (got.masked.timings.chunks >= 2) ++chunked_masked;
    if (got.min_plus.timings.chunks >= 2) ++chunked_min_plus;
    expect_products_identical(gold, got, mc.name);
  }
  EXPECT_GT(chunked_masked, 0) << "1 MB chunked no masked case";
  EXPECT_GT(chunked_min_plus, 0) << "1 MB chunked no min-plus case";
}

}  // namespace
}  // namespace tsg
