// A/B bit-identity contracts for the hot-path kernels: the default
// dispatch level's step-2 symbolic kernel vs the scalar reference level,
// and chunked execution under a 1 MB device budget vs a roomy single shot.
// "Bit-identical" means every array of the produced TileMatrix — structure
// and values — compares equal byte-for-byte; the optimisations only
// reorder *reads*, never the accumulation order.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/memory.h"
#include "common/random.h"
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
  expect_tiles_identical(scalar.run(ta, ta).c, dflt.run(ta, ta).c,
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
  for (const test::GenCase& gc : cases) {
    const TileMatrix<double> t = csr_to_tile(gc.make());
    expect_tiles_identical(scalar.run(t, t).c, dflt.run(t, t).c, gc.name);
  }
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
  for (int seed = 0; seed < 8; ++seed) {
    const TileMatrix<double> t =
        csr_to_tile(fuzz_matrix(static_cast<std::uint64_t>(seed) + 7000));
    SpgemmContext roomy(SpgemmContext::Config{}.with_device_mem_mb(4096));
    const TileMatrix<double> gold = roomy.run(t, t).c;
    SpgemmContext squeezed(SpgemmContext::Config{}.with_device_mem_mb(1));
    expect_tiles_identical(gold, squeezed.run(t, t).c, "seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace tsg
