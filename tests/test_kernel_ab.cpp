// A/B bit-identity contracts for the PR-5 hot-path kernels: the word-packed
// step-2 symbolic kernel vs the scalar reference, and the matched-pair cache
// (per cost bin, and dropped under a tight device budget) vs the paper's
// recompute policy. "Bit-identical" means every array of the produced
// TileMatrix — structure and values — compares equal byte-for-byte; the
// optimisations only reorder *reads*, never the accumulation order.
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

// ------------------------------------------------- packed vs scalar step2 --

class SymbolicAb : public ::testing::TestWithParam<int> {};

TEST_P(SymbolicAb, WordPackedMatchesScalarBitExact) {
  const Csr<double> a = fuzz_matrix(static_cast<std::uint64_t>(GetParam()));
  const TileMatrix<double> ta = csr_to_tile(a);
  TileSpgemmOptions packed, scalar;
  packed.symbolic = SymbolicKernel::kWordPacked;
  scalar.symbolic = SymbolicKernel::kScalar;
  expect_tiles_identical(tile_spgemm(ta, ta, scalar).c, tile_spgemm(ta, ta, packed).c,
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
  for (const test::GenCase& gc : cases) {
    const TileMatrix<double> t = csr_to_tile(gc.make());
    TileSpgemmOptions packed, scalar;
    packed.symbolic = SymbolicKernel::kWordPacked;
    scalar.symbolic = SymbolicKernel::kScalar;
    expect_tiles_identical(tile_spgemm(t, t, scalar).c, tile_spgemm(t, t, packed).c,
                           gc.name);
  }
}

TEST(SymbolicAb, PackedPathStillMatchesReferenceProduct) {
  // Belt and braces: beyond A/B identity, the packed default also has to be
  // the right answer.
  const Csr<double> a = gen::dense_blocks(8, 16, 9301);
  test::check_against_reference(
      a, a, [](const Csr<double>& x, const Csr<double>& y) { return spgemm_tile(x, y); },
      "packed vs reference");
}

// --------------------------------------------- cached vs recomputed pairs --

class PairCacheAb : public ::testing::TestWithParam<int> {};

TEST_P(PairCacheAb, CachedPairsMatchRecomputeBitExact) {
  const Csr<double> a = fuzz_matrix(static_cast<std::uint64_t>(GetParam()) + 5000);
  const TileMatrix<double> t = csr_to_tile(a);
  SpgemmContext recompute(SpgemmContext::Config{}.with_pair_cache(false));
  const TileMatrix<double> gold = recompute.run(t, t).c;
  // Every bin cached (0), the default heavy-only split (1), and a bin that
  // exceeds the binning range so the sentinel forces recompute everywhere.
  for (const int min_bin : {0, 1, 99}) {
    SpgemmContext cached(
        SpgemmContext::Config{}.with_pair_cache(true).with_pair_cache_min_bin(min_bin));
    const std::string what =
        "min_bin " + std::to_string(min_bin) + " seed " + std::to_string(GetParam());
    const TileMatrix<double> got = cached.run(t, t).c;
    expect_tiles_identical(gold, got, what);
    // The CSR path writes C's rows straight from step 3: byte for byte
    // tile_to_csr of the same context's tile result.
    Expected<Csr<double>> csr = cached.try_run_csr(a, a);
    ASSERT_TRUE(csr.ok()) << what << ": " << csr.status().to_string();
    test::expect_csr_bytes_equal(tile_to_csr(got), *csr, what + " csr");
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, PairCacheAb, ::testing::Range(0, 16));

TEST(PairCacheAb, FusedPathMatchesRecomputeBitExact) {
  const TileMatrix<double> t = csr_to_tile(gen::clustered_rows(320, 3, 6, 9302));
  SpgemmContext recompute(SpgemmContext::Config{}.with_pair_cache(false));
  SpgemmContext fused(SpgemmContext::Config{}.with_fused_path(true));
  expect_tiles_identical(recompute.run(t, t).c, fused.run(t, t).c, "fused");
}

// ------------------------------------------- budget-degraded (chunked) AB --

/// Restores the process-wide budget override on scope exit.
struct BudgetOverrideGuard {
  ~BudgetOverrideGuard() { set_device_memory_budget_bytes(0); }
};

TEST(PairCacheAb, TightBudgetDropsCacheButStaysBitExact) {
  BudgetOverrideGuard guard;
  const TileMatrix<double> t = csr_to_tile(gen::banded(3000, 24, 9303));
  SpgemmContext roomy(
      SpgemmContext::Config{}.with_pair_cache(true).with_device_mem_mb(4096));
  const TileSpgemmResult<double> gold = roomy.run(t, t);
  ASSERT_FALSE(gold.timings.budget_limited);
  ASSERT_FALSE(gold.timings.pair_cache_dropped);

  // Staged degradation: the pair cache is dropped first (back to the paper's
  // recompute policy), and only then does the run chunk; dropping the cache
  // alone may already clear the budget, so only the drop flag is asserted —
  // either way the payload must not move a bit.
  SpgemmContext squeezed(
      SpgemmContext::Config{}.with_pair_cache(true).with_device_mem_mb(2));
  const TileSpgemmResult<double> degraded = squeezed.run(t, t);
  EXPECT_TRUE(degraded.timings.pair_cache_dropped);
  expect_tiles_identical(gold.c, degraded.c, "tight budget");
}

TEST(PairCacheAb, ChunkedFuzzStaysBitExact) {
  BudgetOverrideGuard guard;
  for (int seed = 0; seed < 8; ++seed) {
    const TileMatrix<double> t =
        csr_to_tile(fuzz_matrix(static_cast<std::uint64_t>(seed) + 7000));
    SpgemmContext roomy(
        SpgemmContext::Config{}.with_pair_cache(true).with_device_mem_mb(4096));
    const TileMatrix<double> gold = roomy.run(t, t).c;
    SpgemmContext squeezed(
        SpgemmContext::Config{}.with_pair_cache(true).with_device_mem_mb(1));
    expect_tiles_identical(gold, squeezed.run(t, t).c, "seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace tsg
