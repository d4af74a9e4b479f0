// Failure injection: with a tiny modeled device-memory budget, every
// method that stages O(intermediate products) of global workspace must
// fail with bad_alloc — and TileSpGEMM, which allocates no global
// intermediate space, must still succeed. This is the mechanism behind the
// paper's "0.00 (failed)" bars, isolated in its own binary because the
// budget is latched from the environment once per process.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "baselines/esc.h"
#include "core/spgemm_context.h"
#include "matrix/convert.h"
#include "baselines/hash.h"
#include "baselines/spa.h"
#include "baselines/speck.h"
#include "common/memory.h"
#include "core/semiring_spgemm.h"
#include "core/tile_spgemm.h"
#include "gen/generators.h"
#include "harness/runner.h"
#include "test_support.h"

namespace tsg {
namespace {

using TileRequest = Request<TileMatrix<double>>;

class BudgetEnvironment : public ::testing::Environment {
 public:
  void SetUp() override { setenv("TSG_DEVICE_MEM_MB", "1", 1); }
};

const auto* const g_env =
    ::testing::AddGlobalTestEnvironment(new BudgetEnvironment());  // NOLINT

Csr<double> workload() {
  // ~1.3M intermediate products: ~16 MB of staging, far over the 1 MB cap.
  return gen::dense_blocks(8, 40, 7);
}

TEST(DeviceBudget, BudgetIsLatchedFromEnvironment) {
  EXPECT_EQ(device_memory_budget_bytes(), 1u * 1024 * 1024);
}

TEST(DeviceBudget, GlobalBufferMethodsFail) {
  const Csr<double> a = workload();
  EXPECT_THROW(spgemm_esc(a, a), std::bad_alloc);
  EXPECT_THROW(spgemm_spa(a, a), std::bad_alloc);
  EXPECT_THROW(spgemm_hash(a, a), std::bad_alloc);
}

TEST(DeviceBudget, TileSpgemmSucceedsRegardless) {
  const Csr<double> a = workload();
  const Csr<double> c = spgemm_tile(a, a);
  EXPECT_GT(c.nnz(), 0);
  // spECK's adaptive accumulators are per-row and bounded too.
  test::expect_equal(spgemm_speck(a, a), c, "speck vs tile under budget");
}

TEST(DeviceBudget, HarnessReportsFailureAsNotOk) {
  const NamedMatrix m{"blocks", "dense blocks", true, workload()};
  const Measurement esc = measure(m, paper_algorithms()[1], SpgemmOp::kASquared, 1);
  EXPECT_FALSE(esc.ok);
  const Measurement tile = measure(m, paper_algorithms()[4], SpgemmOp::kASquared, 1);
  EXPECT_TRUE(tile.ok);
}

TEST(DeviceBudget, CheckHelperThrowsExactlyAboveBudget) {
  EXPECT_NO_THROW(check_workspace_budget(1024 * 1024));
  EXPECT_THROW(check_workspace_budget(1024 * 1024 + 1), std::bad_alloc);
}

// --- Graceful degradation (ISSUE 2): when the estimated footprint of a
// tiled multiply exceeds the budget, SpgemmContext splits C's tile rows
// into chunks that fit and stitches a bit-identical result. ---

/// Restores the process-wide budget override (SpgemmContext's constructor
/// publishes Config::device_mem_mb) even when an ASSERT bails out, so the
/// 1 MB environment latch governs the remaining tests again.
struct BudgetOverrideGuard {
  ~BudgetOverrideGuard() { set_device_memory_budget_bytes(0); }
};

/// Big enough that the per-tile upper-bound estimate blows well past 2 MB:
/// rmat squared at scale 10 populates a few thousand C tiles.
Csr<double> chunking_workload() { return gen::rmat(10, 8.0, 11); }

void expect_tile_bit_identical(const TileMatrix<double>& x, const TileMatrix<double>& y) {
  ASSERT_EQ(x.tile_ptr, y.tile_ptr);
  ASSERT_EQ(x.tile_col_idx, y.tile_col_idx);
  ASSERT_EQ(x.tile_nnz, y.tile_nnz);
  ASSERT_EQ(x.row_ptr, y.row_ptr);
  ASSERT_EQ(x.col_idx, y.col_idx);
  for (std::size_t k = 0; k < x.val.size(); ++k) {
    ASSERT_EQ(x.val[k], y.val[k]) << "val[" << k << "]";
  }
}

TEST(DeviceBudget, ChunkedExecutionIsBitIdenticalToSingleShot) {
  BudgetOverrideGuard guard;
  const Csr<double> a = chunking_workload();
  const TileMatrix<double> ta = csr_to_tile(a);

  // Gold: a budget generous enough for single-shot execution.
  SpgemmContext roomy(SpgemmContext::Config{}.with_device_mem_mb(4096));
  const TileSpgemmResult<double> gold = roomy.try_run(TileRequest{&ta, &ta}).value();
  EXPECT_EQ(gold.timings.chunks, 1);
  EXPECT_FALSE(gold.timings.budget_limited);

  // Squeezed: same multiply under 2 MB must degrade to >= 2 chunks and
  // still stitch the exact same output, bit for bit.
  SpgemmContext squeezed(SpgemmContext::Config{}.with_device_mem_mb(2));
  Expected<TileSpgemmResult<double>> run = squeezed.try_run(TileRequest{&ta, &ta});
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  EXPECT_TRUE(run->timings.budget_limited);
  EXPECT_GE(run->timings.chunks, 2);
  expect_tile_bit_identical(gold.c, run->c);

  // The pooled workspace survives chunked calls: a second squeezed run on
  // the same context must agree too.
  Expected<TileSpgemmResult<double>> again = squeezed.try_run(TileRequest{&ta, &ta});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->timings.chunks, run->timings.chunks);
  expect_tile_bit_identical(gold.c, again->c);
}

TEST(DeviceBudget, ChunkingIsEquivalentAcrossTheGeneratorSuite) {
  // Every structure class in the generator sweep, plus a rectangular A*B
  // with B != A and a product whose C is empty: a roomy single-shot run and
  // a starved run (2 MB: small enough that anything nontrivial chunks) must
  // agree bit for bit, in the tile layout and through the CSR path, whose
  // chunks append CSR rows. Cases whose estimate fits simply run single-
  // shot under both budgets — equivalence is asserted either way.
  BudgetOverrideGuard guard;
  struct Product {
    std::string name;
    Csr<double> a, b;
  };
  std::vector<Product> products;
  const test::GenCase suite[] = {
      {"er_small", test::make_er_small}, {"rmat_small", test::make_rmat_small},
      {"stencil", test::make_stencil},   {"band_wide", test::make_band_wide},
      {"blocks", test::make_blocks},     {"clustered", test::make_clustered},
  };
  for (const auto& c : suite) products.push_back({c.name, c.make(), c.make()});
  products.push_back({"er_rect", test::make_er_rect(), test::make_er_rect_rhs()});
  products.push_back(
      {"empty_product", test::make_empty_product_lhs(), test::make_empty_product_rhs()});

  int chunked_cases = 0;
  int chunked_csr_cases = 0;
  for (const Product& p : products) {
    SCOPED_TRACE(p.name);
    const TileMatrix<double> ta = csr_to_tile(p.a);
    const TileMatrix<double> tb = csr_to_tile(p.b);
    // The budget is process-wide and set when a context is built, so each
    // context runs everything it needs before the next one is built.
    SpgemmContext roomy(SpgemmContext::Config{}.with_device_mem_mb(4096));
    const TileSpgemmResult<double> gold = roomy.try_run(TileRequest{&ta, &tb}).value();
    const Csr<double> gold_csr = roomy.try_run(Request<Csr<double>>{&p.a, &p.b}).value().c;
    SpgemmContext squeezed(SpgemmContext::Config{}.with_device_mem_mb(2));
    Expected<TileSpgemmResult<double>> run = squeezed.try_run(TileRequest{&ta, &tb});
    ASSERT_TRUE(run.ok()) << run.status().to_string();
    if (run->timings.budget_limited) ++chunked_cases;
    expect_tile_bit_identical(gold.c, run->c);

    Expected<SpgemmResult<Csr<double>>> csr = squeezed.try_run(Request<Csr<double>>{&p.a, &p.b});
    ASSERT_TRUE(csr.ok()) << csr.status().to_string();
    if (csr->timings.chunks >= 2) ++chunked_csr_cases;
    test::expect_csr_bytes_equal(gold_csr, csr->c, "starved csr");
  }
  EXPECT_GT(chunked_cases, 0) << "2 MB starved no case at all";
  EXPECT_GT(chunked_csr_cases, 0) << "2 MB starved no CSR case at all";
}

TEST(DeviceBudget, DegradationDisabledReturnsBudgetExceeded) {
  BudgetOverrideGuard guard;
  const Csr<double> a = chunking_workload();
  const TileMatrix<double> ta = csr_to_tile(a);

  SpgemmContext ctx(
      SpgemmContext::Config{}.with_device_mem_mb(2).with_degradation(false));
  Expected<TileSpgemmResult<double>> run = ctx.try_run(TileRequest{&ta, &ta});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kBudgetExceeded);
  // .value() throws tsg::Error carrying the identical Status.
  try {
    (void)std::move(run).value();
    FAIL() << "value() should throw under a too-small budget with degradation off";
  } catch (const Error& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kBudgetExceeded);
  }

  // Masked (M = A's own pattern) and min-plus products plan the same budget.
  EXPECT_EQ(ctx.try_run(TileRequest{&ta, &ta, &ta}).status().code(),
            StatusCode::kBudgetExceeded);
  EXPECT_EQ(ctx.try_run(Request<TileMatrix<double>, MinPlus<double>>{&ta, &ta}).status().code(),
            StatusCode::kBudgetExceeded);
  // So do the wrappers the end-to-end benchmark calls.
  EXPECT_EQ(ctx.try_run_masked(ta, ta, ta).status().code(), StatusCode::kBudgetExceeded);
  try {
    (void)tile_spgemm_semiring<MinPlus<double>>(ctx, ta, ta);
    FAIL() << "tile_spgemm_semiring should throw under a too-small budget with degradation off";
  } catch (const Error& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kBudgetExceeded);
  }
}

TEST(DeviceBudget, SpgemmTileDegradesUnderTheEnvironmentBudget) {
  // Through the convenience entry point (fresh default context, 1 MB env
  // latch): the big workload must complete by chunking, and the result must
  // match a roomy single-shot run.
  BudgetOverrideGuard guard;
  const Csr<double> a = chunking_workload();
  const TileMatrix<double> ta = csr_to_tile(a);

  SpgemmContext roomy(SpgemmContext::Config{}.with_device_mem_mb(4096));
  const TileMatrix<double> gold = roomy.try_run(TileRequest{&ta, &ta}).value().c;
  set_device_memory_budget_bytes(0);  // back to the 1 MB environment latch

  SpgemmContext tight;  // from_env: budget 1 MB
  const TileSpgemmResult<double> res = tight.try_run(TileRequest{&ta, &ta}).value();
  EXPECT_TRUE(res.timings.budget_limited);
  EXPECT_GE(res.timings.chunks, 2);
  expect_tile_bit_identical(gold, res.c);
}

}  // namespace
}  // namespace tsg
