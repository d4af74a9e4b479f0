// Allocation fault injection: prove that an out-of-memory at *every*
// tracked allocation site of a multiply (plain, masked, min-plus, CSR)
// surfaces as a clean StatusCode::kAllocationFailed through its try_
// entry point, leaks nothing (the tracker's live count returns to its
// baseline), and leaves the context reusable — the retry after clearing
// the plan must be bit-identical to an undisturbed run. Runs
// single-threaded so the allocation order (and hence FaultPlan::fail_at)
// is deterministic.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>

#include "common/memory.h"
#include "core/semiring.h"
#include "core/spgemm_context.h"
#include "matrix/convert.h"
#include "test_support.h"

namespace tsg {
namespace {

SpgemmContext::Config config() {
  // threads(1): deterministic allocation order.
  return SpgemmContext::Config{}.with_threads(1);
}

void expect_bit_identical(const TileMatrix<double>& x, const TileMatrix<double>& y) {
  ASSERT_EQ(x.tile_ptr, y.tile_ptr);
  ASSERT_EQ(x.tile_col_idx, y.tile_col_idx);
  ASSERT_EQ(x.tile_nnz, y.tile_nnz);
  ASSERT_EQ(x.row_ptr, y.row_ptr);
  ASSERT_EQ(x.col_idx, y.col_idx);
  for (std::size_t k = 0; k < x.val.size(); ++k) {
    ASSERT_EQ(x.val[k], y.val[k]) << "val[" << k << "]";
  }
}

/// One multiply through `ctx`: the tile-layout C, or the call's Status.
using Multiply = std::function<Expected<TileMatrix<double>>(SpgemmContext&)>;

/// The C of a try_run-shaped call, or its Status.
Expected<TileMatrix<double>> product_of(Expected<TileSpgemmResult<double>> run) {
  if (!run.ok()) return run.status();
  return std::move(run->c);
}

/// Fail allocation n of `multiply` for every n until the run is clean. A
/// fresh context per n restarts the allocation sequence from zero, so the
/// sweep visits every site exactly once. At each site the call must return
/// kAllocationFailed, a retry on the same context must be bit-identical to
/// an undisturbed run, and once the context and both results are gone the
/// tracker must be back at its pre-iteration count.
void sweep_allocation_sites(const char* what, const Multiply& multiply) {
  SCOPED_TRACE(what);
  SpgemmContext golden_ctx(config());
  const Expected<TileMatrix<double>> golden = multiply(golden_ctx);
  ASSERT_TRUE(golden.ok()) << golden.status().to_string();

  // Tracked allocations of one multiply through a fresh context, counted
  // with a plan that can never trip (fail_at beyond any real count).
  std::uint64_t total = 0;
  {
    FaultPlan plan;
    plan.fail_at = ~std::uint64_t{0};
    FaultInjectionScope scope(plan);
    SpgemmContext ctx(config());
    ASSERT_TRUE(multiply(ctx).ok());
    total = MemoryTracker::instance().tracked_allocs();
  }
  ASSERT_GT(total, 0u);

  std::uint64_t injected_failures = 0;
  for (std::uint64_t n = 1; n <= total; ++n) {
    const std::int64_t live_before = MemoryTracker::instance().current();
    {
      SpgemmContext ctx(config());
      FaultPlan plan;
      plan.fail_at = n;
      const Expected<TileMatrix<double>> result = [&] {
        FaultInjectionScope faults(plan);
        return multiply(ctx);
      }();
      if (result.ok()) {
        // The pooled workspace shrinks the per-run allocation count only
        // when capacity survives — with a fresh context it cannot, so every
        // n up to the counted total must actually trip.
        expect_bit_identical(*golden, *result);
      } else {
        ++injected_failures;
        EXPECT_EQ(result.status().code(), StatusCode::kAllocationFailed)
            << "site " << n << ": " << result.status().to_string();
        // Injection cleared: the same context completes the multiply.
        const Expected<TileMatrix<double>> retry = multiply(ctx);
        ASSERT_TRUE(retry.ok()) << "context not reusable after injected fault at site " << n;
        expect_bit_identical(*golden, *retry);
      }
    }
    EXPECT_EQ(MemoryTracker::instance().current(), live_before) << "site " << n;
  }
  EXPECT_GT(injected_failures, 0u);
}

TEST(FaultInjection, EveryAllocationSiteSurfacesAsStatus) {
  // Plain, masked (M = A's own pattern) and min-plus products all run the
  // one pipeline, so each must unwind every site the same way.
  const TileMatrix<double> ta = csr_to_tile(test::make_rmat_small());
  sweep_allocation_sites("plain",
                         [&](SpgemmContext& ctx) { return product_of(ctx.try_run(ta, ta)); });
  sweep_allocation_sites("masked",
                         [&](SpgemmContext& ctx) { return ctx.try_run_masked(ta, ta, ta); });
  sweep_allocation_sites("min-plus", [&](SpgemmContext& ctx) {
    return product_of(ctx.try_run_semiring<MinPlus<double>>(ta, ta));
  });
}

TEST(FaultInjection, EveryCsrRunAllocationSiteSurfacesAsStatus) {
  // Same sweep through the CSR boundary: beyond the engine's own sites it
  // covers the one CSR->tile conversion of the aliased operand (C = A*A
  // converts A once), the offset pass that places C's rows, and C's CSR
  // arrays, all of which must unwind to kAllocationFailed too.
  const Csr<double> a = test::make_er_small();

  SpgemmContext golden_ctx(config());
  const Csr<double> golden = golden_ctx.run_csr(a, a);
  auto expect_csr_identical = [&](const Csr<double>& got) {
    ASSERT_EQ(golden.row_ptr, got.row_ptr);
    ASSERT_EQ(golden.col_idx, got.col_idx);
    for (std::size_t k = 0; k < golden.val.size(); ++k) {
      ASSERT_EQ(golden.val[k], got.val[k]) << "val[" << k << "]";
    }
  };

  std::uint64_t total = 0;
  {
    FaultPlan plan;
    plan.fail_at = ~std::uint64_t{0};
    FaultInjectionScope scope(plan);
    SpgemmContext ctx(config());
    ASSERT_TRUE(ctx.try_run_csr(a, a).ok());
    total = MemoryTracker::instance().tracked_allocs();
  }
  ASSERT_GT(total, 0u);

  std::uint64_t injected_failures = 0;
  for (std::uint64_t n = 1; n <= total; ++n) {
    SpgemmContext ctx(config());
    FaultPlan plan;
    plan.fail_at = n;
    Expected<Csr<double>> result = [&] {
      FaultInjectionScope faults(plan);
      return ctx.try_run_csr(a, a);
    }();

    if (result.ok()) {
      expect_csr_identical(*result);
      continue;
    }
    ++injected_failures;
    EXPECT_EQ(result.status().code(), StatusCode::kAllocationFailed)
        << "site " << n << ": " << result.status().to_string();
    // Injection cleared: the same context completes the multiply, exactly.
    Expected<Csr<double>> retry = ctx.try_run_csr(a, a);
    ASSERT_TRUE(retry.ok()) << "context not reusable after injected fault at site " << n;
    expect_csr_identical(*retry);
  }
  EXPECT_GT(injected_failures, 0u);
}

TEST(FaultInjection, TrackerBalancedAfterInjectedFailure) {
  const Csr<double> a = test::make_er_small();
  const TileMatrix<double> ta = csr_to_tile(a);

  const std::int64_t baseline = MemoryTracker::instance().current();
  {
    SpgemmContext ctx(config());
    FaultPlan plan;
    plan.fail_at = 5;
    FaultInjectionScope scope(plan);
    Expected<TileSpgemmResult<double>> result = ctx.try_run(ta, ta);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kAllocationFailed);
    EXPECT_GE(MemoryTracker::instance().injected_faults(), 1u);
  }
  // Context destroyed: every tracked byte of the aborted run is gone.
  EXPECT_EQ(MemoryTracker::instance().current(), baseline);
}

TEST(FaultInjection, WatermarkBoundsLiveFootprint) {
  const Csr<double> a = test::make_rmat_small();
  const TileMatrix<double> ta = csr_to_tile(a);

  // A watermark low enough that the multiply cannot stage its output.
  SpgemmContext ctx(config());
  FaultPlan plan;
  plan.byte_watermark = 1024;
  FaultInjectionScope scope(plan);
  Expected<TileSpgemmResult<double>> result = ctx.try_run(ta, ta);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAllocationFailed);
}

TEST(FaultInjection, SeededRateIsDeterministic) {
  const Csr<double> a = test::make_er_small();
  const TileMatrix<double> ta = csr_to_tile(a);

  auto outcome = [&](std::uint64_t seed) {
    SpgemmContext ctx(config());
    FaultPlan plan;
    plan.fail_rate = 0.05;
    plan.seed = seed;
    FaultInjectionScope scope(plan);
    const bool ok = ctx.try_run(ta, ta).ok();
    return std::make_pair(ok, MemoryTracker::instance().injected_faults());
  };
  // Same seed, same verdict stream (single-threaded): identical outcome.
  const auto first = outcome(123);
  const auto second = outcome(123);
  EXPECT_EQ(first, second);
}

TEST(FaultInjection, MaskedAndCsrPathsSurfaceStatusToo) {
  const Csr<double> a = test::make_er_small();
  const TileMatrix<double> ta = csr_to_tile(a);

  SpgemmContext ctx(config());
  FaultPlan plan;
  plan.fail_at = 3;
  {
    FaultInjectionScope scope(plan);
    Expected<TileMatrix<double>> masked = ctx.try_run_masked(ta, ta, ta);
    ASSERT_FALSE(masked.ok());
    EXPECT_EQ(masked.status().code(), StatusCode::kAllocationFailed);
  }
  {
    FaultInjectionScope scope(plan);
    Expected<Csr<double>> csr = ctx.try_run_csr(a, a);
    ASSERT_FALSE(csr.ok());
    EXPECT_EQ(csr.status().code(), StatusCode::kAllocationFailed);
  }
  // Both failures behind us: the context still multiplies.
  EXPECT_TRUE(ctx.try_run(ta, ta).ok());
}

}  // namespace
}  // namespace tsg
