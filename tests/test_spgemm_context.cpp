// SpgemmContext: workspace pooling, cost-binned scheduling, and the Config
// builder / environment plumbing.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common/cancellation.h"
#include "common/memory.h"
#include "core/masked_spgemm.h"
#include "core/semiring_spgemm.h"
#include "core/spgemm_context.h"
#include "matrix/convert.h"
#include "matrix/transpose.h"
#include "test_support.h"

namespace tsg {
namespace {

const std::vector<test::GenCase>& cases() {
  static const std::vector<test::GenCase> list = {
      {"er_small", test::make_er_small},     {"er_rect", test::make_er_rect},
      {"er_dense", test::make_er_dense},     {"rmat_small", test::make_rmat_small},
      {"stencil", test::make_stencil},       {"band", test::make_band},
      {"band_wide", test::make_band_wide},   {"blocks", test::make_blocks},
      {"clustered", test::make_clustered},   {"hyper_sparse", test::make_hyper_sparse},
  };
  return list;
}

/// Right-hand operand for a sweep case: A itself, or A^T when A is
/// rectangular (so the product is always well-formed).
Csr<double> rhs_for(const Csr<double>& a) {
  return a.rows == a.cols ? a : transpose(a);
}

void expect_bit_identical(const Csr<double>& x, const Csr<double>& y,
                          const std::string& context) {
  ASSERT_EQ(x.rows, y.rows) << context;
  ASSERT_EQ(x.row_ptr, y.row_ptr) << context;
  ASSERT_EQ(x.col_idx, y.col_idx) << context;
  for (std::size_t k = 0; k < x.val.size(); ++k) {
    ASSERT_EQ(x.val[k], y.val[k]) << context << " val[" << k << "]";
  }
}

TEST(SpgemmContext, ReusedContextBitIdenticalToFresh) {
  // One context carried across every shape in the sweep must produce the
  // same bits as a fresh context per multiply: begin_call() has to fully
  // neutralise whatever the previous (differently shaped) call left in the
  // pooled buffers.
  SpgemmContext reused;
  for (const auto& c : cases()) {
    const Csr<double> a = c.make();
    const Csr<double> b = rhs_for(a);
    SpgemmContext fresh;
    const Csr<double> want = fresh.run_csr(a, b);
    const Csr<double> got = reused.run_csr(a, b);
    expect_bit_identical(want, got, c.name);
  }
}

TEST(SpgemmContext, RepeatedRunsThroughOneContextAreStable) {
  SpgemmContext ctx;
  const Csr<double> a = gen::rmat(10, 5.0, 77);
  const TileMatrix<double> ta = csr_to_tile(a);
  const TileSpgemmResult<double> first = ctx.run(ta, ta);
  for (int i = 0; i < 3; ++i) {
    const TileSpgemmResult<double> again = ctx.run(ta, ta);
    expect_bit_identical(tile_to_csr(first.c), tile_to_csr(again.c), "iteration");
  }
  test::check_against_reference(
      a, a, [&](const Csr<double>& x, const Csr<double>& y) { return ctx.run_csr(x, y); },
      "vs reference");
}

TEST(SpgemmContext, WorkspaceHighWaterStopsGrowing) {
  // With a fixed thread count the pooled footprint is deterministic: it
  // fills on the first call and must not grow on any later identical call.
  SpgemmContext ctx(SpgemmContext::Config{}.with_threads(1));
  const Csr<double> a = gen::rmat(10, 5.0, 78);
  const TileMatrix<double> ta = csr_to_tile(a);
  (void)ctx.run(ta, ta);
  const std::size_t high_water = ctx.workspace_bytes();
  EXPECT_GT(high_water, 0u);
  for (int i = 0; i < 4; ++i) {
    const TileSpgemmResult<double> res = ctx.run(ta, ta);
    EXPECT_EQ(ctx.workspace_bytes(), high_water) << "call " << i + 1;
    EXPECT_EQ(res.timings.workspace_bytes, high_water);
  }
  ctx.release_workspaces();
  EXPECT_EQ(ctx.workspace_bytes(), 0u);
}

TEST(SpgemmContext, BinCountersCoverAllTiles) {
  SpgemmContext ctx;
  const TileMatrix<double> ta = csr_to_tile(gen::rmat(10, 5.0, 79));
  const TileSpgemmResult<double> res = ctx.run(ta, ta);
  offset_t binned = 0;
  for (int b = 0; b < kCostBins; ++b) binned += res.timings.bin_tiles[b];
  EXPECT_EQ(binned, res.timings.scheduled_tiles);
  EXPECT_EQ(res.timings.scheduled_tiles, res.c.num_tiles());
}

TEST(SpgemmContext, RunAatMatchesFreeFunction) {
  const Csr<double> a = test::make_er_rect();
  const TileMatrix<double> ta = csr_to_tile(a);
  SpgemmContext ctx;
  const TileSpgemmResult<double> via_ctx = ctx.run_aat(ta);
  const TileSpgemmResult<double> via_free = tile_spgemm_aat(ta);
  expect_bit_identical(tile_to_csr(via_ctx.c), tile_to_csr(via_free.c), "aat");
}

TEST(SpgemmContext, RunMaskedMatchesFreeFunction) {
  const Csr<double> a = test::make_rmat_small();
  const TileMatrix<double> ta = csr_to_tile(a);
  SpgemmContext ctx;
  const TileMatrix<double> via_ctx = ctx.run_masked(ta, ta, ta);
  const TileMatrix<double> via_free = tile_spgemm_masked(ta, ta, ta);
  expect_bit_identical(tile_to_csr(via_ctx), tile_to_csr(via_free), "masked");
  // And reuse across differently shaped masked calls stays correct.
  const TileMatrix<double> tb = csr_to_tile(test::make_stencil());
  expect_bit_identical(tile_to_csr(ctx.run_masked(tb, tb, tb)),
                       tile_to_csr(tile_spgemm_masked(tb, tb, tb)), "masked-2");
}

TEST(SpgemmContext, MixedCallKindsThroughOneContext) {
  // run / run_aat / run_masked / run_csr interleaved on one context: each
  // begin_call() must leave no residue for the next kind of call.
  SpgemmContext ctx;
  const Csr<double> a = test::make_blocks();
  const TileMatrix<double> ta = csr_to_tile(a);
  expect_bit_identical(tile_to_csr(ctx.run(ta, ta).c),
                       tile_to_csr(tile_spgemm(ta, ta).c), "run");
  expect_bit_identical(tile_to_csr(ctx.run_aat(ta).c),
                       tile_to_csr(tile_spgemm_aat(ta).c), "aat");
  expect_bit_identical(tile_to_csr(ctx.run_masked(ta, ta, ta)),
                       tile_to_csr(tile_spgemm_masked(ta, ta, ta)), "masked");
  expect_bit_identical(ctx.run_csr(a, a), spgemm_tile(a, a), "csr");
}

TEST(SpgemmContext, ConvertMsIsAttributed) {
  // Conversion through the context lands in the next run's convert_ms and
  // is excluded from core_ms(); the CSR free function reports it too.
  SpgemmContext ctx;
  const Csr<double> a = gen::rmat(10, 5.0, 80);
  const TileMatrix<double> ta = ctx.to_tile(a);
  const TileSpgemmResult<double> res = ctx.run(ta, ta);
  EXPECT_GT(res.timings.convert_ms, 0.0);
  EXPECT_GE(res.timings.total_ms(), res.timings.core_ms());
  // A run with pre-converted operands carries no conversion charge.
  EXPECT_EQ(ctx.run(ta, ta).timings.convert_ms, 0.0);

  TileSpgemmTimings t;
  (void)spgemm_tile(a, a, {}, &t);
  EXPECT_GT(t.convert_ms, 0.0);
}

TEST(SpgemmContext, ConfigBuilderComposes) {
  const SpgemmContext::Config cfg = SpgemmContext::Config{}
                                        .with_threads(2)
                                        .with_simd_level(simd::Level::kSwar)
                                        .with_device_mem_mb(64)
                                        .with_degradation(false)
                                        .with_validation(ValidationLevel::kFull)
                                        .with_nan_policy(NanPolicy::kReject);
  EXPECT_EQ(cfg.threads, 2);
  EXPECT_EQ(cfg.options.simd, simd::Level::kSwar);
  EXPECT_EQ(cfg.device_mem_mb, 64u);
  EXPECT_FALSE(cfg.degrade_on_budget);
  EXPECT_EQ(cfg.validation, ValidationLevel::kFull);
  EXPECT_EQ(cfg.nan_policy, NanPolicy::kReject);
}

TEST(SpgemmContext, ConfigFromEnv) {
  setenv("TSG_NUM_THREADS", "3", 1);
  setenv("TSG_DEVICE_MEM_MB", "123", 1);
  const SpgemmContext::Config cfg = SpgemmContext::Config::from_env();
  EXPECT_EQ(cfg.threads, 3);
  EXPECT_EQ(cfg.device_mem_mb, 123u);
  unsetenv("TSG_NUM_THREADS");
  unsetenv("TSG_DEVICE_MEM_MB");
  EXPECT_EQ(SpgemmContext::Config::from_env().threads, 0);

  // A context built from that config publishes the budget process-wide.
  { SpgemmContext ctx(SpgemmContext::Config{}.with_device_mem_mb(123)); }
  EXPECT_EQ(device_memory_budget_bytes(), 123u * 1024 * 1024);
  set_device_memory_budget_bytes(0);  // restore the environment default
}

TEST(SpgemmContext, ThreadConfigMatchesGlobalSetting) {
  const Csr<double> a = gen::rmat(10, 5.0, 81);
  SpgemmContext one(SpgemmContext::Config{}.with_threads(1));
  SpgemmContext four(SpgemmContext::Config{}.with_threads(4));
  expect_bit_identical(one.run_csr(a, a), four.run_csr(a, a), "threads 1 vs 4");
}

// --- Status layer: operand validation and structured failures at the
// context boundary (ISSUE 2). ---

TEST(SpgemmContextStatus, DimensionMismatchIsAStatusNotACrash) {
  const TileMatrix<double> a = csr_to_tile(gen::erdos_renyi(40, 60, 200, 5));
  const TileMatrix<double> b = csr_to_tile(gen::erdos_renyi(40, 60, 200, 6));
  SpgemmContext ctx;
  Expected<TileSpgemmResult<double>> run = ctx.try_run(a, b);  // 60 != 40
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDimensionMismatch);
  EXPECT_THROW((void)ctx.run(a, b), Error);
  // kOff trusts structure but still refuses incompatible shapes.
  SpgemmContext off(SpgemmContext::Config{}.with_validation(ValidationLevel::kOff));
  EXPECT_EQ(off.try_run(a, b).status().code(), StatusCode::kDimensionMismatch);
}

TEST(SpgemmContextStatus, CheapValidationCatchesCorruptedTileOperand) {
  TileMatrix<double> a = csr_to_tile(test::make_er_small());
  a.tile_nnz.back() = -7;  // corrupt: nnz wrapped negative (offset overflow)
  SpgemmContext ctx;
  Expected<TileSpgemmResult<double>> run = ctx.try_run(a, a);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kIndexOverflow);

  TileMatrix<double> truncated = csr_to_tile(test::make_er_small());
  truncated.col_idx.pop_back();  // nonzero arrays inconsistent with nnz
  Expected<TileSpgemmResult<double>> run2 = ctx.try_run(truncated, truncated);
  ASSERT_FALSE(run2.ok());
  EXPECT_EQ(run2.status().code(), StatusCode::kInvalidArgument);

  // The context survives rejected operands: a clean multiply still works.
  const TileMatrix<double> good = csr_to_tile(test::make_er_small());
  EXPECT_TRUE(ctx.try_run(good, good).ok());
}

TEST(SpgemmContextStatus, CsrBoundaryValidatesToo) {
  Csr<double> a = test::make_er_small();
  a.row_ptr[1] = a.row_ptr.back() + 1;  // non-monotone: exceeds every later entry
  SpgemmContext ctx;
  Expected<Csr<double>> run = ctx.try_run_csr(a, a);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(SpgemmContextStatus, NanPolicyGatesNonFiniteOperands) {
  Csr<double> a = test::make_er_small();
  a.val[0] = std::numeric_limits<double>::quiet_NaN();
  const TileMatrix<double> ta = csr_to_tile(a);

  // Default (kCheap / kAllow): NaN propagates with IEEE semantics.
  SpgemmContext lax;
  EXPECT_TRUE(lax.try_run(ta, ta).ok());

  // Full validation with kReject refuses the operand up front.
  SpgemmContext strict(SpgemmContext::Config{}
                           .with_validation(ValidationLevel::kFull)
                           .with_nan_policy(NanPolicy::kReject));
  Expected<TileSpgemmResult<double>> run = strict.try_run(ta, ta);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);

  // Full validation alone (kAllow) accepts it: NaN is a value, not a
  // structural defect.
  SpgemmContext full(SpgemmContext::Config{}.with_validation(ValidationLevel::kFull));
  EXPECT_TRUE(full.try_run(ta, ta).ok());
}

TEST(SpgemmContextStatus, MaskedBoundaryValidatesAllThreeOperands) {
  const TileMatrix<double> good = csr_to_tile(test::make_er_small());
  TileMatrix<double> bad = good;
  bad.row_ptr.pop_back();  // row_ptr/mask size mismatch
  SpgemmContext ctx;
  EXPECT_EQ(ctx.try_run_masked(good, good, bad).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ctx.try_run_masked(bad, good, good).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(ctx.try_run_masked(good, good, good).ok());
}

TEST(SpgemmContextStatus, ExpectedAccessorsRoundTrip) {
  SpgemmContext ctx;
  const TileMatrix<double> ta = csr_to_tile(test::make_er_small());
  Expected<TileSpgemmResult<double>> run = ctx.try_run(ta, ta);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run.status().ok());  // ok Expected reports an ok Status
  EXPECT_EQ(run->c.nnz(), (*run).c.nnz());
  const TileSpgemmResult<double> moved = std::move(run).value();
  EXPECT_GT(moved.c.nnz(), 0);
}

// --- run*/try_run* twin-pairing contract (compile-time) -------------------
// Every throwing entry point must have a `try_` twin with the *identical*
// parameter list whose return type is the Expected of the throwing one.
// Member-pointer matching pins both halves: renaming a parameter-list or
// letting the signatures drift apart breaks this template's deduction and
// the static_assert fails at compile time.
template <class C, class R, class... Args>
constexpr bool twin_pair(R (C::*)(Args...), Expected<R> (C::*)(Args...)) {
  return true;
}

static_assert(twin_pair(&SpgemmContext::run<double>, &SpgemmContext::try_run<double>));
static_assert(twin_pair(&SpgemmContext::run<float>, &SpgemmContext::try_run<float>));
static_assert(twin_pair(&SpgemmContext::run_aat<double>, &SpgemmContext::try_run_aat<double>));
static_assert(twin_pair(&SpgemmContext::run_aat<float>, &SpgemmContext::try_run_aat<float>));
static_assert(twin_pair(&SpgemmContext::run_csr<double>, &SpgemmContext::try_run_csr<double>));
static_assert(twin_pair(&SpgemmContext::run_csr<float>, &SpgemmContext::try_run_csr<float>));
static_assert(
    twin_pair(&SpgemmContext::run_masked<double>, &SpgemmContext::try_run_masked<double>));
static_assert(
    twin_pair(&SpgemmContext::run_masked<float>, &SpgemmContext::try_run_masked<float>));

TEST(SpgemmContextStatus, MaskedAndSemiringHonourCancellation) {
  // The context's token reaches the masked, semiring and CSR pipelines: a
  // pre-cancelled or expired token ends the call with its status instead of
  // a (partly computed) C, and the disarmed context runs bit-identically to
  // a fresh one afterwards.
  const Csr<double> a_csr = test::make_rmat_small();
  const TileMatrix<double> a = csr_to_tile(a_csr);
  SpgemmContext fresh;
  const Csr<double> want_masked = tile_to_csr(fresh.run_masked(a, a, a));
  const Csr<double> want_min_plus =
      tile_to_csr(tile_spgemm_semiring<MinPlus<double>>(fresh, a, a));
  const Csr<double> want_csr = fresh.run_csr(a_csr, a_csr);

  CancelSource cancelled;
  cancelled.request_cancel();
  CancelSource expired;
  expired.set_deadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  const std::pair<CancelToken, StatusCode> stops[] = {
      {cancelled.token(), StatusCode::kCancelled},
      {expired.token(), StatusCode::kDeadlineExceeded},
  };
  SpgemmContext ctx;
  for (const auto& [token, code] : stops) {
    ctx.set_cancel_token(token);
    EXPECT_EQ(ctx.try_run_masked(a, a, a).status().code(), code);
    EXPECT_EQ(ctx.try_run_csr(a_csr, a_csr).status().code(), code);
    try {
      (void)tile_spgemm_semiring<MinPlus<double>>(ctx, a, a);
      ADD_FAILURE() << "semiring multiply ran under a stopped token";
    } catch (const Error& e) {
      EXPECT_EQ(e.status().code(), code);
    }
  }

  ctx.set_cancel_token({});
  expect_bit_identical(want_masked, tile_to_csr(ctx.run_masked(a, a, a)), "masked");
  expect_bit_identical(want_min_plus,
                       tile_to_csr(tile_spgemm_semiring<MinPlus<double>>(ctx, a, a)),
                       "min-plus");
  test::expect_csr_bytes_equal(want_csr, ctx.run_csr(a_csr, a_csr), "csr");
}

TEST(SpgemmContext, FloatAndDoublePoolsAreIndependent) {
  SpgemmContext ctx;
  const Csr<double> ad = test::make_stencil();
  Csr<float> af = gen::cast_values<float>(ad);
  const Csr<double> cd = ctx.run_csr(ad, ad);
  const Csr<float> cf = ctx.run_csr(af, af);
  EXPECT_EQ(cd.nnz(), cf.nnz());
  EXPECT_GT(ctx.workspace_bytes(), 0u);
}

}  // namespace
}  // namespace tsg
