// SpgemmService: bounded-queue backpressure, admission control against the
// device budget, drain/cancel shutdown semantics, and bit-identity of
// service results vs. direct SpgemmContext runs. Runs under `ctest -L
// service`, and under the TSan preset via the `analysis` label (the queue
// and budget gate are pthread primitives precisely so TSan can see them).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "chaos/chaos.h"
#include "common/bounded_queue.h"
#include "common/cancellation.h"
#include "common/memory.h"
#include "gen/generators.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "service/admission.h"
#include "service/spgemm_service.h"
#include "test_support.h"

namespace tsg {
namespace {

using service::Admission;
using service::FootprintEstimate;
using service::SpgemmRequest;
using service::SpgemmService;
using service::SubmitOptions;
using service::Ticket;
using std::chrono::milliseconds;

// --- submit/try_submit twin-pairing contract (compile-time) ---------------
// The service's submission twins share one parameter list by construction;
// this deduction-based check pins them (the return shapes differ — the
// blocking twin folds rejection into the future — so only the parameter
// lists are matched).
template <class C, class R1, class R2, class... Args>
constexpr bool same_params(R1 (C::*)(Args...), R2 (C::*)(Args...)) {
  return true;
}

static_assert(same_params(&SpgemmService::submit, &SpgemmService::try_submit));

/// Restores the process-wide budget override after tests that construct a
/// service with an explicit device_mem_mb (the service publishes it
/// globally, exactly like SpgemmContext does).
struct BudgetOverrideGuard {
  ~BudgetOverrideGuard() { set_device_memory_budget_bytes(0); }
};

/// C = A * B through `ctx`: the direct run a service result must match.
Csr<double> direct_product(SpgemmContext& ctx, const Csr<double>& a, const Csr<double>& b) {
  return ctx.try_run(Request<Csr<double>>{&a, &b}).value().c;
}

std::shared_ptr<const Csr<double>> shared(Csr<double> m) {
  return std::make_shared<const Csr<double>>(std::move(m));
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

// --- BoundedQueue ---------------------------------------------------------

TEST(BoundedQueue, TryPushRefusesWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full, not a hang
  EXPECT_EQ(q.size(), 2u);
  int out = 0;
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.try_push(3));  // space again
}

TEST(BoundedQueue, ClosedQueueStillYieldsRemainingItems) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.try_push(7));
  EXPECT_TRUE(q.try_push(8));
  q.close();
  EXPECT_FALSE(q.try_push(9));  // producers fail fast
  int out = 0;
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 8);
  EXPECT_FALSE(q.pop(out));  // closed and empty: consumer exit
}

TEST(BoundedQueue, PopBatchHonoursPredicateAndCap) {
  BoundedQueue<int> q(8);
  for (int i = 1; i <= 5; ++i) EXPECT_TRUE(q.try_push(i));
  std::vector<int> batch;
  // First item rides regardless; the rest only while < 4 (i.e. stop at 4).
  const std::size_t taken =
      q.pop_batch(batch, 10, [](const int& next) { return next < 4; });
  EXPECT_EQ(taken, 3u);
  EXPECT_EQ(batch, (std::vector<int>{1, 2, 3}));
  batch.clear();
  EXPECT_EQ(q.pop_batch(batch, 1, [](const int&) { return true; }), 1u);
  EXPECT_EQ(batch, (std::vector<int>{4}));
}

TEST(BoundedQueue, CloseWhileBlockedPushReturnsRefusalWithItemIntact) {
  // Regression: a producer blocked in push() while a consumer close()s the
  // queue must get a definitive `false` back — and the refused item must
  // come back un-moved, so a producer carrying a promise can still resolve
  // it with a structured status instead of dropping a broken promise.
  BoundedQueue<std::unique_ptr<int>> q(1);
  ASSERT_TRUE(q.try_push(std::make_unique<int>(1)));
  std::unique_ptr<int> item = std::make_unique<int>(2);
  std::atomic<int> outcome{-1};
  std::thread producer([&] {
    outcome.store(q.push(std::move(item)) ? 1 : 0, std::memory_order_release);
  });
  // Let the producer reach the full-queue wait, then close underneath it.
  // (The sleep only makes the blocked-push window likely; the contract
  // holds either way — close-before-push also returns false.)
  std::this_thread::sleep_for(milliseconds(20));
  q.close();
  producer.join();
  EXPECT_EQ(outcome.load(), 0);          // refused, not hung, not "pushed"
  ASSERT_NE(item, nullptr);              // the item survived the refusal
  EXPECT_EQ(*item, 2);
}

TEST(BoundedQueue, DrainHandsBackPending) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  const std::vector<int> left = q.drain();
  EXPECT_EQ(left, (std::vector<int>{1, 2}));
  EXPECT_TRUE(q.closed());
  int out = 0;
  EXPECT_FALSE(q.pop(out));
}

// --- Admission estimator --------------------------------------------------

TEST(Admission, EstimateIsPositiveAndMonotoneInSize) {
  const Csr<double> small = test::make_er_small();
  const Csr<double> big = gen::rmat(10, 8.0, 11);
  const FootprintEstimate es = service::estimate_footprint(small, small);
  const FootprintEstimate eb = service::estimate_footprint(big, big);
  EXPECT_GT(es.bytes, 0u);
  EXPECT_GT(es.tile_pairs, 0u);
  EXPECT_GT(es.c_tiles, 0u);
  EXPECT_GT(eb.bytes, es.bytes);  // a much larger multiply estimates larger
}

TEST(Admission, AliasedOperandMatchesExplicitSquare) {
  const Csr<double> a = test::make_stencil();
  const FootprintEstimate aliased = service::estimate_footprint(a, a);
  const Csr<double> b = a;  // distinct object, same matrix
  const FootprintEstimate copied = service::estimate_footprint(a, b);
  EXPECT_EQ(aliased.tile_pairs, copied.tile_pairs);
  EXPECT_EQ(aliased.c_tiles, copied.c_tiles);
  // Aliased operands are charged once (a CSR request converts them once); a
  // distinct-but-equal B pays its own CSR bytes on top.
  EXPECT_EQ(copied.bytes, aliased.bytes + b.bytes());
}

TEST(Admission, EstimateBoundsTheMeasuredPeakOfTheRun) {
  // Soundness of admission: the estimate must bound what the run it admits
  // really holds, the tracked peak of a CSR request on a fresh context whose
  // budget is roomy enough that it never chunks.
  BudgetOverrideGuard guard;
  const auto check = [](const Csr<double>& a, const Csr<double>& b, const std::string& what) {
    const std::size_t estimate = service::estimate_footprint(a, b).bytes;
    const PeakMemoryScope peak;
    SpgemmContext ctx(SpgemmContext::Config{}.with_device_mem_mb(4096));
    Expected<SpgemmResult<Csr<double>>> c = ctx.try_run(Request<Csr<double>>{&a, &b});
    ASSERT_TRUE(c.ok()) << what << ": " << c.status().to_string();
    ASSERT_EQ(c->timings.chunks, 1) << what;
    EXPECT_GE(estimate, static_cast<std::size_t>(peak.peak_bytes())) << what;
  };
  const test::GenCase squares[] = {
      {"er_small", test::make_er_small},         {"er_dense", test::make_er_dense},
      {"rmat_small", test::make_rmat_small},     {"stencil", test::make_stencil},
      {"stencil9", test::make_stencil9},         {"band", test::make_band},
      {"band_wide", test::make_band_wide},       {"blocks", test::make_blocks},
      {"blocks_large", test::make_blocks_large}, {"clustered", test::make_clustered},
      {"hyper_sparse", test::make_hyper_sparse}, {"col_diag", test::make_col_diag},
  };
  for (const test::GenCase& gc : squares) {
    const Csr<double> a = gc.make();
    check(a, a, gc.name);  // C = A*A: aliased, as the service submits it
  }
  const Csr<double> rmat = gen::rmat(11, 8.0, 12);
  check(rmat, rmat, "rmat11");
  check(test::make_er_rect(), test::make_er_rect_rhs(), "er_rect * er_rect_rhs");
  check(test::make_empty_product_lhs(), test::make_empty_product_rhs(), "empty product");
}

// --- Service: the happy path ---------------------------------------------

TEST(Service, ResultsBitIdenticalToDirectRun) {
  const auto a = shared(test::make_er_small());
  const auto b = shared(test::make_stencil());
  SpgemmContext direct;
  const Csr<double> want_aa = direct_product(direct, *a, *a);
  const Csr<double> want_bb = direct_product(direct, *b, *b);

  SpgemmService svc(SpgemmService::Config{}.with_workers(2));
  std::future<SpgemmRunReport> faa = svc.submit({a});  // null b: C = A*A
  std::future<SpgemmRunReport> fbb = svc.submit({b, b});
  const SpgemmRunReport raa = test::await(faa);
  const SpgemmRunReport rbb = test::await(fbb);
  expect_bit_identical(want_aa, raa.c, "A*A via service");
  expect_bit_identical(want_bb, rbb.c, "B*B via service");
  EXPECT_GE(raa.core_ms, 0.0);
  svc.shutdown();
}

TEST(Service, TicketCarriesIdentityAndEcho) {
  const auto a = shared(test::make_band());
  SpgemmService svc(SpgemmService::Config{}.with_workers(1));
  SpgemmRequest req{a};
  req.tag = 0xfeedu;
  Expected<Ticket> t1 = svc.try_submit(req);
  Expected<Ticket> t2 = svc.try_submit(req);
  ASSERT_TRUE(t1.ok()) << t1.status().to_string();
  ASSERT_TRUE(t2.ok()) << t2.status().to_string();
  EXPECT_EQ(t1->tag, 0xfeedu);
  EXPECT_LT(t1->id, t2->id);  // service-unique, monotone
  EXPECT_EQ(t1->admission, Admission::kAdmitted);
  EXPECT_GT(t1->estimated_bytes, 0u);
  EXPECT_GT(test::await(t1->result).c.nnz(), 0);
  EXPECT_GT(test::await(t2->result).c.nnz(), 0);
}

TEST(Service, MalformedRequestsRejectedStructurally) {
  SpgemmService svc(SpgemmService::Config{}.with_workers(0).with_queue_capacity(4));
  Expected<Ticket> no_a = svc.try_submit(SpgemmRequest{});
  EXPECT_EQ(no_a.status().code(), StatusCode::kInvalidArgument);

  const auto rect = shared(gen::erdos_renyi(40, 60, 100, 9));
  Expected<Ticket> mismatched = svc.try_submit({rect, rect});  // 40x60 * 40x60
  EXPECT_EQ(mismatched.status().code(), StatusCode::kDimensionMismatch);

  // The blocking twin folds the same failures into the future.
  std::future<SpgemmRunReport> f = svc.submit(SpgemmRequest{});
  try {
    (void)test::await(f);
    FAIL() << "poisoned future did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
  }
  svc.shutdown(SpgemmService::DrainMode::kCancel);
}

// --- Backpressure and shutdown -------------------------------------------

TEST(Service, SaturatedQueueReturnsQueueFullNotAHang) {
  // workers = 0: nothing consumes, so saturation is deterministic.
  const auto a = shared(test::make_er_small());
  SpgemmService svc(SpgemmService::Config{}.with_workers(0).with_queue_capacity(2));
  Expected<Ticket> t1 = svc.try_submit({a});
  Expected<Ticket> t2 = svc.try_submit({a});
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(svc.queue_depth(), 2u);
  Expected<Ticket> t3 = svc.try_submit({a});
  EXPECT_EQ(t3.status().code(), StatusCode::kQueueFull);

  // Drain-shutdown executes the backlog inline: both futures complete with
  // values even though the service never had a worker thread.
  svc.shutdown(SpgemmService::DrainMode::kDrain);
  EXPECT_GT(test::await(t1->result).c.nnz(), 0);
  EXPECT_GT(test::await(t2->result).c.nnz(), 0);
}

TEST(Service, DrainShutdownCompletesEveryPendingFuture) {
  const auto a = shared(test::make_stencil());
  SpgemmContext direct;
  const Csr<double> want = direct_product(direct, *a, *a);

  SpgemmService svc(SpgemmService::Config{}.with_workers(0).with_queue_capacity(8));
  std::vector<std::future<SpgemmRunReport>> futures;
  for (int i = 0; i < 5; ++i) futures.push_back(svc.submit({a}));
  EXPECT_EQ(svc.queue_depth(), 5u);
  svc.shutdown(SpgemmService::DrainMode::kDrain);
  EXPECT_EQ(svc.queue_depth(), 0u);
  for (auto& f : futures) {
    expect_bit_identical(want, test::await(f).c, "drained request");
  }
}

TEST(Service, CancelShutdownPoisonsPendingWithCancelled) {
  const auto a = shared(test::make_er_small());
  SpgemmService svc(SpgemmService::Config{}.with_workers(0).with_queue_capacity(8));
  std::future<SpgemmRunReport> f1 = svc.submit({a});
  std::future<SpgemmRunReport> f2 = svc.submit({a});
  svc.shutdown(SpgemmService::DrainMode::kCancel);
  for (std::future<SpgemmRunReport>* f : {&f1, &f2}) {
    try {
      (void)test::await(*f);
      FAIL() << "cancelled future did not throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kCancelled);
    }
  }
  // New submissions after shutdown are refused immediately, both flavours.
  EXPECT_EQ(svc.try_submit({a}).status().code(), StatusCode::kCancelled);
  std::future<SpgemmRunReport> late = svc.submit({a});
  EXPECT_THROW((void)test::await(late), Error);
}

TEST(Service, ShutdownIsIdempotent) {
  SpgemmService svc(SpgemmService::Config{}.with_workers(1));
  svc.shutdown();
  svc.shutdown(SpgemmService::DrainMode::kCancel);  // second call: no effect
  SUCCEED();
}

// --- Admission control against the device budget --------------------------

TEST(Service, OverBudgetRejectedWhenDegradationUnavailable) {
  BudgetOverrideGuard guard;
  const auto big = shared(gen::rmat(10, 8.0, 11));
  // 2 MB budget; the rmat^2 estimate blows far past it. Degradation off at
  // the service level -> structured rejection at submit time, not an OOM.
  SpgemmService svc(SpgemmService::Config{}
                        .with_workers(0)
                        .with_queue_capacity(4)
                        .with_device_mem_mb(2)
                        .with_degradation(false));
  Expected<Ticket> t = svc.try_submit({big});
  EXPECT_EQ(t.status().code(), StatusCode::kRejected);

  // Per-request opt-out has the same effect with service degradation on.
  SpgemmService svc2(SpgemmService::Config{}
                         .with_workers(0)
                         .with_queue_capacity(4)
                         .with_device_mem_mb(2));
  SpgemmRequest strict{big};
  strict.allow_degraded = false;
  EXPECT_EQ(svc2.try_submit(strict).status().code(), StatusCode::kRejected);
  // The same request, degradation permitted, is admitted as degraded.
  Expected<Ticket> degraded = svc2.try_submit({big});
  ASSERT_TRUE(degraded.ok()) << degraded.status().to_string();
  EXPECT_EQ(degraded->admission, Admission::kDegraded);
  svc2.shutdown(SpgemmService::DrainMode::kCancel);
  svc.shutdown(SpgemmService::DrainMode::kCancel);
}

TEST(Service, DegradedAdmissionRunsChunkedAndBitIdentical) {
  // Gold first, under the default (roomy) budget.
  const auto big = shared(gen::rmat(10, 8.0, 11));
  SpgemmContext direct;
  const Csr<double> want = direct_product(direct, *big, *big);

  BudgetOverrideGuard guard;
  SpgemmService svc(SpgemmService::Config{}.with_workers(1).with_device_mem_mb(2));
  Expected<Ticket> t = svc.try_submit({big});
  ASSERT_TRUE(t.ok()) << t.status().to_string();
  EXPECT_EQ(t->admission, Admission::kDegraded);
  const SpgemmRunReport report = test::await(t->result);
  EXPECT_TRUE(report.budget_limited);
  EXPECT_GE(report.chunks, 2);
  expect_bit_identical(want, report.c, "degraded service run");
  svc.shutdown();
}

TEST(Service, WorkerBudgetExceededPoisonsOnlyItsOwnFuture) {
  BudgetOverrideGuard guard;
  const auto big = shared(gen::rmat(10, 8.0, 11));
  const auto small = shared(test::make_er_small());
  SpgemmContext direct;
  const Csr<double> want_small = direct_product(direct, *small, *small);

  // Shadow-mode admission (observe-only) with context degradation off: the
  // big request sails through admission and the *context's* authoritative
  // post-step-1 check fails it inside the worker.
  SpgemmService svc(SpgemmService::Config{}
                        .with_workers(1)
                        .with_device_mem_mb(2)
                        .with_admission_enforce(false)
                        .with_context(SpgemmContext::Config{}.with_degradation(false)));
  Expected<Ticket> doomed = svc.try_submit({big});
  ASSERT_TRUE(doomed.ok()) << doomed.status().to_string();  // shadow mode admits
  Expected<Ticket> fine = svc.try_submit({small});
  ASSERT_TRUE(fine.ok()) << fine.status().to_string();

  try {
    (void)test::await(doomed->result);
    FAIL() << "over-budget request did not fail";
  } catch (const Error& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kBudgetExceeded);
  }
  // The failure poisoned exactly one future; the worker and its context
  // survive to serve the next request.
  expect_bit_identical(want_small, test::await(fine->result).c, "request after failure");
  svc.shutdown();
}

// --- Observability --------------------------------------------------------

TEST(Service, MetricsCountTheLifecycle) {
  const auto a = shared(test::make_band());
  const obs::MetricsSnapshot before = obs::MetricsRegistry::instance().snapshot();
  {
    SpgemmService svc(SpgemmService::Config{}.with_workers(1).with_queue_capacity(4));
    std::vector<std::future<SpgemmRunReport>> futures;
    for (int i = 0; i < 3; ++i) futures.push_back(svc.submit({a}));
    for (auto& f : futures) EXPECT_GT(test::await(f).c.nnz(), 0);
    svc.shutdown();
  }
  const obs::MetricsSnapshot after = obs::MetricsRegistry::instance().snapshot();
  const obs::MetricsSnapshot d = obs::MetricsSnapshot::delta(before, after);
  EXPECT_EQ(d.counter("service.submitted"), 3);
  EXPECT_EQ(d.counter("service.admitted"), 3);
  EXPECT_EQ(d.counter("service.completed"), 3);
  EXPECT_EQ(d.counter("service.failed"), 0);
  const obs::MetricsSnapshot::Hist* lat = after.histogram("service.latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_GE(lat->count, 3);
  // A destroyed service reads as an empty queue, not a dangling callback.
  EXPECT_EQ(after.gauge("service.queue_depth"), 0);
}

TEST(Service, FromEnvReadsServiceKnobs) {
  setenv("TSG_SERVICE_WORKERS", "5", 1);
  setenv("TSG_SERVICE_QUEUE_CAP", "17", 1);
  setenv("TSG_SERVICE_STUCK_MS", "1500", 1);
  const SpgemmService::Config cfg = SpgemmService::Config::from_env();
  EXPECT_EQ(cfg.workers, 5);
  EXPECT_EQ(cfg.queue_capacity, 17u);
  EXPECT_EQ(cfg.stuck_after, milliseconds(1500));
  unsetenv("TSG_SERVICE_WORKERS");
  unsetenv("TSG_SERVICE_QUEUE_CAP");
  unsetenv("TSG_SERVICE_STUCK_MS");
  const SpgemmService::Config defaults = SpgemmService::Config::from_env();
  EXPECT_EQ(defaults.workers, 2);
  EXPECT_EQ(defaults.queue_capacity, 64u);
  EXPECT_EQ(defaults.stuck_after, milliseconds(0));  // watchdog opt-in
}

// --- Request lifecycle: deadlines, cancellation, retry, watchdog ----------

TEST(Service, ExpiredDeadlineEvictedAtPopNeverRun) {
  const auto a = shared(test::make_er_small());
  const obs::MetricsSnapshot before = obs::MetricsRegistry::instance().snapshot();
  // workers = 0: the request sits queued while its deadline expires; the
  // drain-shutdown pop must evict it, not run it.
  SpgemmService svc(SpgemmService::Config{}.with_workers(0).with_queue_capacity(4));
  Expected<Ticket> t = svc.try_submit({a}, SubmitOptions{}.with_timeout(milliseconds(1)));
  ASSERT_TRUE(t.ok()) << t.status().to_string();
  std::this_thread::sleep_for(milliseconds(20));
  svc.shutdown(SpgemmService::DrainMode::kDrain);
  try {
    (void)test::await(t->result);
    FAIL() << "expired request was not evicted";
  } catch (const Error& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kDeadlineExceeded);
  }
  const obs::MetricsSnapshot d = obs::MetricsSnapshot::delta(
      before, obs::MetricsRegistry::instance().snapshot());
  EXPECT_EQ(d.counter("service.evicted"), 1);
  EXPECT_EQ(d.counter("service.deadline_miss"), 1);
  EXPECT_EQ(d.counter("service.completed"), 0);  // never executed
}

TEST(Service, TicketCancelPoisonsQueuedRequestOnly) {
  const auto a = shared(test::make_er_small());
  SpgemmContext direct;
  const Csr<double> want = direct_product(direct, *a, *a);

  SpgemmService svc(SpgemmService::Config{}.with_workers(0).with_queue_capacity(4));
  Expected<Ticket> doomed = svc.try_submit({a});
  Expected<Ticket> fine = svc.try_submit({a});
  ASSERT_TRUE(doomed.ok());
  ASSERT_TRUE(fine.ok());
  doomed->cancel.request_cancel();
  svc.shutdown(SpgemmService::DrainMode::kDrain);  // drains inline
  EXPECT_THROW((void)test::await(doomed->result), Error);
  // The sibling request is untouched: the cancel poisoned one future only.
  expect_bit_identical(want, test::await(fine->result).c, "uncancelled sibling");
}

TEST(Service, MidRunCancellationIsLeakFreeAndContextReusable) {
  const auto a = shared(test::make_er_small());
  SpgemmContext direct;
  const Csr<double> want = direct_product(direct, *a, *a);

  // Chaos holds the popped request for 100 ms before it runs; the cancel
  // lands inside that window, so the engine sees an already-tripped token
  // at its first boundary check — deterministic mid-pipeline cancellation.
  chaos::ChaosPlan plan;
  plan.latency.push_back({chaos::Site::kPop, 1.0, 100});
  plan.seed = 1;
  {
    chaos::ChaosScope scope(plan);
    SpgemmService svc(SpgemmService::Config{}.with_workers(1));
    Expected<Ticket> t = svc.try_submit({a});
    ASSERT_TRUE(t.ok());
    t->cancel.request_cancel();
    try {
      (void)test::await(t->result);
      FAIL() << "cancelled run did not fail";
    } catch (const Error& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kCancelled);
    }
    // Same worker, same pooled context: the next request must be whole and
    // bit-identical (no poisoned workspace, no unbalanced accounting).
    Expected<Ticket> again = svc.try_submit({a});
    ASSERT_TRUE(again.ok());
    expect_bit_identical(want, test::await(again->result).c, "run after cancel");
    svc.shutdown();
  }
}

TEST(Service, MidRunDeadlineStopsCooperatively) {
  const auto a = shared(test::make_er_small());
  SpgemmContext direct;
  const Csr<double> want = direct_product(direct, *a, *a);

  // 100 ms of injected pop latency against a 30 ms deadline: the deadline
  // expires while the request is already owned by a worker, so the *engine*
  // (not pop-time eviction) must stop it at a boundary check.
  chaos::ChaosPlan plan;
  plan.latency.push_back({chaos::Site::kPop, 1.0, 100});
  plan.seed = 2;
  {
    chaos::ChaosScope scope(plan);
    SpgemmService svc(SpgemmService::Config{}.with_workers(1));
    Expected<Ticket> t =
        svc.try_submit({a}, SubmitOptions{}.with_timeout(milliseconds(30)));
    ASSERT_TRUE(t.ok());
    try {
      (void)test::await(t->result);
      FAIL() << "expired run did not fail";
    } catch (const Error& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kDeadlineExceeded);
    }
    Expected<Ticket> again = svc.try_submit({a});  // no deadline this time
    ASSERT_TRUE(again.ok());
    expect_bit_identical(want, test::await(again->result).c, "run after deadline");
    svc.shutdown();
  }
}

TEST(Service, RetryAfterTransientFaultIsBitIdentical) {
  const auto a = shared(test::make_stencil());
  SpgemmContext direct;
  const Csr<double> want = direct_product(direct, *a, *a);

  const obs::MetricsSnapshot before = obs::MetricsRegistry::instance().snapshot();
  // fail_at = 1: the first tracked allocation after arming throws, every
  // later one succeeds — so attempt 1 fails with kAllocationFailed and the
  // backoff retry completes. The result must be bit-identical to a direct
  // run: retry is transparent, not approximate.
  SpgemmService svc(SpgemmService::Config{}.with_workers(1));
  FaultPlan fault;
  fault.fail_at = 1;
  FaultInjectionScope fault_scope(fault);
  Expected<Ticket> t = svc.try_submit({a}, SubmitOptions{}.with_retries(2));
  ASSERT_TRUE(t.ok()) << t.status().to_string();
  expect_bit_identical(want, test::await(t->result).c, "completed after retry");
  svc.shutdown();
  const obs::MetricsSnapshot d = obs::MetricsSnapshot::delta(
      before, obs::MetricsRegistry::instance().snapshot());
  EXPECT_GE(d.counter("service.retried"), 1);
  EXPECT_EQ(d.counter("service.failed"), 0);
}

TEST(Service, RetryBudgetExhaustedFailsFast) {
  const auto a = shared(test::make_er_small());
  // Zero service-wide retry tokens: even a request asking for retries
  // fail-fasts on the first transient error (the anti-retry-storm valve).
  SpgemmService svc(
      SpgemmService::Config{}.with_workers(1).with_retry_budget(0));
  FaultPlan fault;
  fault.fail_at = 1;
  FaultInjectionScope fault_scope(fault);
  Expected<Ticket> t = svc.try_submit({a}, SubmitOptions{}.with_retries(5));
  ASSERT_TRUE(t.ok());
  try {
    (void)test::await(t->result);
    FAIL() << "request completed despite exhausted retry budget";
  } catch (const Error& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kAllocationFailed);
  }
  svc.shutdown();
}

TEST(Service, WatchdogReplacesStuckWorkerAndPoisonsOnlyItsRequest) {
  const auto a = shared(test::make_er_small());
  SpgemmContext direct;
  const Csr<double> want = direct_product(direct, *a, *a);

  const obs::MetricsSnapshot before = obs::MetricsRegistry::instance().snapshot();
  // The chaos pop-latency wedges the worker for 400 ms with its request
  // already registered in the watchdog slot; stuck_after = 60 ms declares
  // it stuck long before the sleep ends. Exactly that future must fail,
  // and a replacement worker must keep the service serving.
  chaos::ChaosPlan plan;
  plan.latency.push_back({chaos::Site::kPop, 1.0, 400});
  plan.seed = 3;
  SpgemmService svc(SpgemmService::Config{}
                        .with_workers(1)
                        .with_stuck_after(milliseconds(60)));
  {
    chaos::ChaosScope scope(plan);
    Expected<Ticket> doomed = svc.try_submit({a});
    ASSERT_TRUE(doomed.ok());
    try {
      (void)test::await(doomed->result);
      FAIL() << "stuck request was not poisoned";
    } catch (const Error& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kDeadlineExceeded)
          << e.status().to_string();
      EXPECT_NE(e.status().message().find("watchdog"), std::string::npos)
          << e.status().to_string();
    }
  }
  // Chaos disarmed: the replacement worker serves the next request clean.
  Expected<Ticket> fine = svc.try_submit({a});
  ASSERT_TRUE(fine.ok());
  expect_bit_identical(want, test::await(fine->result).c, "after watchdog kill");
  svc.shutdown();
  const obs::MetricsSnapshot d = obs::MetricsSnapshot::delta(
      before, obs::MetricsRegistry::instance().snapshot());
  EXPECT_EQ(d.counter("service.watchdog_kills"), 1);
  EXPECT_EQ(d.counter("service.completed"), 1);
}

TEST(Service, FlightDumpOnWatchdogKillNamesTheVictim) {
  const auto a = shared(test::make_er_small());

  // Arm the flight recorder into a private directory for this test only, so
  // the dump the watchdog writes is the only flight_*.json there.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("tsg_flight_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  obs::FlightRecorder& fr = obs::FlightRecorder::instance();
  fr.clear();
  fr.set_directory(dir.string());

  chaos::ChaosPlan plan;
  plan.latency.push_back({chaos::Site::kPop, 1.0, 400});
  plan.seed = 3;
  SpgemmService svc(SpgemmService::Config{}
                        .with_workers(1)
                        .with_stuck_after(milliseconds(60)));
  std::uint64_t victim_id = 0;
  {
    chaos::ChaosScope scope(plan);
    Expected<Ticket> doomed = svc.try_submit({a});
    ASSERT_TRUE(doomed.ok());
    victim_id = doomed->id;
    try {
      (void)test::await(doomed->result);
      FAIL() << "stuck request was not poisoned";
    } catch (const Error& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kDeadlineExceeded);
    }
  }
  svc.shutdown();
  fr.set_enabled(false);

  // Exactly one dump, and its JSON names the killed request.
  std::vector<std::filesystem::path> dumps;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("flight_", 0) == 0) {
      dumps.push_back(entry.path());
    }
  }
  ASSERT_EQ(dumps.size(), 1u);
  std::ifstream in(dumps[0]);
  std::stringstream body;
  body << in.rdbuf();
  const std::string json = body.str();
  EXPECT_NE(json.find("\"reason\":\"watchdog_kill\""), std::string::npos);
  EXPECT_NE(json.find("\"victim_request_id\":" + std::to_string(victim_id)),
            std::string::npos);
  EXPECT_NE(json.find("\"service.watchdog_kill\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":{"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(Service, SnapshotDeltaConcurrentWithRunningWorkers) {
  // MetricsSnapshot::delta must be safe to compute from an observer thread
  // while service workers are actively mutating every instrument it reads —
  // the SLO monitor and the periodic Prometheus writer both do exactly this.
  const auto a = shared(test::make_er_small());
  SpgemmService svc(SpgemmService::Config{}.with_workers(2).with_queue_capacity(8));

  const obs::MetricsSnapshot before = obs::MetricsRegistry::instance().snapshot();
  std::atomic<bool> done{false};
  std::atomic<int> windows{0};
  std::thread observer([&] {
    obs::MetricsSnapshot last = obs::MetricsRegistry::instance().snapshot();
    while (!done.load(std::memory_order_relaxed)) {
      const obs::MetricsSnapshot now = obs::MetricsRegistry::instance().snapshot();
      const obs::MetricsSnapshot window = obs::MetricsSnapshot::delta(last, now);
      // Monotone counters never produce a negative window.
      EXPECT_GE(window.counter("service.completed"), 0);
      EXPECT_GE(window.counter("service.admitted"), 0);
      last = now;
      windows.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  constexpr int kRequests = 12;
  std::vector<std::future<SpgemmRunReport>> results;
  results.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) results.push_back(svc.submit({a}));
  for (auto& f : results) {
    const SpgemmRunReport report = test::await(f);
    // The correlation ids the service stamps survive to the caller.
    EXPECT_NE(report.request_id, 0u);
    EXPECT_NE(report.trace_id, 0u);
  }
  svc.shutdown();
  done.store(true, std::memory_order_relaxed);
  observer.join();
  EXPECT_GT(windows.load(), 0);

  const obs::MetricsSnapshot total = obs::MetricsSnapshot::delta(
      before, obs::MetricsRegistry::instance().snapshot());
  EXPECT_EQ(total.counter("service.completed"), kRequests);
}

// --- Concurrency stress (the TSan target) ---------------------------------

TEST(Service, ConcurrentSubmittersAndWorkers) {
  const auto a = shared(test::make_er_small());
  const auto b = shared(test::make_stencil());
  SpgemmContext direct;
  const Csr<double> want_a = direct_product(direct, *a, *a);
  const Csr<double> want_b = direct_product(direct, *b, *b);

  SpgemmService svc(
      SpgemmService::Config{}.with_workers(3).with_queue_capacity(8).with_batch_max(4));
  constexpr int kPerProducer = 8;
  std::vector<std::thread> producers;
  std::vector<std::vector<std::future<SpgemmRunReport>>> results(3);
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto& m = (i % 2 == 0) ? a : b;
        results[p].push_back(svc.submit({m}));  // blocking: backpressure path
      }
    });
  }
  for (std::thread& t : producers) t.join();
  for (int p = 0; p < 3; ++p) {
    for (int i = 0; i < kPerProducer; ++i) {
      const Csr<double>& want = (i % 2 == 0) ? want_a : want_b;
      expect_bit_identical(want, test::await(results[p][i]).c, "concurrent submit");
    }
  }
  svc.shutdown();
}

}  // namespace
}  // namespace tsg
