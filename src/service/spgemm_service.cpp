#include "service/spgemm_service.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

#include "chaos/chaos.h"
#include "common/memory.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"

namespace tsg::service {

namespace {

/// Hot-path instruments, resolved once (registry references are stable for
/// the process lifetime).
struct ServiceMetrics {
  obs::Counter& submitted;
  obs::Counter& admitted;
  obs::Counter& degraded;
  obs::Counter& rejected;
  obs::Counter& queue_full;
  obs::Counter& cancelled;
  obs::Counter& completed;
  obs::Counter& failed;
  obs::Counter& batches;
  obs::Counter& evicted;        ///< expired/cancelled requests poisoned at pop
  obs::Counter& deadline_miss;  ///< futures resolved with kDeadlineExceeded
  obs::Counter& retried;        ///< backoff retries performed
  obs::Counter& watchdog_kills; ///< stuck-worker requests poisoned (worker replaced)
  obs::Histogram& queue_wait_us;
  obs::Histogram& latency_us;

  static ServiceMetrics& instance() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    static ServiceMetrics m{
        reg.counter("service.submitted"),
        reg.counter("service.admitted"),
        reg.counter("service.degraded"),
        reg.counter("service.rejected"),
        reg.counter("service.queue_full"),
        reg.counter("service.cancelled"),
        reg.counter("service.completed"),
        reg.counter("service.failed"),
        reg.counter("service.batches"),
        reg.counter("service.evicted"),
        reg.counter("service.deadline_miss"),
        reg.counter("service.retried"),
        reg.counter("service.watchdog_kills"),
        reg.histogram("service.queue_wait_us",
                      {100, 1000, 10000, 100000, 1000000, 10000000}),
        reg.histogram("service.latency_us",
                      {100, 1000, 10000, 100000, 1000000, 10000000}),
    };
    return m;
  }
};

std::int64_t elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

double mb_of(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// Exponential backoff with deterministic jitter for attempt n (1-based):
/// base 1 << (n-1) ms, capped, plus a (request, attempt)-hashed jitter of
/// up to the same amount — deterministic so a chaos replay reproduces the
/// exact retry schedule, de-synchronised so a failure storm's retries do
/// not arrive as one thundering herd.
std::chrono::milliseconds backoff_delay(std::uint64_t id, int attempt) {
  const std::uint64_t base =
      std::min<std::uint64_t>(64, std::uint64_t{1} << std::min(attempt - 1, 6));
  std::uint64_t h = id * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(attempt);
  h ^= h >> 29;
  return std::chrono::milliseconds(base + h % (base + 1));
}

/// Bump the service-wide counters that classify a terminal failure status.
void count_failure(ServiceMetrics& metrics, const Status& status) {
  metrics.failed.inc();
  if (status.code() == StatusCode::kDeadlineExceeded) metrics.deadline_miss.inc();
  if (status.code() == StatusCode::kCancelled) metrics.cancelled.inc();
}

}  // namespace

SpgemmService::Config SpgemmService::Config::from_env() {
  Config cfg;
  cfg.context = SpgemmContext::Config::from_env();
  if (const char* env = std::getenv("TSG_SERVICE_WORKERS")) {
    const int n = std::atoi(env);
    if (n >= 0) cfg.workers = n;
  }
  if (const char* env = std::getenv("TSG_SERVICE_QUEUE_CAP")) {
    const long n = std::atol(env);
    if (n > 0) cfg.queue_capacity = static_cast<std::size_t>(n);
  }
  if (const char* env = std::getenv("TSG_SERVICE_STUCK_MS")) {
    const long n = std::atol(env);
    if (n > 0) cfg.stuck_after = std::chrono::milliseconds(n);
  }
  return cfg;
}

void SpgemmService::BudgetGate::acquire(std::size_t bytes) {
  std::unique_lock<std::mutex> lock(mutex_);
  // A request is always eligible when nothing is in flight — the gate must
  // make progress even for an over-budget (degraded) request, which simply
  // runs exclusively.
  available_.wait(lock, [&] {
    std::size_t next = 0;
    return in_flight_ == 0 || (checked_add(in_flight_, bytes, next));
  });
  std::size_t next = 0;
  in_flight_ = checked_add(in_flight_, bytes, next) ? next : static_cast<std::size_t>(-1);
}

void SpgemmService::BudgetGate::release(std::size_t bytes) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    in_flight_ = bytes < in_flight_ ? in_flight_ - bytes : 0;
  }
  available_.notify_all();
}

std::int64_t SpgemmService::BudgetGate::in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::int64_t>(in_flight_);
}

SpgemmService::SpgemmService(const Config& config) : cfg_(config) {
  if (cfg_.workers < 0) cfg_.workers = 0;
  if (cfg_.retry_budget < 0) cfg_.retry_budget = 0;
  retry_tokens_.store(cfg_.retry_budget, std::memory_order_relaxed);
  // The service owns the process-wide budget and thread-count interactions
  // so its workers never race on them: budget published once here, and the
  // per-worker contexts are forbidden their own ThreadCountGuard /
  // republish (see Config::context).
  cfg_.context.threads = 0;
  cfg_.context.device_mem_mb = 0;
  if (cfg_.device_mem_mb > 0) {
    set_device_memory_budget_bytes(cfg_.device_mem_mb * 1024 * 1024);
  }
  budget_bytes_ = device_memory_budget_bytes();

  queue_ = std::make_unique<BoundedQueue<Pending>>(cfg_.queue_capacity);
  depth_ = std::make_shared<std::atomic<std::int64_t>>(0);
  inflight_gauge_ = std::make_shared<std::atomic<std::int64_t>>(0);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  // Gauge callbacks live for the process; capture the shared counters by
  // value so a destroyed service reads as zero, never as a dangling `this`.
  reg.register_gauge("service.queue_depth",
                     [state = depth_] { return state->load(std::memory_order_relaxed); });
  reg.register_gauge("service.inflight_bytes", [state = inflight_gauge_] {
    return state->load(std::memory_order_relaxed);
  });

  {
    std::lock_guard<std::mutex> lock(workers_mutex_);
    workers_.reserve(static_cast<std::size_t>(cfg_.workers));
    slots_.reserve(static_cast<std::size_t>(cfg_.workers));
    for (int rank = 0; rank < cfg_.workers; ++rank) spawn_worker_locked();
  }
  if (cfg_.stuck_after.count() > 0 && cfg_.workers > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

SpgemmService::~SpgemmService() { shutdown(DrainMode::kDrain); }

void SpgemmService::spawn_worker_locked() {
  auto slot = std::make_shared<WorkerSlot>();
  slots_.push_back(slot);
  workers_.emplace_back([this, slot] { worker_loop(slot); });
}

bool SpgemmService::take_retry_token() {
  std::int64_t have = retry_tokens_.load(std::memory_order_relaxed);
  while (have > 0) {
    if (retry_tokens_.compare_exchange_weak(have, have - 1, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void SpgemmService::refund_retry_token() {
  std::int64_t have = retry_tokens_.load(std::memory_order_relaxed);
  while (have < cfg_.retry_budget) {
    if (retry_tokens_.compare_exchange_weak(have, have + 1, std::memory_order_relaxed)) {
      return;
    }
  }
}

Status SpgemmService::admit(const SpgemmRequest& request, const SubmitOptions& options,
                            Pending& out, Admission& admission) {
  if (!request.a) {
    return Status::invalid_argument("submit: request has no A operand");
  }
  const Csr<double>& a = *request.a;
  const Csr<double>& b = request.b ? *request.b : a;
  if (a.cols != b.rows) {
    return Status::dimension_mismatch(
        "submit: inner dimensions differ (A is " + std::to_string(a.rows) + "x" +
        std::to_string(a.cols) + ", B is " + std::to_string(b.rows) + "x" +
        std::to_string(b.cols) + ")");
  }

  const FootprintEstimate est = estimate_footprint(a, b);
  admission = est.bytes <= budget_bytes_ ? Admission::kAdmitted : Admission::kDegraded;
  if (admission == Admission::kDegraded && cfg_.admission_enforce) {
    const bool may_degrade = cfg_.degrade_on_budget && request.allow_degraded &&
                             cfg_.context.degrade_on_budget;
    if (!may_degrade) {
      ServiceMetrics::instance().rejected.inc();
      char detail[160];
      std::snprintf(detail, sizeof(detail),
                    "admission: estimated footprint %.1f MB exceeds the service budget "
                    "%.1f MB and chunked degradation is unavailable",
                    mb_of(est.bytes), mb_of(budget_bytes_));
      return Status::rejected(detail);
    }
  }

  out.request = request;
  out.options = options;
  out.state = std::make_shared<RequestState>();
  out.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  out.estimated_bytes = est.bytes;
  out.degraded = admission == Admission::kDegraded;
  out.enqueued_at = std::chrono::steady_clock::now();
  out.rctx = obs::RequestContext{obs::mint_trace_id(out.id), out.id,
                                 options.tag != 0 ? options.tag : request.tag};

  // Arm the request's deadline into its cancel source — one token then
  // covers caller deadline, chaos deadline pressure, explicit cancel, and
  // the watchdog, with first-trip-wins semantics.
  Deadline effective = options.deadline;
  if (const std::uint32_t pressure_ms =
          chaos::ChaosEngine::instance().deadline_pressure_ms(out.id)) {
    const Deadline pressured = Deadline::after(std::chrono::milliseconds(pressure_ms));
    if (!effective.armed() || pressured.time_point() < effective.time_point()) {
      effective = pressured;
    }
  }
  if (effective.armed()) out.state->cancel.set_deadline(effective.time_point());
  out.options.deadline = effective;
  return Status{};
}

Expected<Ticket> SpgemmService::try_submit(SpgemmRequest request, SubmitOptions options) {
  TSG_TRACE_SPAN("service.submit");
  ServiceMetrics& metrics = ServiceMetrics::instance();
  metrics.submitted.inc();
  if (shutdown_started_.load(std::memory_order_acquire)) {
    metrics.cancelled.inc();
    return Status::cancelled("try_submit: service is shut down");
  }

  Pending item;
  Admission admission = Admission::kAdmitted;
  if (Status s = admit(request, options, item, admission); !s.ok()) return s;
  chaos::ChaosEngine::instance().inject_latency(chaos::Site::kSubmit, item.id);

  Ticket ticket;
  ticket.id = item.id;
  ticket.tag = options.tag != 0 ? options.tag : request.tag;
  ticket.trace_id = item.rctx.trace_id;
  ticket.admission = admission;
  ticket.estimated_bytes = item.estimated_bytes;
  ticket.result = item.state->promise.get_future();
  ticket.cancel = item.state->cancel;

  const obs::RequestContext rctx = item.rctx;
  if (!queue_->try_push(std::move(item))) {
    if (queue_->closed()) {
      metrics.cancelled.inc();
      return Status::cancelled("try_submit: service is shut down");
    }
    metrics.queue_full.inc();
    return Status::queue_full("try_submit: request queue at capacity (" +
                              std::to_string(queue_->capacity()) + ")");
  }
  depth_->fetch_add(1, std::memory_order_relaxed);
  metrics.admitted.inc();
  if (admission == Admission::kDegraded) metrics.degraded.inc();
  note_queued(rctx, admission);
  return ticket;
}

std::future<SpgemmRunReport> SpgemmService::submit(SpgemmRequest request,
                                                   SubmitOptions options) {
  TSG_TRACE_SPAN("service.submit");
  ServiceMetrics& metrics = ServiceMetrics::instance();
  metrics.submitted.inc();

  // Failures before the queue still produce a (poisoned) future so the
  // blocking flavour has exactly one delivery path; see try_submit for the
  // Status-returning twin.
  const auto poisoned = [&metrics](obs::Counter& counter, Status status) {
    counter.inc();
    std::promise<SpgemmRunReport> promise;
    promise.set_exception(std::make_exception_ptr(Error(std::move(status))));
    return promise.get_future();
  };

  if (shutdown_started_.load(std::memory_order_acquire)) {
    return poisoned(metrics.cancelled, Status::cancelled("submit: service is shut down"));
  }
  Pending item;
  Admission admission = Admission::kAdmitted;
  if (Status s = admit(request, options, item, admission); !s.ok()) {
    // admit() already counted service.rejected for admission refusals; the
    // extra failed bump here covers malformed requests too.
    return poisoned(metrics.failed, std::move(s));
  }
  chaos::ChaosEngine::instance().inject_latency(chaos::Site::kSubmit, item.id);
  std::future<SpgemmRunReport> future = item.state->promise.get_future();
  const obs::RequestContext rctx = item.rctx;
  if (!queue_->push(std::move(item))) {
    // The close-racing-push contract (BoundedQueue): a refused item comes
    // back intact, so the promise the caller's future watches is resolved
    // here with a structured status — never dropped as a broken promise.
    metrics.cancelled.inc();
    fail(std::move(item), Status::cancelled("submit: service is shut down"));
    return future;
  }
  depth_->fetch_add(1, std::memory_order_relaxed);
  metrics.admitted.inc();
  if (admission == Admission::kDegraded) metrics.degraded.inc();
  note_queued(rctx, admission);
  return future;
}

void SpgemmService::note_queued(const obs::RequestContext& rctx,
                                [[maybe_unused]] Admission admission) {
  // The enqueue instant is emitted from the submitting thread under the
  // request's scope, so the Perfetto track for this request starts at
  // submission, not first pop.
  obs::RequestScope scope(rctx);
  TSG_TRACE_INSTANT("service.request.queued",
                    admission == Admission::kDegraded ? 1 : 0);
  TSG_FLIGHT_RECORD("info", "service.request.queued", rctx.request_id, rctx.trace_id,
                    admission == Admission::kDegraded ? "degraded" : "admitted");
}

void SpgemmService::fail(Pending&& item, Status status) {
  item.state->resolve(std::move(status));
}

bool SpgemmService::evict_if_dead(Pending& item) {
  // Pop-time eviction: a request whose deadline passed while queued (or
  // that its caller already cancelled) is poisoned here and never reaches
  // an engine — the queue must not spend a worker on work nobody wants.
  const CancelToken token = item.state->cancel.token();
  if (!token.should_stop()) return false;
  obs::RequestScope scope(item.rctx);
  ServiceMetrics& metrics = ServiceMetrics::instance();
  metrics.evicted.inc();
  Status status = token.to_status();
  if (status.code() == StatusCode::kDeadlineExceeded) {
    status = Status::deadline_exceeded("deadline expired after " +
                                       std::to_string(elapsed_us(item.enqueued_at) / 1000) +
                                       " ms in queue; request evicted before execution");
  }
  TSG_TRACE_INSTANT("service.request.evicted", static_cast<std::int64_t>(item.id));
  TSG_FLIGHT_RECORD("info", "service.request.evicted", item.rctx.request_id,
                    item.rctx.trace_id, status.message());
  TSG_LOG_INFO("service.request.evicted",
               {"queued_ms", elapsed_us(item.enqueued_at) / 1000},
               {"code", static_cast<int>(status.code())});
  count_failure(metrics, status);
  metrics.latency_us.observe(elapsed_us(item.enqueued_at));
  fail(std::move(item), std::move(status));
  return true;
}

void SpgemmService::process(SpgemmContext& ctx, WorkerSlot& slot, Pending&& item) {
  // Everything below — chaos injection, the budget gate, the engine run
  // with its step/chunk spans, retries, resolution — executes under this
  // request's scope, so every obs signal it produces is joinable on the
  // request/trace ids without threading them through call signatures.
  obs::RequestScope request_scope(item.rctx);
  ServiceMetrics& metrics = ServiceMetrics::instance();
  metrics.queue_wait_us.observe(elapsed_us(item.enqueued_at));

  // Expose this request to the watchdog *before* any chaos latency or the
  // run itself: a worker wedged anywhere past this line is supervised.
  {
    std::lock_guard<std::mutex> lock(slot.mutex);
    slot.active = item.state;
    slot.active_id = item.id;
    slot.started = std::chrono::steady_clock::now();
  }
  chaos::ChaosEngine& chaos_engine = chaos::ChaosEngine::instance();
  chaos_engine.inject_latency(chaos::Site::kPop, item.id);
  if (chaos_engine.should_force_cancel(item.id)) item.state->cancel.request_cancel();

  // Serialise against the other workers' in-flight footprints; a degraded
  // request acquires the full budget and runs alone.
  const std::size_t gate_bytes = std::min(item.estimated_bytes, budget_bytes_);
  gate_.acquire(gate_bytes);
  inflight_gauge_->store(gate_.in_flight(), std::memory_order_relaxed);

  {
    TSG_TRACE_SPAN("service.worker.run", static_cast<std::int64_t>(item.id));
    const Csr<double>& a = *item.request.a;
    const Csr<double>& b = item.request.b ? *item.request.b : a;
    for (int attempt = 0;; ++attempt) {
      // The per-request token rides into the engine: cooperative checks at
      // chunk and step 1/2/3 tile boundaries stop a cancelled or expired
      // run with balanced workspace accounting (the context stays warm).
      ctx.set_cancel_token(item.state->cancel.token());
      // try_run returns every failure as a Status, a tracked allocation
      // that throws included: nothing may escape the worker thread, which
      // would terminate the whole service.
      Expected<SpgemmResult<Csr<double>>> product = ctx.try_run(Request<Csr<double>>{&a, &b});
      if (product.ok()) {
        SpgemmRunReport report;
        const TileSpgemmTimings& timings = product->timings;
        report.c = std::move(product->c);
        report.core_ms = timings.core_ms();
        // Process-wide high-water mark: with concurrent workers this is the
        // service's peak, not this request's (documented on SpgemmRunReport).
        report.peak_mb =
            static_cast<double>(
                obs::MetricsRegistry::instance().snapshot().gauge("memory.peak_bytes")) /
            (1024.0 * 1024.0);
        report.chunks = timings.chunks;
        report.budget_limited = timings.budget_limited;
        report.metrics = timings.metrics;
        report.request_id = item.rctx.request_id;
        report.trace_id = item.rctx.trace_id;
        metrics.latency_us.observe(elapsed_us(item.enqueued_at));
        if (item.state->resolve(std::move(report))) {
          metrics.completed.inc();
          refund_retry_token();
          TSG_TRACE_INSTANT("service.request.completed",
                            static_cast<std::int64_t>(item.id));
          TSG_FLIGHT_RECORD("info", "service.request.completed", item.rctx.request_id,
                            item.rctx.trace_id, "");
        }
        // else: the watchdog poisoned this future while we ran; the result
        // is dropped — exactly one delivery per future.
        break;
      }
      Status status = product.status();
      // Transparent retry: only genuinely transient statuses, only while
      // the caller's budgeted attempts, the service-wide retry budget, and
      // the deadline all still allow it.
      const bool transient = status.code() == StatusCode::kAllocationFailed;
      if (transient && attempt < item.options.max_retries &&
          !item.state->cancel.token().should_stop() && take_retry_token()) {
        metrics.retried.inc();
        TSG_TRACE_INSTANT("service.request.retry", attempt + 1);
        TSG_LOG_INFO("service.request.retry", {"attempt", attempt + 1},
                     {"code", static_cast<int>(status.code())});
        std::this_thread::sleep_for(backoff_delay(item.id, attempt + 1));
        continue;
      }
      // Failure poisons only this request's future; the context stays
      // reusable for the worker's next pop.
      metrics.latency_us.observe(elapsed_us(item.enqueued_at));
      if (item.state->resolve(std::move(status))) {
        count_failure(metrics, product.status());
        TSG_TRACE_INSTANT("service.request.failed",
                          static_cast<std::int64_t>(item.id));
        TSG_FLIGHT_RECORD("error", "service.request.failed", item.rctx.request_id,
                          item.rctx.trace_id, product.status().message());
        const StatusCode code = product.status().code();
        if (code != StatusCode::kCancelled && code != StatusCode::kDeadlineExceeded &&
            code != StatusCode::kBudgetExceeded) {
          // An unexpected failure class (exhausted retries, an exception
          // the worker absorbed): poison the future, then leave a
          // post-mortem artifact when the flight recorder is armed.
          TSG_LOG_ERROR("service.request.failed",
                        {"code", static_cast<int>(code)},
                        {"message", product.status().message()});
          obs::FlightRecorder::instance().dump("request_failed", item.id);
        }
      }
      break;
    }
    ctx.set_cancel_token(CancelToken{});
  }

  {
    std::lock_guard<std::mutex> lock(slot.mutex);
    slot.active.reset();
    slot.active_id = 0;
  }
  gate_.release(gate_bytes);
  inflight_gauge_->store(gate_.in_flight(), std::memory_order_relaxed);
}

void SpgemmService::worker_loop(std::shared_ptr<WorkerSlot> slot) {
  SpgemmContext ctx(cfg_.context);
  ServiceMetrics& metrics = ServiceMetrics::instance();
  std::vector<Pending> batch;
  const std::size_t small = cfg_.small_request_bytes;
  for (;;) {
    // A superseded worker must not take further work: its replacement is
    // already popping from the same queue.
    if (slot->superseded.load(std::memory_order_acquire)) return;
    batch.clear();
    // One wake-up, up to batch_max back-to-back small multiplies: the first
    // pop blocks, the rest ride along only while the queue head stays small
    // (a large request never waits behind an opportunistic batch).
    const std::size_t taken = queue_->pop_batch(
        batch, std::max<std::size_t>(cfg_.batch_max, 1),
        [small](const Pending& next) { return next.estimated_bytes <= small; });
    if (taken == 0) return;  // closed and empty
    depth_->fetch_sub(static_cast<std::int64_t>(taken), std::memory_order_relaxed);
    if (taken > 1) metrics.batches.inc();
    for (Pending& item : batch) {
      if (evict_if_dead(item)) continue;
      process(ctx, *slot, std::move(item));
    }
  }
}

void SpgemmService::watchdog_loop() {
  const auto poll = std::max<std::chrono::milliseconds>(
      std::chrono::duration_cast<std::chrono::milliseconds>(cfg_.stuck_after / 4),
      std::chrono::milliseconds(5));
  ServiceMetrics& metrics = ServiceMetrics::instance();
  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, poll, [&] { return watchdog_stop_; });
    if (watchdog_stop_) return;
    lock.unlock();

    // Snapshot the slots so slot mutexes are never taken under
    // workers_mutex_ (the spawn path takes workers_mutex_ alone).
    std::vector<std::shared_ptr<WorkerSlot>> slots;
    {
      std::lock_guard<std::mutex> wl(workers_mutex_);
      slots = slots_;
    }
    const auto now = std::chrono::steady_clock::now();
    for (const std::shared_ptr<WorkerSlot>& slot : slots) {
      if (slot->superseded.load(std::memory_order_acquire)) continue;
      std::shared_ptr<RequestState> stuck;
      std::uint64_t stuck_id = 0;
      std::chrono::milliseconds stalled{0};
      {
        std::lock_guard<std::mutex> sl(slot->mutex);
        if (!slot->active) {
          slot->seen_id = 0;
          continue;
        }
        const std::uint64_t epoch = slot->active->cancel.progress_epoch();
        if (slot->seen_id != slot->active_id || slot->seen_epoch != epoch) {
          // New request or fresh progress: restart the stall clock. The
          // epoch is bumped at chunk and step boundaries, so "slow but
          // moving" is never declared stuck.
          slot->seen_id = slot->active_id;
          slot->seen_epoch = epoch;
          slot->seen_at = now;
          continue;
        }
        stalled = std::chrono::duration_cast<std::chrono::milliseconds>(now - slot->seen_at);
        if (stalled < cfg_.stuck_after) continue;
        stuck = slot->active;
        stuck_id = slot->active_id;
        slot->superseded.store(true, std::memory_order_release);
      }
      // Poison exactly this request's future, ask the run to stop at its
      // next cooperative checkpoint, and replace the worker so the service
      // keeps serving even if the old thread never comes back. The old
      // thread's eventual result (if any) is dropped by the resolve guard.
      stuck->cancel.request_cancel();
      if (stuck->resolve(Status::deadline_exceeded(
              "watchdog: request " + std::to_string(stuck_id) + " made no progress for " +
              std::to_string(stalled.count()) + " ms; worker replaced"))) {
        metrics.watchdog_kills.inc();
        metrics.deadline_miss.inc();
        metrics.failed.inc();
        // Re-mint the victim's context (minting is deterministic per
        // process) so the kill joins its request's track even though the
        // watchdog never saw the Pending item.
        const obs::RequestContext victim{obs::mint_trace_id(stuck_id), stuck_id, 0};
        obs::RequestScope scope(victim);
        TSG_TRACE_INSTANT("service.request.watchdog_kill",
                          static_cast<std::int64_t>(stalled.count()));
        TSG_LOG_WARN("service.watchdog_kill", {"request_id", stuck_id},
                     {"stalled_ms", stalled.count()});
        TSG_FLIGHT_RECORD("warn", "service.watchdog_kill", stuck_id, victim.trace_id,
                          "no progress; worker replaced");
        obs::FlightRecorder::instance().dump("watchdog_kill", stuck_id);
      }
      {
        std::lock_guard<std::mutex> wl(workers_mutex_);
        if (!shutdown_started_.load(std::memory_order_acquire)) spawn_worker_locked();
      }
    }

    lock.lock();
  }
}

void SpgemmService::shutdown(DrainMode mode) {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  if (shutdown_started_.exchange(true, std::memory_order_acq_rel)) {
    return;  // idempotent: the first call already resolved every pending item
  }
  ServiceMetrics& metrics = ServiceMetrics::instance();

  // Stop the supervisor first so no replacement worker spawns while the
  // worker set is being joined.
  if (watchdog_.joinable()) {
    {
      std::lock_guard<std::mutex> wl(watchdog_mutex_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }

  if (mode == DrainMode::kCancel) {
    std::vector<Pending> abandoned = queue_->drain();
    depth_->fetch_sub(static_cast<std::int64_t>(abandoned.size()),
                      std::memory_order_relaxed);
    for (Pending& item : abandoned) {
      metrics.cancelled.inc();
      fail(std::move(item),
           Status::cancelled("shutdown: request cancelled before execution"));
    }
  } else {
    queue_->close();
    bool have_workers;
    {
      std::lock_guard<std::mutex> wl(workers_mutex_);
      have_workers = !workers_.empty();
    }
    if (!have_workers) {
      // Queue-only configuration: the shutting-down thread is the drain
      // worker, so kDrain keeps its "every future completes" contract
      // (including pop-time eviction of already-expired requests).
      SpgemmContext ctx(cfg_.context);
      WorkerSlot drain_slot;
      Pending item;
      while (queue_->pop(item)) {
        depth_->fetch_sub(1, std::memory_order_relaxed);
        if (evict_if_dead(item)) continue;
        process(ctx, drain_slot, std::move(item));
      }
    }
  }

  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> wl(workers_mutex_);
    to_join.swap(workers_);
    slots_.clear();
  }
  for (std::thread& w : to_join) w.join();
}

}  // namespace tsg::service
