// SpgemmService — the multi-tenant, asynchronous front end over
// SpgemmContext: the ROADMAP's "millions of users" story.
//
// One service owns a bounded MPMC request queue (common/bounded_queue.h)
// and a pool of N warm workers, each pinned to its *own* pooled
// SpgemmContext — contexts are single-caller objects, so per-worker
// ownership is what turns the PR-1 workspace pooling into a concurrency
// story: after warm-up each worker multiplies out of steady-state buffers
// with no cross-worker sharing to race on.
//
//     SpgemmService svc(SpgemmService::Config::from_env());
//     std::future<SpgemmRunReport> f = svc.submit({a});       // C = A*A
//     Expected<Ticket> t = svc.try_submit({a, b});            // non-blocking
//     ...
//     svc.shutdown(SpgemmService::DrainMode::kDrain);
//
// Submission flavours (same request, different backpressure):
//   * submit()      blocks while the queue is full; always returns a future.
//     Admission rejection and shutdown arrive *through* the future as a
//     tsg::Error (Rejected / Cancelled) so every submit has exactly one
//     delivery path.
//   * try_submit()  never blocks; QueueFull / Rejected / Cancelled come
//     back as a structured Status in the Expected, and no future is
//     created for a request that was never queued.
//
// Admission control (estimate-before-execute, in the spirit of OCEAN's
// planning pass — PAPERS.md): at enqueue time the service bounds the
// request's device footprint from the CSR operands (service/admission.h)
// against the service-wide device budget:
//   * fits            -> admitted; small requests are batched per worker
//                        wake-up (Config::batch_max / small_request_bytes).
//   * over budget,
//     degradation on  -> admitted in chunked-degradation mode: the worker's
//                        context splits the run into tile-row chunks that
//                        fit (bit-identical stitch, the PR-2 machinery) and
//                        the in-flight budget gate runs it exclusively.
//   * over budget,
//     degradation off -> Rejected with a structured Status, at submit time,
//                        instead of an OOM (or BudgetExceeded) minutes
//                        later inside a worker.
// Config::admission_enforce(false) switches admission to observe-only
// (shadow mode): everything is admitted and classified, enforcement falls
// to the context's authoritative post-step-1 check — a worker hitting
// BudgetExceeded then poisons only its own future.
//
// Shutdown has exactly two well-defined outcomes per pending future:
//   * DrainMode::kDrain  — every queued request still executes; futures
//     complete with values (or that request's own error).
//   * DrainMode::kCancel — queued-but-unstarted requests fail with
//     Cancelled; in-flight requests still complete normally.
// The destructor drains. Both modes reject new submissions immediately.
//
// Observability: the whole path is instrumented through the obs layer —
// spans `service.submit` / `service.worker.run`, counters
// `service.submitted/admitted/degraded/rejected/queue_full/cancelled/
// completed/failed/batches`, histograms `service.queue_wait_us` /
// `service.latency_us`, gauges `service.queue_depth` /
// `service.inflight_bytes`.
//
// Request correlation: admission mints an obs::RequestContext
// {trace_id, request_id, tag} that rides the Pending item through the
// queue; the worker installs it (obs::RequestScope) around process(), so
// every trace event underneath — service.worker.run, the spgemm.* step
// spans, per-chunk events — plus every log record and flight-recorder
// entry carries the same ids. Lifecycle instants
// (`service.request.queued/evicted/retry/completed/failed/watchdog_kill`)
// make one request's history a single joinable Perfetto track, and the
// completed report echoes request_id/trace_id (SpgemmRunReport).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "common/bounded_queue.h"
#include "common/cancellation.h"
#include "common/status.h"
#include "core/spgemm_context.h"
#include "obs/request_context.h"
#include "service/admission.h"

namespace tsg::service {

/// One multiply, submitted by value. Operands are shared_ptr so a replay
/// over a fixed suite (or a chain reusing its own output) never copies a
/// matrix into the queue; `b == nullptr` means C = A*A.
struct SpgemmRequest {
  std::shared_ptr<const Csr<double>> a;
  std::shared_ptr<const Csr<double>> b = nullptr;  ///< null: C = A * A
  /// Permit chunked-degradation admission for this request when its
  /// estimate exceeds the service budget; false demands a single-shot run
  /// (over-budget then means Rejected at submit).
  bool allow_degraded = true;
  /// Caller correlation id, echoed on the Ticket (never interpreted).
  std::uint64_t tag = 0;
};

/// Per-request lifecycle options (the second argument of submit /
/// try_submit). Defaults are the PR-6 behaviour: no deadline, no retries.
struct SubmitOptions {
  /// Absolute deadline for the whole request (queue wait + execution). An
  /// expired request is *evicted* at pop time — poisoned with
  /// kDeadlineExceeded, never run — and a request that expires mid-run is
  /// stopped cooperatively at the next chunk/tile boundary with the same
  /// status. Unarmed (default) means no deadline.
  Deadline deadline{};
  /// Transparent retries for transient failures (kAllocationFailed). Each
  /// retry waits an exponential backoff with deterministic jitter, spends
  /// one token of the service-wide retry budget (Config::retry_budget),
  /// and re-checks the deadline first. 0 (default) disables retries; a
  /// completed-after-retry result is bit-identical to a direct try_run.
  int max_retries = 0;
  /// Caller correlation id; when nonzero it overrides SpgemmRequest::tag
  /// on the ticket.
  std::uint64_t tag = 0;

  SubmitOptions& with_deadline(Deadline d) { deadline = d; return *this; }
  SubmitOptions& with_timeout(std::chrono::milliseconds ms) {
    deadline = Deadline::after(ms);
    return *this;
  }
  SubmitOptions& with_retries(int n) { max_retries = n; return *this; }
  SubmitOptions& with_tag(std::uint64_t t) { tag = t; return *this; }
};

/// How admission classified a request (recorded on the ticket and in the
/// `service.admitted` / `service.degraded` counters).
enum class Admission {
  kAdmitted,  ///< estimated to fit the service budget single-shot
  kDegraded,  ///< over budget; will run in chunked-degradation mode
};

/// Receipt of an accepted submission.
struct Ticket {
  std::uint64_t id = 0;        ///< service-unique, monotonically increasing
  std::uint64_t tag = 0;       ///< echoed from the request / SubmitOptions
  /// Trace correlation id minted at admission; every trace event, log
  /// record, and flight-recorder entry this request produces carries it.
  std::uint64_t trace_id = 0;
  Admission admission = Admission::kAdmitted;
  std::size_t estimated_bytes = 0;  ///< admission footprint bound
  std::future<SpgemmRunReport> result;
  /// Caller-side cancellation handle: request_cancel() stops the request
  /// cooperatively — evicted if still queued, stopped at the next
  /// chunk/tile boundary if running — and its future fails with
  /// kCancelled. Safe to drop if unused.
  CancelSource cancel;
};

class SpgemmService {
 public:
  /// Service knobs; context knobs nest as `context`. from_env() layers
  /// TSG_SERVICE_WORKERS / TSG_SERVICE_QUEUE_CAP over
  /// SpgemmContext::Config::from_env() (see the env-knob table in
  /// docs/ARCHITECTURE.md).
  struct Config {
    /// Worker threads, each owning one warm pooled context. 0 is a valid
    /// queue-only configuration (nothing executes until shutdown(kDrain)
    /// drains inline, or kCancel fails everything) — used by tests to make
    /// saturation deterministic.
    int workers = 2;
    /// Bounded queue capacity; submit() blocks and try_submit() returns
    /// QueueFull beyond it.
    std::size_t queue_capacity = 64;
    /// Admission decisions per wake-up: a worker that pops a small request
    /// keeps popping while requests stay small, up to this many, before
    /// running them back to back (one condvar wake per batch, warm caches).
    std::size_t batch_max = 8;
    /// Estimated-footprint ceiling below which a request counts as small
    /// for batching.
    std::size_t small_request_bytes = std::size_t{4} << 20;
    /// true (default): admission *enforces* the budget (reject / degrade at
    /// submit). false: observe-only shadow mode — everything is admitted
    /// and classified, and the context's post-step-1 check is the only
    /// enforcement (a worker's BudgetExceeded poisons that future only).
    bool admission_enforce = true;
    /// Per-worker context configuration. `threads` is forced to 0 (workers
    /// must not race on the process-wide thread-count guard) and
    /// `device_mem_mb` to 0 (the service publishes the budget once instead
    /// of each context re-publishing it).
    SpgemmContext::Config context{};
    /// Service-wide modeled device budget in MB; 0 keeps the ambient
    /// TSG_DEVICE_MEM_MB setting. Published process-wide at service
    /// construction, shared by admission and every worker context.
    std::size_t device_mem_mb = 0;
    /// When an admitted request's estimate exceeds the budget: true admits
    /// it in chunked-degradation mode (if the request allows), false
    /// rejects it at submit.
    bool degrade_on_budget = true;
    /// Watchdog threshold: a worker whose active request has made no
    /// progress (progress epoch unchanged — see common/cancellation.h) for
    /// this long is declared stuck: exactly that request's future is
    /// poisoned, its token cancelled, and the worker is superseded by a
    /// fresh one (new thread, new warm context) so the service keeps
    /// serving even if the old worker never returns. zero() (default)
    /// disables supervision — tier-1 behaviour is unchanged unless a
    /// deployment opts in.
    std::chrono::milliseconds stuck_after{0};
    /// Service-wide retry budget: the maximum number of retry tokens
    /// available at once. Each backoff-retry (SubmitOptions::max_retries)
    /// spends one; every successfully completed request refunds one (up to
    /// the cap), so a failure storm degrades to fail-fast instead of
    /// amplifying load with synchronized retries.
    int retry_budget = 64;

    Config& with_stuck_after(std::chrono::milliseconds d) { stuck_after = d; return *this; }
    Config& with_retry_budget(int n) { retry_budget = n; return *this; }

    Config& with_workers(int n) { workers = n; return *this; }
    Config& with_queue_capacity(std::size_t n) { queue_capacity = n; return *this; }
    Config& with_batch_max(std::size_t n) { batch_max = n; return *this; }
    Config& with_small_request_bytes(std::size_t b) { small_request_bytes = b; return *this; }
    Config& with_admission_enforce(bool on) { admission_enforce = on; return *this; }
    Config& with_context(const SpgemmContext::Config& c) { context = c; return *this; }
    Config& with_device_mem_mb(std::size_t mb) { device_mem_mb = mb; return *this; }
    Config& with_degradation(bool on) { degrade_on_budget = on; return *this; }

    /// TSG_SERVICE_WORKERS / TSG_SERVICE_QUEUE_CAP / TSG_SERVICE_STUCK_MS
    /// on top of the context env knobs (SpgemmContext::Config::from_env).
    static Config from_env();
  };

  enum class DrainMode {
    kDrain,   ///< execute everything still queued, then stop
    kCancel,  ///< fail queued-but-unstarted requests with Cancelled
  };

  SpgemmService() : SpgemmService(Config{}) {}
  explicit SpgemmService(const Config& config);

  /// Drains (DrainMode::kDrain): destruction never abandons a future.
  ~SpgemmService();

  SpgemmService(const SpgemmService&) = delete;
  SpgemmService& operator=(const SpgemmService&) = delete;

  const Config& config() const { return cfg_; }

  /// Non-blocking twin of submit(): admission + enqueue without waiting.
  /// QueueFull (queue at capacity), Rejected (over budget, degradation
  /// unavailable), Cancelled (service shut down), DimensionMismatch /
  /// InvalidArgument (malformed request) come back as the Expected's
  /// Status; on success the Ticket carries the future, the admission
  /// classification, and the cancellation handle. `options` binds the
  /// per-request lifecycle: deadline, retries, tag.
  Expected<Ticket> try_submit(SpgemmRequest request, SubmitOptions options = {});

  /// Blocking twin of try_submit(): waits for queue space instead of
  /// returning QueueFull, and always returns a future — admission
  /// rejection and shutdown are delivered through it as tsg::Error
  /// (Rejected / Cancelled), so fire-and-wait callers have one error path.
  std::future<SpgemmRunReport> submit(SpgemmRequest request, SubmitOptions options = {});

  /// Stop the service. Idempotent; both modes reject new submissions
  /// immediately. kDrain executes the backlog (inline on the calling
  /// thread when workers == 0), kCancel fails it with Cancelled. In-flight
  /// requests always complete.
  void shutdown(DrainMode mode = DrainMode::kDrain);

  /// Requests currently queued (not yet picked up by a worker).
  std::size_t queue_depth() const { return queue_->size(); }

  /// Service-wide modeled device budget admission checks against.
  std::size_t budget_bytes() const { return budget_bytes_; }

 private:
  /// Shared completion state of one request. shared_ptr'd because *two*
  /// parties may race to resolve the future — the owning worker and the
  /// watchdog (which poisons a stuck worker's request from outside). The
  /// `resolved` exchange is the single-delivery guard: whoever flips it
  /// first owns the promise, the loser drops its outcome.
  struct RequestState {
    std::promise<SpgemmRunReport> promise;
    std::atomic<bool> resolved{false};
    CancelSource cancel;  ///< deadline + caller/watchdog/chaos cancellation

    /// True when this call resolved the promise (value delivered).
    bool resolve(SpgemmRunReport&& report) {
      if (resolved.exchange(true, std::memory_order_acq_rel)) return false;
      promise.set_value(std::move(report));
      return true;
    }
    /// True when this call resolved the promise (error delivered).
    bool resolve(Status status) {
      if (resolved.exchange(true, std::memory_order_acq_rel)) return false;
      promise.set_exception(std::make_exception_ptr(Error(std::move(status))));
      return true;
    }
  };

  struct Pending {
    SpgemmRequest request;
    SubmitOptions options;
    std::shared_ptr<RequestState> state;
    std::uint64_t id = 0;
    std::size_t estimated_bytes = 0;
    bool degraded = false;
    std::chrono::steady_clock::time_point enqueued_at{};
    /// Minted at admission; installed (obs::RequestScope) around every
    /// stage that acts on this request so obs signals stay joinable.
    obs::RequestContext rctx{};
  };

  /// What the watchdog sees of one worker thread. shared_ptr'd: the
  /// watchdog iterates a snapshot while workers come and go (supersession
  /// appends replacements; shutdown joins everyone).
  struct WorkerSlot {
    std::mutex mutex;  ///< guards active/active_id (watchdog vs worker)
    std::shared_ptr<RequestState> active;  ///< null while idle
    std::uint64_t active_id = 0;
    std::chrono::steady_clock::time_point started{};
    /// Watchdog bookkeeping: the last progress epoch observed for
    /// active_id and when it was first seen unchanged.
    std::uint64_t seen_epoch = 0;
    std::uint64_t seen_id = 0;
    std::chrono::steady_clock::time_point seen_at{};
    /// Set by the watchdog when it replaces this worker: the old thread
    /// finishes (or never does) without popping further requests.
    std::atomic<bool> superseded{false};
  };

  /// Serialises the in-flight estimated footprints against the service
  /// budget so concurrently executing workers cannot collectively
  /// oversubscribe the device; a degraded (over-budget) request acquires
  /// the whole budget and therefore runs exclusively.
  class BudgetGate {
   public:
    void acquire(std::size_t bytes);
    void release(std::size_t bytes);
    std::int64_t in_flight() const;

   private:
    mutable std::mutex mutex_;
    std::condition_variable available_;
    std::size_t in_flight_ = 0;
  };

  /// Admission decision shared by both submission flavours. Returns the
  /// non-ok Status for rejected requests; fills `out` otherwise.
  Status admit(const SpgemmRequest& request, const SubmitOptions& options, Pending& out,
               Admission& admission);

  void worker_loop(std::shared_ptr<WorkerSlot> slot);
  void process(SpgemmContext& ctx, WorkerSlot& slot, Pending&& item);
  /// Pop-time deadline/cancel eviction: true when the item was poisoned
  /// (kDeadlineExceeded / kCancelled) and must not run.
  bool evict_if_dead(Pending& item);
  static void fail(Pending&& item, Status status);
  /// Lifecycle instant + flight record for an accepted enqueue, emitted
  /// under the request's scope from the submitting thread.
  static void note_queued(const obs::RequestContext& rctx, Admission admission);

  /// Spawn one worker (thread + slot), used by the constructor and by the
  /// watchdog when it replaces a stuck one. Caller holds workers_mutex_.
  void spawn_worker_locked();
  void watchdog_loop();
  /// Retry-budget token bucket (see Config::retry_budget).
  bool take_retry_token();
  void refund_retry_token();

  Config cfg_;
  std::size_t budget_bytes_ = 0;
  std::unique_ptr<BoundedQueue<Pending>> queue_;
  BudgetGate gate_;
  /// Worker threads and their watchdog slots, index-aligned. Guarded by
  /// workers_mutex_: the watchdog appends replacements while the service
  /// runs; shutdown joins every thread ever spawned.
  std::mutex workers_mutex_;
  std::vector<std::thread> workers_;
  std::vector<std::shared_ptr<WorkerSlot>> slots_;
  std::thread watchdog_;
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  std::atomic<std::int64_t> retry_tokens_{0};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<bool> shutdown_started_{false};
  std::mutex shutdown_mutex_;
  /// Queue-depth gauge state: outlives the service (the metrics registry
  /// holds gauge callbacks for the process lifetime), so the callback
  /// captures this shared counter, not `this`.
  std::shared_ptr<std::atomic<std::int64_t>> depth_;
  std::shared_ptr<std::atomic<std::int64_t>> inflight_gauge_;
};

}  // namespace tsg::service
