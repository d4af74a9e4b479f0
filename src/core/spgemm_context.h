// SpgemmContext — the reusable TileSpGEMM execution engine.
//
// One context owns everything a multiply needs besides its operands and
// output: pooled workspaces (per value type), the cost-binned tile
// scheduler, and the configuration that used to be scattered across
// TileSpgemmOptions defaults and ad-hoc environment parsing. Creating a
// context is cheap; *reusing* one across the multiplies of an iterated
// workload (AMG Galerkin chains, Markov clustering, GNN propagation) is
// the point — after the first call the pooled buffers have their
// steady-state capacity and subsequent iterations allocate little beyond
// the output matrix itself.
//
// Lifecycle:
//
//     Config::from_env() ── builder tweaks ──> SpgemmContext ctx(cfg)
//           ctx.run(a, b)        tile in/out, timings + bin counters
//           ctx.run_csr(a, b)    CSR in/out: inputs converted (convert_ms),
//                                C written straight into CSR by step 3
//           ctx.run_aat(a)       A * A^T, transpose formed tile-natively
//           ctx.run_masked(...)  C = (A*B) .* structure(M)
//           ctx.try_run_semiring<S>(a, b)   C = A (x) B over semiring S
//           ctx.workspace_bytes() / ctx.release_workspaces()
//
// All of them run one pipeline (try_run_into -> run_impl / run_chunked):
// validation, the thread count, cancellation, the budget with chunked
// degradation, the cost-binned plan, the dispatched step-2 kernels and the
// run counters apply to each the same way. A masked product takes M's tile
// structure where step 1 would run, and step 2 ANDs M's row masks into C's;
// a semiring product swaps step 3's numeric pass (step3.h).
//
// Every run* entry point has a try_run* twin returning Expected<...>:
// anticipated failures (bad operands, the modeled device budget with
// degradation disabled, a tracked allocation failing — for real or via the
// MemoryTracker fault plan) come back as a tsg::Status instead of an
// exception, and the context remains reusable for the next call. The
// classic run* names wrap the try_ variants and throw tsg::Error carrying
// the same Status; try_run_semiring's throwing form is
// tile_spgemm_semiring(ctx, a, b) in semiring_spgemm.h.
//
// Budget enforcement (the paper's Fig. 9 robustness claim): after step 1
// the context bounds the per-call device-side footprint — one constant
// output bound per C tile plus the pooled scratch — against the modeled
// device budget. If it does not fit, the multiply degrades gracefully: C's
// tile rows are split into chunks that each fit, the pipeline runs chunk by
// chunk through the same pooled workspace, and the chunks are stitched into
// the final matrix. Results are bit-identical to the single-shot run;
// TileSpgemmTimings::chunks / budget_limited report what happened.
//
// Output layout: the entry point fixes it, so there is no knob. Tile in
// gives tile out. CSR in gives CSR out, and C is written once, in CSR: after
// step 2 an offset pass turns C's row masks into CSR row pointers plus a
// within-row offset per local row of each non-empty tile, and step 3 writes
// column indices and values straight there. No tile-layout copy of C's
// entries exists on that path; a chunked CSR run grows C by each chunk's
// rows, so its chunks concatenate without a stitch copy.
//
// Intermediate state: none per output tile, as in the paper. Step 2 keeps
// only C's symbolic arrays, and step 3 re-runs the set intersection rather
// than reading matched pairs from a cache.
//
// The free functions tile_spgemm() / spgemm_tile() / tile_spgemm_aat() /
// tile_spgemm_masked() / tile_spgemm_semiring() remain as thin wrappers
// that create a transient context per call.
//
// Thread safety: a context is a single-caller object (like a cuSPARSE or
// KokkosKernels handle). Concurrent run() calls on one context race on the
// pooled workspace; use one context per calling thread instead.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "core/semiring.h"
#include "core/spgemm_workspace.h"
#include "core/step3.h"
#include "core/tile_spgemm.h"

namespace tsg {

class SpgemmContext {
 public:
  /// All knobs of the engine in one documented place. Builder-style
  /// setters return *this so configs compose inline:
  ///
  ///     SpgemmContext ctx(SpgemmContext::Config::from_env()
  ///                           .with_threads(4)
  ///                           .with_device_mem_mb(512));
  struct Config {
    /// Kernel options (the SIMD level) — defaults follow the paper.
    TileSpgemmOptions options{};
    /// Worker threads for everything a call on this context runs —
    /// validation, conversion and every step; 0 keeps the library-wide
    /// setting (set_num_threads / OMP_NUM_THREADS).
    int threads = 0;
    /// Modeled device-memory budget in MB; 0 keeps TSG_DEVICE_MEM_MB (or
    /// its 420 MB default). Published process-wide at context creation and
    /// *enforced* by every run: a call whose estimated footprint exceeds it
    /// either degrades to chunked execution (degrade_on_budget) or fails
    /// with StatusCode::kBudgetExceeded.
    std::size_t device_mem_mb = 0;
    /// When the estimated footprint exceeds the budget: true (default)
    /// splits the run into tile-row chunks that each fit and stitches a
    /// bit-identical result; false refuses with kBudgetExceeded.
    bool degrade_on_budget = true;
    /// Operand checking at the API boundary. kOff trusts the caller
    /// (dimension compatibility is still verified), kCheap (default) does
    /// O(rows + tiles) structural sanity, kFull walks every invariant and
    /// applies nan_policy.
    ValidationLevel validation = ValidationLevel::kCheap;
    /// Under kFull validation: reject operands containing NaN/Inf values,
    /// or let them propagate with IEEE semantics (default).
    NanPolicy nan_policy = NanPolicy::kAllow;
    /// Turn on the execution-trace runtime gate (obs/trace.h) at context
    /// creation. The gate is process-wide: true enables it, false leaves
    /// it as-is (so a CLI --trace is not undone by a default config).
    bool tracing = false;
    /// Turn on the per-tile detail metrics gate (obs/metrics.h) at context
    /// creation; also makes each run attach its registry delta to
    /// TileSpgemmTimings::metrics. Same one-way semantics as `tracing`.
    bool metrics_detail = false;
    /// Cooperative cancellation/deadline token observed by every run of
    /// this context (chunk boundaries, step 1/2/3 tile boundaries). The
    /// default token is inert. For per-call tokens on a reused context
    /// (the service's warm workers), use SpgemmContext::set_cancel_token.
    CancelToken cancel_token;

    Config& with_options(const TileSpgemmOptions& o) { options = o; return *this; }
    Config& with_threads(int n) { threads = n; return *this; }
    /// Force the step-2/3 kernel family's vector-ISA level (default: best
    /// available, or TSG_SIMD). Levels above what the build/host supports
    /// clamp down at run time; every level is bit-identical, and kScalar is
    /// the reference oracle.
    Config& with_simd_level(simd::Level level) { options.simd = level; return *this; }
    Config& with_device_mem_mb(std::size_t mb) { device_mem_mb = mb; return *this; }
    Config& with_degradation(bool on) { degrade_on_budget = on; return *this; }
    Config& with_validation(ValidationLevel level) { validation = level; return *this; }
    Config& with_nan_policy(NanPolicy policy) { nan_policy = policy; return *this; }
    Config& with_tracing(bool on) { tracing = on; return *this; }
    Config& with_metrics(bool on) { metrics_detail = on; return *this; }
    Config& with_cancel_token(CancelToken t) { cancel_token = std::move(t); return *this; }

    /// The one place the environment is read: TSG_DEVICE_MEM_MB (budget),
    /// TSG_NUM_THREADS (worker threads), TSG_TRACE (execution tracing),
    /// TSG_METRICS (per-tile detail metrics), and TSG_SIMD (kernel
    /// dispatch level — also read once by simd::active_level(), the
    /// documented exception, so kernel forcing reaches free-function entry
    /// points that never see a Config). CLI, benches, and tests
    /// build on this instead of parsing getenv themselves. Any other
    /// TSG_-prefixed variable in the environment draws a one-time stderr
    /// warning (typos must not be silently ignored); the full knob table —
    /// including the service-layer TSG_SERVICE_WORKERS /
    /// TSG_SERVICE_QUEUE_CAP read by SpgemmService::Config::from_env — is
    /// in docs/ARCHITECTURE.md.
    static Config from_env();
  };

  SpgemmContext() : SpgemmContext(Config{}) {}
  explicit SpgemmContext(const Config& config);

  const Config& config() const { return cfg_; }

  /// Install the cancellation/deadline token the *next* runs observe —
  /// the per-request route for callers that reuse one warm context across
  /// requests (SpgemmService workers). Passing a default token disarms
  /// cancellation. A cancelled or expired run returns kCancelled /
  /// kDeadlineExceeded through try_run* with all workspace accounting
  /// balanced, and the context stays reusable.
  void set_cancel_token(CancelToken t) { cancel_ = std::move(t); }
  const CancelToken& cancel_token() const { return cancel_; }

  /// C = A * B on tile-format operands. Timings carry the per-step
  /// breakdown plus the cost-bin counters, the pooled-workspace footprint,
  /// and the budget outcome (chunks / budget_limited). Anticipated
  /// failures come back as a Status; the context stays reusable.
  /// Throwing twin: run().
  template <class T>
  Expected<TileSpgemmResult<T>> try_run(const TileMatrix<T>& a, const TileMatrix<T>& b);

  /// Throwing twin of try_run(): identical parameters, raises tsg::Error
  /// carrying the same Status.
  template <class T>
  TileSpgemmResult<T> run(const TileMatrix<T>& a, const TileMatrix<T>& b);

  /// C = A * A^T, transpose formed tile-natively (booked as alloc_ms).
  /// Throwing twin: run_aat().
  template <class T>
  Expected<TileSpgemmResult<T>> try_run_aat(const TileMatrix<T>& a);
  /// Throwing twin of try_run_aat(): identical parameters.
  template <class T>
  TileSpgemmResult<T> run_aat(const TileMatrix<T>& a);

  /// CSR in/out: converts the operands (aliased operands convert once) and
  /// multiplies, with step 3 writing C's CSR rows directly — bit-identical
  /// to tile_to_csr(run(...).c). timings->convert_ms covers the input
  /// conversion only, the Fig. 12 numerator; C's CSR assembly is booked in
  /// alloc_ms (the offset pass) and step3_ms (the writes), so core_ms()
  /// includes it. On failure `*timings` is untouched. Throwing twin:
  /// run_csr().
  template <class T>
  Expected<Csr<T>> try_run_csr(const Csr<T>& a, const Csr<T>& b,
                               TileSpgemmTimings* timings = nullptr);
  /// Throwing twin of try_run_csr(): identical parameters.
  template <class T>
  Csr<T> run_csr(const Csr<T>& a, const Csr<T>& b, TileSpgemmTimings* timings = nullptr);

  /// C = (A*B) .* structure(mask), values from the product. C keeps every
  /// tile of M, empty ones included; its entries are the product's inside
  /// M's pattern. Throwing twin: run_masked().
  template <class T>
  Expected<TileMatrix<T>> try_run_masked(const TileMatrix<T>& a, const TileMatrix<T>& b,
                                         const TileMatrix<T>& mask);
  /// Throwing twin of try_run_masked(): identical parameters.
  template <class T>
  TileMatrix<T> run_masked(const TileMatrix<T>& a, const TileMatrix<T>& b,
                           const TileMatrix<T>& mask);

  /// C = A (x) B over `Semiring` (semiring.h), tile in/out: the structure
  /// is the structural product, and each entry reduces its products from
  /// Semiring::identity(). The same contract and pipeline as try_run, with
  /// step 3's pass instantiated for the semiring. Throwing form:
  /// tile_spgemm_semiring(ctx, a, b).
  template <class Semiring, class T>
  Expected<TileSpgemmResult<T>> try_run_semiring(const TileMatrix<T>& a,
                                                 const TileMatrix<T>& b) {
    return try_run_into(a, b, RunSpec<T>{&step3_numeric<Semiring, T>});
  }

  /// Convert through the context so the conversion cost is attributed to
  /// the next run()'s convert_ms instead of being re-timed by callers.
  template <class T>
  TileMatrix<T> to_tile(const Csr<T>& m);

  /// Pooled scratch bytes currently held (both value types). Stops growing
  /// once the workload's steady-state shapes have been seen.
  std::size_t workspace_bytes() const { return ws_d_.bytes() + ws_f_.bytes(); }

  /// Drop all pooled buffers (e.g. between workloads of very different
  /// scale). The next run() re-grows them.
  void release_workspaces() {
    ws_d_.release();
    ws_f_.release();
  }

 private:
  /// Applies Config::threads, when set, for its lifetime. Every public
  /// entry point opens one first, so validation, conversion and all steps
  /// run on the configured count; nested scopes restore what they found.
  class ThreadScope {
   public:
    explicit ThreadScope(const SpgemmContext& ctx) {
      if (ctx.cfg_.threads > 0) guard_.emplace(ctx.cfg_.threads);
    }

   private:
    std::optional<ThreadCountGuard> guard_;
  };

  /// What a call computes besides C = A*B into a tile C: step 3's numeric
  /// pass (the semiring), a masked product's M (its tiles become C's, and
  /// step 2 ANDs its row masks into C's), and a CSR caller's C, which step
  /// 3 then writes instead of result.c.
  template <class T>
  struct RunSpec {
    Step3Fn<T> numeric = &step3_numeric<PlusTimes<T>, T>;
    const TileMatrix<T>* mask = nullptr;
    Csr<T>* csr = nullptr;
  };

  /// Raise kCancelled/kDeadlineExceeded when the active token tripped —
  /// the serial pipeline layer's check at stage boundaries (parallel
  /// bodies only skip).
  void check_cancelled() const {
    if (cancel_.should_stop()) throw Error(cancel_.to_status());
  }

  /// The pooled workspace of a value type.
  template <class T>
  SpgemmWorkspace<T>& workspace();

  /// Cost-binned schedule over the tiles of `structure` (the full step-1
  /// structure, or one chunk of it under budget degradation).
  template <class T>
  ExecutionPlan make_plan(const TileMatrix<T>& a, const TileLayoutCsc& b_csc,
                          const TileStructure& structure, SpgemmWorkspace<T>& ws,
                          TileSpgemmTimings& tm);

  /// Every entry point's contract (threads, validation of A, B and M,
  /// Status conversion) around run_impl.
  template <class T>
  Expected<TileSpgemmResult<T>> try_run_into(const TileMatrix<T>& a, const TileMatrix<T>& b,
                                             const RunSpec<T>& spec);

  /// The pipeline body shared by single-shot and chunked execution; throws
  /// (bad_alloc, Error) rather than returning a Status — try_run_into
  /// converts. C lands in `*spec.csr` when it is set (result.c stays
  /// empty), in result.c otherwise.
  template <class T>
  TileSpgemmResult<T> run_impl(const TileMatrix<T>& a, const TileMatrix<T>& b,
                               const RunSpec<T>& spec);

  /// Chunked degradation: executes steps 2-3 tile-row range by range and
  /// stitches the ranges into `result.c`, or appends their CSR rows to
  /// `*spec.csr` (bit-identical to single-shot either way).
  template <class T>
  void run_chunked(const TileMatrix<T>& a, const TileMatrix<T>& b, const RunSpec<T>& spec,
                   const std::vector<std::pair<index_t, index_t>>& chunks,
                   SpgemmWorkspace<T>& ws, TileSpgemmResult<T>& result);

  Config cfg_;
  CancelToken cancel_;
  SpgemmWorkspace<double> ws_d_;
  SpgemmWorkspace<float> ws_f_;
  double pending_convert_ms_ = 0.0;
};

template <>
inline SpgemmWorkspace<double>& SpgemmContext::workspace<double>() {
  return ws_d_;
}
template <>
inline SpgemmWorkspace<float>& SpgemmContext::workspace<float>() {
  return ws_f_;
}

extern template Expected<TileSpgemmResult<double>> SpgemmContext::try_run(
    const TileMatrix<double>&, const TileMatrix<double>&);
extern template Expected<TileSpgemmResult<float>> SpgemmContext::try_run(
    const TileMatrix<float>&, const TileMatrix<float>&);
extern template TileSpgemmResult<double> SpgemmContext::run(const TileMatrix<double>&,
                                                            const TileMatrix<double>&);
extern template TileSpgemmResult<float> SpgemmContext::run(const TileMatrix<float>&,
                                                           const TileMatrix<float>&);
extern template Expected<TileSpgemmResult<double>> SpgemmContext::try_run_aat(
    const TileMatrix<double>&);
extern template Expected<TileSpgemmResult<float>> SpgemmContext::try_run_aat(
    const TileMatrix<float>&);
extern template TileSpgemmResult<double> SpgemmContext::run_aat(const TileMatrix<double>&);
extern template TileSpgemmResult<float> SpgemmContext::run_aat(const TileMatrix<float>&);
extern template Expected<Csr<double>> SpgemmContext::try_run_csr(const Csr<double>&,
                                                                 const Csr<double>&,
                                                                 TileSpgemmTimings*);
extern template Expected<Csr<float>> SpgemmContext::try_run_csr(const Csr<float>&,
                                                                const Csr<float>&,
                                                                TileSpgemmTimings*);
extern template Csr<double> SpgemmContext::run_csr(const Csr<double>&, const Csr<double>&,
                                                   TileSpgemmTimings*);
extern template Csr<float> SpgemmContext::run_csr(const Csr<float>&, const Csr<float>&,
                                                  TileSpgemmTimings*);
extern template Expected<TileMatrix<double>> SpgemmContext::try_run_masked(
    const TileMatrix<double>&, const TileMatrix<double>&, const TileMatrix<double>&);
extern template Expected<TileMatrix<float>> SpgemmContext::try_run_masked(
    const TileMatrix<float>&, const TileMatrix<float>&, const TileMatrix<float>&);
extern template TileMatrix<double> SpgemmContext::run_masked(const TileMatrix<double>&,
                                                             const TileMatrix<double>&,
                                                             const TileMatrix<double>&);
extern template TileMatrix<float> SpgemmContext::run_masked(const TileMatrix<float>&,
                                                            const TileMatrix<float>&,
                                                            const TileMatrix<float>&);
extern template TileMatrix<double> SpgemmContext::to_tile(const Csr<double>&);
extern template TileMatrix<float> SpgemmContext::to_tile(const Csr<float>&);
extern template Expected<TileSpgemmResult<double>> SpgemmContext::try_run_into(
    const TileMatrix<double>&, const TileMatrix<double>&, const RunSpec<double>&);
extern template Expected<TileSpgemmResult<float>> SpgemmContext::try_run_into(
    const TileMatrix<float>&, const TileMatrix<float>&, const RunSpec<float>&);

}  // namespace tsg
