// SpgemmContext — the reusable TileSpGEMM execution engine.
//
// One context owns everything a multiply needs besides its operands and
// output: pooled workspaces (per value type), the cost-binned tile
// scheduler, and the configuration (Config), the one home of every engine
// knob. Creating a context is cheap; *reusing* one across the multiplies
// of an iterated workload (AMG Galerkin chains, Markov clustering, GNN
// propagation, APSP squaring) is the point — after the first call the
// pooled buffers have their steady-state capacity and subsequent
// iterations allocate little beyond the output matrix itself.
//
// Lifecycle:
//
//     Config::from_env() ── builder tweaks ──> SpgemmContext ctx(cfg)
//           ctx.try_run(Request<Matrix, Semiring>{...})   every product
//           ctx.workspace_bytes() / ctx.release_workspaces()
//
// A Request names A, B (which may alias A) and an optional mask M, all CSR
// or all tile, and may ask for A * B^T; its Semiring picks step 3's numeric
// pass. C comes back in the operands' form, with the run's timings. try_run
// applies one contract to every request, once, in this order:
//   1. the context's thread count (ThreadScope);
//   2. dimension checks;
//   3. validation of each distinct operand, once, in the form the caller
//      passed (Config::validation / nan_policy);
//   4. CSR->tile conversion of each distinct CSR operand (convert_ms) and
//      the tile-native transpose of B (alloc_ms);
//   5. the pipeline (run_impl / run_chunked): cancellation, the budget with
//      chunked degradation, the cost-binned plan, the dispatched step-2/3
//      kernels at the level resolved once per run, and the run counters.
// Every anticipated failure — a bad operand, the modeled device budget with
// degradation disabled, a cancelled or expired token, a tracked allocation
// failing (for real or via the MemoryTracker fault plan) — comes back as a
// tsg::Status, and the context stays reusable. Callers that prefer an
// exception call .value(), which throws tsg::Error carrying the Status.
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
// Output layout: the operands fix it, so there is no knob. Tile in gives
// tile out. CSR in gives CSR out, and C is written once, in CSR: after
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
// The one-shot free functions tile_spgemm() / spgemm_tile() (tile_spgemm.h)
// run a Request on a transient context.
//
// Thread safety: a context is a single-caller object (like a cuSPARSE or
// KokkosKernels handle). Concurrent try_run() calls on one context race on
// the pooled workspace; use one context per calling thread instead.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "core/semiring.h"
#include "core/simd_dispatch.h"
#include "core/spgemm_workspace.h"
#include "core/step3.h"
#include "core/tile_spgemm.h"

namespace tsg {

/// One product for SpgemmContext::try_run: C = A * B, or A * B^T, over
/// `Semiring`, optionally masked by M. `Matrix` is Csr<T> or TileMatrix<T>;
/// every operand has that form, and C comes back in it. The request borrows
/// its operands and never copies them; B and M may alias A, and an aliased
/// operand is validated and converted once.
///
///     ctx.try_run(Request<Csr<double>>{&a, &a});                  // A * A
///     ctx.try_run(Request<TileMatrix<double>>{&l, &l, &l});       // (L * L) .* L
///     ctx.try_run(Request<TileMatrix<double>>{.a = &a, .b = &a,
///                                             .transpose_b = true});  // A * A^T
///     ctx.try_run(Request<TileMatrix<double>, MinPlus<double>>{&d, &d});
template <class Matrix, class Semiring = PlusTimes<typename Matrix::value_type>>
struct Request {
  const Matrix* a = nullptr;
  const Matrix* b = nullptr;
  /// C = (A*B) .* structure(M), values from the product: entries of the
  /// product outside M's pattern are dropped, and a tile C keeps every tile
  /// of M, empty ones included. This is the GraphBLAS-style masked product
  /// the graph workloads the paper motivates need (triangle counting
  /// computes (L*L) .* L), and it composes with the tile design as a step-2
  /// filter: M's tile layout takes the place of step 1's, so no output tile
  /// outside M exists, and M's 16-bit row masks AND into each tile's step-2
  /// words, so C's masks hold only the product's entries inside M and the
  /// dense intermediate (L*L) is never materialised. Step 3 is the plain
  /// product's: up to 16 nonzeros per tile the rank-indexed walk skips
  /// every product outside the mask, and above that the row kernel
  /// multiplies whole B rows and the compress drops the entries outside it
  /// (DESIGN.md).
  const Matrix* mask = nullptr;
  /// Multiply by B^T, formed tile-natively after B is validated (booked in
  /// alloc_ms); with b == a this is the artifact's `-aat 1` mode, A * A^T.
  bool transpose_b = false;
};

class SpgemmContext {
 public:
  /// All knobs of the engine in one documented place. Builder-style
  /// setters return *this so configs compose inline:
  ///
  ///     SpgemmContext ctx(SpgemmContext::Config::from_env()
  ///                           .with_threads(4)
  ///                           .with_device_mem_mb(512));
  struct Config {
    /// Vector-ISA level of the step-2/3 kernel family. Defaults to the best
    /// level this build and host support, or the one TSG_SIMD forces.
    /// Levels above what is available clamp down once per run; every level
    /// is bit-identical, and kScalar runs the per-bit reference kernels,
    /// the oracle the others are checked against.
    simd::Level simd = simd::active_level();
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

    Config& with_simd_level(simd::Level level) { simd = level; return *this; }
    Config& with_threads(int n) { threads = n; return *this; }
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
    /// dispatch level — read once by simd::active_level(), which the `simd`
    /// default takes, so every context sees it). CLI, benches, and tests
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
  /// kDeadlineExceeded with all workspace accounting balanced, and the
  /// context stays reusable.
  void set_cancel_token(CancelToken t) { cancel_ = std::move(t); }
  const CancelToken& cancel_token() const { return cancel_; }

  /// Run one request under the contract above. The result holds C, in the
  /// operands' form, and the run's timings: the per-step breakdown,
  /// convert_ms for CSR operands, the cost-bin counters, the pooled
  /// workspace footprint and the budget outcome (chunks / budget_limited).
  template <class Matrix, class Semiring>
  Expected<SpgemmResult<Matrix>> try_run(const Request<Matrix, Semiring>& req) {
    return run_request(req.a, req.b, req.mask, req.transpose_b,
                       &step3_numeric<Semiring, typename Matrix::value_type>);
  }

  /// C = A * B in CSR; `*timings` receives the run's timings on success.
  /// Kept only because the end-to-end benchmark (perfbench/) calls it; new
  /// code runs a Request.
  template <class T>
  Expected<Csr<T>> try_run_csr(const Csr<T>& a, const Csr<T>& b,
                               TileSpgemmTimings* timings = nullptr) {
    Expected<SpgemmResult<Csr<T>>> run = try_run(Request<Csr<T>>{&a, &b});
    if (!run.ok()) return run.status();
    if (timings != nullptr) *timings = run->timings;
    return std::move(run->c);
  }

  /// C = (A * B) .* structure(mask) in tile form, without the timings.
  /// Kept only because the end-to-end benchmark (perfbench/) calls it; new
  /// code runs a Request.
  template <class T>
  Expected<TileMatrix<T>> try_run_masked(const TileMatrix<T>& a, const TileMatrix<T>& b,
                                         const TileMatrix<T>& mask) {
    Expected<TileSpgemmResult<T>> run = try_run(Request<TileMatrix<T>>{&a, &b, &mask});
    if (!run.ok()) return run.status();
    return std::move(run->c);
  }

  /// Pooled scratch bytes currently held (both value types). Stops growing
  /// once the workload's steady-state shapes have been seen.
  std::size_t workspace_bytes() const { return ws_d_.bytes() + ws_f_.bytes(); }

  /// Drop all pooled buffers (e.g. between workloads of very different
  /// scale). The next run re-grows them.
  void release_workspaces() {
    ws_d_.release();
    ws_f_.release();
  }

 private:
  /// Applies Config::threads, when set, for its lifetime. try_run opens one
  /// first, so validation, conversion and all steps run on the configured
  /// count; nested scopes restore what they found.
  class ThreadScope {
   public:
    explicit ThreadScope(const SpgemmContext& ctx) {
      if (ctx.cfg_.threads > 0) guard_.emplace(ctx.cfg_.threads);
    }

   private:
    std::optional<ThreadCountGuard> guard_;
  };

  /// A request once the contract has been applied, as the pipeline takes
  /// it: tile-form operands (converted and transposed as asked), step 3's
  /// pass for the semiring, the dispatch level resolved once for the run,
  /// and a CSR caller's C, which step 3 then writes instead of result.c.
  template <class T>
  struct TileRun {
    const TileMatrix<T>& a;
    const TileMatrix<T>& b;
    const TileMatrix<T>* mask;
    Step3Fn<T> numeric;
    simd::Level level;
    Csr<T>* csr;
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

  /// try_run's contract, steps 1-5, for a request's operands and its
  /// semiring's numeric pass.
  template <class Matrix>
  Expected<SpgemmResult<Matrix>> run_request(const Matrix* a, const Matrix* b,
                                             const Matrix* mask, bool transpose_b,
                                             Step3Fn<typename Matrix::value_type> numeric);

  /// The pipeline body shared by single-shot and chunked execution; throws
  /// (bad_alloc, Error) rather than returning a Status — run_request
  /// converts. C lands in `*run.csr` when it is set (result.c stays empty),
  /// in result.c otherwise.
  template <class T>
  TileSpgemmResult<T> run_impl(const TileRun<T>& run);

  /// Chunked degradation: executes steps 2-3 tile-row range by range and
  /// stitches the ranges into `result.c`, or appends their CSR rows to
  /// `*run.csr` (bit-identical to single-shot either way).
  template <class T>
  void run_chunked(const TileRun<T>& run,
                   const std::vector<std::pair<index_t, index_t>>& chunks,
                   SpgemmWorkspace<T>& ws, TileSpgemmResult<T>& result);

  Config cfg_;
  CancelToken cancel_;
  SpgemmWorkspace<double> ws_d_;
  SpgemmWorkspace<float> ws_f_;
};

template <>
inline SpgemmWorkspace<double>& SpgemmContext::workspace<double>() {
  return ws_d_;
}
template <>
inline SpgemmWorkspace<float>& SpgemmContext::workspace<float>() {
  return ws_f_;
}

extern template Expected<SpgemmResult<Csr<double>>> SpgemmContext::run_request(
    const Csr<double>*, const Csr<double>*, const Csr<double>*, bool, Step3Fn<double>);
extern template Expected<SpgemmResult<Csr<float>>> SpgemmContext::run_request(
    const Csr<float>*, const Csr<float>*, const Csr<float>*, bool, Step3Fn<float>);
extern template Expected<SpgemmResult<TileMatrix<double>>> SpgemmContext::run_request(
    const TileMatrix<double>*, const TileMatrix<double>*, const TileMatrix<double>*, bool,
    Step3Fn<double>);
extern template Expected<SpgemmResult<TileMatrix<float>>> SpgemmContext::run_request(
    const TileMatrix<float>*, const TileMatrix<float>*, const TileMatrix<float>*, bool,
    Step3Fn<float>);

}  // namespace tsg
