#include "core/spgemm_context.h"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/memory.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/tile_transpose.h"
#include "core/validate.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tsg {

namespace {

/// Fold one run's outcome into the always-on registry counters. Called once
/// per run_impl — never per tile — so the cost is a dozen relaxed
/// fetch_adds regardless of matrix size.
void publish_run_metrics(const TileSpgemmTimings& tm) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  static obs::Counter& runs = reg.counter("spgemm.runs");
  static obs::Counter& scheduled = reg.counter("spgemm.tiles.scheduled");
  static obs::Counter& chunks = reg.counter("spgemm.chunks");
  static obs::Counter& degraded = reg.counter("spgemm.runs.degraded");
  static std::array<obs::Counter*, kCostBins> bins = {
      &reg.counter("spgemm.tiles.bin0"), &reg.counter("spgemm.tiles.bin1"),
      &reg.counter("spgemm.tiles.bin2"), &reg.counter("spgemm.tiles.bin3")};
  static_assert(kCostBins == 4, "bin counter names assume four cost bins");
  // Runs per kernel dispatch level, so a fleet dashboard can spot hosts
  // silently running below their ISA (e.g. a stub AVX build).
  static std::array<obs::Counter*, simd::kLevelCount> levels = {
      &reg.counter("spgemm.kernel.level.scalar"), &reg.counter("spgemm.kernel.level.swar"),
      &reg.counter("spgemm.kernel.level.avx2"), &reg.counter("spgemm.kernel.level.avx512")};
  static_assert(simd::kLevelCount == 4, "level counter names assume four dispatch levels");
  runs.inc();
  if (tm.simd_level >= 0 && tm.simd_level < simd::kLevelCount) {
    levels[static_cast<std::size_t>(tm.simd_level)]->inc();
  }
  scheduled.add(tm.scheduled_tiles);
  chunks.add(tm.chunks);
  if (tm.budget_limited) degraded.inc();
  for (int bin = 0; bin < kCostBins; ++bin) {
    bins[static_cast<std::size_t>(bin)]->add(tm.bin_tiles[static_cast<std::size_t>(bin)]);
  }
}

/// Cost bin of one C tile. The estimated intersection work is the sum of
/// the two list lengths (the indexed walk is linear in B's list plus one
/// bind of A's, and the search branch is cheaper still).
int bin_of(offset_t cost) {
  if (cost <= 8) return 0;
  if (cost <= 32) return 1;
  if (cost <= 128) return 2;
  return 3;
}

/// A masked product's C keeps M's tiles: they take step 1's place as the
/// structure steps 2-3 visit. Only the occupancy words that match live
/// pairs are derived (step 1's transposed words are not needed).
template <class T>
void mask_tile_structure(const TileMatrix<T>& a, const TileMatrix<T>& b,
                         const TileMatrix<T>& mask, SpgemmWorkspace<T>& ws) {
  derive_tile_occupancy(a, b, ws);
  TileStructure& st = ws.structure;
  st.tile_rows = mask.tile_rows;
  st.tile_cols = mask.tile_cols;
  st.tile_ptr = mask.tile_ptr;
  st.tile_col_idx = mask.tile_col_idx;
  st.tile_row_idx.resize(static_cast<std::size_t>(mask.num_tiles()));
  for (index_t tr = 0; tr < mask.tile_rows; ++tr) {
    for (offset_t t = mask.tile_ptr[tr]; t < mask.tile_ptr[tr + 1]; ++t) {
      st.tile_row_idx[static_cast<std::size_t>(t)] = tr;
    }
  }
}

/// Shape the rows x cols C before any of its entries exist, in the
/// caller's layout: a CSR C gets its dimensions and row_ptr[0], which the
/// offset pass counts up from; a tile C its dimensions and step 1's tile
/// structure.
template <class T>
void start_output(index_t rows, index_t cols, const TileStructure& st, TileMatrix<T>& c,
                  Csr<T>* csr) {
  if (csr != nullptr) {
    csr->rows = rows;
    csr->cols = cols;
    csr->row_ptr.resize(static_cast<std::size_t>(rows) + 1);
    csr->row_ptr[0] = 0;
    csr->col_idx.clear();
    csr->val.clear();
    return;
  }
  c.rows = rows;
  c.cols = cols;
  c.tile_rows = st.tile_rows;
  c.tile_cols = st.tile_cols;
  c.tile_ptr = st.tile_ptr;
  c.tile_col_idx = st.tile_col_idx;
}

/// Size C's entry arrays for the tile rows [tr_lo, tr_hi) whose symbolic
/// result step 2 just produced, booked in alloc_ms. CSR: runs the offset
/// pass into ws.csr_place and grows `*csr` to the band's last row. Tile:
/// sizes c's row_idx/col_idx/val to the band's nonzeros. Unfilled either
/// way: step 3's parallel writes touch the arrays first.
template <class T>
Step3Output<T> alloc_output(const TileMatrix<T>& a, SpgemmWorkspace<T>& ws,
                            const Step2Result& symbolic, index_t tr_lo, index_t tr_hi,
                            TileMatrix<T>& c, Csr<T>* csr, TileSpgemmTimings& tm) {
  ScopedAccumulator scope(tm.alloc_ms);
  Step3Output<T> out;
  if (csr != nullptr) {
    // The offset pass: C's row pointers for these tile rows, and where each
    // local row of each non-empty tile lands in them.
    TSG_TRACE_SPAN("alloc.csr_rows", symbolic.nnz());
    const TileStructure& st = ws.structure;
    place_csr_rows(st.tile_ptr.data(), tr_lo, tr_hi, a.rows, symbolic.tile_nnz.data(),
                   symbolic.mask.data(), csr->row_ptr.data(), ws.csr_place);
    const auto last_row = std::min<std::size_t>(static_cast<std::size_t>(tr_hi) * kTileDim,
                                                static_cast<std::size_t>(a.rows));
    const auto nnz = static_cast<std::size_t>(csr->row_ptr[last_row]);
    csr->col_idx.resize(nnz);
    csr->val.resize(nnz);
    out.csr = csr;
    out.place = &ws.csr_place;
    return out;
  }
  TSG_TRACE_SPAN("alloc.c");
  const std::size_t nnz = static_cast<std::size_t>(symbolic.nnz());
  c.row_idx.resize(nnz);
  c.col_idx.resize(nnz);
  c.val.resize(nnz);
  out.tile = &c;
  return out;
}

std::string mb_string(std::size_t bytes) {
  if (bytes == static_cast<std::size_t>(-1)) return "(overflowed) MB";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f MB", static_cast<double>(bytes) / (1024.0 * 1024.0));
  return buf;
}

/// Outcome of the post-step-1 budget check.
struct BudgetPlan {
  bool limited = false;       ///< single-shot footprint exceeds the budget
  std::size_t estimate = 0;   ///< single-shot bound (SIZE_MAX if arithmetic saturated)
  std::size_t budget = 0;     ///< modeled device budget at decision time
  /// Tile-row ranges [lo, hi) to execute when limited and degradation is
  /// on; empty otherwise.
  std::vector<std::pair<index_t, index_t>> chunks;
};

/// Bound the per-call footprint (pooled scratch after step 1 + one
/// tile_output_bytes_bound per C tile, a bound rather than an estimate, so
/// chunking decisions made from it are always safe) against the modeled
/// device budget and, when it does not fit, greedily partition C's tile
/// rows into chunks that each do. All byte arithmetic is overflow-checked
/// and saturates to SIZE_MAX, which simply reads as "does not fit".
template <class T>
BudgetPlan plan_budget(const TileMatrix<T>& a, const TileStructure& st,
                       const SpgemmWorkspace<T>& ws, bool csr_out, bool degrade) {
  constexpr std::size_t kSat = static_cast<std::size_t>(-1);
  BudgetPlan out;
  out.budget = device_memory_budget_bytes();

  // Fixed share: the pooled buffers already sized by step 1 (layout view,
  // structure, per-thread scratch) plus C's top-level arrays, all of which
  // stay live for the whole multiply regardless of chunking. A tile C
  // copies the structure's tile pointers and keeps per-tile offsets; a CSR
  // C keeps its row pointer, and the offset pass a count per tile row.
  std::size_t fixed = ws.bytes();
  const std::size_t top_level =
      csr_out ? (static_cast<std::size_t>(a.rows) + 1 + st.tile_ptr.size()) * sizeof(offset_t)
              : st.tile_ptr.size() * sizeof(offset_t) +
                    st.tile_col_idx.size() * sizeof(index_t) +
                    (st.tile_col_idx.size() + 1) * sizeof(offset_t);
  if (!checked_add(fixed, top_level, fixed)) fixed = kSat;

  // Every C tile is charged the same bound, so the single-shot verdict
  // needs only the tile count and the partition below only tile counts.
  const std::size_t per_tile = tile_output_bytes_bound<T>(csr_out);
  std::size_t staging = 0;
  if (fixed == kSat ||
      !checked_mul(static_cast<std::size_t>(st.num_tiles()), per_tile, staging) ||
      !checked_add(fixed, staging, out.estimate)) {
    out.estimate = kSat;
  }
  if (out.estimate <= out.budget) return out;

  out.limited = true;
  if (!degrade) return out;  // the caller turns this into kBudgetExceeded

  // Greedy tile-row partition. Every chunk holds at most the tiles whose
  // bounds fit the budget left after the fixed share; a single tile row
  // that exceeds that on its own becomes its own best-effort chunk (one row
  // is the finest granularity the pipeline can execute).
  const std::size_t chunk_budget = out.budget > fixed ? out.budget - fixed : 1;
  const std::size_t max_tiles = chunk_budget / per_tile;
  index_t lo = 0;
  for (index_t tr = 0; tr < st.tile_rows; ++tr) {
    const auto tiles = static_cast<std::size_t>(st.tile_ptr[static_cast<std::size_t>(tr) + 1] -
                                                st.tile_ptr[static_cast<std::size_t>(lo)]);
    if (tiles > max_tiles && tr > lo) {
      out.chunks.emplace_back(lo, tr);
      lo = tr;
    }
  }
  out.chunks.emplace_back(lo, st.tile_rows);
  return out;
}

}  // namespace

namespace {

/// Every TSG_-prefixed environment variable some part of the project reads
/// (library knobs, service knobs, bench-harness knobs, check.sh stage
/// knobs). from_env() warns about any other TSG_* in the environment so a
/// typo (TSG_DEVICE_MEM=...) surfaces instead of being silently ignored;
/// the table in docs/ARCHITECTURE.md mirrors this list.
constexpr const char* kKnownEnvKnobs[] = {
    "TSG_NUM_THREADS",    "TSG_DEVICE_MEM_MB",     "TSG_TRACE",
    "TSG_METRICS",        "TSG_SIMD",              "TSG_SERVICE_WORKERS",
    "TSG_SERVICE_QUEUE_CAP",
    "TSG_BENCH_REPS",     "TSG_BENCH_SCALE",       "TSG_BENCH_TOLERANCE",
    "TSG_BENCH_SPEEDUP",  "TSG_BENCH_MIN_MS",      "TSG_CTEST_ARGS",
    "TSG_OBS_GATE_REPS",
    "TSG_OBS_OVERHEAD_PCT", "TSG_SERVICE_STUCK_MS",
    // Observability knobs (structured log, flight recorder, SLO monitor —
    // see docs/OBSERVABILITY.md).
    "TSG_LOG",            "TSG_LOG_LEVEL",         "TSG_FLIGHT_DIR",
    "TSG_SLO_P99_MS",     "TSG_SLO_MAX_ERROR_RATE",
    // Build/CI controls (scripts/check.sh, CMake options) that may sit in
    // the environment when a test process calls from_env().
    "TSG_PARALLEL_STD",   "TSG_SANITIZE",          "TSG_TRACING",
    "TSG_TSAN",           "TSG_LOGGING",           "TSG_CHAOS_SEED",
};

void warn_unknown_env_knobs() {
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const char* entry = *e;
    if (std::strncmp(entry, "TSG_", 4) != 0) continue;
    const char* eq = std::strchr(entry, '=');
    const std::string name(entry, eq != nullptr ? static_cast<std::size_t>(eq - entry)
                                                : std::strlen(entry));
    bool known = false;
    for (const char* k : kKnownEnvKnobs) {
      if (name == k) {
        known = true;
        break;
      }
    }
    if (known) continue;
    // Once per variable per process: repeated from_env() calls (every
    // context-config construction in a test suite) must not spam the log.
    // Mutex-guarded — service workers may build configs concurrently.
    static std::mutex warned_mutex;
    static std::set<std::string> warned;
    std::lock_guard<std::mutex> lock(warned_mutex);
    if (warned.insert(name).second) {
      TSG_LOG_WARN("env.unknown_knob", {"name", name},
                   {"hint", "TSG_ prefix is reserved; known knobs are listed in "
                            "docs/ARCHITECTURE.md"});
    }
  }
}

}  // namespace

SpgemmContext::Config SpgemmContext::Config::from_env() {
  Config cfg;
  // TSG_LOG / TSG_LOG_LEVEL apply process-wide on the first from_env()
  // (idempotent; a later explicit log call would configure lazily anyway).
  obs::configure_logging_from_env();
  warn_unknown_env_knobs();
  if (const char* env = std::getenv("TSG_NUM_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) cfg.threads = n;
  }
  if (const char* env = std::getenv("TSG_DEVICE_MEM_MB")) {
    const long mb = std::atol(env);
    if (mb > 0) cfg.device_mem_mb = static_cast<std::size_t>(mb);
  }
  const auto truthy = [](const char* v) {
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
  };
  if (truthy(std::getenv("TSG_TRACE"))) cfg.tracing = true;
  if (truthy(std::getenv("TSG_METRICS"))) cfg.metrics_detail = true;
  // TSG_SIMD is already folded into the TileSpgemmOptions default through
  // simd::active_level() (which parses, warns, and clamps once); re-assign
  // here so a from_env() config stays explicit about where the level came
  // from even if the options default ever changes.
  cfg.options.simd = simd::active_level();
  return cfg;
}

SpgemmContext::SpgemmContext(const Config& config)
    : cfg_(config), cancel_(config.cancel_token) {
  if (cfg_.device_mem_mb > 0) {
    set_device_memory_budget_bytes(cfg_.device_mem_mb * 1024 * 1024);
  }
  // One-way: a default-constructed context must not disable a gate some
  // other entry point (CLI --trace, a test) already opened.
  if (cfg_.tracing) obs::TraceCollector::instance().set_enabled(true);
  if (cfg_.metrics_detail) obs::set_metrics_detail_enabled(true);
  // Publish the process-wide dispatch level once (a gauge, not per-run
  // counters: the active level is a host/build property). Per-run levels —
  // which per-context forcing can lower — land on the
  // spgemm.kernel.level.* counters in publish_run_metrics.
  static std::once_flag once;
  std::call_once(once, [] {
    obs::MetricsRegistry::instance().register_gauge("spgemm.kernel.level", [] {
      return static_cast<std::int64_t>(simd::active_level());
    });
  });
}

template <class T>
ExecutionPlan SpgemmContext::make_plan(const TileMatrix<T>& a, const TileLayoutCsc& b_csc,
                                       const TileStructure& structure, SpgemmWorkspace<T>& ws,
                                       TileSpgemmTimings& tm) {
  ExecutionPlan plan;
  plan.cancel = cancel_;

  const offset_t ntiles = structure.num_tiles();
  // Accumulated, not assigned: chunked execution builds one plan per chunk.
  tm.scheduled_tiles += ntiles;
  if (ntiles == 0) return plan;

  ScopedAccumulator scope(tm.plan_ms);
  TSG_TRACE_SPAN("plan", ntiles);
  // Per-tile cost = |A's tile row| + |B's tile column|: the length of the
  // two lists the step-2/3 intersection walks. Binned counting sort, heavy
  // bins first, so the dynamically scheduled loops never finish a light
  // prefix and then wait on one trailing monster tile.
  ws.cost_bin.resize(static_cast<std::size_t>(ntiles));
  std::array<offset_t, kCostBins> count{};
  for (offset_t t = 0; t < ntiles; ++t) {
    const index_t ti = structure.tile_row_idx[static_cast<std::size_t>(t)];
    const index_t tj = structure.tile_col_idx[static_cast<std::size_t>(t)];
    const offset_t cost = (a.tile_ptr[ti + 1] - a.tile_ptr[ti]) +
                          (b_csc.col_ptr[tj + 1] - b_csc.col_ptr[tj]);
    const int bin = bin_of(cost);
    ws.cost_bin[static_cast<std::size_t>(t)] = bin;
    ++count[static_cast<std::size_t>(bin)];
  }
  std::array<offset_t, kCostBins> cursor{};
  offset_t acc = 0;
  for (int bin = kCostBins - 1; bin >= 0; --bin) {
    cursor[static_cast<std::size_t>(bin)] = acc;
    acc += count[static_cast<std::size_t>(bin)];
  }
  ws.schedule.resize(static_cast<std::size_t>(ntiles));
  for (offset_t t = 0; t < ntiles; ++t) {
    const auto bin = static_cast<std::size_t>(ws.cost_bin[static_cast<std::size_t>(t)]);
    ws.schedule[static_cast<std::size_t>(cursor[bin]++)] = t;
  }
  for (int bin = 0; bin < kCostBins; ++bin) {
    tm.bin_tiles[static_cast<std::size_t>(bin)] += count[static_cast<std::size_t>(bin)];
  }
  plan.order = ws.schedule.data();
  return plan;
}

template <class T>
TileSpgemmResult<T> SpgemmContext::run_impl(const TileMatrix<T>& a, const TileMatrix<T>& b,
                                            const RunSpec<T>& spec) {
  TSG_TRACE_SPAN("spgemm.run");
  std::optional<obs::MetricsSnapshot> before;
  if (obs::metrics_detail_enabled()) {
    before.emplace(obs::MetricsRegistry::instance().snapshot());
  }
  SpgemmWorkspace<T>& ws = workspace<T>();
  ws.ensure_threads(max_workers());
  ws.begin_call();
  // Arm cooperative cancellation for this call (begin_call just cleared
  // any stale token) and refuse to start work already past its deadline.
  ws.cancel = cancel_;
  check_cancelled();

  TileSpgemmResult<T> result;
  TileSpgemmTimings& tm = result.timings;
  tm.convert_ms = pending_convert_ms_;
  pending_convert_ms_ = 0.0;
  tm.simd_level = static_cast<int>(effective_simd_level(cfg_.options));

  // Column-major view of B's tile layout, needed by the step-2/3
  // intersections; building it is allocation/bookkeeping, not algorithm.
  {
    ScopedAccumulator scope(tm.alloc_ms);
    TSG_TRACE_SPAN("alloc.layout");
    tile_layout_csc(b, ws.b_csc);
  }

  // Step 1: tile structure of C, or M's for a masked product.
  {
    ScopedAccumulator scope(tm.step1_ms);
    TSG_TRACE_SPAN("step1");
    if (spec.mask != nullptr) {
      mask_tile_structure(a, b, *spec.mask, ws);
    } else {
      step1_tile_structure(a, b, ws, ws.structure);
    }
  }
  // Stage boundary: convert a reason latched inside step 1 into the
  // structured status before the partial structure is consumed, and bump
  // the liveness epoch the watchdog heartbeats.
  cancel_.note_progress();
  check_cancelled();

  // Budget decision: bound the per-call footprint now that step 1 fixed the
  // output's tile structure, and chunk if it does not fit the modeled
  // device. Size the per-thread A tile-row indexes first (steps 2/3 only
  // re-unbind them), so the fixed share plan_budget reads from ws.bytes()
  // counts them.
  ws.reset_row_index(a.tile_cols);
  Csr<T>* const csr = spec.csr;
  BudgetPlan budget;
  {
    ScopedAccumulator scope(tm.plan_ms);
    TSG_TRACE_SPAN("plan.budget");
    budget = plan_budget(a, ws.structure, ws, csr != nullptr, cfg_.degrade_on_budget);
  }
  tm.budget_limited = budget.limited;
  if (budget.limited && !cfg_.degrade_on_budget) {
    throw Error(Status::budget_exceeded(
        "estimated footprint " + mb_string(budget.estimate) +
        " exceeds the modeled device budget " + mb_string(budget.budget) +
        " and degradation is disabled (Config::with_degradation)"));
  }

  if (budget.limited) {
    run_chunked(a, b, spec, budget.chunks, ws, result);
    tm.chunks = static_cast<int>(budget.chunks.size());
  } else {
    // Cost model + binned schedule (plan_ms).
    ExecutionPlan plan = make_plan(a, ws.b_csc, ws.structure, ws, tm);
    if (spec.mask != nullptr) plan.mask = spec.mask->mask.data();

    // Step 2: per-tile symbolic -> nnz, row pointers, masks.
    Step2Result symbolic;
    {
      ScopedAccumulator scope(tm.step2_ms);
      TSG_TRACE_SPAN("step2", ws.structure.num_tiles());
      symbolic = step2_symbolic(a, b, ws.b_csc, ws.structure, cfg_.options, ws, plan);
    }
    // Stage boundary: a tile skipped by a tripped token left a hole in the
    // symbolic result — bail out before C is allocated from it.
    cancel_.note_progress();
    check_cancelled();

    // Allocate C (the only sizeable allocation of the whole algorithm) in
    // the caller's layout.
    {
      ScopedAccumulator scope(tm.alloc_ms);
      start_output(a.rows, b.cols, ws.structure, result.c, csr);
    }
    const Step3Output<T> out =
        alloc_output(a, ws, symbolic, 0, ws.structure.tile_rows, result.c, csr, tm);

    // Step 3: numeric.
    {
      ScopedAccumulator scope(tm.step3_ms);
      TSG_TRACE_SPAN("step3", ws.structure.num_tiles());
      spec.numeric(a, b, ws.b_csc, ws.structure, cfg_.options, symbolic, ws, plan, out);
    }
    // Stage boundary: values of skipped tiles were never written — the
    // partial C must not be returned as a result.
    cancel_.note_progress();
    check_cancelled();
    if (csr == nullptr) {
      result.c.tile_nnz = std::move(symbolic.tile_nnz);
      result.c.row_ptr = std::move(symbolic.row_ptr);
      result.c.mask = std::move(symbolic.mask);
    }
  }
  tm.workspace_bytes = workspace_bytes();

  // Publish the run to the registry (always-on counters), then — only when
  // detail is on — attach this run's registry delta to the timings. The
  // publish happens first so the snapshot already reflects this run, which
  // is what keeps tm.metrics consistent with tm's own counters.
  publish_run_metrics(tm);
  if (before.has_value()) {
    tm.metrics = std::make_shared<const obs::MetricsSnapshot>(obs::MetricsSnapshot::delta(
        *before, obs::MetricsRegistry::instance().snapshot()));
  }
  return result;
}

template <class T>
void SpgemmContext::run_chunked(const TileMatrix<T>& a, const TileMatrix<T>& b,
                                const RunSpec<T>& spec,
                                const std::vector<std::pair<index_t, index_t>>& chunks,
                                SpgemmWorkspace<T>& ws, TileSpgemmResult<T>& result) {
  Csr<T>* const csr = spec.csr;
  const TileStructure& st = ws.structure;
  TileSpgemmTimings& tm = result.timings;
  TileMatrix<T>& c = result.c;

  // Assemble C's top level once; the low-level arrays grow chunk by chunk.
  {
    ScopedAccumulator scope(tm.alloc_ms);
    start_output(a.rows, b.cols, st, c, csr);
    if (csr == nullptr) {
      const std::size_t ntiles = st.tile_col_idx.size();
      c.tile_nnz.clear();
      c.tile_nnz.reserve(ntiles + 1);
      c.tile_nnz.push_back(0);
      c.row_ptr.clear();
      c.row_ptr.reserve(checked_size_mul(ntiles, static_cast<std::size_t>(kTileDim)));
      c.mask.clear();
      c.mask.reserve(checked_size_mul(ntiles, static_cast<std::size_t>(kTileDim)));
    }
  }

  // Chunk-local structure and output, hoisted so later chunks reuse their
  // capacity. Steps 2/3 identify each tile purely through tile_row_idx /
  // tile_col_idx (original, un-rebased indices into A's tile rows and
  // B's tile columns) and index their outputs by position, so a chunk is
  // literally a slice of the step-1 structure.
  TileStructure chunk_st;
  chunk_st.tile_rows = st.tile_rows;
  chunk_st.tile_cols = st.tile_cols;
  TileMatrix<T> cc;

  for (std::size_t chunk_idx = 0; chunk_idx < chunks.size(); ++chunk_idx) {
    const std::pair<index_t, index_t>& range = chunks[chunk_idx];
    TSG_TRACE_SPAN("chunk", static_cast<std::int64_t>(chunk_idx));
    const std::size_t tlo = static_cast<std::size_t>(st.tile_ptr[static_cast<std::size_t>(range.first)]);
    const std::size_t thi = static_cast<std::size_t>(st.tile_ptr[static_cast<std::size_t>(range.second)]);

    // Chunk boundary: the primary cancellation/deadline checkpoint of a
    // degraded run, and a progress-epoch bump for the watchdog. A throw
    // here unwinds with all chunk-local buffers accounted (they are either
    // pooled in ws or owned by this frame).
    cancel_.note_progress();
    check_cancelled();

    {
      ScopedAccumulator scope(tm.alloc_ms);
      chunk_st.tile_row_idx.assign(st.tile_row_idx.begin() + static_cast<std::ptrdiff_t>(tlo),
                                   st.tile_row_idx.begin() + static_cast<std::ptrdiff_t>(thi));
      chunk_st.tile_col_idx.assign(st.tile_col_idx.begin() + static_cast<std::ptrdiff_t>(tlo),
                                   st.tile_col_idx.begin() + static_cast<std::ptrdiff_t>(thi));
    }

    ExecutionPlan plan = make_plan(a, ws.b_csc, chunk_st, ws, tm);
    // The chunk's tiles are M's tiles [tlo, thi) of a masked product.
    if (spec.mask != nullptr) plan.mask = spec.mask->mask.data() + tlo * kTileDim;

    Step2Result symbolic;
    {
      ScopedAccumulator scope(tm.step2_ms);
      TSG_TRACE_SPAN("step2", chunk_st.num_tiles());
      symbolic = step2_symbolic(a, b, ws.b_csc, chunk_st, cfg_.options, ws, plan);
    }
    check_cancelled();  // don't allocate this chunk's slice from a hole

    // A CSR C grows by the chunk's rows: the offset pass continues the row
    // pointers where the previous chunk ended, and step 3 writes straight
    // into the grown arrays, so chunks concatenate with no stitch copy.
    const Step3Output<T> out =
        alloc_output(a, ws, symbolic, range.first, range.second, cc, csr, tm);

    {
      ScopedAccumulator scope(tm.step3_ms);
      TSG_TRACE_SPAN("step3", chunk_st.num_tiles());
      spec.numeric(a, b, ws.b_csc, chunk_st, cfg_.options, symbolic, ws, plan, out);
    }
    check_cancelled();  // don't stitch a chunk whose values have holes
    if (csr != nullptr) continue;

    // Stitch. Chunks arrive in tile-row order and tiles keep their storage
    // order inside a chunk, so appending (with the nnz offsets rebased onto
    // the running total) reproduces the single-shot layout bit for bit.
    {
      ScopedAccumulator scope(tm.alloc_ms);
      const offset_t base = c.tile_nnz.back();
      for (std::size_t k = 0; k + 1 < symbolic.tile_nnz.size(); ++k) {
        c.tile_nnz.push_back(base + symbolic.tile_nnz[k + 1]);
      }
      c.row_ptr.insert(c.row_ptr.end(), symbolic.row_ptr.begin(), symbolic.row_ptr.end());
      c.mask.insert(c.mask.end(), symbolic.mask.begin(), symbolic.mask.end());
      c.row_idx.insert(c.row_idx.end(), cc.row_idx.begin(), cc.row_idx.end());
      c.col_idx.insert(c.col_idx.end(), cc.col_idx.begin(), cc.col_idx.end());
      c.val.insert(c.val.end(), cc.val.begin(), cc.val.end());
    }
  }
}

template <class T>
Expected<TileSpgemmResult<T>> SpgemmContext::try_run_into(const TileMatrix<T>& a,
                                                          const TileMatrix<T>& b,
                                                          const RunSpec<T>& spec) {
  const ThreadScope threads(*this);
  if (a.cols != b.rows) {
    return Status::dimension_mismatch("spgemm: inner dimensions differ (A is " +
                                      std::to_string(a.rows) + "x" + std::to_string(a.cols) +
                                      ", B is " + std::to_string(b.rows) + "x" +
                                      std::to_string(b.cols) + ")");
  }
  const TileMatrix<T>* const mask = spec.mask;
  if (mask != nullptr && (mask->rows != a.rows || mask->cols != b.cols)) {
    return Status::dimension_mismatch("masked spgemm: mask shape does not match A*B");
  }
  // An aliased operand is checked once.
  if (Status s = validate_tile_operand(a, "A", cfg_.validation, cfg_.nan_policy); !s.ok()) {
    return s;
  }
  if (&b != &a) {
    if (Status s = validate_tile_operand(b, "B", cfg_.validation, cfg_.nan_policy); !s.ok()) {
      return s;
    }
  }
  if (mask != nullptr && mask != &a && mask != &b) {
    if (Status s = validate_tile_operand(*mask, "mask", cfg_.validation, cfg_.nan_policy);
        !s.ok()) {
      return s;
    }
  }
  try {
    return run_impl(a, b, spec);
  } catch (const Error& e) {
    return e.status();
  } catch (const std::bad_alloc&) {
    return Status::allocation_failed(
        "spgemm: a tracked allocation failed mid-run (real or injected); the context remains "
        "reusable");
  }
}

template <class T>
Expected<TileSpgemmResult<T>> SpgemmContext::try_run(const TileMatrix<T>& a,
                                                     const TileMatrix<T>& b) {
  return try_run_into(a, b, RunSpec<T>{});
}

template <class T>
TileSpgemmResult<T> SpgemmContext::run(const TileMatrix<T>& a, const TileMatrix<T>& b) {
  return std::move(try_run(a, b)).value();
}

template <class T>
Expected<TileSpgemmResult<T>> SpgemmContext::try_run_aat(const TileMatrix<T>& a) {
  const ThreadScope threads(*this);
  TileMatrix<T> at;
  double transpose_ms = 0.0;
  try {
    // Transposition is data movement, not multiplication: book it with the
    // allocation share like the layout view.
    ScopedAccumulator scope(transpose_ms);
    at = tile_transpose(a);
  } catch (const std::bad_alloc&) {
    return Status::allocation_failed("run_aat: allocation failed while forming A^T");
  }
  Expected<TileSpgemmResult<T>> product = try_run(a, at);
  if (product.ok()) product->timings.alloc_ms += transpose_ms;
  return product;
}

template <class T>
TileSpgemmResult<T> SpgemmContext::run_aat(const TileMatrix<T>& a) {
  return std::move(try_run_aat(a)).value();
}

template <class T>
TileMatrix<T> SpgemmContext::to_tile(const Csr<T>& m) {
  const ThreadScope threads(*this);
  Timer timer;
  TileMatrix<T> tile = csr_to_tile(m);
  pending_convert_ms_ += timer.milliseconds();
  return tile;
}

template <class T>
Expected<Csr<T>> SpgemmContext::try_run_csr(const Csr<T>& a, const Csr<T>& b,
                                            TileSpgemmTimings* timings) {
  const ThreadScope threads(*this);
  if (a.cols != b.rows) {
    return Status::dimension_mismatch("spgemm: inner dimensions differ (A is " +
                                      std::to_string(a.rows) + "x" + std::to_string(a.cols) +
                                      ", B is " + std::to_string(b.rows) + "x" +
                                      std::to_string(b.cols) + ")");
  }
  if (Status s = validate_csr_operand(a, "A", cfg_.validation, cfg_.nan_policy); !s.ok()) {
    return s;
  }
  if (&a != &b) {
    if (Status s = validate_csr_operand(b, "B", cfg_.validation, cfg_.nan_policy); !s.ok()) {
      return s;
    }
  }
  try {
    const TileMatrix<T> ta = to_tile(a);
    // Aliased operands (C = A*A) convert once.
    std::optional<TileMatrix<T>> tb;
    if (&a != &b) tb.emplace(to_tile(b));
    // C comes back in CSR directly: step 3 writes its rows, so there is no
    // tile-layout C to convert back.
    Csr<T> c;
    RunSpec<T> spec;
    spec.csr = &c;
    Expected<TileSpgemmResult<T>> result = try_run_into(ta, tb ? *tb : ta, spec);
    if (!result.ok()) {
      pending_convert_ms_ = 0.0;  // the failed run consumed nothing; don't charge the next one
      return result.status();
    }
    if (timings != nullptr) *timings = result->timings;
    return c;
  } catch (const std::bad_alloc&) {
    pending_convert_ms_ = 0.0;
    return Status::allocation_failed("run_csr: allocation failed during CSR->tile conversion");
  } catch (const Error& e) {
    pending_convert_ms_ = 0.0;
    return e.status();
  }
}

template <class T>
Csr<T> SpgemmContext::run_csr(const Csr<T>& a, const Csr<T>& b, TileSpgemmTimings* timings) {
  return std::move(try_run_csr(a, b, timings)).value();
}

template <class T>
Expected<TileMatrix<T>> SpgemmContext::try_run_masked(const TileMatrix<T>& a,
                                                      const TileMatrix<T>& b,
                                                      const TileMatrix<T>& mask) {
  RunSpec<T> spec;
  spec.mask = &mask;
  Expected<TileSpgemmResult<T>> product = try_run_into(a, b, spec);
  if (!product.ok()) return product.status();
  return std::move(product->c);
}

template <class T>
TileMatrix<T> SpgemmContext::run_masked(const TileMatrix<T>& a, const TileMatrix<T>& b,
                                        const TileMatrix<T>& mask) {
  return std::move(try_run_masked(a, b, mask)).value();
}

template Expected<TileSpgemmResult<double>> SpgemmContext::try_run(const TileMatrix<double>&,
                                                                  const TileMatrix<double>&);
template Expected<TileSpgemmResult<float>> SpgemmContext::try_run(const TileMatrix<float>&,
                                                                 const TileMatrix<float>&);
template TileSpgemmResult<double> SpgemmContext::run(const TileMatrix<double>&,
                                                     const TileMatrix<double>&);
template TileSpgemmResult<float> SpgemmContext::run(const TileMatrix<float>&,
                                                    const TileMatrix<float>&);
template Expected<TileSpgemmResult<double>> SpgemmContext::try_run_aat(const TileMatrix<double>&);
template Expected<TileSpgemmResult<float>> SpgemmContext::try_run_aat(const TileMatrix<float>&);
template TileSpgemmResult<double> SpgemmContext::run_aat(const TileMatrix<double>&);
template TileSpgemmResult<float> SpgemmContext::run_aat(const TileMatrix<float>&);
template Expected<Csr<double>> SpgemmContext::try_run_csr(const Csr<double>&, const Csr<double>&,
                                                          TileSpgemmTimings*);
template Expected<Csr<float>> SpgemmContext::try_run_csr(const Csr<float>&, const Csr<float>&,
                                                         TileSpgemmTimings*);
template Csr<double> SpgemmContext::run_csr(const Csr<double>&, const Csr<double>&,
                                            TileSpgemmTimings*);
template Csr<float> SpgemmContext::run_csr(const Csr<float>&, const Csr<float>&,
                                           TileSpgemmTimings*);
template Expected<TileMatrix<double>> SpgemmContext::try_run_masked(const TileMatrix<double>&,
                                                                    const TileMatrix<double>&,
                                                                    const TileMatrix<double>&);
template Expected<TileMatrix<float>> SpgemmContext::try_run_masked(const TileMatrix<float>&,
                                                                   const TileMatrix<float>&,
                                                                   const TileMatrix<float>&);
template TileMatrix<double> SpgemmContext::run_masked(const TileMatrix<double>&,
                                                      const TileMatrix<double>&,
                                                      const TileMatrix<double>&);
template TileMatrix<float> SpgemmContext::run_masked(const TileMatrix<float>&,
                                                     const TileMatrix<float>&,
                                                     const TileMatrix<float>&);
template TileMatrix<double> SpgemmContext::to_tile(const Csr<double>&);
template TileMatrix<float> SpgemmContext::to_tile(const Csr<float>&);
template Expected<TileSpgemmResult<double>> SpgemmContext::try_run_into(
    const TileMatrix<double>&, const TileMatrix<double>&, const RunSpec<double>&);
template Expected<TileSpgemmResult<float>> SpgemmContext::try_run_into(
    const TileMatrix<float>&, const TileMatrix<float>&, const RunSpec<float>&);

}  // namespace tsg
