#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "baselines/hash.h"
#include "baselines/reference.h"
#include "common/memory.h"
#include "common/parallel.h"
#include "core/semiring.h"
#include "core/semiring_spgemm.h"
#include "core/simd_dispatch.h"
#include "core/spgemm_context.h"
#include "core/tile_convert.h"
#include "core/validate.h"
#include "inputs.h"
#include "matrix/compare.h"
#include "obs/metrics.h"
#include "service/admission.h"
#include "service/spgemm_service.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using tsg::SpgemmContext;
using tsg::TileMatrix;
using tsg::TileSpgemmTimings;

// Thread layout. Two engine threads: on a 4-vCPU VM, six identical runs of
// the FEM set spread 31% from min to max at four threads against 12% at two.
// The service runs two workers; their OpenMP teams are capped through
// OMP_NUM_THREADS (run.py sets it), because the service forces its contexts
// onto the process default, and workers x threads must not exceed the vCPUs.
constexpr int kEngineThreads = 2;
constexpr int kServiceWorkers = 2;
constexpr int kServiceOmpThreads = 2;
// Closed loop: one client keeps more requests outstanding than there are
// workers, so the queue, batching and the budget gate are all exercised.
constexpr std::size_t kOutstanding = 4;
// Service budget: the four small request classes fit it (two at a time),
// the R-MAT class does not and is admitted degraded: chunked, and holding
// the whole budget at the budget gate.
constexpr std::size_t kServiceBudgetMb = 8;
constexpr int kContextSetups = 5;
constexpr int kServiceSetups = 9;
constexpr int kMaxWarmupRounds = 6;
constexpr int kServiceWarmupRounds = 4;
constexpr std::size_t kMinSamples = 100;
constexpr int kProbeReps = 3;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear interpolation between closest ranks (numpy's default).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mib(double bytes) { return bytes / (1024.0 * 1024.0); }

// ---------------------------------------------------------------------------
// Output checking: every timed output is compared bit for bit with the
// output verified against a serial reference at set-up. The verified bytes
// are kept in untracked memory so they do not count towards peak_mb.

class Golden {
 public:
  void set(const Csr<double>& c) { arrays_ = {raw(c.row_ptr), raw(c.col_idx), raw(c.val)}; }
  void set(const TileMatrix<double>& t) {
    arrays_ = {raw(t.tile_ptr), raw(t.tile_col_idx), raw(t.tile_nnz), raw(t.row_ptr),
               raw(t.row_idx),  raw(t.col_idx),      raw(t.val),      raw(t.mask)};
  }
  bool matches(const Csr<double>& c) const {
    return arrays_.size() == 3 && same(0, c.row_ptr) && same(1, c.col_idx) && same(2, c.val);
  }
  bool matches(const TileMatrix<double>& t) const {
    return arrays_.size() == 8 && same(0, t.tile_ptr) && same(1, t.tile_col_idx) &&
           same(2, t.tile_nnz) && same(3, t.row_ptr) && same(4, t.row_idx) &&
           same(5, t.col_idx) && same(6, t.val) && same(7, t.mask);
  }

 private:
  template <class V>
  static std::string raw(const V& v) {
    return std::string(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(v[0]));
  }
  template <class V>
  bool same(std::size_t i, const V& v) const {
    const std::string& g = arrays_[i];
    return g.size() == v.size() * sizeof(v[0]) && std::memcmp(g.data(), v.data(), g.size()) == 0;
  }
  std::vector<std::string> arrays_;
};

// ---------------------------------------------------------------------------
// Spans, recorded by the benchmark around each call into a layer. Kept in
// memory and written out at exit; self time is a span's duration minus the
// part of it its children cover.

class Tracer {
 public:
  int begin(const std::string& name, int parent, std::uint64_t request) {
    spans_.push_back({name, parent, request, Clock::now(), {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end = Clock::now(); }

  /// name -> (self ms, count)
  std::map<std::string, std::pair<double, long>> self_times() const {
    const std::vector<std::vector<int>> children = child_lists();
    std::map<std::string, std::pair<double, long>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name].first += self_ms(i, children[i]);
      out[spans_[i].name].second += 1;
    }
    return out;
  }

  void write_chrome_json(const std::string& path) const {
    const std::vector<std::vector<int>> children = child_lists();
    std::ofstream f(path);
    f << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[512];
      std::snprintf(line, sizeof(line),
                    "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                    "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d, \"request\": %llu, "
                    "\"self_us\": %.3f}}",
                    i ? ",\n" : "", s.name.c_str(), 1e3 * ms_between(origin_, s.begin),
                    1e3 * ms_between(s.begin, s.end), i, s.parent,
                    static_cast<unsigned long long>(s.request), 1e3 * self_ms(i, children[i]));
      f << line;
    }
    f << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    std::uint64_t request;
    Clock::time_point begin, end;
  };

  std::vector<std::vector<int>> child_lists() const {
    std::vector<std::vector<int>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        children[static_cast<std::size_t>(spans_[i].parent)].push_back(static_cast<int>(i));
      }
    }
    return children;
  }

  double self_ms(std::size_t i, const std::vector<int>& kids) const {
    std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
    for (int k : kids) {
      const Span& child = spans_[static_cast<std::size_t>(k)];
      iv.emplace_back(child.begin, child.end);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    Clock::time_point reach = spans_[i].begin;
    for (const auto& [b, e] : iv) {
      const Clock::time_point from = std::max(b, reach);
      const Clock::time_point to = std::min(e, spans_[i].end);
      if (to > from) covered += ms_between(from, to);
      reach = std::max(reach, e);
    }
    return ms_between(spans_[i].begin, spans_[i].end) - covered;
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Records a span only when a tracer is attached (the traced rounds).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const std::string& name, int parent, std::uint64_t request)
      : tracer_(t), id_(t ? t->begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Host: CPU steal from /proc/stat and a fixed kernel timed at start and end,
// so a run on a slowed host can be told apart from a slowed program.

struct CpuTimes {
  unsigned long long total = 0, steal = 0;
};

CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream f("/proc/stat");
  std::string cpu;
  unsigned long long v[8] = {};
  if (f >> cpu >> v[0] >> v[1] >> v[2] >> v[3] >> v[4] >> v[5] >> v[6] >> v[7]) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  return t;
}

double steal_frac(const CpuTimes& a, const CpuTimes& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) / static_cast<double>(b.total - a.total);
}

/// Written by the reference kernel so the compiler cannot drop its loop.
volatile double g_kernel_sink = 0.0;

double reference_kernel_ms() {
  std::vector<double> reps;
  std::vector<double> x(std::size_t{1} << 18);
  for (int r = 0; r < 3; ++r) {
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i) * 1e-6;
    const Clock::time_point t0 = Clock::now();
    double acc = 0.0;
    for (int pass = 0; pass < 32; ++pass) {
      for (double& v : x) {
        v = v * 0.999 + 1e-3;
        acc += v;
      }
    }
    reps.push_back(ms_between(t0, Clock::now()));
    g_kernel_sink = acc;
  }
  return median(reps);
}

// ---------------------------------------------------------------------------
// Operation classes. Every round runs each class once, in a fixed order, so
// the mix is identical in every run. Five classes per round put p50 and p90
// in the middle of a class's latency range rather than on a boundary between
// two classes (p50 sits mid-class for any odd count; p90 does for 5).

enum class OpKind { kPlain, kMasked, kMinPlus };

struct OpClass {
  std::string name;
  OpKind kind = OpKind::kPlain;
  /// C = A * A (plain, min-plus) or (L * L) .* L with L = a (masked).
  std::shared_ptr<const Csr<double>> a;
  /// Intermediate products that reach the output, counted once at set-up.
  std::uint64_t products = 0;
  Golden golden;
};

struct OpOutcome {
  bool ok = false;
  double ms = 0.0;        ///< wall time of the public call
  double check_ms = 0.0;  ///< wall time of the bit comparison
  bool has_timings = false;
  TileSpgemmTimings tm;
  tsg::offset_t c_nnz = 0;
  double alloc_bytes = 0.0;  ///< tracked allocation traffic of the call
};

/// One op through its public entry point. `tile` is the tile-format operand
/// made at set-up (masked and min-plus ops take tile operands).
OpOutcome run_op(SpgemmContext& ctx, const OpClass& op, const TileMatrix<double>& tile,
                 Tracer* tracer, std::uint64_t request) {
  OpOutcome out;
  tsg::MemoryTracker& mem = tsg::MemoryTracker::instance();
  const auto alloc0 = mem.allocated_total();
  ScopedSpan root(tracer, "op." + op.name, -1, request);
  auto timed = [&](const char* layer, auto&& call) {
    ScopedSpan span(tracer, layer, root.id(), request);
    const Clock::time_point t0 = Clock::now();
    auto result = call();
    out.ms = ms_between(t0, Clock::now());
    return result;
  };
  auto check = [&](auto&& matches) {
    ScopedSpan span(tracer, "check", root.id(), request);
    const Clock::time_point t0 = Clock::now();
    out.ok = matches();
    out.check_ms = ms_between(t0, Clock::now());
  };
  switch (op.kind) {
    case OpKind::kPlain: {
      tsg::Expected<Csr<double>> c =
          timed("engine.try_run_csr", [&] { return ctx.try_run_csr(*op.a, *op.a, &out.tm); });
      out.has_timings = c.ok();
      out.c_nnz = c.ok() ? c.value().nnz() : 0;
      check([&] { return c.ok() && op.golden.matches(c.value()); });
      break;
    }
    case OpKind::kMasked: {
      tsg::Expected<TileMatrix<double>> c =
          timed("masked.try_run_masked", [&] { return ctx.try_run_masked(tile, tile, tile); });
      out.c_nnz = c.ok() ? c.value().nnz() : 0;
      check([&] { return c.ok() && op.golden.matches(c.value()); });
      break;
    }
    case OpKind::kMinPlus: {
      // The semiring entry point reports failures by throwing tsg::Error.
      std::optional<TileMatrix<double>> c = timed("semiring.tile_spgemm_semiring", [&] {
        try {
          return std::optional<TileMatrix<double>>(
              tsg::tile_spgemm_semiring<tsg::MinPlus<double>>(ctx, tile, tile));
        } catch (const std::exception&) {
          return std::optional<TileMatrix<double>>();
        }
      });
      out.c_nnz = c ? c->nnz() : 0;
      check([&] { return c && op.golden.matches(*c); });
      break;
    }
  }
  out.alloc_bytes = static_cast<double>(mem.allocated_total() - alloc0);
  return out;
}

SpgemmContext::Config engine_config(int threads) {
  return SpgemmContext::Config{}.with_threads(threads);
}

/// Verify each class once against a serial reference, outside every timer,
/// and keep the verified output for the bit comparisons. Returns false on a
/// mismatch; `simd_level` receives the level the plain ops executed at.
bool verify_classes(std::vector<OpClass>& ops, int& simd_level) {
  SpgemmContext ctx(engine_config(kEngineThreads));
  bool all_ok = true;
  for (OpClass& op : ops) {
    const Csr<double>& a = *op.a;
    Csr<double> reference, got;
    if (op.kind == OpKind::kPlain) {
      reference = tsg::spgemm_reference(a, a);
      TileSpgemmTimings tm;
      tsg::Expected<Csr<double>> c = ctx.try_run_csr(a, a, &tm);
      if (c.ok()) {
        simd_level = tm.simd_level;
        got = std::move(c.value());
        op.golden.set(got);
      }
      op.products = count_products(a, a);
    } else {
      const TileMatrix<double> t = tsg::csr_to_tile(a);
      std::optional<TileMatrix<double>> c;
      if (op.kind == OpKind::kMasked) {
        reference = reference_masked(a, a, a);
        tsg::Expected<TileMatrix<double>> m = ctx.try_run_masked(t, t, t);
        if (m.ok()) c = std::move(m.value());
        op.products = count_masked_products(a, a, a);
      } else {
        reference = reference_min_plus(a, a);
        c = tsg::tile_spgemm_semiring<tsg::MinPlus<double>>(ctx, t, t);
        op.products = count_products(a, a);
      }
      if (c) {
        got = tsg::tile_to_csr(*c);
        op.golden.set(*c);
      }
    }
    const tsg::CompareResult cmp = tsg::compare(got, reference);
    std::printf("%s\n", describe_input(op.name, a, op.products, reference.nnz()).c_str());
    if (!cmp.equal || got.rows != reference.rows) {
      std::printf("verify %s FAILED: %s\n", op.name.c_str(), cmp.message.c_str());
      all_ok = false;
    }
  }
  return all_ok;
}

// ---------------------------------------------------------------------------
// Per-layer accounting of the traced run.

struct LayerTotals {
  long ops = 0;         ///< ops in traced rounds
  long engine_ops = 0;  ///< of which returned TileSpgemmTimings
  double convert = 0, plan = 0, step1 = 0, step2 = 0, step3 = 0, alloc = 0;
  double masked = 0, semiring = 0, unattributed = 0;
  double tiles = 0, fused = 0, bin3 = 0, binned = 0, chunks = 0, c_nnz = 0;
  double alloc_bytes = 0;

  void add(const OpClass& op, const OpOutcome& o) {
    ++ops;
    alloc_bytes += o.alloc_bytes;
    if (op.kind == OpKind::kMasked) masked += o.ms;
    if (op.kind == OpKind::kMinPlus) semiring += o.ms;
    if (!o.has_timings) return;
    ++engine_ops;
    const TileSpgemmTimings& t = o.tm;
    convert += t.convert_ms;
    plan += t.plan_ms;
    step1 += t.step1_ms;
    step2 += t.step2_ms;
    step3 += t.step3_ms;
    alloc += t.alloc_ms;
    unattributed += o.ms - t.total_ms();
    tiles += static_cast<double>(t.scheduled_tiles);
    fused += static_cast<double>(t.fused_tiles);
    bin3 += static_cast<double>(t.bin_tiles[3]);
    for (auto b : t.bin_tiles) binned += static_cast<double>(b);
    chunks += t.chunks;
    c_nnz += static_cast<double>(o.c_nnz);
  }
};

/// Layers timed from outside on each class's operands, plus the Hash and
/// serial-reference baselines of the plain ops.
struct ProbeTotals {
  double validate_ms = 0, estimate_us = 0;
  double hash_ms = 0, serial_ms = 0;
  long baseline_ops = 0;
};

template <class F>
double time_ms(Tracer& tracer, const std::string& name, F&& f) {
  ScopedSpan span(&tracer, name, -1, 0);
  const Clock::time_point t0 = Clock::now();
  f();
  return ms_between(t0, Clock::now());
}

ProbeTotals probe_layers(const std::vector<OpClass>& ops, Tracer& tracer) {
  ProbeTotals p;
  for (const OpClass& op : ops) {
    const Csr<double>& a = *op.a;
    for (int r = 0; r < kProbeReps; ++r) {
      p.validate_ms += time_ms(tracer, "probe.validate", [&] {
                         if (!tsg::validate_csr_operand(a, "A", tsg::ValidationLevel::kCheap,
                                                        tsg::NanPolicy::kAllow)
                                  .ok()) {
                           throw std::runtime_error("validate_csr_operand refused " + op.name);
                         }
                       }) /
                       kProbeReps;
      p.estimate_us += 1e3 *
                       time_ms(tracer, "probe.admission.estimate_footprint",
                               [&] { (void)tsg::service::estimate_footprint(a, a); }) /
                       kProbeReps;
    }
  }
  // Baselines: the modeled device budget would refuse Hash's global tables
  // on the denser inputs; lift it so the probe times the method itself.
  tsg::set_device_memory_budget_bytes(std::size_t{1} << 40);
  for (const OpClass& op : ops) {
    if (op.kind != OpKind::kPlain) continue;
    const Csr<double>& a = *op.a;
    ++p.baseline_ops;
    for (int r = 0; r < kProbeReps; ++r) {
      {
        tsg::ThreadCountGuard threads(kEngineThreads);
        p.hash_ms += time_ms(tracer, "probe.baseline.hash",
                             [&] { (void)tsg::spgemm_hash(a, a); }) /
                     kProbeReps;
      }
      tsg::ThreadCountGuard threads(1);
      p.serial_ms += time_ms(tracer, "probe.baseline.serial",
                             [&] { (void)tsg::spgemm_reference(a, a); }) /
                     kProbeReps;
    }
  }
  tsg::set_device_memory_budget_bytes(0);
  p.validate_ms /= static_cast<double>(ops.size());
  p.estimate_us /= static_cast<double>(ops.size());
  return p;
}

// ---------------------------------------------------------------------------
// Shared measurement state and reporting.

struct Measured {
  std::vector<double> latency_ms;
  std::map<std::string, std::vector<double>> class_latency_ms;
  std::vector<double> setup_s;
  double flops = 0;
  double busy_s = 0;  ///< denominator of throughput
  double peak_bytes = 0;
  long attempted = 0, failed = 0;
  bool setup_ok = true;
  // traced run
  double flops_by_parity[2] = {0, 0};
  double time_by_parity[2] = {0, 0};
  CpuTimes cpu0, cpu1;
  double ref_kernel_start_ms = 0, ref_kernel_end_ms = 0;
  int simd_level = -1;
};

double overhead_frac(const Measured& m) {
  if (m.time_by_parity[0] <= 0 || m.time_by_parity[1] <= 0 || m.flops_by_parity[0] <= 0) {
    return 0.0;
  }
  const double untraced = m.flops_by_parity[0] / m.time_by_parity[0];
  const double traced = m.flops_by_parity[1] / m.time_by_parity[1];
  return 1.0 - traced / untraced;
}

void print_environment(const RunArgs& args, const Measured& m, const std::string& layout) {
  std::printf("env layout: %s nproc=%u\n", layout.c_str(), std::thread::hardware_concurrency());
  std::printf("env simd_level=%s host.steal_frac=%.4f\n",
              m.simd_level >= 0
                  ? tsg::simd::level_name(static_cast<tsg::simd::Level>(m.simd_level))
                  : "n/a",
              steal_frac(m.cpu0, m.cpu1));
  std::printf("env reference_kernel_ms start=%.3f end=%.3f\n", m.ref_kernel_start_ms,
              m.ref_kernel_end_ms);
  std::printf("env samples=%zu seconds=%.1f trace=%d\n", m.latency_ms.size(), args.seconds,
              args.trace ? 1 : 0);
  for (const auto& [name, v] : m.class_latency_ms) {
    std::printf("class %-18s n=%5zu p50_ms=%9.3f p90_ms=%9.3f\n", name.c_str(), v.size(),
                percentile(v, 0.5), percentile(v, 0.9));
  }
}

std::vector<Metric> end_to_end_metrics(const Measured& m) {
  const double ok = static_cast<double>(m.attempted - m.failed);
  return {
      {"setup_s", median(m.setup_s), "s"},
      {"throughput_gflops", m.busy_s > 0 ? m.flops / m.busy_s / 1e9 : 0.0, "GFLOP/s"},
      {"latency_ms_p50", percentile(m.latency_ms, 0.5), "ms"},
      {"latency_ms_p90", percentile(m.latency_ms, 0.9), "ms"},
      {"peak_mb", mib(m.peak_bytes), "MB"},
      {"ok_frac", m.attempted > 0 ? ok / static_cast<double>(m.attempted) : 0.0, "frac"},
  };
}

struct ServiceLayers {
  std::vector<double> submit_us, wait_ms;
  long submitted = 0, degraded = 0, refused = 0;
  double batches = 0, alloc_bytes = 0;
};

std::vector<Metric> per_layer_metrics(const LayerTotals& l, const ProbeTotals& p,
                                      const ServiceLayers& s, double workspace_bytes,
                                      const Measured& m) {
  const double ops = std::max<long>(l.ops, 1);
  const double eops = std::max<long>(l.engine_ops, 1);
  auto frac = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double svc_ops = std::max<long>(s.submitted, 1);
  return {
      {"convert.ms_per_op", l.convert / ops, "ms"},
      {"validate.ms_per_op", p.validate_ms, "ms"},
      {"plan.ms_per_op", l.plan / ops, "ms"},
      {"step1.ms_per_op", l.step1 / ops, "ms"},
      {"step2.ms_per_op", l.step2 / ops, "ms"},
      {"step3.ms_per_op", l.step3 / ops, "ms"},
      {"alloc.ms_per_op", l.alloc / ops, "ms"},
      {"masked.ms_per_op", l.masked / ops, "ms"},
      {"semiring.ms_per_op", l.semiring / ops, "ms"},
      {"engine.tiles_per_op", l.tiles / eops, "count"},
      {"engine.c_nnz_per_tile", frac(l.c_nnz, l.tiles), "count"},
      {"engine.fused_frac", frac(l.fused, l.tiles), "frac"},
      {"engine.bin3_frac", frac(l.bin3, l.binned), "frac"},
      {"engine.chunks_per_op", l.chunks / eops, "count"},
      {"engine.unattributed_ms_per_op", l.unattributed / ops, "ms"},
      {"memory.alloc_mb_per_op",
       mib(s.submitted ? s.alloc_bytes / svc_ops : l.alloc_bytes / ops), "MB"},
      {"memory.workspace_mb", mib(workspace_bytes), "MB"},
      {"service.submit_us_p50", percentile(s.submit_us, 0.5), "us"},
      {"service.wait_ms_p50", percentile(s.wait_ms, 0.5), "ms"},
      {"service.degraded_frac", frac(static_cast<double>(s.degraded), svc_ops), "frac"},
      {"service.batches_per_op", frac(s.batches, svc_ops), "count"},
      {"service.refused_frac", frac(static_cast<double>(s.refused), svc_ops), "frac"},
      {"admission.estimate_us_per_op", p.estimate_us, "us"},
      {"trace.overhead_frac", overhead_frac(m), "frac"},
      {"host.steal_frac", steal_frac(m.cpu0, m.cpu1), "frac"},
      {"baseline.hash_ms_per_op", p.baseline_ops ? p.hash_ms / p.baseline_ops : 0.0, "ms"},
      {"baseline.serial_ms_per_op", p.baseline_ops ? p.serial_ms / p.baseline_ops : 0.0, "ms"},
  };
}

void print_layer_shares(const LayerTotals& l) {
  const std::pair<const char*, double> layers[] = {
      {"convert", l.convert}, {"plan", l.plan},         {"step1", l.step1},
      {"step2", l.step2},     {"step3", l.step3},       {"alloc", l.alloc},
      {"masked", l.masked},   {"semiring", l.semiring}, {"unattributed", l.unattributed}};
  double total = 0;
  for (const auto& [name, ms] : layers) total += ms;
  for (const auto& [name, ms] : layers) {
    std::printf("layer %-13s %10.3f ms/op  share=%.3f\n", name,
                ms / static_cast<double>(std::max<long>(l.ops, 1)), total > 0 ? ms / total : 0.0);
  }
}

void write_trace(const RunArgs& args, const Tracer& tracer) {
  for (const auto& [name, st] : tracer.self_times()) {
    std::printf("span %-36s count=%6ld self_ms=%12.3f\n", name.c_str(), st.second, st.first);
  }
  const std::string dir = ".perfbench_out";
  std::filesystem::create_directories(dir);
  const std::string path =
      dir + "/trace_" + args.workload + "_seed" + std::to_string(args.seed) + ".json";
  tracer.write_chrome_json(path);
  std::printf("trace written to %s\n", path.c_str());
}

// ---------------------------------------------------------------------------
// Context workloads: one SpgemmContext, ops run back to back in rounds.

struct Engine {
  std::unique_ptr<SpgemmContext> ctx;
  std::vector<TileMatrix<double>> tiles;  ///< per class; empty for plain ops
};

/// One fresh set-up: build the context, convert the tile operands, and warm
/// up round by round until the pooled workspace stops growing. Returns the
/// set-up seconds, excluding the bit comparisons of the warm-up outputs.
double setup_engine(const std::vector<OpClass>& ops, Engine& e, Measured& m) {
  const Clock::time_point t0 = Clock::now();
  double check_ms = 0;
  e.ctx = std::make_unique<SpgemmContext>(engine_config(kEngineThreads));
  e.tiles.clear();
  for (const OpClass& op : ops) {
    e.tiles.push_back(op.kind == OpKind::kPlain ? TileMatrix<double>{} : tsg::csr_to_tile(*op.a));
  }
  std::size_t prev = std::numeric_limits<std::size_t>::max();
  for (int round = 0; round < kMaxWarmupRounds; ++round) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const OpOutcome o = run_op(*e.ctx, ops[i], e.tiles[i], nullptr, 0);
      check_ms += o.check_ms;
      if (!o.ok) m.setup_ok = false;
    }
    if (e.ctx->workspace_bytes() == prev) break;
    prev = e.ctx->workspace_bytes();
  }
  return (ms_between(t0, Clock::now()) - check_ms) / 1e3;
}

RunResult run_context_workload(const RunArgs& args, std::vector<OpClass> ops) {
  Measured m;
  m.ref_kernel_start_ms = reference_kernel_ms();
  m.setup_ok = verify_classes(ops, m.simd_level);

  Engine engine;
  for (int s = 0; s < kContextSetups; ++s) {
    engine = Engine{};
    m.setup_s.push_back(setup_engine(ops, engine, m));
  }
  std::printf("setup_s runs:");
  for (double s : m.setup_s) std::printf(" %.4f", s);
  std::printf("\n");

  Tracer tracer;
  LayerTotals layers;
  tsg::MemoryTracker& mem = tsg::MemoryTracker::instance();
  const double live0 = static_cast<double>(mem.current());
  mem.reset();
  m.cpu0 = read_cpu_times();
  const Clock::time_point phase0 = Clock::now();
  std::uint64_t request = 0;
  for (long round = 0;; ++round) {
    const int parity = args.trace ? static_cast<int>(round % 2) : 0;
    Tracer* t = parity == 1 ? &tracer : nullptr;
    const Clock::time_point r0 = Clock::now();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const OpOutcome o = run_op(*engine.ctx, ops[i], engine.tiles[i], t, ++request);
      ++m.attempted;
      m.latency_ms.push_back(o.ms);
      m.class_latency_ms[ops[i].name].push_back(o.ms);
      m.busy_s += o.ms / 1e3;
      if (!o.ok) {
        ++m.failed;
        std::printf("op %s round %ld: output differs from the verified result\n",
                    ops[i].name.c_str(), round);
        continue;
      }
      const double flops = 2.0 * static_cast<double>(ops[i].products);
      m.flops += flops;
      m.flops_by_parity[parity] += flops;
      if (t) layers.add(ops[i], o);
    }
    m.time_by_parity[parity] += ms_between(r0, Clock::now());
    const bool done = ms_between(phase0, Clock::now()) >= 1e3 * args.seconds &&
                      m.latency_ms.size() >= kMinSamples && parity == (args.trace ? 1 : 0);
    if (done) break;
  }
  m.cpu1 = read_cpu_times();
  m.peak_bytes = live0 + static_cast<double>(mem.peak());
  m.ref_kernel_end_ms = reference_kernel_ms();

  RunResult r;
  r.attempted = m.attempted;
  r.failed = m.failed;
  r.correct = m.failed == 0 && m.setup_ok;
  print_environment(args, m, "context threads=" + std::to_string(kEngineThreads));
  if (!args.trace) {
    r.metrics = end_to_end_metrics(m);
    return r;
  }
  const ProbeTotals probes = probe_layers(ops, tracer);
  print_layer_shares(layers);
  write_trace(args, tracer);
  r.metrics = per_layer_metrics(layers, probes, ServiceLayers{},
                                static_cast<double>(engine.ctx->workspace_bytes()), m);
  return r;
}

std::vector<OpClass> fem_blocks_classes(std::uint64_t seed) {
  auto make = [&](const char* name, std::uint64_t salt, auto gen) {
    Rng rng(stream_seed(seed, salt));
    return OpClass{name, OpKind::kPlain, std::make_shared<const Csr<double>>(gen(rng)), 0, {}};
  };
  return {
      make("fem_clustered", 1, [](Rng& r) { return gen_clustered_rows(12000, 4, 8, 32, r); }),
      make("banded_hb12", 2, [](Rng& r) { return gen_banded(30000, 12, r); }),
      make("stencil27_20", 3, [](Rng& r) { return gen_stencil27(20, 20, 20, r); }),
      make("blocks_48", 4, [](Rng& r) { return gen_dense_blocks(600, 48, r); }),
      make("blocks_20", 5, [](Rng& r) { return gen_dense_blocks(1500, 20, r); }),
  };
}

std::vector<OpClass> graph_sparse_classes(std::uint64_t seed) {
  Rng r1(stream_seed(seed, 11)), r2(stream_seed(seed, 12)), r3(stream_seed(seed, 13));
  auto rmat = std::make_shared<const Csr<double>>(gen_rmat(12, 8.0, 0.57, 0.19, 0.19, r1));
  // Hyper-sparse: about one nonzero per occupied tile, like cop20k_A.
  auto hyper = std::make_shared<const Csr<double>>(gen_erdos_renyi(6000, 12000, r2));
  auto tri = std::make_shared<const Csr<double>>(
      lower_triangle_ones(gen_rmat(13, 8.0, 0.57, 0.19, 0.19, r3)));
  return {
      {"rmat12.plain", OpKind::kPlain, rmat, 0, {}},
      {"hyper6k.plain", OpKind::kPlain, hyper, 0, {}},
      {"rmat13.tc_masked", OpKind::kMasked, tri, 0, {}},
      {"rmat12.min_plus", OpKind::kMinPlus, rmat, 0, {}},
      {"hyper6k.min_plus", OpKind::kMinPlus, hyper, 0, {}},
  };
}

// ---------------------------------------------------------------------------
// service_mix: a closed loop against SpgemmService.

std::vector<OpClass> service_classes(std::uint64_t seed) {
  auto make = [&](const char* name, std::uint64_t salt, auto gen) {
    Rng rng(stream_seed(seed, salt));
    return OpClass{name, OpKind::kPlain, std::make_shared<const Csr<double>>(gen(rng)), 0, {}};
  };
  return {
      make("svc.banded", 21, [](Rng& r) { return gen_banded(2000, 6, r); }),
      make("svc.blocks24", 22, [](Rng& r) { return gen_dense_blocks(100, 24, r); }),
      make("svc.clustered", 23, [](Rng& r) { return gen_clustered_rows(1500, 3, 6, 16, r); }),
      make("svc.stencil27", 24, [](Rng& r) { return gen_stencil27(8, 8, 8, r); }),
      make("svc.rmat10", 25, [](Rng& r) { return gen_rmat(10, 8.0, 0.57, 0.19, 0.19, r); }),
  };
}

tsg::service::SpgemmService::Config service_config() {
  return tsg::service::SpgemmService::Config{}
      .with_workers(kServiceWorkers)
      .with_device_mem_mb(kServiceBudgetMb)
      .with_degradation(true);
}

struct LoopStats {
  std::vector<double> latency_ms;
  std::map<std::string, std::vector<double>> class_latency_ms;
  std::vector<double> poll_gap_ms;
  double flops = 0, check_ms = 0;
  long attempted = 0, failed = 0;
  Clock::time_point first_submit{}, last_done{};
  double flops_by_parity[2] = {0, 0};
  double time_by_parity[2] = {0, 0};
};

/// Closed loop: keep kOutstanding requests in flight, in class order, and
/// stamp each completion when its future turns ready, polling from this one
/// thread; each product is checked and dropped as soon as it arrives.
/// `keep_going(next)` is asked at each round boundary whether to start the
/// round that begins with request `next`.
void closed_loop(tsg::service::SpgemmService& svc, const std::vector<OpClass>& ops,
                 const std::function<bool(long)>& keep_going, bool alternate_traced,
                 Tracer* tracer, LoopStats& st, ServiceLayers& sl) {
  struct InFlight {
    std::future<tsg::SpgemmRunReport> result;
    long seq;
    Clock::time_point submitted;
    int root = -1, wait = -1;
  };
  const long n = static_cast<long>(ops.size());
  std::vector<InFlight> inflight;
  // Per round: first submit and last completion, and the flops it completed.
  std::map<long, std::pair<Clock::time_point, Clock::time_point>> rounds;
  std::map<long, double> round_flops;
  long next = 0;
  bool submitting = true;
  Clock::time_point last_poll = Clock::now();
  st.first_submit = Clock::now();
  auto traced = [&](long seq) { return alternate_traced && (seq / n) % 2 == 1; };
  while (true) {
    while (submitting && inflight.size() < kOutstanding) {
      if (next % n == 0 && !keep_going(next)) {
        submitting = false;
        break;
      }
      const OpClass& op = ops[static_cast<std::size_t>(next % n)];
      Tracer* t = traced(next) ? tracer : nullptr;
      InFlight f{{}, next, Clock::now()};
      if (next == 0) st.first_submit = f.submitted;
      if (rounds.find(next / n) == rounds.end()) rounds[next / n] = {f.submitted, f.submitted};
      if (t) f.root = t->begin("request." + op.name, -1, static_cast<std::uint64_t>(next));
      tsg::Expected<tsg::service::Ticket> ticket = [&] {
        ScopedSpan span(t, "service.try_submit", f.root, static_cast<std::uint64_t>(next));
        return svc.try_submit(tsg::service::SpgemmRequest{op.a, nullptr, true,
                                                          static_cast<std::uint64_t>(next)});
      }();
      sl.submit_us.push_back(1e3 * ms_between(f.submitted, Clock::now()));
      ++sl.submitted;
      ++st.attempted;
      ++next;
      if (!ticket.ok()) {
        ++sl.refused;
        ++st.failed;
        std::printf("request %ld refused: %s\n", f.seq, ticket.status().message().c_str());
        if (t) t->end(f.root);
        continue;
      }
      if (ticket.value().admission == tsg::service::Admission::kDegraded) ++sl.degraded;
      f.result = std::move(ticket.value().result);
      if (t) f.wait = t->begin("service.wait", f.root, static_cast<std::uint64_t>(f.seq));
      inflight.push_back(std::move(f));
    }
    if (inflight.empty()) break;

    bool any = false;
    for (std::size_t i = 0; i < inflight.size();) {
      InFlight& f = inflight[i];
      if (f.result.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++i;
        continue;
      }
      const Clock::time_point done = Clock::now();
      Tracer* t = traced(f.seq) ? tracer : nullptr;
      if (t) {
        t->end(f.wait);
        t->end(f.root);
      }
      any = true;
      const OpClass& op = ops[static_cast<std::size_t>(f.seq % n)];
      const double latency = ms_between(f.submitted, done);
      bool ok = false;
      {
        ScopedSpan span(t, "check", -1, static_cast<std::uint64_t>(f.seq));
        const Clock::time_point c0 = Clock::now();
        try {
          const tsg::SpgemmRunReport report = f.result.get();
          ok = op.golden.matches(report.c);
          sl.wait_ms.push_back(latency - report.core_ms);
        } catch (const std::exception& e) {
          std::printf("request %ld failed: %s\n", f.seq, e.what());
        }
        st.check_ms += ms_between(c0, Clock::now());
      }
      st.latency_ms.push_back(latency);
      st.class_latency_ms[op.name].push_back(latency);
      st.last_done = done;
      rounds[f.seq / n].second = std::max(rounds[f.seq / n].second, done);
      if (ok) {
        const double flops = 2.0 * static_cast<double>(op.products);
        st.flops += flops;
        round_flops[f.seq / n] += flops;
      } else {
        ++st.failed;
        std::printf("request %ld (%s): output differs from the verified result\n", f.seq,
                    op.name.c_str());
      }
      inflight[i] = std::move(inflight.back());
      inflight.pop_back();
    }
    const Clock::time_point now = Clock::now();
    st.poll_gap_ms.push_back(ms_between(last_poll, now));
    last_poll = now;
    if (!any) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  for (const auto& [round, span] : rounds) {
    const int parity = alternate_traced ? static_cast<int>(round % 2) : 0;
    st.time_by_parity[parity] += ms_between(span.first, span.second);
    st.flops_by_parity[parity] += round_flops[round];
  }
}

RunResult run_service_workload(const RunArgs& args) {
  Measured m;
  m.ref_kernel_start_ms = reference_kernel_ms();
  std::vector<OpClass> ops = service_classes(args.seed);
  m.setup_ok = verify_classes(ops, m.simd_level);

  // The OpenMP team size a worker thread inherits is fixed at process start.
  int worker_threads = 0;
  std::thread([&] { worker_threads = tsg::max_workers(); }).join();
  const std::string layout = "service workers=" + std::to_string(kServiceWorkers) +
                             " omp_threads_per_worker=" + std::to_string(worker_threads) +
                             " outstanding=" + std::to_string(kOutstanding) +
                             " budget_mb=" + std::to_string(kServiceBudgetMb);
  if (worker_threads != kServiceOmpThreads) {
    throw std::runtime_error("service_mix needs OMP_NUM_THREADS=" +
                             std::to_string(kServiceOmpThreads) + " (found " +
                             std::to_string(worker_threads) + " threads per worker)");
  }

  tsg::MemoryTracker& mem = tsg::MemoryTracker::instance();
  std::unique_ptr<tsg::service::SpgemmService> svc;
  double workspace_bytes = 0;
  int pools_grew = 0;
  for (int s = 0; s < kServiceSetups; ++s) {
    svc.reset();
    const double base = static_cast<double>(mem.current());
    const Clock::time_point t0 = Clock::now();
    svc = std::make_unique<tsg::service::SpgemmService>(service_config());
    // Which worker takes which request varies, so a stop-when-flat rule
    // would make the warm-up length itself random: warm up for a fixed
    // number of rounds and report whether the last one still grew a pool.
    double check_ms = 0;
    double before_last = 0;
    for (int round = 0; round < kServiceWarmupRounds; ++round) {
      LoopStats st;
      ServiceLayers sl;
      const long end = static_cast<long>(ops.size());
      before_last = static_cast<double>(mem.current());
      closed_loop(*svc, ops, [&](long next) { return next < end; }, false, nullptr, st, sl);
      check_ms += st.check_ms;
      if (st.failed) m.setup_ok = false;
    }
    m.setup_s.push_back((ms_between(t0, Clock::now()) - check_ms) / 1e3);
    workspace_bytes = static_cast<double>(mem.current()) - base;
    pools_grew += static_cast<double>(mem.current()) > before_last;
  }
  std::printf("setup_s runs:");
  for (double s : m.setup_s) std::printf(" %.4f", s);
  std::printf("  (last warm-up round grew the pools in %d of %d)\n", pools_grew, kServiceSetups);

  Tracer tracer;
  LoopStats st;
  ServiceLayers sl;
  tsg::obs::Counter& batches = tsg::obs::MetricsRegistry::instance().counter("service.batches");
  const double batches0 = static_cast<double>(batches.value());
  const double live0 = static_cast<double>(mem.current());
  mem.reset();
  m.cpu0 = read_cpu_times();
  const Clock::time_point phase0 = Clock::now();
  const long n = static_cast<long>(ops.size());
  closed_loop(
      *svc, ops,
      [&](long next) {
        const bool even_rounds = !args.trace || (next / n) % 2 == 0;
        return !(ms_between(phase0, Clock::now()) >= 1e3 * args.seconds &&
                 static_cast<std::size_t>(next) >= kMinSamples && even_rounds);
      },
      args.trace, &tracer, st, sl);
  m.cpu1 = read_cpu_times();
  m.peak_bytes = live0 + static_cast<double>(mem.peak());
  sl.alloc_bytes = static_cast<double>(mem.allocated_total());
  sl.batches = static_cast<double>(batches.value()) - batches0;
  svc.reset();
  m.ref_kernel_end_ms = reference_kernel_ms();

  m.latency_ms = st.latency_ms;
  m.class_latency_ms = st.class_latency_ms;
  std::printf("env client_lateness_ms (gap between polls) p50=%.3f p99=%.3f max=%.3f polls=%zu\n",
              percentile(st.poll_gap_ms, 0.5), percentile(st.poll_gap_ms, 0.99),
              *std::max_element(st.poll_gap_ms.begin(), st.poll_gap_ms.end()),
              st.poll_gap_ms.size());
  m.flops = st.flops;
  m.busy_s = ms_between(st.first_submit, st.last_done) / 1e3;
  m.attempted = st.attempted;
  m.failed = st.failed;
  for (int p = 0; p < 2; ++p) {
    m.flops_by_parity[p] = st.flops_by_parity[p];
    m.time_by_parity[p] = st.time_by_parity[p];
  }

  RunResult r;
  r.attempted = m.attempted;
  r.failed = m.failed;
  r.correct = m.failed == 0 && m.setup_ok;
  if (!args.trace) {
    print_environment(args, m, layout);
    r.metrics = end_to_end_metrics(m);
    return r;
  }
  // The service's report carries only core_ms, so the engine sub-layers are
  // not measured here and read 0.
  print_environment(args, m, layout);
  const ProbeTotals probes = probe_layers(ops, tracer);
  write_trace(args, tracer);
  r.metrics = per_layer_metrics(LayerTotals{}, probes, sl, workspace_bytes, m);
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fem_blocks", "graph_sparse", "service_mix"};
  return names;
}

RunResult run_workload(const RunArgs& args) {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  if (args.workload == "fem_blocks") {
    return run_context_workload(args, fem_blocks_classes(args.seed));
  }
  if (args.workload == "graph_sparse") {
    return run_context_workload(args, graph_sparse_classes(args.seed));
  }
  return run_service_workload(args);
}

}  // namespace perfbench
