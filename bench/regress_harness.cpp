#include "regress_harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/timer.h"
#include "core/simd_dispatch.h"
#include "core/spgemm_context.h"
#include "gen/generators.h"

namespace tsg::bench {
namespace {

struct Args {
  std::string emit_path;
  std::string compare_path;
  double tolerance = 0.15;
  double assert_speedup = 0.0;  // 0 = off
  double min_ms = 0.2;          // below this baseline median, report but don't gate
  int reps = 7;
  double scale = 1.0;
  bool bad = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (const char* env = std::getenv("TSG_BENCH_REPS")) a.reps = std::atoi(env);
  if (const char* env = std::getenv("TSG_BENCH_SCALE")) a.scale = std::atof(env);
  if (const char* env = std::getenv("TSG_BENCH_TOLERANCE")) a.tolerance = std::atof(env);
  if (const char* env = std::getenv("TSG_BENCH_MIN_MS")) a.min_ms = std::atof(env);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--regress") continue;
    if (arg == "--emit") {
      if (const char* v = next()) a.emit_path = v; else a.bad = true;
    } else if (arg == "--compare") {
      if (const char* v = next()) a.compare_path = v; else a.bad = true;
    } else if (arg == "--tolerance") {
      if (const char* v = next()) a.tolerance = std::atof(v); else a.bad = true;
    } else if (arg == "--assert-speedup") {
      if (const char* v = next()) a.assert_speedup = std::atof(v); else a.bad = true;
    } else if (arg == "--min-ms") {
      if (const char* v = next()) a.min_ms = std::atof(v); else a.bad = true;
    } else if (arg == "--reps") {
      if (const char* v = next()) a.reps = std::atoi(v); else a.bad = true;
    } else if (arg == "--scale") {
      if (const char* v = next()) a.scale = std::atof(v); else a.bad = true;
    } else {
      std::fprintf(stderr, "regress: unknown argument '%s'\n", arg.c_str());
      a.bad = true;
    }
  }
  if (a.reps < 1) a.reps = 1;
  if (a.scale <= 0.0) a.scale = 1.0;
  return a;
}

/// The step2-dominated suite: structure classes whose per-tile symbolic
/// work (intersection + mask OR) dominates the pipeline. Sizes scale
/// linearly with --scale so CI can bound wall time.
struct SuiteCase {
  std::string name;
  Csr<double> csr;
};

index_t scaled(double scale, index_t n, index_t lo = 16) {
  const auto v = static_cast<index_t>(static_cast<double>(n) * scale);
  return v < lo ? lo : v;
}

std::vector<SuiteCase> make_suite(double scale) {
  std::vector<SuiteCase> suite;
  suite.push_back({"dense_blocks", gen::dense_blocks(scaled(scale, 256, 4), 16, 9101)});
  suite.push_back({"blocks_mid", gen::dense_blocks(scaled(scale, 192, 4), 12, 9102)});
  suite.push_back({"banded_wide", gen::banded(scaled(scale, 4096, 256), 24, 9103)});
  suite.push_back({"clustered", gen::clustered_rows(scaled(scale, 1536, 128), 4, 10, 9104)});
  suite.push_back({"rmat", gen::rmat(scale >= 1.0 ? 11 : 9, 8.0, 9105)});
  suite.push_back({"stencil9", gen::stencil_9pt(scaled(scale, 64, 8), scaled(scale, 64, 8))});
  // Two-tile A rows against a B tile column as long as the matrix: times
  // the indexed intersection's binary-search branch, whose loss would turn
  // each C tile of column 0 into a walk of the whole column.
  suite.push_back({"col_diag", gen::column_plus_diagonal(scaled(scale, 64000, 256), 9106)});
  return suite;
}

double median(std::vector<double> v) {
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
    m = (m + lo) / 2.0;
  }
  return m;
}

/// Median per-step timings of `reps` runs of one configuration (one warmup
/// run first so pooled workspaces reach steady-state capacity).
struct StepMedians {
  double step2_ms = 0.0;
  double step3_ms = 0.0;
  double core_ms = 0.0;
};

/// Interleaved measurement: each rep runs every configuration back to back,
/// so machine-load drift during the run lands on all configurations equally
/// and the derived speedup ratios stay honest (a sequential per-config loop
/// would charge whichever config ran while the machine was busy).
std::vector<StepMedians> measure_interleaved(const std::vector<SpgemmContext*>& ctxs,
                                             const TileMatrix<double>& t, int reps) {
  const std::size_t n = ctxs.size();
  std::vector<std::vector<double>> s2(n), s3(n), core(n);
  const Request<TileMatrix<double>> square{&t, &t};
  for (SpgemmContext* ctx : ctxs) (void)ctx->try_run(square).value();  // warmup: grow the pools
  for (int r = 0; r < reps; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      const TileSpgemmResult<double> res = ctxs[c]->try_run(square).value();
      s2[c].push_back(res.timings.step2_ms);
      s3[c].push_back(res.timings.step3_ms);
      core[c].push_back(res.timings.core_ms());
    }
  }
  std::vector<StepMedians> out(n);
  for (std::size_t c = 0; c < n; ++c) {
    out[c] = {median(std::move(s2[c])), median(std::move(s3[c])),
              median(std::move(core[c]))};
  }
  return out;
}

/// Flat kernel-name -> median-ms map; the JSON schema below mirrors it.
using KernelMap = std::map<std::string, double>;

void emit_json(const KernelMap& kernels, int reps, double scale, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "regress: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"schema\": 1,\n  \"reps\": " << reps << ",\n  \"scale\": " << scale
      << ",\n  \"kernels\": {\n";
  std::size_t i = 0;
  for (const auto& [name, ms] : kernels) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", ms);
    out << "    \"" << name << "\": " << buf << (++i < kernels.size() ? "," : "") << "\n";
  }
  out << "  }\n}\n";
  std::printf("regress: wrote %zu kernel medians to %s\n", kernels.size(), path.c_str());
}

/// Minimal reader for the flat schema emit_json writes: every
/// `"name": <number>` pair after the "kernels" key. Tolerant of
/// whitespace/indentation, not a general JSON parser.
bool parse_baseline(const std::string& path, KernelMap& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "regress: cannot read baseline %s\n", path.c_str());
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::size_t kernels_at = text.find("\"kernels\"");
  if (kernels_at == std::string::npos) {
    std::fprintf(stderr, "regress: %s has no \"kernels\" object\n", path.c_str());
    return false;
  }
  std::size_t pos = kernels_at + 9;
  while (true) {
    const std::size_t q0 = text.find('"', pos);
    if (q0 == std::string::npos) break;
    const std::size_t q1 = text.find('"', q0 + 1);
    if (q1 == std::string::npos) break;
    const std::size_t colon = text.find(':', q1);
    if (colon == std::string::npos) break;
    char* end = nullptr;
    const double v = std::strtod(text.c_str() + colon + 1, &end);
    if (end != text.c_str() + colon + 1) {
      out[text.substr(q0 + 1, q1 - q0 - 1)] = v;
    }
    pos = colon + 1;
  }
  return !out.empty();
}

int compare_to_baseline(const KernelMap& current, const std::string& path, double tol,
                        double min_ms) {
  KernelMap baseline;
  if (!parse_baseline(path, baseline)) return 1;
  int regressions = 0;
  int missing = 0;
  int skipped = 0;
  for (const auto& [name, base_ms] : baseline) {
    const auto it = current.find(name);
    if (it == current.end()) {
      // A baseline recorded on a wider host may carry vector-level kernels
      // this machine cannot execute; that is a capability gap, not a
      // regression — skip with a notice instead of failing the gate.
      const bool avx2_gap = name.find(".avx2.") != std::string::npos &&
                            !simd::level_available(simd::Level::kAvx2);
      const bool avx512_gap = name.find(".avx512.") != std::string::npos &&
                              !simd::level_available(simd::Level::kAvx512);
      if (avx2_gap || avx512_gap) {
        std::printf("  %-28s SKIPPED (SIMD level unavailable on this host)\n",
                    name.c_str());
        ++skipped;
        continue;
      }
      std::fprintf(stderr, "regress: kernel '%s' is in the baseline but was not measured "
                           "(refresh %s?)\n", name.c_str(), path.c_str());
      ++missing;
      continue;
    }
    const double ratio = base_ms > 0.0 ? it->second / base_ms : 1.0;
    // Sub-min_ms kernels are dominated by dispatch jitter, where a relative
    // gate only measures the machine; report them ungated.
    const bool gated = base_ms >= min_ms;
    const bool slow = gated && ratio > 1.0 + tol;
    std::printf("  %-28s base %10.4f ms  now %10.4f ms  (%+6.1f%%)%s\n", name.c_str(),
                base_ms, it->second, (ratio - 1.0) * 100.0,
                slow ? "  REGRESSION" : (gated ? "" : "  (ungated: below min-ms)"));
    if (slow) ++regressions;
  }
  if (regressions > 0 || missing > 0) {
    std::fprintf(stderr,
                 "regress: %d kernel(s) regressed beyond %.0f%% (and %d missing) vs %s\n",
                 regressions, tol * 100.0, missing, path.c_str());
    return 1;
  }
  std::printf("regress: all %zu kernels within %.0f%% of %s (%d skipped: unavailable SIMD)\n",
              baseline.size() - static_cast<std::size_t>(skipped), tol * 100.0,
              path.c_str(), skipped);
  return 0;
}

}  // namespace

int run_regress(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.bad) {
    std::fprintf(stderr,
                 "usage: bench_micro_kernels --regress [--emit FILE] [--compare FILE]\n"
                 "         [--tolerance F] [--min-ms MS] [--assert-speedup R]\n"
                 "         [--reps N] [--scale S]\n");
    return 2;
  }

  const std::vector<SuiteCase> suite = make_suite(args.scale);
  KernelMap kernels;
  std::vector<double> speedups;

  // "packed" is pinned to the SWAR level so the step2.packed.* baseline
  // names keep measuring the same kernel on every host; the vector levels
  // get their own step2.<level>.* entries, measured only where available.
  SpgemmContext packed(SpgemmContext::Config{}.with_simd_level(simd::Level::kSwar));
  SpgemmContext scalar(SpgemmContext::Config{}.with_simd_level(simd::Level::kScalar));
  SpgemmContext avx2(SpgemmContext::Config{}.with_simd_level(simd::Level::kAvx2));
  SpgemmContext avx512(SpgemmContext::Config{}.with_simd_level(simd::Level::kAvx512));
  const bool has_avx2 = simd::level_available(simd::Level::kAvx2);
  const bool has_avx512 = simd::level_available(simd::Level::kAvx512);

  std::vector<SpgemmContext*> ctxs = {&packed, &scalar};
  if (has_avx2) ctxs.push_back(&avx2);
  if (has_avx512) ctxs.push_back(&avx512);

  std::printf("regress: %zu matrices, %d reps, scale %.2f, simd up to %s\n", suite.size(),
              args.reps, args.scale, simd::level_name(simd::detected_level()));
  for (const SuiteCase& sc : suite) {
    const TileMatrix<double> t = csr_to_tile(sc.csr);
    const std::vector<StepMedians> m = measure_interleaved(ctxs, t, args.reps);
    const StepMedians& m_packed = m[0];
    const StepMedians& m_scalar = m[1];

    kernels["step2.packed." + sc.name] = m_packed.step2_ms;
    kernels["step2.scalar." + sc.name] = m_scalar.step2_ms;
    kernels["step3.recompute." + sc.name] = m_packed.step3_ms;
    std::size_t next = 2;
    if (has_avx2) {
      kernels["step2.avx2." + sc.name] = m[next].step2_ms;
      kernels["step3.avx2." + sc.name] = m[next].step3_ms;
      ++next;
    }
    if (has_avx512) {
      // The whole engine (core_ms) at the level the default config runs
      // on an AVX-512 host.
      kernels["step2.avx512." + sc.name] = m[next].step2_ms;
      kernels["step3.avx512." + sc.name] = m[next].step3_ms;
      kernels["e2e.avx512." + sc.name] = m[next].core_ms;
      ++next;
    }

    const double speedup =
        m_packed.step2_ms > 0.0 ? m_scalar.step2_ms / m_packed.step2_ms : 1.0;
    speedups.push_back(speedup);
    std::printf("  %-14s step2 scalar %8.4f ms  packed %8.4f ms  (%.2fx)   "
                "step3 recompute %8.4f ms\n",
                sc.name.c_str(), m_scalar.step2_ms, m_packed.step2_ms, speedup,
                m_packed.step3_ms);
    if (has_avx2 || has_avx512) {
      const StepMedians& m_best = m[ctxs.size() - 1];
      std::printf("  %-14s step2 %-6s %8.4f ms  (%.2fx over packed)   step3 %8.4f ms\n",
                  "", simd::level_name(simd::detected_level()), m_best.step2_ms,
                  m_best.step2_ms > 0.0 ? m_packed.step2_ms / m_best.step2_ms : 1.0,
                  m_best.step3_ms);
    }
  }

  const double median_speedup = median(speedups);
  std::printf("regress: suite-median step2 speedup (word-packed vs scalar): %.2fx\n",
              median_speedup);

  if (!args.emit_path.empty()) emit_json(kernels, args.reps, args.scale, args.emit_path);

  int rc = 0;
  if (args.assert_speedup > 0.0 && median_speedup < args.assert_speedup) {
    std::fprintf(stderr, "regress: step2 median speedup %.2fx is below the %.2fx gate\n",
                 median_speedup, args.assert_speedup);
    rc = 1;
  }
  if (!args.compare_path.empty()) {
    if (compare_to_baseline(kernels, args.compare_path, args.tolerance, args.min_ms) != 0) {
      rc = 1;
    }
  }
  return rc;
}

}  // namespace tsg::bench
