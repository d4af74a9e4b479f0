// Command-line driver replicating the paper artifact's `test` executable
// (appendix A.7/A.8):
//
//   ./tilespgemm_cli -d 0 -aat 0 <path/to/matrix.mtx>
//
// and printing the same 18 output lines the artifact documents: matrix
// info, load time, tile size, flop count, conversion time, format space,
// per-step and allocation times, tiles/nnz of C, runtime + GFlops, and a
// correctness check against an independent SpGEMM. On top of the artifact
// flags it exposes the robustness knobs: --validate grades the operand
// checking, --budget-mb overrides the modeled device budget, and the
// budget outcome (chunks / budget-limited) is printed with the timings.
// Failures exit nonzero with the structured Status ("Code: message") on
// stderr.
//
// Without a matrix path a built-in generated matrix is used, so the tool
// runs in this offline environment.
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "baselines/hash.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/spgemm_context.h"
#include "core/tile_spgemm.h"
#include "core/tile_stats.h"
#include "gen/generators.h"
#include "matrix/compare.h"
#include "matrix/convert.h"
#include "matrix/io_mm.h"
#include "matrix/stats.h"
#include "matrix/transpose.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/spgemm_service.h"

namespace {

void usage() {
  std::cerr << "usage: tilespgemm_cli [-d <gpu-device>] [-aat 0|1] [--validate off|cheap|full]\n"
               "                      [--budget-mb <n>] [--no-degrade] [--trace <file>]\n"
               "                      [--metrics <file>] [--serve <workers>]\n"
               "                      [--timeout-ms <n>] [--retries <n>] [matrix.mtx]\n"
               "  -d           accepted for artifact compatibility (no GPU here)\n"
               "  -aat         0: C = A*A (default), 1: C = A*A^T\n"
               "  --validate   operand checking at the context boundary (default cheap)\n"
               "  --budget-mb  modeled device-memory budget (default TSG_DEVICE_MEM_MB)\n"
               "  --no-degrade fail with BudgetExceeded instead of chunked execution\n"
               "  --trace      write a Chrome trace_event JSON of the run (open in Perfetto)\n"
               "  --metrics    write the metrics-registry snapshot as JSON\n"
               "  --serve      route the multiply through SpgemmService with <workers>\n"
               "               warm workers (async submission path; admission-controlled)\n"
               "  --timeout-ms (--serve only) per-request deadline; an expired request\n"
               "               fails with DeadlineExceeded instead of running forever\n"
               "  --retries    (--serve only) transparent retries for transient\n"
               "               (allocation) failures, with exponential backoff\n";
}

/// Print the structured failure the way scripts expect it: one
/// "Code: message" line on stderr, nonzero exit.
int fail_with(const tsg::Status& status) {
  std::cerr << "error: " << status.to_string() << "\n";
  return 1;
}

}  // namespace

namespace {

/// Value of a `--flag value` or `--flag=value` argument; empty when `argv[i]`
/// is not that flag. Advances `i` past a space-separated value.
std::string flag_value(int argc, char** argv, int& i, const char* flag) {
  const std::size_t flen = std::strlen(flag);
  if (std::strncmp(argv[i], flag, flen) != 0) return {};
  if (argv[i][flen] == '=') return std::string(argv[i] + flen + 1);
  if (argv[i][flen] == '\0' && i + 1 < argc) return std::string(argv[++i]);
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsg;

  // Crash post-mortems are an entry-point decision (the library never
  // installs handlers behind the caller's back): with TSG_FLIGHT_DIR set, a
  // fatal signal leaves a flight_*.json naming the in-flight request.
  if (obs::FlightRecorder::instance().enabled()) {
    obs::FlightRecorder::install_signal_handlers();
  }

  int aat = 0;
  int serve_workers = 0;
  long timeout_ms = 0;
  int retries = 0;
  std::string path;
  std::string trace_path;
  std::string metrics_path;
  SpgemmContext::Config cfg = SpgemmContext::Config::from_env();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-d") == 0 && i + 1 < argc) {
      ++i;  // device id: accepted and ignored (CPU build)
    } else if (std::strcmp(argv[i], "-aat") == 0 && i + 1 < argc) {
      aat = std::atoi(argv[++i]);
    } else if (std::string level = flag_value(argc, argv, i, "--validate"); !level.empty()) {
      if (level == "off") {
        cfg.with_validation(ValidationLevel::kOff);
      } else if (level == "cheap") {
        cfg.with_validation(ValidationLevel::kCheap);
      } else if (level == "full") {
        cfg.with_validation(ValidationLevel::kFull);
      } else {
        std::cerr << "error: --validate expects off|cheap|full, got '" << level << "'\n";
        usage();
        return 2;
      }
    } else if (std::string mb_arg = flag_value(argc, argv, i, "--budget-mb");
               !mb_arg.empty()) {
      const long mb = std::atol(mb_arg.c_str());
      if (mb <= 0) {
        std::cerr << "error: --budget-mb expects a positive MB count\n";
        usage();
        return 2;
      }
      cfg.with_device_mem_mb(static_cast<std::size_t>(mb));
    } else if (std::strcmp(argv[i], "--no-degrade") == 0) {
      cfg.with_degradation(false);
    } else if (std::string file = flag_value(argc, argv, i, "--trace"); !file.empty()) {
      trace_path = file;
      cfg.with_tracing(true);
    } else if (std::string file = flag_value(argc, argv, i, "--metrics"); !file.empty()) {
      metrics_path = file;
      cfg.with_metrics(true);
    } else if (std::string n = flag_value(argc, argv, i, "--serve"); !n.empty()) {
      serve_workers = std::atoi(n.c_str());
      if (serve_workers <= 0) {
        std::cerr << "error: --serve expects a positive worker count\n";
        usage();
        return 2;
      }
    } else if (std::string n = flag_value(argc, argv, i, "--timeout-ms"); !n.empty()) {
      timeout_ms = std::atol(n.c_str());
      if (timeout_ms <= 0) {
        std::cerr << "error: --timeout-ms expects a positive millisecond count\n";
        usage();
        return 2;
      }
    } else if (std::string n = flag_value(argc, argv, i, "--retries"); !n.empty()) {
      retries = std::atoi(n.c_str());
      if (retries < 0 || (retries == 0 && n != "0")) {
        std::cerr << "error: --retries expects a non-negative count\n";
        usage();
        return 2;
      }
    } else if (argv[i][0] == '-') {
      usage();
      return 2;
    } else {
      path = argv[i];
    }
  }
  if (serve_workers == 0 && (timeout_ms > 0 || retries > 0)) {
    std::cerr << "error: --timeout-ms/--retries are request-lifecycle options and "
                 "require --serve\n";
    usage();
    return 2;
  }

  // Lines 1-3: input matrix and load time. The load is a begin/end span
  // (not a scoped 'X' event): the early returns below would otherwise
  // record nothing for a run that died loading, which is exactly the run a
  // trace should explain.
  TSG_TRACE_BEGIN("cli/load");
  Timer load_timer;
  Csr<double> a;
  if (!path.empty()) {
    try {
      a = coo_to_csr(read_matrix_market_file<double>(path));
    } catch (const Error& e) {
      return fail_with(e.status());
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  } else {
    path = "<generated: rmat scale 12, edge factor 6>";
    a = gen::rmat(12, 6.0, 1);
  }
  const double load_s = load_timer.seconds();
  TSG_TRACE_END("cli/load");
  std::cout << "input matrix: " << path << "\n";
  std::cout << "rows = " << a.rows << ", cols = " << a.cols << ", nnz = " << a.nnz() << "\n";
  std::cout << "file loading time: " << load_s << " s\n";

  // Line 4: tile size.
  std::cout << "tile size: " << kTileDim << " x " << kTileDim << "\n";

  const Csr<double> b = aat != 0 ? transpose(a) : a;
  // Line 5: flops of the multiplication.
  const offset_t flops = spgemm_flops(a, b);
  std::cout << "#flops of C = A*" << (aat != 0 ? "A^T" : "A") << ": " << flops << "\n";

  // --serve: the same multiply through the async service front end. The
  // condensed report (admission outcome, estimate, runtime, budget outcome)
  // replaces the artifact's per-step breakdown — SpgemmRunReport is the
  // service's result shape, and the correctness check still runs.
  if (serve_workers > 0) {
    service::SpgemmService::Config scfg;
    scfg.with_workers(serve_workers)
        .with_device_mem_mb(cfg.device_mem_mb)
        .with_degradation(cfg.degrade_on_budget)
        .with_context(cfg);
    service::SpgemmService svc(scfg);
    service::SpgemmRequest req{std::make_shared<const Csr<double>>(a)};
    if (aat != 0) req.b = std::make_shared<const Csr<double>>(b);
    service::SubmitOptions opts;
    if (timeout_ms > 0) opts.with_timeout(std::chrono::milliseconds(timeout_ms));
    opts.with_retries(retries);
    Expected<service::Ticket> ticket = svc.try_submit(std::move(req), opts);
    if (!ticket.ok()) return fail_with(ticket.status());
    std::cout << "service: " << serve_workers << " worker(s), request #" << ticket->id
              << ", admission "
              << (ticket->admission == service::Admission::kDegraded ? "degraded"
                                                                     : "admitted")
              << ", estimated footprint "
              << static_cast<double>(ticket->estimated_bytes) / (1024.0 * 1024.0)
              << " MB (budget " << static_cast<double>(svc.budget_bytes()) / (1024.0 * 1024.0)
              << " MB)\n";
    SpgemmRunReport report;
    try {
      report = ticket->result.get();
    } catch (const Error& e) {
      return fail_with(e.status());
    }
    svc.shutdown();
    std::cout << "request correlation: request_id=" << report.request_id
              << " trace_id=" << report.trace_id
              << " (join key for --trace events and structured logs)\n";
    std::cout << "TileSpGEMM runtime (service): " << report.core_ms << " ms, "
              << gflops(flops, report.core_ms) << " GFlops\n";
    std::cout << "execution chunks: " << report.chunks
              << (report.budget_limited ? " (budget-limited, graceful degradation)" : "")
              << "\n";
    std::cout << "nnz of C: " << report.c.nnz() << "\n";
    if (!metrics_path.empty()) {
      std::ofstream metrics_out(metrics_path);
      if (!metrics_out) {
        return fail_with(Status::io_error("cannot open metrics file '" + metrics_path + "'"));
      }
      obs::MetricsRegistry::instance().write_json(metrics_out);
      std::cout << "metrics written: " << metrics_path << "\n";
    }
    try {
      const Csr<double> expected = spgemm_hash(a, b);
      const CompareResult check = compare(expected, report.c, {1e-8, 1e-300, false, 0.0});
      std::cout << "check vs independent SpGEMM: " << (check.equal ? "PASS" : "FAIL")
                << (check.equal ? "" : (" (" + check.message + ")")) << "\n";
      return check.equal ? 0 : 1;
    } catch (const std::exception&) {
      std::cout << "check vs independent SpGEMM: SKIPPED (comparator out of memory)\n";
      return 0;
    }
  }

  SpgemmContext ctx(cfg);

  // Line 7: tiled data structure space.
  const TileFormatStats format = tile_format_stats(csr_to_tile(a));
  std::cout << "tiled structure space: "
            << static_cast<double>(format.bytes) / 1e6 << " MB (CSR: "
            << static_cast<double>(a.bytes()) / 1e6 << " MB)\n";

  // Lines 6 and 8-14: conversion, step and allocation times, all from one
  // CSR request's timings: it converts A itself (convert_ms) and, for
  // -aat 1, forms A^T tile-natively (alloc_ms). A too-small budget (with
  // --no-degrade), a malformed operand, or an out-of-memory all land here
  // as a Status instead of a crash.
  TSG_TRACE_BEGIN("cli/spgemm", flops);
  Expected<SpgemmResult<Csr<double>>> run =
      ctx.try_run(Request<Csr<double>>{.a = &a, .b = &a, .transpose_b = aat != 0});
  TSG_TRACE_END("cli/spgemm");
  if (!run.ok()) return fail_with(run.status());
  const SpgemmResult<Csr<double>>& result = *run;
  const TileSpgemmTimings& t = result.timings;
  std::cout << "CSR->tile conversion time: " << t.convert_ms << " ms\n";
  std::cout << "step 1 (tile structure of C):   " << t.step1_ms << " ms\n";
  std::cout << "step 2 (per-tile symbolic):     " << t.step2_ms << " ms\n";
  std::cout << "step 3 (numeric):               " << t.step3_ms << " ms\n";
  std::cout << "memory allocation (CPU+GPU eq): " << t.alloc_ms << " ms\n";
  std::cout << "scheduling (cost bins):         " << t.plan_ms << " ms\n";
  std::cout << "total:                          " << t.core_ms() << " ms\n";
  std::cout << "conversion / single SpGEMM:     "
            << (t.core_ms() > 0 ? t.convert_ms / t.core_ms() : 0.0) << "x\n";
  const int threads = ctx.config().threads > 0 ? ctx.config().threads : num_threads();
  std::cout << "threads: " << threads << "\n";
  std::cout << "device budget: "
            << static_cast<double>(device_memory_budget_bytes()) / (1024.0 * 1024.0)
            << " MB, execution chunks: " << t.chunks
            << (t.budget_limited ? " (budget-limited, graceful degradation)" : "") << "\n";

  // Observability dumps, written as soon as the multiply is done so a
  // failing correctness check (or a comparator out-of-memory) cannot lose
  // them. The trace covers everything up to this point; the metrics file is
  // the full registry (this process ran exactly one multiply).
  if (!trace_path.empty()) {
    std::ofstream trace_out(trace_path);
    if (!trace_out) {
      return fail_with(Status::io_error("cannot open trace file '" + trace_path + "'"));
    }
    obs::TraceCollector::instance().write_chrome_trace(trace_out);
    std::cout << "trace written: " << trace_path << "\n";
  }
  if (!metrics_path.empty()) {
    std::ofstream metrics_out(metrics_path);
    if (!metrics_out) {
      return fail_with(Status::io_error("cannot open metrics file '" + metrics_path + "'"));
    }
    obs::MetricsRegistry::instance().write_json(metrics_out);
    std::cout << "metrics written: " << metrics_path << "\n";
  }

  // Lines 15-16: output structure.
  std::cout << "tiles of C: " << t.scheduled_tiles << "\n";
  std::cout << "nnz of C: " << result.c.nnz() << "\n";

  // Line 17: runtime and throughput.
  std::cout << "TileSpGEMM runtime: " << t.core_ms() << " ms, "
            << gflops(flops, t.core_ms()) << " GFlops\n";

  // Line 18: correctness check against an independent method (the artifact
  // compares with cuSPARSE; we use the row-row hash SpGEMM).
  try {
    const Csr<double> expected = spgemm_hash(a, b);
    const CompareResult check = compare(expected, result.c, {1e-8, 1e-300, false, 0.0});
    std::cout << "check vs independent SpGEMM: " << (check.equal ? "PASS" : "FAIL")
              << (check.equal ? "" : (" (" + check.message + ")")) << "\n";
    return check.equal ? 0 : 1;
  } catch (const std::exception&) {
    std::cout << "check vs independent SpGEMM: SKIPPED (comparator out of memory)\n";
    return 0;
  }
}
