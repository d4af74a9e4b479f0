// Figure 12: CSR -> tiled format conversion time compared with the runtime
// of a single TileSpGEMM, across the benchmark suite ordered by flops. The
// paper's claim: conversion generally costs no more than ten SpGEMMs, and
// amortises to zero in applications (AMG) that chain products.
#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "core/spgemm_context.h"
#include "gen/suite.h"
#include "matrix/stats.h"

int main(int argc, char** argv) {
  using namespace tsg;
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);

  bench::print_header("Fig. 12", "format conversion time vs single TileSpGEMM runtime");
  Table table({"matrix", "log10 flops", "convert ms", "spgemm ms", "convert/spgemm"});

  int over_10x = 0, total = 0;
  SpgemmContext ctx;  // one context for the whole sweep: pooled workspaces
  for (const auto& m : gen::fig6_suite()) {
    // Both times come from one CSR request's own instrumentation: the
    // operand conversion is its `convert_ms`, the multiply its core_ms().
    double convert_ms = 1e300, spgemm_ms = 1e300;
    for (int rep = 0; rep < args.effective_reps(); ++rep) {
      const SpgemmResult<Csr<double>> res =
          ctx.try_run(Request<Csr<double>>{&m.a, &m.a}).value();
      convert_ms = std::min(convert_ms, res.timings.convert_ms);
      spgemm_ms = std::min(spgemm_ms, res.timings.core_ms());
    }
    const double flops = static_cast<double>(spgemm_flops(m.a, m.a));
    const double ratio = spgemm_ms > 0 ? convert_ms / spgemm_ms : 0.0;
    table.add_row({m.name, fmt(std::log10(std::max(flops, 1.0)), 2), fmt(convert_ms, 3),
                   fmt(spgemm_ms, 3), fmt(ratio, 2)});
    if (ratio > 10.0) ++over_10x;
    ++total;
  }
  bench::emit(table, args);
  std::cout << over_10x << "/" << total
            << " matrices need more than 10 SpGEMM runtimes to convert\n";
  std::cout << "paper shape: conversion in general does not exceed ten single\n"
               "SpGEMM operations.\n";
  args.write_metrics();
  return 0;
}
