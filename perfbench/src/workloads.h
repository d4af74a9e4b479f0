// The three benchmark workloads and the result they report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
};

/// Names accepted by run_workload, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Run one workload end to end (inputs, verification, set-up, measured
/// phase) and return its end-to-end metrics, or its per-layer metrics when
/// args.trace is set. Progress and the run environment go to stdout.
RunResult run_workload(const RunArgs& args);

}  // namespace perfbench
