// Machine-readable bench-regression harness (the `--regress` mode of
// bench_micro_kernels).
//
// Measures the hot-path kernels — step-2 symbolic (word-packed vs the
// scalar reference level, plus each vector level), step-3 numeric per
// level, and the whole engine's core_ms at the AVX-512 level the default
// config runs on such a host — as per-kernel medians over a
// deterministic step2-dominated synthetic suite (src/gen), and emits /
// compares a flat JSON so CI can gate on regressions:
//
//   bench_micro_kernels --regress --emit BENCH_baseline.json
//   bench_micro_kernels --regress --compare BENCH_baseline.json
//       --tolerance 0.15 --assert-speedup 1.2 [--emit current.json]
//
// `--compare` fails (exit 1) when any step2/step3 kernel's median is more
// than `tolerance` slower than the committed baseline; `--assert-speedup`
// fails when the suite-median step2 speedup of the word-packed kernel over
// the scalar reference drops below the given ratio. Knobs: --reps N
// (TSG_BENCH_REPS), --scale S (TSG_BENCH_SCALE) shrink or grow the suite
// for CI wall-time budgets.
#pragma once

namespace tsg::bench {

/// Entry point of the regression harness; returns the process exit code.
int run_regress(int argc, char** argv);

}  // namespace tsg::bench
