#!/usr/bin/env bash
# CI gate, split into individually callable stages so the CI matrix can run
# them as separate jobs and a developer can re-run just the one that failed:
#
#   scripts/check.sh                 # every stage, in order
#   scripts/check.sh lint regular    # just these stages
#   scripts/check.sh help            # list stages
#
# Stages:
#   hygiene       no tracked build trees / run outputs (PR 5)
#   lint          tsg_lint over the whole tree + optional clang-tidy (PR 4)
#   asan          ASan+UBSan build: full suite, fault injection, obs (PR 2/3)
#   regular       regular build: full suite, robustness label, budget stress
#   tsan          ThreadSanitizer build, `-L analysis` label (PR 4)
#   service       service-layer suite under ASan + TSan, replay smoke (PR 6)
#   chaos         seeded chaos replay under ASan + TSan service label (PR 7)
#   obs_overhead  tracing disabled-overhead gate on the Fig. 10 bench (PR 3)
#   bench_regress bench-regression gate vs BENCH_baseline.json (PR 5)
#   simd          kernel A/B suites under every forced TSG_SIMD level (ISSUE 10)
#   perfbench     one-second run of every end-to-end benchmark workload
#
# Environment knobs:
#   TSG_CTEST_ARGS       extra arguments appended to the full-suite ctest runs
#   TSG_OBS_GATE_REPS    reps for the obs overhead gate (default 3)
#   TSG_OBS_OVERHEAD_PCT obs overhead tolerance in percent (default 10)
#   TSG_BENCH_REPS       reps per kernel for the regression harness (default 7)
#   TSG_BENCH_SCALE      suite size multiplier for the harness (default 1.0)
#   TSG_BENCH_TOLERANCE  per-kernel regression tolerance (default 0.15)
#   TSG_BENCH_SPEEDUP    step2 packed-vs-scalar median gate (default 1.2)
#   TSG_CHAOS_SEED       seed for the chaos replay stage (default 7)
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

JOBS="$(nproc 2>/dev/null || echo 4)"
CTEST_ARGS=()
if [ -n "${TSG_CTEST_ARGS:-}" ]; then
  read -r -a CTEST_ARGS <<< "${TSG_CTEST_ARGS}"
fi

stage_hygiene() {
  echo "=== hygiene: no tracked build trees or run outputs ==="
  # `build*/` and `results/` are .gitignore'd; anything from them that is
  # nevertheless in the index was force-added (or predates the ignore) and
  # bloats every clone. `git ls-files` sees the index, not the worktree.
  local tracked
  tracked="$(git ls-files -- 'build*/**' 'results/**')"
  if [ -n "${tracked}" ]; then
    echo "error: build/run artifacts are tracked in git:" >&2
    echo "${tracked}" | head -20 >&2
    echo "fix: git rm -r --cached <dir>  (and keep .gitignore covering it)" >&2
    return 1
  fi
  echo "hygiene: clean"
}

stage_lint() {
  echo "=== static analysis: tsg_lint over the whole tree ==="
  # Fail fast (ISSUE 4/9): the project-invariant lint is seconds to build and
  # run, so it gates before the expensive sanitizer builds. Exit 1 here means
  # a rule fired without a `// tsg-lint: allow(...)` rationale and without a
  # lint_baseline.json budget covering it.
  cmake -B build -S .
  cmake --build build --target tsg_lint -j "${JOBS}"
  mkdir -p results
  ./build/tsg_lint --jobs="${JOBS}" \
    --diff-baseline --baseline=lint_baseline.json \
    --sarif=results/tsg_lint.sarif --dot=results/include_graph.dot \
    --graph-json=results/include_graph.json \
    src tools tests bench

  echo "=== static analysis: baseline canary (the gate must be able to fail) ==="
  # Prove the diff-baseline path actually rejects a fresh finding: lint a file
  # with a known violation and require exit 1. A gate that cannot go red
  # (because the baseline parser silently absorbed everything, say) is worse
  # than no gate.
  local canary
  canary="$(mktemp -t tsg_canary_XXXX.cpp)"
  printf 'void f() { rand(); }\n' > "${canary}"
  if ./build/tsg_lint --diff-baseline --baseline=lint_baseline.json \
      src tools tests bench "${canary}" >/dev/null 2>&1; then
    rm -f "${canary}"
    echo "lint: canary violation was NOT reported — the gate is broken" >&2
    return 1
  fi
  rm -f "${canary}"
  echo "lint: canary rejected as expected"

  echo "=== static analysis: header self-containment ==="
  scripts/check_headers.sh

  # Optional depth on machines that have LLVM: the curated .clang-tidy
  # profile (no-op on the gcc-only reference image; CI pins a version and
  # sets TSG_TIDY_REQUIRE=1 so the job fails loudly if the pin breaks).
  scripts/run_clang_tidy.sh build
}

stage_asan() {
  echo "=== sanitized build (ASan+UBSan) ==="
  cmake -B build-asan -S . -DTSG_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "${JOBS}"
  # Poisoned allocations: every fresh heap block starts as 0xbe bytes, not
  # just its first 4 KB (ASan's default), so a buffer read before it is
  # written, e.g. one that relied on a resize() zero-fill that the tracked
  # allocator no longer does, breaks a bit-identity test instead of passing.
  ASAN_OPTIONS="${ASAN_OPTIONS:+${ASAN_OPTIONS}:}max_malloc_fill_size=2147483647" \
    ctest --test-dir build-asan --output-on-failure -j "${JOBS}" "${CTEST_ARGS[@]}"

  echo "=== robustness: fault injection under ASan ==="
  # Injected bad_alloc at every allocation site: ASan proves the unwind path
  # releases everything the aborted run had staged.
  ctest --test-dir build-asan --output-on-failure -R test_fault_injection

  echo "=== observability: trace/metrics under ASan (tracing enabled) ==="
  # The obs suite drives the per-thread rings from concurrent emitters; with
  # TSG_TRACE=1 the context tests also run fully instrumented. Any data race
  # or lifetime bug on the lock-free emit path is a sanitizer report here.
  TSG_TRACE=1 TSG_METRICS=1 ctest --test-dir build-asan --output-on-failure -L obs
  TSG_TRACE=1 TSG_METRICS=1 ./build-asan/tests/test_spgemm_context --gtest_brief=1
}

stage_regular() {
  echo "=== regular build ==="
  cmake -B build -S .
  cmake --build build -j "${JOBS}"
  ctest --test-dir build --output-on-failure -j "${JOBS}" "${CTEST_ARGS[@]}"

  echo "=== robustness: labeled suite + budget stress ==="
  # The labeled robustness surface (Status layer, loader hardening, budget
  # degradation, fault plans) in one pass...
  ctest --test-dir build --output-on-failure -L robustness
  # ...and the budget-stress pass: a 1 MB budget over the context sweep forces
  # chunked execution on every case big enough to matter, and the bit-identity
  # assertions must still hold. (test_integration and baseline binaries are
  # excluded on purpose: the row-row baselines legitimately fail at 1 MB.)
  TSG_DEVICE_MEM_MB=1 ./build/tests/test_spgemm_context --gtest_brief=1
  TSG_DEVICE_MEM_MB=1 ./build/tests/test_fault_injection --gtest_brief=1
}

stage_tsan() {
  echo "=== thread sanitizer: analysis label on the std::thread backend ==="
  # TSG_TSAN forces TSG_PARALLEL_STD: TSan cannot see libgomp's futex
  # barriers, so the OpenMP backend would drown the report in false races
  # (and a blanket libgomp suppression would mask real ones). The std backend
  # synchronises only through TSan-instrumented primitives, so `ctest -L
  # analysis` is signal-only; scripts/tsan.supp holds the (rationale-carrying)
  # exceptions and is wired in via each test's TSAN_OPTIONS property.
  cmake -B build-tsan -S . -DTSG_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "${JOBS}"
  ctest --test-dir build-tsan --output-on-failure -L analysis
}

stage_service() {
  echo "=== service layer: queue/admission/shutdown under ASan and TSan ==="
  # The service suite runs in the full ASan/TSan passes too (it carries the
  # `service` and `analysis` labels); this stage is the focused re-run for
  # service-layer changes plus the replay smoke that the full passes skip.
  cmake -B build-asan -S . -DTSG_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "${JOBS}" --target test_service
  ctest --test-dir build-asan --output-on-failure -L service
  cmake -B build-tsan -S . -DTSG_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "${JOBS}" --target test_service
  ctest --test-dir build-tsan --output-on-failure -L service

  echo "=== service replay: open-loop arrivals under an undersized budget ==="
  # Every request must end admitted, degraded (bit-identical chunked run) or
  # structurally rejected — the bench exits nonzero on any abort or on a
  # failed future while degradation is enabled.
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}" --target bench_service_replay
  mkdir -p results
  ./build/bench/bench_service_replay --requests 24 --rate 400 --workers 2 \
    --queue-cap 8 --budget-mb 8 --metrics results/service_replay_metrics.json
}

stage_chaos() {
  echo "=== chaos: seeded fault replay of the request lifecycle (PR 7) ==="
  # The chaos plan below exercises every lifecycle edge at once: pop-side
  # latency (watchdog pressure + queue wait), forced cancels, tight injected
  # deadlines, and seeded allocation faults that the per-request retry
  # budget must absorb. Everything is a pure function of the seed, so a
  # failure is replayable verbatim with the echoed command line.
  local seed="${TSG_CHAOS_SEED:-7}"
  local spec='latency:site=pop,p=0.2,ms=5;cancel:p=0.15;deadline:p=0.1,ms=1;alloc:rate=0.05'
  # The PR-8 observability artifacts ride along: a request-id-tagged Perfetto
  # trace, a Prometheus snapshot of the final registry, and — on any outcome
  # the armed plan does not explain, or a fatal signal — a flight_*.json dump
  # in results/. CI uploads all of them with the metrics JSON.
  local args=(--requests 48 --rate 400 --workers 2 --queue-cap 8 --budget-mb 8
              --chaos "${spec}" --seed "${seed}" --timeout-ms 2000 --retries 2
              --stuck-ms 2000 --trace results/chaos_replay_trace.json
              --prom results/chaos_prom.txt --flight-dir results)
  run_chaos_replay() {  # $1 = bench binary
    if ! "$1" "${args[@]}" --metrics results/chaos_replay_metrics.json; then
      echo "chaos: FAILED — reproduce with:" >&2
      echo "  $1 ${args[*]}" >&2
      return 1
    fi
  }
  mkdir -p results

  # ASan first: the interesting chaos bugs are lifetime bugs (a poisoned
  # future's promise freed twice, an evicted request's workspace leaked).
  cmake -B build-asan -S . -DTSG_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "${JOBS}" --target bench_service_replay
  run_chaos_replay ./build-asan/bench/bench_service_replay

  # Then TSan on the std::thread backend: watchdog-vs-worker promise races,
  # retry bookkeeping, and the cancellation fast path are all cross-thread
  # edges. The service label re-runs the lifecycle unit tests under the
  # same build for free.
  cmake -B build-tsan -S . -DTSG_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "${JOBS}" --target bench_service_replay --target test_service
  TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan.supp:halt_on_error=1" \
    run_chaos_replay ./build-tsan/bench/bench_service_replay
  ctest --test-dir build-tsan --output-on-failure -L service

  # The offline per-request renderer must parse what the replay just wrote —
  # a cheap end-to-end check that the trace format and the report tool agree.
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}" --target tsg_obs_report
  ./build/tools/tsg_obs_report results/chaos_replay_trace.json >/dev/null
}

stage_obs_overhead() {
  echo "=== observability: disabled-overhead gate (Fig. 10 bench) ==="
  # Observability compiled in but runtime-disabled must be free: compare the
  # Fig. 10 breakdown bench (regular build, TSG_TRACING/TSG_LOGGING=ON by
  # default) against a build with both compiled out. The paper-facing target
  # is < 2 % overhead; the gate defaults to TSG_OBS_OVERHEAD_PCT=10 so
  # scheduler noise on shared CI hosts does not flake the run.
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}" --target bench_fig10_breakdown
  cmake -B build-noobs -S . -DTSG_TRACING=OFF -DTSG_LOGGING=OFF >/dev/null
  cmake --build build-noobs -j "${JOBS}" --target bench_fig10_breakdown
  local reps="${TSG_OBS_GATE_REPS:-3}"
  # Sum the best-of-reps "total ms" CSV column over the 18-matrix sweep.
  sum_total_ms() {
    "$1" --csv --reps "${reps}" | awk -F, 'NF==7 && $6+0==$6 {s+=$6} END {printf "%.3f", s}'
  }
  local with_ms without_ms
  with_ms="$(sum_total_ms ./build/bench/bench_fig10_breakdown)"
  without_ms="$(sum_total_ms ./build-noobs/bench/bench_fig10_breakdown)"
  awk -v a="${with_ms}" -v b="${without_ms}" -v tol="${TSG_OBS_OVERHEAD_PCT:-10}" 'BEGIN {
    pct = (b > 0) ? 100.0 * (a - b) / b : 0.0;
    printf "tracing compiled-in-but-disabled: %s ms, no-obs build: %s ms (%+.2f%%, gate %s%%)\n",
           a, b, pct, tol;
    exit (pct > tol) ? 1 : 0;
  }'
}

stage_bench_regress() {
  echo "=== bench regression: hot-path kernels vs BENCH_baseline.json ==="
  # Medians over the step2-dominated synthetic suite (see
  # docs/PERFORMANCE.md): fails on any step2/step3 kernel more than
  # TSG_BENCH_TOLERANCE slower than the committed baseline, or if the
  # word-packed symbolic kernel loses its speedup over the scalar reference.
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}" --target bench_micro_kernels
  mkdir -p results
  # One retry at double the reps: a shared host's load spike can push a
  # ~0.5 ms kernel past 15% in a single pass; a genuine regression fails
  # both passes.
  local reps="${TSG_BENCH_REPS:-7}"
  local first_pass=results/bench_regress_first_pass.log
  if ! ./build/bench/bench_micro_kernels --regress \
      --reps "${reps}" \
      --compare BENCH_baseline.json \
      --assert-speedup "${TSG_BENCH_SPEEDUP:-1.2}" \
      --emit results/bench_regress_current.json > "${first_pass}" 2>&1; then
    cat "${first_pass}"
    # Name the offenders before burning another run: the retry exists for
    # load-spike flakes, and "which kernel, how far over" is what decides
    # whether to wait for it or go fix the code.
    echo "bench_regress: gate failed once; offending kernels:"
    grep -E "REGRESSION|speedup .* below|missing" "${first_pass}" || true
    echo "bench_regress: retrying with $((reps * 2)) reps"
    ./build/bench/bench_micro_kernels --regress \
      --reps "$((reps * 2))" \
      --compare BENCH_baseline.json \
      --assert-speedup "${TSG_BENCH_SPEEDUP:-1.2}" \
      --emit results/bench_regress_current.json
  else
    cat "${first_pass}"
  fi
}

stage_simd() {
  echo "=== simd: kernel A/B suites under every forced dispatch level ==="
  # One build, then the bit-identity suites (test_kernel_ab pits the packed
  # pipeline against the scalar oracle; test_simd_dispatch A/Bs every
  # primitive and the fused bins; test_spgemm_options and test_semiring
  # check the option grid and the semiring pass against references)
  # re-run with TSG_SIMD forcing each level. Levels the host cannot execute
  # are skipped with a notice — the CI job is green on any x86-64,
  # exhaustive on AVX-512 hardware.
  local suites=(test_kernel_ab test_simd_dispatch test_spgemm_options test_semiring)
  cmake -B build -S . >/dev/null
  local targets=()
  local t
  for t in "${suites[@]}" bench_micro_kernels; do targets+=(--target "${t}"); done
  cmake --build build -j "${JOBS}" "${targets[@]}"
  local available
  available="$(./build/bench/bench_micro_kernels --simd-levels)"
  echo "simd: levels available on this host: ${available//$'\n'/ }"
  local lvl
  for lvl in scalar swar avx2 avx512; do
    if ! grep -qx "${lvl}" <<< "${available}"; then
      echo "simd: SKIP ${lvl} (not available on this host)"
      continue
    fi
    echo "--- TSG_SIMD=${lvl} ---"
    for t in "${suites[@]}"; do
      TSG_SIMD="${lvl}" "./build/tests/${t}" --gtest_brief=1
    done
  done
}

stage_perfbench() {
  echo "=== perfbench: one-second run of every end-to-end benchmark workload ==="
  # perfbench/run.py checks every op's output bit for bit against the result
  # it verified at set-up and exits nonzero on any mismatch, so a wrong
  # result fails here on every change instead of only in a full 30 s
  # benchmark run. The timings of so short a run mean nothing and are not
  # gated.
  local w
  for w in fem_blocks graph_sparse service_mix; do
    echo "--- ${w} ---"
    python3 perfbench/run.py --workload "${w}" --seed 1 --seconds 1 --trace 0
  done
}

usage() {
  echo "usage: scripts/check.sh [stage...]"
  echo "stages: hygiene lint asan regular tsan service chaos obs_overhead bench_regress simd"
  echo "        perfbench"
  echo "default order: all of the above"
}

main() {
  local stages=("$@")
  if [ "${#stages[@]}" -eq 0 ]; then
    stages=(hygiene lint asan regular tsan service chaos obs_overhead bench_regress simd
            perfbench)
  fi
  local s
  for s in "${stages[@]}"; do
    case "${s}" in
      hygiene|lint|asan|regular|tsan|service|chaos|obs_overhead|bench_regress|simd|perfbench)
        "stage_${s}"
        ;;
      help|-h|--help)
        usage
        return 0
        ;;
      *)
        echo "check.sh: unknown stage '${s}'" >&2
        usage >&2
        return 2
        ;;
    esac
  done
  echo "check.sh: all green (${stages[*]})"
}

main "$@"
