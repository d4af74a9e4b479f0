#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the TileSpGEMM library.

    python3 perfbench/run.py --workload fem_blocks --seed 1 --seconds 30 --trace 0

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the library from src/ plus the tsg_perfbench
binary) into .bench_build/perfbench; later calls rebuild incrementally. The
binary's last stdout line is the JSON result; build output goes to stderr.

The environment is normalised before tsg_perfbench starts: TSG_* knobs and
OpenMP settings are dropped, so a stray TSG_SIMD or OMP_PROC_BIND cannot
change what is measured, and OMP_NUM_THREADS is set to the per-worker team
size the service workload needs (OpenMP fixes it at process start).
"""
import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "tsg_perfbench"
OMP_THREADS_PER_WORKER = "2"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}; run from a full checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "tsg_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("TSG_", "OMP_", "GOMP_"))}
    env["OMP_NUM_THREADS"] = OMP_THREADS_PER_WORKER
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"tsg_perfbench did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
