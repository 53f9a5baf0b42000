#!/usr/bin/env python3
"""Builds and runs the serving benchmark.

    python3 perfbench/run.py --workload <ingest|query|mixed> --seed <n> \
        --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds the library and the
benchmark from the checkout's sources into .bench_build/perfbench (Release,
incremental), runs the self-test of the benchmark's statistics, then runs
one workload. The last line of standard output is the result object:
{"correct", "attempted", "failed", "metrics"}. Build output goes to
standard error. Exits non-zero, without a result, if the sources are
missing, the build or the self-test fails, a correctness check fails, or
the run outlives its deadline.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
WORK_DIR = BUILD_ROOT / "perfbench-run"
WORKLOADS = ("ingest", "query", "mixed")
BUILD_TIMEOUT_S = 840
# The benchmark's own watchdog ends a run at 150 s; this is the backstop.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not (ROOT / "src" / "core" / "ldphh.h").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD_ROOT / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            run_quiet(cmd, BUILD_TIMEOUT_S)
        run_quiet(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                  BUILD_TIMEOUT_S)
    run_quiet([str(BUILD_DIR / "perfbench_stats_test")], 60)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(WORK_DIR)]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run outlived {RUN_TIMEOUT_S} s and was killed", 3)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
