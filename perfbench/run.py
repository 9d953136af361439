#!/usr/bin/env python3
"""Builds and runs the wsk serving benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload topk_50k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first run configures and compiles perfbench/ (which compiles the library
sources under src/) into .bench_build/ with CMake; later runs only re-check
the build. Build output goes to stderr, so the last line of stdout is the
benchmark binary's JSON result. BENCHMARK.json lists the workloads and
metrics; perfbench/README.md explains them.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# A time limit for one measured run, under the 180 s any run must finish in.
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target)


def build(out, env):
    """Configures (once) and builds the benchmark binary; returns its path."""
    cmake_dir = os.path.join(out, "cmake")
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
        subprocess.run(
            ["cmake", "--build", cmake_dir, "-j", "4",
             "--target", "wsk_perfbench"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return os.path.join(cmake_dir, "wsk_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    if shutil.which("cmake") is None:
        print("cmake not found", file=sys.stderr)
        return 2

    out = build_dir()
    # Keep the temporary files of the compiler and the benchmark in the
    # checkout.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        binary = build(out, env)
    except subprocess.CalledProcessError as e:
        print(f"benchmark build failed: {e}", file=sys.stderr)
        return 2

    work_dir = os.path.join(out, "work", f"run-{os.getpid()}")
    if args.selftest:
        cmd = [binary, "--selftest", "--work-dir", work_dir]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
        return proc.returncode
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
