#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark from a pinum checkout.

    python3 pipebench/run.py --workload tune_cold|serve_drift \
        --seed N --seconds S --trace 0|1

Run from the checkout root. The first run configures and builds the
benchmark and the repo's libraries (Release) into .bench_build/; later
runs rebuild only what changed. The last line of standard output is the
benchmark's JSON result. With --trace 1 the span trace is written to
.bench_build/traces/<workload>-s<seed>.json. Exits non-zero, without a
result, when the checkout holds no pinum sources to build.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "pipebench")
WORKLOADS = ("tune_cold", "serve_drift")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark.

    Build output goes to .bench_build/pipebench-build.log; its tail is
    printed to stderr when a step fails.
    """
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"no {needed} at {ROOT}: not a pinum checkout, "
                "nothing to build")
            sys.exit(2)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # One build at a time per checkout.
    with open(os.path.join(BUILD_ROOT, "pipebench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "pipebench",
                      "-j", jobs])
        with open(os.path.join(BUILD_ROOT, "pipebench-build.log"), "w+") as out:
            for cmd in steps:
                done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
                if done.returncode != 0:
                    out.seek(0)
                    sys.stderr.write("".join(out.readlines()[-40:]))
                    log(f"build step failed: {' '.join(cmd)}")
                    sys.exit(1)
    return os.path.join(BUILD_DIR, "pipebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in (0, 60]")

    binary = build()
    work_dir = os.path.join(BUILD_ROOT, "work", str(os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir]
    if args.trace == "1":
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-s{args.seed}.json")]
    try:
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
            return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
