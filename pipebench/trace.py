#!/usr/bin/env python3
"""Produces a traced run and reads it back beside an untraced run.

    python3 pipebench/trace.py --workload W --seed N [--seconds S]

Runs the workload once with --trace 0 and once with --trace 1 on the same
seed. The traced run writes .bench_build/traces/<workload>-s<seed>.json:
every span (Chrome trace-event format; open it in Perfetto or
chrome://tracing) plus a "pipebench" object with the per-layer summary
(calls, total and self time) and the end-to-end metrics the traced run
measured on the same timed operations as the untraced one. This script
prints the per-layer summary, the per-layer metrics, and the tracing
overhead: each end-to-end metric of the traced run against the
untraced run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"trace.py: run failed: {' '.join(cmd)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    plain = run(args.workload, args.seed, args.seconds, "0")
    traced = run(args.workload, args.seed, args.seconds, "1")
    path = os.path.join(ROOT, ".bench_build", "traces",
                        f"{args.workload}-s{args.seed}.json")
    with open(path) as f:
        summary = json.load(f)["pipebench"]

    print(f"trace: {path} ({summary['spans']} spans, "
          f"{summary['spans_not_written']} counted but not written)")
    print(f"\n{'layer':<12}{'calls':>10}{'total_ms':>14}{'self_ms':>14}")
    for layer, s in sorted(summary["layers"].items()):
        print(f"{layer:<12}{s['calls']:>10}{s['total_ms']:>14.1f}"
              f"{s['self_ms']:>14.1f}")
    print(f"\n{'per-layer metric':<34}{'value':>16}  unit")
    for name, m in traced["metrics"].items():
        print(f"{name:<34}{m['value']:>16.6g}  {m['unit']}")
    print(f"\n{'end-to-end metric':<22}{'untraced':>14}{'traced':>14}"
          f"{'overhead':>10}")
    for m in spec["end_to_end"]:
        name = m["name"]
        a = plain["metrics"][name]["value"]
        b = summary["metrics"][name]["value"]
        # Overhead as the share by which tracing made the metric worse.
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        print(f"{name:<22}{a:>14.6g}{b:>14.6g}{worse:>+10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
