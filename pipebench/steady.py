#!/usr/bin/env python3
"""Steadiness check: runs every workload repeatedly and reports spreads.

    python3 pipebench/steady.py --seed N [--runs 10] [--seconds S]
        [--workloads tune_cold,serve_drift]

Run i uses seed N+i. Within run i the workloads go in BENCHMARK.json
order when i is even and in reverse order when i is odd, so no workload
always runs on a machine warmed by the same neighbour. For each workload
and end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median and
the metric's bound from BENCHMARK.json; a spread at or above a third of
its bound is flagged. It also prints each workload's failed share.
Exits 1 if any run failed or any spread other than setup_s reaches its
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in workloads}
    ok = True
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = run_once(w, args.seed + i, args.seconds)
            if r is None:
                print(f"{w} seed {args.seed + i}: run failed", flush=True)
                ok = False
                continue
            results[w].append(r)
            print(f"{w} seed {args.seed + i}: attempted {r['attempted']} "
                  f"failed {r['failed']}", file=sys.stderr, flush=True)

    for w in workloads:
        runs = results[w]
        if len(runs) < 2:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n== {w}: {len(runs)} runs, failed share {shares}")
        print(f"{'metric':<22}{'unit':>10}{'median':>16}{'Q1':>14}{'Q3':>14}"
              f"{'spread':>9}{'bound':>7}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread >= bound / 3:
                flag = "  <-- above a third of its bound"
            if spread > bound and name != "setup_s":
                flag = "  <-- ABOVE BOUND"
                ok = False
            unit = runs[0]["metrics"][name]["unit"]
            print(f"{name:<22}{unit:>10}{med:>16.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.4f}{bound:>7.2f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
