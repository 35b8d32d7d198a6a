#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report how much each
end-to-end metric spreads from run to run.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]

For every workload it runs perfbench/run.py once per seed (trace 0, the
BENCHMARK.json run_seconds) and prints, per metric, the median, the
quartiles and the quartile spread: (Q3 - Q1) / median, with Q1 and Q3 from
statistics.quantiles(values, n=4).  A metric whose spread exceeds its
bound cannot gate a change; one above a third of its bound is flagged as
not yet steady.  setup_s's spread is shown but not judged: only its
median is compared between sets of runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def quartile_spread(values):
    """(Q3 - Q1) / median of `values`; 0 when the median is 0."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def summarize(values, bound, judge_spread=True):
    """Median, quartiles, spread and verdict of one metric's run values.

    With judge_spread False the verdict is "median only": the metric's
    spread is not held to its bound."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = quartile_spread(values)
    if not judge_spread:
        verdict = "median only"
    elif spread > bound:
        verdict = "TOO WIDE"
    elif spread > bound / 3:
        verdict = "unsteady"
    else:
        verdict = "ok"
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "spread": spread,
            "bound": bound, "verdict": verdict}


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"run.py failed on {workload} seed {seed}:\n"
                 f"{done.stdout}{done.stderr}")
    return json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.seeds < 2:
        sys.exit("--seeds must be at least 2")

    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        attempted = failed = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, spec["run_seconds"])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: a correctness check failed")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            attempted += result["attempted"]
            failed += result["failed"]
            print(f"{workload} seed {seed}: failed={result['failed']} " + " ".join(
                f"{n}={result['metrics'][n]['value']:.5g}" for n in values),
                flush=True)
        print(f"\n{workload}: {args.seeds} runs, {failed} of {attempted} "
              f"operations failed")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}  verdict")
        for metric in spec["end_to_end"]:
            s = summarize(values[metric["name"]], metric["bound"],
                          judge_spread=metric["name"] != "setup_s")
            print(f"  {metric['name']:16s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:8.4f} {s['bound']:6.3f}  "
                  f"{s['verdict']}")
        print(flush=True)


if __name__ == "__main__":
    main()
