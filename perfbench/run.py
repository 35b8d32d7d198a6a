#!/usr/bin/env python3
"""Run one workload of the rlb benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout.  It builds the harness
(perfbench/CMakeLists.txt) from the checkout's own sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload, checks the outputs, prints every metric with its unit and the
host's provenance, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end ones, with
--trace 1 its per_layer ones.  Exits 1 when a correctness check failed and
2 when the benchmark could not run at all.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(tree):
    """Configure (once) and build the harness; build output goes to stderr."""
    if not (ROOT / "src" / "engine" / "engine.hpp").is_file():
        fail(f"the rlb sources are missing from {ROOT / 'src'}")
    tmp = tree / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (tree / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(tree),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(tree), "--target", "rlb_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {step[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step[:2])} exited {done.returncode}")
    return tree / "rlb_perfbench"


def git_provenance():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
            return "none (not a git checkout)"
        dirty = subprocess.run(["git", "-C", str(ROOT), "status",
                                "--porcelain"],
                               capture_output=True, text=True, timeout=10)
        return lines[1] + (" dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not runnable)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if not args.seconds > 0:
        fail("--seconds must be positive")
    traced = args.trace == "1"
    gated = spec["per_layer"] if traced else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    binary = build(build_dir())
    started = time.monotonic()
    try:
        done = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed",
             str(args.seed % 2**64), "--seconds", repr(args.seconds), "--trace",
             args.trace],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the harness did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0 or not done.stdout.strip():
        fail(f"the harness exited {done.returncode} without a report")
    try:
        report = json.loads(done.stdout.strip().splitlines()[-1])
    except ValueError as e:
        fail(f"the harness's report is not JSON: {e}")

    measured = report["metrics"]
    unknown = sorted(set(measured) - set(units))
    if unknown:
        fail(f"the harness reported metrics BENCHMARK.json does not name: "
             f"{unknown}")
    missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in measured]
    if missing:
        fail(f"the harness did not report {missing}")
    # A per-layer metric of a layer this workload bypasses reads 0.
    bypassed = [m["name"] for m in spec["per_layer"] if m["name"] not in measured]
    if traced:
        for name in bypassed:
            measured[name] = 0.0
    gated_names = [m["name"] for m in gated]
    not_finite = [name for name in gated_names
                  if measured[name] is None or not math.isfinite(measured[name])]
    if not_finite:
        fail(f"{not_finite} have no finite value: the percentile falls "
             f"among refused or unanswered requests")
    if report["attempted"] < 1:
        fail("the run attempted nothing")

    info = report["info"]
    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}  harness wall "
          f"{time.monotonic() - started:.1f} s")
    print(f"host: nproc {info.get('nproc')}  loadavg {info.get('loadavg')}  "
          f"git {git_provenance()}")
    print("system: " + "  ".join(f"{k} {v}" for k, v in sorted(info.items())
                                 if k not in ("nproc", "loadavg", "workload",
                                              "seed")))
    print("counts: " + "  ".join(f"{k} {v}" for k, v in
                                 sorted(report["counts"].items())))
    attempted, failed = report["attempted"], report["failed"]
    print(f"fail_share {failed / attempted if attempted else 0:.6g} "
          f"({failed} refused, errored or unanswered of {attempted})")
    for name in sorted(measured):
        tag = "  (bypassed)" if traced and name in bypassed else ""
        mark = "*" if name in gated_names else " "
        value = measured[name]
        shown = "none" if value is None else f"{value:.6g}"
        print(f" {mark} {name:34s} {shown:>16s} {units[name]}{tag}")
    for violation in report["violations"]:
        print(f"VIOLATION: {violation}")

    result = {
        "correct": not report["violations"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in gated},
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
