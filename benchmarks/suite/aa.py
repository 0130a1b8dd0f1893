#!/usr/bin/env python3
"""A/A calibration: does the suite agree with itself within its own bounds?

    python3 benchmarks/suite/aa.py --runs 10 --record

Runs the end-to-end pass of every workload as two interleaved sets (A, B,
A, B, ...) on this checkout, each pair of runs on another seed, exactly as
the gate does with a parent commit and a change.  For every end-to-end
metric and workload it prints each set's median, quartiles
(``statistics.quantiles(n=4)``), quartile distance and range as shares of
the median, and the gap between the two medians against the metric's
bound.  ``--record`` writes the observation, with the host it was made on,
to ``calibration.json`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run as suite

CALIBRATION = os.path.join(suite.HERE, "calibration.json")


def one_run(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(suite.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result, nothing to calibrate")
    return {name: m["value"] for name, m in result["metrics"].items()}


def describe(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / med,
            "range_frac": (max(values) - min(values)) / med}


def host() -> dict:
    model = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    commit = subprocess.run(["git", "-C", suite.ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip() or "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "kernel": platform.release(), "python": platform.python_version(),
            "commit": commit, "backend": "process"}


def main(argv=None) -> int:
    spec = suite.declared()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set (at least 5)")
    ap.add_argument("--seed", type=int, default=suite.DEFAULT_SEED, help="first seed")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", nargs="+", default=list(suite.WORKLOAD_NAMES),
                    choices=suite.WORKLOAD_NAMES)
    ap.add_argument("--record", action="store_true", help=f"write {CALIBRATION}")
    args = ap.parse_args(argv)
    if args.runs < 5:
        ap.error("--runs must be at least 5")

    samples = {w: {"A": [], "B": []} for w in args.workloads}
    started = time.time()
    for i in range(args.runs):
        for workload in args.workloads:
            for label in ("A", "B"):
                samples[workload][label].append(one_run(workload, args.seed + i, args.seconds))
        print(f"pair {i + 1}/{args.runs} done after {time.time() - started:.0f} s",
              file=sys.stderr)

    observed, misses = {}, []
    print(f"{'workload':<14}{'metric':<16}{'set':<4}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'iqr/med':>9}{'range/med':>10}{'gap':>8}{'bound':>7}")
    for workload in args.workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = {label: describe([s[name] for s in runs])
                    for label, runs in samples[workload].items()}
            # every end-to-end metric is lower-is-better: a positive gap is B worse than A
            gap = (sets["B"]["median"] - sets["A"]["median"]) / sets["A"]["median"]
            observed.setdefault(workload, {})[name] = dict(sets, gap=gap, bound=bound)
            for label, d in sets.items():
                print(f"{workload:<14}{name:<16}{label:<4}{d['median']:>12.5g}{d['q1']:>12.5g}"
                      f"{d['q3']:>12.5g}{d['iqr_frac']:>9.3f}{d['range_frac']:>10.3f}"
                      f"{gap:>8.3f}{bound:>7.2f}")
                if name != "setup_s" and d["iqr_frac"] > bound:
                    misses.append(f"{workload} {name} set {label}: quartile distance "
                                  f"{d['iqr_frac']:.3f} of the median exceeds bound {bound}")
            if abs(gap) > bound / 2:
                misses.append(f"{workload} {name}: sets differ by {gap:+.3f}, "
                              f"more than half of bound {bound}")
    for miss in misses:
        print("MISS", miss)
    if args.record:
        with open(CALIBRATION, "w") as fh:
            json.dump({"host": host(), "runs_per_set": args.runs, "first_seed": args.seed,
                       "run_seconds": args.seconds, "min_repeats": 3,
                       "date": time.strftime("%Y-%m-%d"), "misses": misses,
                       "observed": observed, "samples": samples}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
