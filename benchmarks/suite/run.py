#!/usr/bin/env python3
"""One gated benchmark suite for the MR-MPI BLAST/SOM stack.

    python3 benchmarks/suite/run.py --seed N                 # all four workloads
    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/suite/run.py --smoke                  # whole suite, cut sizes

Every workload runs in two fresh child processes, one computing the serial
oracle and one measuring, whose BLAS thread counts are pinned before numpy
is imported and whose temp directory is a work directory inside the
checkout, removed at exit.  This parent never imports numpy: it starts the
children, waits for their whole process groups, sweeps ``/dev/shm`` for
segments their jobs left behind, counts the resource-tracker warnings on
their stderr, checks that every metric ``BENCHMARK.json`` declares was
emitted, and prints the result.  With ``--workload`` the last line of
stdout is one JSON object for the driver.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SPANS_DIR = os.path.join(ROOT, ".bench_out")

WORKLOAD_NAMES = ("blastn_batch", "mr_shuffle", "som_batch", "serve_paced")
DEFAULT_SEED = 2011
HELD_OUT_SEED = 7919  # never used while a change is being written
SMOKE_SECONDS = 1
INVOCATION_BUDGET = 170.0  # both children together; the driver allows 180 s
PINNED_ENV = {
    # one BLAS thread per rank: OpenBLAS otherwise runs two (CPU = 2x wall)
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    # glibc's allocator thresholds, fixed at their ceilings.  Left dynamic,
    # the order of frees decides whether a freed slab returns to the OS, and
    # one job on one seed peaked at 66, 80 or 88 MiB; fixed low (128 KiB)
    # every temporary is an mmap and a page-fault storm (+15-18 % wall);
    # fixed high, timings equal the default's and the peak repeats to 0.3 %.
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
}
TRACKER_WARNING = re.compile(r'resource_tracker\.py", line|resource_tracker:')


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ------------------------------------------------------------------ child


def child(args) -> int:
    """Oracle, then measurement, of one workload: each in its own fresh,
    pinned process (``--child oracle`` / ``--child measure``)."""
    import pickle

    import workloads  # imports numpy: only ever under the pinned environment

    # Layers the selected workload never enters are probed at smoke size, so
    # every per-layer row of a traced run is a live measurement; the selected
    # workload's own rows come last and win.
    work = os.path.join(args.work, args.child)
    passes = [workloads.WORKLOADS[name](args.seed, True, work, SMOKE_SECONDS)
              for name in WORKLOAD_NAMES if args.all_layers and name != args.workload]
    passes.append(workloads.WORKLOADS[args.workload](args.seed, args.smoke, work, args.seconds))
    oracle_path = os.path.join(args.work, "expected.pickle")
    if args.child == "oracle":
        with open(oracle_path, "wb") as fh:
            pickle.dump({w.name: w.oracle() for w in passes}, fh)
        return 0
    with open(oracle_path, "rb") as fh:  # written a moment ago by the oracle child
        expected = pickle.load(fh)
    for workload in passes:
        workload.expected = expected[workload.name]

    spans = []
    if args.trace:
        merged, attempted, failed = {}, 0, 0
        for workload in passes:
            rows, ops, bad, recorded = workload.traced()
            source = workload.name + (" smoke probe" if workload is not passes[-1] else "")
            merged.update({r["name"]: dict(r, source=source) for r in rows})
            attempted, failed = attempted + ops, failed + bad
            spans += recorded.rows
        rows = list(merged.values())
    else:
        rows, attempted, failed = passes[-1].untraced()
    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump({"rows": rows, "attempted": attempted, "failed": failed,
                   "spans": spans}, fh)
    return 0


# ----------------------------------------------------------------- parent


def group_alive(pgid: int) -> bool:
    """Whether any process of the group is still running.  Zombies have ended:
    an orphaned resource tracker waits a second or more for init to reap it."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                state, _ppid, pgrp = fh.read().rsplit(")", 1)[1].split()[:3]
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(pgrp) == pgid and state != "Z":
            return True
    return False


def wait_for_group(pgid: int, grace: float = 5.0) -> None:
    """Block until every process of the child's group has ended."""
    deadline = time.monotonic() + grace
    while group_alive(pgid):
        if time.monotonic() > deadline:
            os.killpg(pgid, signal.SIGKILL)
            deadline = float("inf")
        time.sleep(0.01)


def sweep_shm(pid: int) -> int:
    """Unlink and count shared-memory segments jobs of process ``pid`` left."""
    prefix = f"reprompi{pid}j"
    leaked = [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]
    for name in leaked:
        os.unlink(os.path.join("/dev/shm", name))
    return len(leaked)


def supervise(workload: str, seed: int, seconds: int, trace: bool, smoke: bool,
              all_layers: bool) -> dict | None:
    """Run one workload in its children; returns the result, None if one died."""
    work = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}-{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_MPI_")}
    env.update(PINNED_ENV, TMPDIR=work, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.abspath(__file__), "--work", work,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    cmd += ["--smoke"] if smoke else []
    cmd += ["--all-layers"] if all_layers else []
    log_path = os.path.join(work, "stderr.log")
    deadline = time.monotonic() + INVOCATION_BUDGET
    leaked = 0
    try:
        with open(log_path, "wb") as log:
            for role in ("oracle", "measure"):
                proc = subprocess.Popen(cmd + ["--child", role], env=env, stderr=log,
                                        stdout=log, start_new_session=True)
                try:
                    code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    os.killpg(proc.pid, signal.SIGKILL)
                    code = proc.wait()
                wait_for_group(proc.pid)
                leaked += sweep_shm(proc.pid)
                if code != 0:
                    break
        with open(log_path, errors="replace") as log:
            chatter = log.read()
        if code != 0:
            sys.stderr.write(chatter[-4000:])
            print(f"{workload}: child exited with status {code}", file=sys.stderr)
            return None
        with open(os.path.join(work, "result.json")) as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    warnings = sum(bool(TRACKER_WARNING.search(line)) for line in chatter.splitlines())
    result["rows"] += [
        {"name": name, "value": count, "median": count, "unit": "count", "n": 1, "spread": 0.0}
        for name, count in (("mpi.shm_leaked", leaked), ("mpi.tracker_warnings", warnings))]
    result["leaked"] = leaked
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        with open(os.path.join(SPANS_DIR, f"spans-{workload}-seed{seed}.json"), "w") as fh:
            json.dump(result.pop("spans"), fh)
    return result


def print_rows(workload: str, trace: bool, rows: list[dict]) -> None:
    print(f"\n== {workload} ({'traced' if trace else 'untraced'}) ==")
    print(f"{'metric':<36}{'value':>16} {'unit':<8}{'n':>5}{'median':>16}{'spread':>9}  source")
    for r in rows:
        print(f"{r['name']:<36}{r['value']:>16.6g} {r['unit']:<8}{r['n']:>5}"
              f"{r['median']:>16.6g}{r['spread']:>9.3f}  {r.get('source', workload)}")


def gate(workload: str, trace: bool, result: dict | None, spec: dict):
    """(metrics for the driver, problems found) of one supervised run."""
    if result is None:
        return None, [f"{workload}: no result"]
    wanted = spec["per_layer" if trace else "end_to_end"]
    by_name = {r["name"]: r for r in result["rows"]}
    problems = [f"{workload}: metric {m['name']} missing" for m in wanted
                if m["name"] not in by_name]
    problems += [f"{workload}: {m['name']} has unit {by_name[m['name']]['unit']}, "
                 f"declared {m['unit']}" for m in wanted
                 if m["name"] in by_name and by_name[m["name"]]["unit"] != m["unit"]]
    if result["failed"]:
        problems.append(f"{workload}: {result['failed']} of {result['attempted']} ops failed")
    if result["leaked"]:
        problems.append(f"{workload}: {result['leaked']} shared-memory segments leaked")
    metrics = {m["name"]: {"value": by_name[m["name"]]["value"], "unit": m["unit"]}
               for m in wanted if m["name"] in by_name}
    return metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="run one workload and end stdout with the driver's JSON line")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measured seconds per workload (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="with --workload: 0 = end-to-end pass, 1 = per-layer pass")
    ap.add_argument("--no-traced", action="store_true",
                    help="whole suite: skip the per-layer pass")
    ap.add_argument("--smoke", action="store_true", help="cut sizes; suite ends in < 20 s")
    ap.add_argument("--child", choices=("oracle", "measure"), help=argparse.SUPPRESS)
    ap.add_argument("--work", help=argparse.SUPPRESS)
    ap.add_argument("--all-layers", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child(args)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    if len(os.sched_getaffinity(0)) < 2:
        print("the suite keeps two ranks busy and needs at least 2 cores", file=sys.stderr)
        return 2
    spec = declared()
    seconds = SMOKE_SECONDS if args.smoke else (args.seconds or spec["run_seconds"])

    if args.workload:
        trace = bool(args.trace)
        result = supervise(args.workload, args.seed, seconds, trace, args.smoke, all_layers=trace)
        metrics, problems = gate(args.workload, trace, result, spec)
        for problem in problems:
            print(problem, file=sys.stderr)
        if result is None or len(metrics) < len(spec["per_layer" if trace else "end_to_end"]):
            return 1
        print_rows(args.workload, trace, result["rows"])
        print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics}))
        return 1 if problems else 0

    problems, layered = [], set()
    for workload in WORKLOAD_NAMES:
        for trace in (False,) if args.no_traced else (False, True):
            result = supervise(workload, args.seed, seconds, trace, args.smoke, all_layers=False)
            if result is not None:
                print_rows(workload, trace, result["rows"])
                print(f"ops_attempted {result['attempted']}  ops_failed {result['failed']}")
            if trace and result is not None:
                layered |= {r["name"] for r in result["rows"]}
            # A traced workload owes only its own layers; the union is checked below.
            problems += gate(workload, trace, result, {"per_layer": []} if trace else spec)[1]
    if not args.no_traced:
        problems += [f"per-layer metric {m['name']} missing from every workload"
                     for m in spec["per_layer"] if m["name"] not in layered]
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"\nsuite seed {args.seed}: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
