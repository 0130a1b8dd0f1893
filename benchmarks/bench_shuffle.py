"""Data-plane throughput and the transport machine model (regenerates
BENCH_shuffle.json).

One synthetic Fig. 5-scale workload — hundreds of thousands of small
(query id, record) pairs — pushed through emit → aggregate → convert →
reduce at 1/4/8 ranks, on both transport backends.  Reported per stage:
pairs/sec (total pairs over the slowest rank's stage time) and bytes
actually staged for other ranks.

The process backend adds two result families:

- ``columnar@{nprocs}@process`` runs (the ``columnar@{nprocs}`` keys stay
  thread-backend, so the series in EXPERIMENTS.md remains comparable);
- a per-backend Sanders/Mehlhorn machine-model fit ``t = α + n/β`` from a
  two-rank pingpong sweep, recorded under ``machine_model``.

The shared-arena fabric adds a third: ``columnar@{nprocs}@process+arena``
runs and a ``process+arena`` machine model.  The plain ``@process`` keys
are re-measured with ``$REPRO_MPI_ARENA_MB=0`` (the per-message shm path)
in the same run, and the fit asserts the arena is at least 2x better on *both*
axes — per-message latency α and asymptotic bandwidth β — than the
per-message model **recorded when that path shipped**
(:data:`RECORDED_PER_MESSAGE_MODEL`).  The bar is pinned to the recorded
numbers rather than the in-run re-fit because both paths bottom out on
the same pipe-wakeup latency floor, which wanders by ±50% run-to-run on
a loaded box: the re-fit is kept in the JSON for transparency, but a
flaky in-run α ratio would gate CI on scheduler luck.  β, which is
insensitive to the floor, must additionally beat the in-run re-fit 2x.

Run as a script for the CI smoke::

    python benchmarks/bench_shuffle.py --backend process --ranks 1 4 \
        --assert-scaling

which exercises the columnar pipeline per rank count and (on machines with
enough cores) asserts wall-clock actually drops as ranks are added — the
whole point of ranks-as-processes.  Prefix ``REPRO_MPI_ARENA_MB=0`` to run
it over the per-message path.
"""

import argparse
import json
import os
import time
from pathlib import Path
from unittest import mock

import numpy as np

from repro.mpi import run_spmd
from repro.mpi.arena import ARENA_DEFAULT_MB, ARENA_ENV_VAR, resolve_arena_bytes
from repro.mrmpi import MapReduce, MapStyle, RecordSchema

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_shuffle.json"

#: total pairs across all ranks; override for smoke runs
TOTAL_PAIRS = int(os.environ.get("BENCH_SHUFFLE_PAIRS", "120000"))
N_KEYS = 1500
RANK_COUNTS = (1, 4, 8)

#: measured transport variants: (result-key suffix tail, backend, arena MiB
#: per rank).  ``process`` pins the per-message shm path so the
#: ``process+arena`` rows quantify exactly what the arena buys on the same
#: machine, same run.
VARIANTS = (
    ("thread", "thread", 0),
    ("process", "process", 0),
    ("process+arena", "process", ARENA_DEFAULT_MB),
)

#: pingpong sweep for the machine-model fit; spans the shm threshold so the
#: process-backend fit reflects both the pipe and the shared-memory path.
PINGPONG_SIZES = (1024, 16 * 1024, 128 * 1024, 1024 * 1024, 4 * 1024 * 1024)
PINGPONG_REPS = 21

#: Sanders machine model fitted when the per-message shm path shipped
#: (BENCH_shuffle.json ``machine_model.process``, pre-arena).  The arena
#: acceptance bar is >=2x better on both axes than these recorded numbers.
RECORDED_PER_MESSAGE_MODEL = {"alpha_us": 313.5, "bandwidth_mib_s": 1186.1}

VALUE_DTYPE = np.dtype(
    [("score", "<i8"), ("pos", "<i8"), ("bit", "<f8"), ("evalue", "<f8")]
)
SCHEMA = RecordSchema(key_dtype="S8", value_dtype=VALUE_DTYPE, key_kind="str")
KEYTAB = np.array([f"q{k:06d}".encode() for k in range(N_KEYS)], dtype="S8")

STAGES = ("map", "aggregate", "convert", "reduce")


def _pipeline(comm, total_pairs):
    """Emit → aggregate → convert → reduce; returns rank-0 timings/traffic."""
    mr = MapReduce(comm, mapstyle=MapStyle.CHUNK, schema=SCHEMA)
    per_rank = total_pairs // comm.size

    def mapper(itask, item, kv):
        rng = np.random.default_rng(1000 + itask)
        kids = rng.integers(N_KEYS, size=per_rank)
        rows = np.empty(per_rank, dtype=VALUE_DTYPE)
        rows["score"] = kids
        rows["pos"] = np.arange(per_rank)
        rows["bit"] = rng.random(per_rank)
        rows["evalue"] = rng.random(per_rank)
        kv.add_batch(KEYTAB[kids], rows)

    try:
        mr.map_items(list(range(comm.size)), mapper)
        npairs = comm.allreduce(len(mr.kv))
        mr.aggregate()
        mr.convert()
        mr.reduce(lambda k, vs, kv: kv.add(k, len(vs)), out_schema=None)
        nkeys = comm.allreduce(len(mr.kv))
        # slowest rank bounds every collective stage
        slowest = {
            phase: max(comm.allreduce([mr.timers.get(phase, 0.0)]))
            for phase in STAGES
        }
        shuffle = mr.shuffle_stats()
        if comm.rank != 0:
            return None
        return {"npairs": npairs, "nkeys": nkeys, "seconds": slowest, "shuffle": shuffle}
    finally:
        mr.close()


def _arena_mb(mb):
    """Run the enclosed process jobs with ``$REPRO_MPI_ARENA_MB`` = ``mb``."""
    return mock.patch.dict(os.environ, {ARENA_ENV_VAR: str(mb)})


def _run(nprocs, backend="thread", total_pairs=TOTAL_PAIRS):
    out = run_spmd(nprocs, _pipeline, total_pairs, backend=backend)[0]
    stages = {}
    for phase in STAGES:
        secs = out["seconds"][phase]
        moved = out["shuffle"].get(phase, {"pairs_moved": 0, "bytes_moved": 0})
        stages[phase] = {
            "seconds": secs,
            "pairs_per_sec": out["npairs"] / secs if secs > 0 else None,
            "pairs_moved": moved["pairs_moved"],
            "bytes_moved": moved["bytes_moved"],
        }
    return {"npairs": out["npairs"], "nkeys": out["nkeys"], "stages": stages}


# ---------------------------------------------------------- machine model

def _pingpong(comm, sizes, reps):
    """Half round-trip seconds per message size (best-of-``reps``), rank 0.

    Same protocol for every variant (and as the recorded baselines, so
    fits stay comparable release-over-release): each side Sends its *own*
    buffer and Recvs into a pre-allocated one.  The Recv copy reads every
    delivered byte — on the arena path that is a read straight out of the
    peer's ring, so unmaterialised pages can't fake bandwidth — and the
    echo never re-sends a received view, which would price a
    cross-segment copy no real exchange performs.
    """
    halves = []
    for n in sizes:
        buf = np.zeros(n, dtype=np.uint8)
        echo = np.empty_like(buf)
        best = float("inf")
        for _ in range(reps):
            comm.barrier()
            if comm.rank == 0:
                t0 = time.perf_counter()
                comm.Send(buf, dest=1)
                comm.Recv(echo, source=1)
                best = min(best, (time.perf_counter() - t0) / 2.0)
            else:
                comm.Recv(echo, source=0)
                comm.Send(buf, dest=0)
        halves.append(best)
    return halves if comm.rank == 0 else None


def fit_machine_model(backend):
    """Fit the Sanders/Mehlhorn point-to-point model ``t = α + n/β``.

    α is the per-message latency (startup) and β the asymptotic bandwidth;
    a least-squares fit over the pingpong sweep gives both in one pass.
    """
    halves = run_spmd(2, _pingpong, PINGPONG_SIZES, PINGPONG_REPS,
                      backend=backend, op_timeout=60.0)[0]
    sizes = np.array(PINGPONG_SIZES, dtype=float)
    times = np.array(halves, dtype=float)
    slope, alpha = np.polyfit(sizes, times, 1)
    return {
        "alpha_us": alpha * 1e6,
        "bandwidth_mib_s": (1.0 / slope) / 2**20 if slope > 0 else None,
        "points": {str(n): t for n, t in zip(PINGPONG_SIZES, halves)},
    }


# ------------------------------------------------------------- benchmark

def test_shuffle_throughput(print_table):
    results = {}
    for label, backend, arena_mb in VARIANTS:
        suffix = "" if label == "thread" else f"@{label}"
        with _arena_mb(arena_mb):
            for nprocs in RANK_COUNTS:
                results[f"columnar@{nprocs}{suffix}"] = _run(nprocs, backend=backend)

    rows = []
    for label, _backend, _arena in VARIANTS:
        suffix = "" if label == "thread" else f"@{label}"
        for nprocs in RANK_COUNTS:
            for phase in STAGES:
                col = results[f"columnar@{nprocs}{suffix}"]["stages"][phase]
                rows.append([
                    label, str(nprocs), phase,
                    f"{col['pairs_per_sec']:,.0f}" if col["pairs_per_sec"] else "-",
                    f"{col['bytes_moved']:,}",
                ])
    print_table(
        f"Shuffle throughput, {TOTAL_PAIRS:,} pairs ({N_KEYS} keys)",
        ["backend", "ranks", "stage", "pairs/s", "bytes moved"],
        rows,
    )

    # Results must be backend-independent before speed counts.
    for key, run in results.items():
        assert run["nkeys"] == N_KEYS, f"{key}: wrong reduce output"
        assert run["npairs"] == (TOTAL_PAIRS // int(key.split("@")[1])) * int(
            key.split("@")[1]
        )

    model = {}
    for label, backend, arena_mb in VARIANTS:
        with _arena_mb(arena_mb):
            model[label] = fit_machine_model(backend)
    print_table(
        "Machine model fit t = α + n/β (2-rank pingpong)",
        ["variant", "α (µs)", "β (MiB/s)"],
        [[b, f"{m['alpha_us']:.1f}",
          f"{m['bandwidth_mib_s']:,.0f}" if m["bandwidth_mib_s"] else "-"]
         for b, m in model.items()],
    )
    for b, m in model.items():
        assert m["alpha_us"] > 0, f"{b}: non-physical negative latency fit"

    # The arena acceptance bar: >=2x better on both machine-model axes
    # than the per-message model recorded when that path shipped.  β must
    # also beat the *in-run* per-message re-fit 2x — the bandwidth ratio
    # is stable back-to-back on the same box, so neither historical
    # machine drift nor CPU scaling can fake it (α is excluded from the
    # in-run comparison: both paths share the pipe-wakeup latency floor,
    # and its run-to-run wander would make that ratio a coin flip).
    permsg, arena_fit = model["process"], model["process+arena"]
    rec = RECORDED_PER_MESSAGE_MODEL
    assert rec["alpha_us"] >= 2.0 * arena_fit["alpha_us"], (
        f"arena latency win below 2x: α {rec['alpha_us']:.1f}µs recorded "
        f"per-message vs {arena_fit['alpha_us']:.1f}µs arena"
    )
    assert arena_fit["bandwidth_mib_s"] >= 2.0 * rec["bandwidth_mib_s"], (
        f"arena bandwidth win below 2x: β {arena_fit['bandwidth_mib_s']:,.0f} "
        f"MiB/s arena vs {rec['bandwidth_mib_s']:,.0f} MiB/s recorded"
    )
    assert arena_fit["bandwidth_mib_s"] >= 2.0 * permsg["bandwidth_mib_s"], (
        f"arena bandwidth win below 2x in-run: β "
        f"{arena_fit['bandwidth_mib_s']:,.0f} MiB/s arena vs "
        f"{permsg['bandwidth_mib_s']:,.0f} MiB/s per-message"
    )

    RESULTS_PATH.write_text(
        json.dumps(
            {
                "total_pairs": TOTAL_PAIRS,
                "n_keys": N_KEYS,
                "machine_model": model,
                "runs": results,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


# ------------------------------------------------------------------- CLI

def _pipeline_seconds(run):
    return sum(run["stages"][phase]["seconds"] for phase in STAGES)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="bench_shuffle",
        description="columnar shuffle scaling smoke (used by CI)",
    )
    ap.add_argument("--backend", choices=["thread", "process"], default="process")
    ap.add_argument("--ranks", type=int, nargs="+", default=[1, 4])
    ap.add_argument("--pairs", type=int, default=TOTAL_PAIRS)
    ap.add_argument("--assert-scaling", action="store_true",
                    help="require wall-clock to drop monotonically with more "
                         "ranks (skipped unless the machine has enough cores)")
    args = ap.parse_args(argv)

    label = args.backend if args.backend == "thread" else (
        "process+arena" if resolve_arena_bytes() else "process")
    seconds = {}
    for nprocs in args.ranks:
        run = _run(nprocs, backend=args.backend, total_pairs=args.pairs)
        seconds[nprocs] = _pipeline_seconds(run)
        print(f"{label}@{nprocs}: {args.pairs:,} pairs in "
              f"{seconds[nprocs]:.3f}s pipeline time "
              f"({run['npairs'] / seconds[nprocs]:,.0f} pairs/s)")

    if args.assert_scaling:
        cores = len(os.sched_getaffinity(0))
        needed = max(args.ranks)
        if cores < needed:
            print(f"scaling assertion skipped: {cores} usable cores < "
                  f"{needed} ranks")
        else:
            ordered = sorted(args.ranks)
            for lo, hi in zip(ordered, ordered[1:]):
                assert seconds[hi] < seconds[lo], (
                    f"{args.backend} backend did not scale: "
                    f"{hi} ranks took {seconds[hi]:.3f}s vs "
                    f"{seconds[lo]:.3f}s at {lo}"
                )
            print(f"scaling OK: {' > '.join(f'{seconds[n]:.3f}s@{n}' for n in ordered)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
