"""Where one service query's latency goes, read off the spans ``src/`` emits.

Brings up a traced 3-rank resident session (process backend) on the
``serve_paced`` database shape (4 genomes and 4 decoys of 14 kb, 4
partitions, 400-bp reads), warms it up, then submits solo one-query jobs one
at a time and splits each submit → resolve interval at span boundaries:

- ``queue hop``: submit to rank 0 starting the job's broadcast;
- ``job bcast``: until the last rank has entered ``serve.job``;
- ``wait for first unit``: rank 0 entering ``serve.job`` to the first
  ``mrblast.unit`` starting;
- ``units``: first unit start to last unit end, with the heavy (longest)
  unit, its ``gapped_s``, the gapped kernel's ``dp_rows`` inside it and
  their ratio, the kernel's cost per lockstep row in microseconds;
- ``map end``: last unit end to rank 0 leaving ``mr.map``;
- ``post-map``: rank 0 leaving ``mr.map`` to leaving ``serve.job`` (the
  regrouping, the reduce and the result hand-off), with every ``mpi.*`` and
  ``mr.*`` span any rank opened inside ``serve.job``;
- ``deliver``: rank 0 leaving ``serve.job`` to the parent holding the result.

Medians over the solo jobs are printed in milliseconds.  Span timestamps
are ``time.perf_counter`` in every process, one monotonic clock on Linux::

    PYTHONPATH=src python benchmarks/serve_job_budget.py --seed 2011 --jobs 24
"""

import argparse
import statistics
import tempfile
import time
from collections import Counter
from unittest import mock

from repro.bio import shred_records, synthetic_community, synthetic_nt_database
from repro.blast import BlastOptions, format_database
from repro.blast import engine as engine_module
from repro.blast.gapped import extend_gapped_batch
from repro.obs.trace import TraceSession, current_tracer
from repro.serve.session import BlockJob, ResidentBlastSession, ServeConfig

NPROCS = 3
WARMUP = 8


def _counted_gapped(seeds, *args, stats, **kwargs):
    """The engine's gapped kernel, reporting the ``dp_rows`` of each call as
    an instant (the engine's own counters accumulate over a unit)."""
    before = stats.get("dp_rows", 0)
    out = extend_gapped_batch(seeds, *args, stats=stats, **kwargs)
    current_tracer().instant("gapped.kernel", cat="blast",
                             dp_rows=stats.get("dp_rows", 0) - before)
    return out


def _workload(tmp, seed):
    com = synthetic_community(n_genomes=4, genome_length=14_000, seed=seed,
                              repeat_fraction=0.0)
    db = synthetic_nt_database(com, n_decoys=4, decoy_length=14_000,
                               homolog_rate=0.05, seed=seed + 1)
    packed = sum(len(r.seq) for r in db) // 4
    alias = format_database(db, tmp, "nt", kind="dna", max_volume_bytes=packed // 4 + 512)
    pools = [[f for f in shred_records([g]) if len(f.seq) == 400] for g in com.genomes]
    reads = [pool[i] for i in range(max(map(len, pools))) for pool in pools if i < len(pool)]
    return str(alias), reads


def _job_spans(events):
    """Per job id: this rank's span B/E times and the spans opened inside
    ``serve.job`` as ``[(name, begin, end, end attrs)]``."""
    jobs, stack, last_bcast = {}, [], None
    current = None
    for ph, ts, sid, name, _cat, attrs in events:
        if ph == "B":
            stack.append((sid, name, ts, attrs))
            if name == "mpi.bcast":
                last_bcast = ts
            if name == "serve.job":
                current = jobs[attrs["job_id"]] = {
                    "bcast": last_bcast, "begin": ts, "inside": [], "instants": []}
        elif ph == "E":
            _sid, bname, begin, _battrs = stack.pop()
            if bname == "serve.job":
                current["end"] = ts
                current = None
            elif current is not None:
                current["inside"].append((bname, begin, ts, attrs or {}))
        elif current is not None:
            current["instants"].append((name, ts, attrs or {}))
    return jobs


def _budget(per_rank, submit, resolve):
    rank0 = per_rank[0]
    units = [(r, s) for r, job in enumerate(per_rank) for s in job["inside"]
             if s[0] == "mrblast.unit"]
    heavy_rank, heavy = max(units, key=lambda u: u[1][2] - u[1][1])
    dp_rows = sum(a.get("dp_rows", 0) for name, ts, a in per_rank[heavy_rank]["instants"]
                  if name == "gapped.kernel" and heavy[1] <= ts <= heavy[2])
    map_end = max(e for name, _b, e, _a in rank0["inside"] if name == "mr.map")
    first = min(s[1] for _r, s in units)
    last = max(s[2] for _r, s in units)
    post = Counter()
    for name, begin, end, _a in rank0["inside"]:
        if begin >= map_end and name.startswith("mr."):
            post[name] += end - begin
    return {
        "queue hop": rank0["bcast"] - submit,
        "job bcast": max(job["begin"] for job in per_rank) - rank0["bcast"],
        "wait for first unit": first - rank0["begin"],
        "units": last - first,
        "heavy unit": heavy[2] - heavy[1],
        "heavy gapped_s": heavy[3]["gapped_s"],
        "heavy dp_rows": dp_rows,
        "heavy us/dp_row": heavy[3]["gapped_s"] / dp_rows * 1e6 if dp_rows else 0.0,
        "map end": map_end - last,
        "post-map": rank0["end"] - map_end,
        "  rank 0 regroup": post["mr.aggregate"] + post["mr.gather"],
        "  rank 0 convert+reduce": post["mr.convert"] + post["mr.reduce"],
        "deliver": resolve - rank0["end"],
        "total": resolve - submit,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=2011)
    ap.add_argument("--jobs", type=int, default=24, help="solo jobs measured")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        alias, reads = _workload(tmp, args.seed)
        assert len(reads) >= WARMUP + args.jobs
        cfg = ServeConfig(alias_path=alias, nprocs=NPROCS, backend="process",
                          options=BlastOptions.blastn(evalue=1e-4, max_hits=25),
                          spool_dir=tmp)
        trace = TraceSession(NPROCS)
        times = {}
        with mock.patch.object(engine_module, "extend_gapped_batch", _counted_gapped):
            session = ResidentBlastSession(cfg, trace=trace).start()
        try:
            for job_id, read in enumerate(reads[:WARMUP + args.jobs]):
                t0 = time.perf_counter()
                session.submit(BlockJob(job_id=job_id, queries=(read,)))
                env = session.poll_result(timeout=60.0)
                assert env is not None and env.job_id == job_id
                times[job_id] = (t0, time.perf_counter())
        finally:
            session.stop()

    spans = [_job_spans(trace.tracer(rank).events) for rank in range(NPROCS)]
    rows, inside = [], Counter()
    for job_id in range(WARMUP, WARMUP + args.jobs):
        per_rank = [spans[rank][job_id] for rank in range(NPROCS)]
        rows.append(_budget(per_rank, *times[job_id]))
        for rank, job in enumerate(per_rank):
            for name, *_rest in job["inside"]:
                if name.startswith(("mpi.", "mr.")):
                    inside[(rank, name)] += 1
    print(f"solo jobs: {args.jobs} (seed {args.seed}, {NPROCS} ranks, process backend)")
    for key in rows[0]:
        med = statistics.median(r[key] for r in rows)
        if key == "heavy dp_rows":
            print(f"  {key:<22} {med:10.0f}")
        elif key == "heavy us/dp_row":
            print(f"  {key:<22} {med:10.1f} us")
        else:
            print(f"  {key:<22} {med * 1e3:10.2f} ms")
    print("spans inside serve.job, per job:")
    for (rank, name), count in sorted(inside.items()):
        print(f"  rank {rank}  {name:<14} {count / args.jobs:g}")


if __name__ == "__main__":
    main()
