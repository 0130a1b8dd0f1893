"""Engine scheduler vs the staged oracle through the full mrblast pipeline.

The engine-level property suite pins ``search_block`` output; this pins the
production surface: per-rank output files of a run compare equal byte for
byte to a run whose ranks schedule with ``tests/oracles/staged_scheduler.py``
— on both transport backends, in-core and when a tiny ``memsize`` forces the
columnar plane through multi-page spill.  The shipped scheduler runs with
its containment rule on, so these tests are what certifies the path users
get against the PR-2 oracle, which extends every admitted seed.
"""

import numpy as np
import pytest

from repro.blast import BlastOptions, format_database, format_tabular
from repro.bio import shred_records, synthetic_community, synthetic_nt_database
from repro.core import MrBlastConfig, mrblast_spmd
from repro.core.baselines.serial_blast import run_serial_blast

from oracles.staged_scheduler import staged_scheduler


@pytest.fixture(scope="module")
def nt_workload(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("nt_fused")
    com = synthetic_community(n_genomes=3, genome_length=2000, seed=61)
    db = synthetic_nt_database(com, n_decoys=2, decoy_length=1200, homolog_rate=0.05, seed=62)
    alias_path = format_database(db, tmp, "nt", kind="dna", max_volume_bytes=1500)
    reads = list(shred_records(com.genomes))[:8]
    blocks = [reads[i : i + 2] for i in range(0, len(reads), 2)]
    options = BlastOptions.blastn(evalue=1e-4, max_hits=25)
    return str(alias_path), blocks, options


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("memsize", [None, 512])
def test_rank_files_byte_identical(nt_workload, tmp_path, backend, memsize):
    """Shipped scheduler vs staged oracle: same bytes in every rank file,
    whichever transport carries the messages and whether or not the KV
    plane spills."""
    alias_path, blocks, options = nt_workload
    base = dict(alias_path=alias_path, query_blocks=blocks, backend=backend)
    if memsize is not None:
        base["memsize"] = memsize
    tag = f"{backend}-{memsize or 'incore'}"
    fused = mrblast_spmd(3, MrBlastConfig(
        **base, options=options,
        output_dir=str(tmp_path / f"fused-{tag}"),
        spool_dir=str(tmp_path / f"fspool-{tag}")))
    with staged_scheduler():  # class-level patch: threads and forked ranks see it
        staged = mrblast_spmd(3, MrBlastConfig(
            **base, options=options,
            output_dir=str(tmp_path / f"staged-{tag}"),
            spool_dir=str(tmp_path / f"sspool-{tag}")))
    assert sum(r.hits_written for r in fused) > 0
    for f, s in zip(fused, staged):
        assert (f.rank, f.hits_written, f.queries_written) == (
            s.rank, s.hits_written, s.queries_written)
        with open(f.output_path, "rb") as ff, open(s.output_path, "rb") as fs:
            assert ff.read() == fs.read(), f"rank {f.rank} output diverged"
    # Telemetry: the scheduler counts rounds and slab bytes, the oracle doesn't.
    assert sum(r.fused_rounds for r in fused) > 0
    assert max(r.peak_slab_bytes for r in fused) > 0
    assert sum(r.fused_rounds for r in staged) == 0


def test_fused_round_instants_in_trace(nt_workload, tmp_path):
    """The fused scheduler emits ``blast.fused_round`` instants carrying
    the round telemetry the obs layer's stage reports consume."""
    import json

    alias_path, blocks, options = nt_workload
    trace_path = tmp_path / "trace.json"
    results = mrblast_spmd(2, MrBlastConfig(
        alias_path=alias_path, query_blocks=blocks, options=options,
        output_dir=str(tmp_path / "out"), trace_path=str(trace_path)))
    doc = json.loads(trace_path.read_text())
    rounds = [ev for ev in doc["traceEvents"]
              if ev.get("name") == "blast.fused_round"]
    assert len(rounds) == sum(r.fused_rounds for r in results) > 0
    for ev in rounds:
        args = ev.get("args", {})
        assert args.get("rows", 0) > 0
        assert args.get("slab_bytes", 0) > 0
        assert args["gapped"] + args["contained"] <= args["rows"]
    # The reads carry indels against their homologs: some admitted seeds are
    # contained instead of extended, and the instants are where that shows
    # (``n_contained`` is not threaded through the result structs).
    assert sum(ev["args"]["contained"] for ev in rounds) > 0


def test_suite_job_tabular_bytes_equal_serial_baseline(tmp_path):
    """The gated suite's ``blastn_batch`` job (seed 2011: 64 stratified
    400-bp reads of an 8 x 20 kb community against its ~1 Mb DB in 4
    partitions, blocks of 16, two iterations, locality-aware, 3 ranks):
    every query's lines in the merged rank files are the serial baseline's
    tabular bytes, and the job's hit count is the one the suite records."""
    seed = 2011
    com = synthetic_community(n_genomes=8, genome_length=20_000, seed=seed, repeat_fraction=0.0)
    db = synthetic_nt_database(com, n_decoys=16, decoy_length=50_000, homolog_rate=0.05,
                               seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    pools = [[f for f in shred_records([g]) if len(f.seq) == 400] for g in com.genomes]
    for pool in pools:
        rng.shuffle(pool)
    reads = [pools[i % 8][(i // 8) % len(pools[i % 8])] for i in range(64)]
    blocks = [reads[i : i + 16] for i in range(0, 64, 16)]
    options = BlastOptions.blastn(evalue=1e-4, max_hits=25)
    alias = str(format_database(db, tmp_path / "db", "nt", kind="dna", max_volume_bytes=70_000))

    want = {
        qid: format_tabular(hits).encode("ascii")
        for qid, hits in run_serial_blast(alias, blocks, options).items()
    }
    results = mrblast_spmd(3, MrBlastConfig(
        alias_path=alias, query_blocks=blocks, options=options,
        output_dir=str(tmp_path / "out"), spool_dir=str(tmp_path / "spool"),
        blocks_per_iteration=2, locality_aware=True, backend="process"))
    got: dict[str, bytes] = {}
    for res in results:
        with open(res.output_path, "rb") as fh:
            for line in fh:
                qid = line.split(b"\t", 1)[0].decode("ascii")
                got[qid] = got.get(qid, b"") + line
    assert got == want
    assert len(want) == 64 and sum(r.hits_written for r in results) == 64
    assert sum(r.units_processed for r in results) == 16
