"""Trace-vs-registry cross-check: the trace is a second source of truth.

Every number a rank writes into its metrics registry and reports through
its result struct — ``MapReduce`` phase seconds, shuffle pairs/bytes, the
mapper's stage seconds, mrsom's bcast/reduce seconds — must be
recomputable *exactly* from the trace.  The instrumentation records the
very float that incremented the counter as a span attribute and the
reports sum in the same order, so agreement is asserted with ``==``, not
``approx``.
"""

import dataclasses

import numpy as np
import pytest

from repro.bio import shred_records, synthetic_community, synthetic_nt_database
from repro.blast import BlastOptions, format_database
from repro.core import MrBlastConfig, MrSomConfig
from repro.core.mrblast.driver import MrBlastResult, run_mrblast
from repro.core.mrsom.driver import run_mrsom
from repro.core.mrsom.mmap_input import write_matrix_file
from repro.mpi.runtime import run_spmd
from repro.mrmpi import MapStyle
from repro.obs.report import (
    phase_durations,
    span_records,
    stage_breakdown,
    utilization_report,
)
from repro.obs.trace import TraceSession
from repro.som.codebook import SOMGrid

from oracles.trace_traffic import shuffle_traffic

NPROCS = 3


@pytest.fixture(scope="module")
def blast_run(tmp_path_factory):
    """One traced mrblast run; returns (session, per-rank results)."""
    tmp = tmp_path_factory.mktemp("xchk")
    com = synthetic_community(n_genomes=3, genome_length=2000, seed=5)
    db = synthetic_nt_database(com, n_decoys=2, decoy_length=1000, seed=6)
    alias_path = format_database(db, tmp, "nt", kind="dna", max_volume_bytes=1500)
    reads = list(shred_records(com.genomes))[:8]
    blocks = [reads[i : i + 2] for i in range(0, len(reads), 2)]
    config = MrBlastConfig(
        alias_path=str(alias_path),
        query_blocks=blocks,
        options=BlastOptions.blastn(evalue=1e-4, max_hits=25),
        output_dir=str(tmp / "out"),
    )
    session = TraceSession(NPROCS)
    results = run_spmd(NPROCS, run_mrblast, config, trace=session)
    return session, results


class TestBlastCrosscheck:
    def test_phase_seconds_match_timers_exactly(self, blast_run):
        session, results = blast_run
        durations = phase_durations(session)
        for r in results:
            mine = durations[r.rank]
            assert mine.get("map", 0.0) == r.map_seconds
            assert mine.get("aggregate", 0.0) + mine.get("convert", 0.0) \
                == r.collate_seconds
            assert mine.get("reduce", 0.0) == r.reduce_seconds

    def test_shuffle_traffic_matches_stats_exactly(self, blast_run):
        session, results = blast_run
        traffic = shuffle_traffic(session)
        for r in results:
            mine = traffic["per_rank"][r.rank].get(
                "aggregate", {"pairs": 0, "bytes": 0})
            assert mine["pairs"] == r.shuffle_pairs_moved
            assert mine["bytes"] == r.shuffle_bytes_moved
        assert traffic["totals"]["aggregate"]["pairs"] \
            == sum(r.shuffle_pairs_moved for r in results)

    def test_exchange_rounds_and_convert_merges_are_traced(self, blast_run):
        """An iteration's few hundred pairs are one exchange round into one
        bucket: a ``mr.exchange_round`` instant per ``mr.aggregate`` span,
        whose pairs add up to the phase's traffic, and a ``mr.convert``
        span that says how little it had to merge (at most one run per
        source rank)."""
        session, results = blast_run
        for r in results:
            trc = session.tracer(r.rank)
            spans = list(span_records(trc))
            aggregates = [rec for rec in spans if rec[0] == "mr.aggregate"]
            rounds = [attrs for ph, _ts, _sid, name, _cat, attrs in trc.iter_events()
                      if ph == "i" and name == "mr.exchange_round"]
            assert len(rounds) == len(aggregates) > 0
            assert all(attrs["round"] == 0 for attrs in rounds)
            assert sum(attrs["pairs"] for attrs in rounds) == r.shuffle_pairs_moved
            assert sum(attrs["bytes"] for attrs in rounds) == r.shuffle_bytes_moved
            converts = [rec[5] for rec in spans if rec[0] == "mr.convert"]
            assert len(converts) == len(aggregates)
            for attrs in converts:
                assert attrs["buckets"] <= 1
                assert attrs["buckets"] <= attrs["runs"] <= NPROCS

    def test_stage_seconds_match_mapper_stats_exactly(self, blast_run):
        session, results = blast_run
        stages = stage_breakdown(session)
        for r in results:
            mine = stages[r.rank]
            assert mine["busy_s"] == r.busy_seconds
            assert mine["seed_s"] == r.seed_seconds
            assert mine["ungapped_s"] == r.ungapped_seconds
            assert mine["gapped_s"] == r.gapped_seconds
            assert mine["units"] == r.units_processed
            assert mine["hits"] == r.hits_emitted

    def test_utilization_report_totals_match_counters(self, blast_run):
        """The Fig. 5 report is computed from the trace alone — its totals
        must equal the counter-derived numbers exactly."""
        session, results = blast_run
        rep = utilization_report(session)
        assert rep["stage_totals"]["busy_s"] == \
            sum(r.busy_seconds for r in results)
        assert rep["stage_totals"]["units"] == \
            sum(r.units_processed for r in results)
        assert rep["phase_totals_s"]["map"] == \
            sum(r.map_seconds for r in results)
        assert rep["makespan_s"] > 0
        assert rep["straggler_rank"] in range(NPROCS)
        for rank in range(NPROCS):
            assert 0.0 <= rep["per_rank"][rank]["utilization"] <= 1.0

    def test_result_numbers_live_in_the_rank_snapshot_only(self, blast_run):
        """A result stores no count or seconds of its own: each reads the
        snapshot of the registry the rank's components wrote."""
        _session, results = blast_run
        assert {f.name for f in dataclasses.fields(MrBlastResult)} == {
            "rank", "output_path", "metrics", "resumed_from_iteration",
            "faults_injected", "retries", "lost_ranks"}
        for r in results:
            assert r.units_processed == r.metrics.get("mrblast.units", 0)
            assert r.hits_written == r.metrics["mrblast.hits_written"]
            assert r.collate_seconds == r.metrics["mr.aggregate_s"] + r.metrics["mr.convert_s"]
            assert not r.degraded and r.speculated_units == 0

    def test_every_rank_has_lifecycle_span(self, blast_run):
        session, _ = blast_run
        for rank in range(NPROCS):
            names = [rec[0] for rec in span_records(session.tracer(rank))]
            assert "rank" in names
            assert "mrblast.iteration" in names


class TestSomCrosscheck:
    def test_bcast_reduce_seconds_match_exactly(self, tmp_path):
        mat = tmp_path / "v.mat"
        rng = np.random.default_rng(3)
        write_matrix_file(mat, rng.random((150, 6)))
        config = MrSomConfig(
            matrix_path=str(mat), grid=SOMGrid(4, 4), epochs=3,
            block_rows=25, mapstyle=MapStyle.CHUNK,
        )
        session = TraceSession(NPROCS)
        results = run_spmd(NPROCS, run_mrsom, config, trace=session)
        for r in results:
            recs = list(span_records(session.tracer(r.rank)))
            bcast = sum(rec[5]["seconds"] for rec in recs
                        if rec[0] == "mrsom.bcast")
            reduce = sum(rec[5]["seconds"] for rec in recs
                         if rec[0] == "mrsom.reduce")
            smooth = sum(rec[5]["seconds"] for rec in recs
                         if rec[0] == "mrsom.smooth")
            init = [rec[5]["seconds"] for rec in recs if rec[0] == "mrsom.init"]
            assert init == [r.init_seconds] and r.init_seconds > 0.0
            assert bcast == r.bcast_seconds
            assert reduce == r.reduce_seconds
            assert smooth == r.smooth_seconds > 0.0
            epochs = [rec for rec in recs if rec[0] == "mrsom.epoch"]
            assert len(epochs) == config.epochs

    def test_five_spans_cover_the_rank_on_the_suite_shape(self, tmp_path):
        """init + bcast + map + reduce + smooth leave under a tenth of any
        rank's lifetime unexplained on the gated suite's ``som_batch`` shape
        (1280 × 256 vectors, 50 × 50 map, 2 epochs, master + 2 workers as
        processes).  The best of three runs: the claim is about where the
        spans sit, not about one run's scheduling."""
        mat = tmp_path / "v.mat"
        write_matrix_file(mat, np.random.default_rng(2011).random((1280, 256)))
        config = MrSomConfig(
            matrix_path=str(mat), grid=SOMGrid(50, 50), epochs=2, block_rows=40,
            mapstyle=MapStyle.MASTER_WORKER, backend="process",
        )
        covering = ("mrsom.init", "mrsom.bcast", "mr.map", "mrsom.reduce", "mrsom.smooth")
        best = 0.0
        for _attempt in range(3):
            session = TraceSession(NPROCS)
            run_spmd(NPROCS, run_mrsom, config, trace=session, backend="process")
            coverage = []
            for rank in range(NPROCS):
                recs = list(span_records(session.tracer(rank)))
                (whole,) = [rec[3] - rec[2] for rec in recs if rec[0] == "rank"]
                coverage.append(
                    sum(rec[3] - rec[2] for rec in recs if rec[0] in covering) / whole)
            best = max(best, min(coverage))
            if best >= 0.9:
                break
        assert best >= 0.9, coverage
