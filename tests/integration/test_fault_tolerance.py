"""End-to-end fault tolerance: crash → detect → back off → resume.

The acceptance bar for the robustness subsystem:

- a seeded rank crash mid-run, supervised, completes with output
  bit-identical to a fault-free run (mrblast HSPs, mrsom codebook);
- a work unit that fails on every attempt is quarantined after its failure
  budget instead of wedging the job;
- injected spill files never leak, even when a rank crashes mid-iteration;
- the same fault plan replayed over the same program yields the same
  event trace.

All runs use ``MapStyle.CHUNK`` so per-rank MPI op counts are deterministic
and op-indexed fault events land at the same program point every time.
"""

import glob
import json
import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro.bio import shred_records, synthetic_community, synthetic_nt_database
from repro.blast import BlastOptions, format_database
from repro.cluster import RestartObservation, validate_restart_overhead
from repro.core import (
    MrBlastConfig,
    MrSomConfig,
    mrblast_spmd,
    mrblast_supervised,
    mrsom_spmd,
    mrsom_supervised,
    run_mrblast,
)
from repro.core.mrsom.mmap_input import write_matrix_file
from repro.core.mrblast.merge import collect_rank_hits
from repro.mpi import CrashRank, FaultPlan, RankFailure, RetryPolicy
from repro.mpi.runtime import SpmdJob
from repro.mrmpi.mapreduce import MapStyle
from repro.som.codebook import SOMGrid

NPROCS = 3
FAST_RETRY = RetryPolicy(max_attempts=4, backoff_base=0.0)


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ft")
    com = synthetic_community(n_genomes=3, genome_length=2000, seed=81)
    db = synthetic_nt_database(com, n_decoys=2, decoy_length=1200, seed=82)
    alias = format_database(db, tmp, "nt", kind="dna", max_volume_bytes=1400)
    reads = list(shred_records(com.genomes))[:12]
    blocks = [reads[i : i + 3] for i in range(0, len(reads), 3)]  # 4 blocks
    return str(alias), blocks, BlastOptions.blastn(evalue=1e-4, max_hits=10)


def _config(workload, out, **overrides):
    alias, blocks, options = workload
    kwargs = dict(
        alias_path=alias,
        query_blocks=blocks,
        options=options,
        output_dir=str(out),
        blocks_per_iteration=2,  # 4 blocks -> 2 outer iterations
        mapstyle=MapStyle.CHUNK,  # deterministic op counts
    )
    kwargs.update(overrides)
    return MrBlastConfig(**kwargs)


def _signatures(merged):
    return sorted(
        (qid, h.subject_id, h.q_start, h.s_start, round(h.bit_score, 1))
        for qid, hits in merged.items()
        for h in hits
    )


class _Iter2Crash(FaultPlan):
    """Rank 1 dies at the first MPI call it makes after its mapper has begun
    a unit of outer iteration 2 (query blocks 2 and 3).

    Aimed from inside the mapper, like ``die_once`` below, not at an op
    count measured in a probe run: the midpoint of rank 1's clean op counts
    after one and after two iterations sat on the last call of iteration 2,
    where which ranks had already committed it was a race.  The first call
    after a CHUNK map is the shuffle's, in the middle of the iteration for
    every rank.  The crash goes through the plan (once per plan, traced,
    counted) at whatever op index that call has: :attr:`at_op`.
    """

    def __init__(self):
        super().__init__()
        self.at_op = None
        self._armed = False

    def arm_in_iteration_2(self, item):
        """``unit_fault_injector``: called by every rank's mapper, per unit."""
        if (item.block_index >= 2 and self.at_op is None
                and threading.current_thread().name == "mpi-rank-1"):
            self._armed = True

    def op_event(self, rank, op_index):
        if rank == 1 and self._armed and self.at_op is None:
            self.at_op = op_index
            self._op_events[(1, op_index)] = [CrashRank(1, op_index)]
        return super().op_event(rank, op_index)


def _crash_in_iter2(workload, out, **kwargs):
    """(plan, supervised outcome) of a run whose rank 1 dies mid-iteration 2."""
    plan = _Iter2Crash()
    outcome = mrblast_supervised(
        NPROCS,
        _config(workload, out, backend="thread",
                unit_fault_injector=plan.arm_in_iteration_2),
        fault_plan=plan,
        retry=FAST_RETRY,
        **kwargs,
    )
    assert plan.at_op is not None
    return plan, outcome


class TestSupervisedBlastResume:
    def test_crash_resume_is_bit_identical(self, workload, tmp_path):
        clean = mrblast_spmd(NPROCS, _config(workload, tmp_path / "clean"))
        clean_sig = _signatures(collect_rank_hits([r.output_path for r in clean]))

        plan, outcome = _crash_in_iter2(workload, tmp_path / "faulty")
        assert outcome.succeeded
        assert outcome.retries == 1
        assert [a.outcome for a in outcome.attempts] == ["rank_failure", "ok"]
        assert outcome.fault_trace == (("crash", 1, plan.at_op),)

        results = outcome.results
        # The crash hit iteration 2, so iteration 1 was already committed
        # on every rank and the relaunch resumed rather than restarted.
        assert all(r.resumed_from_iteration >= 1 for r in results)
        assert all(r.faults_injected == 1 and r.retries == 1 for r in results)
        faulty_sig = _signatures(collect_rank_hits([r.output_path for r in results]))
        assert faulty_sig == clean_sig

    def test_trace_reproducible_across_runs(self, workload, tmp_path):
        traces = []
        for tag in ("a", "b"):
            plan, _ = _crash_in_iter2(workload, tmp_path / tag)
            traces.append(plan.trace())
        assert traces[0] == traces[1] != ()

    def test_restart_overhead_matches_analytic_model(self, workload, tmp_path):
        """Redone work from the injected crash lands where the model says."""
        clean = mrblast_spmd(NPROCS, _config(workload, tmp_path / "model-clean"))
        useful = sum(r.units_processed for r in clean)
        units_per_checkpoint = useful / 2  # 2 outer iterations = 2 checkpoints

        _, outcome = _crash_in_iter2(workload, tmp_path / "model-faulty")
        executed = useful + sum(r.units_processed for r in outcome.results)
        # outcome.results is the successful (resumed) attempt; the crashed
        # attempt executed the remaining units: total = clean + resumed.
        validation = validate_restart_overhead(
            RestartObservation(
                units_useful=useful,
                units_executed=executed,
                n_failures=1,
                units_per_checkpoint=units_per_checkpoint,
            )
        )
        assert validation.observed >= 0
        assert validation.within(intervals=1.0)


class TestSupervisedSomResume:
    @pytest.fixture(scope="class")
    def matrix(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("som")
        rng = np.random.default_rng(5)
        path = os.path.join(tmp, "vectors.mat")
        write_matrix_file(path, rng.normal(size=(240, 8)))
        return path

    def _som_config(self, matrix, **overrides):
        kwargs = dict(
            matrix_path=matrix,
            grid=SOMGrid(6, 5),
            epochs=4,
            block_rows=40,
            mapstyle=MapStyle.CHUNK,
            seed=3,
        )
        kwargs.update(overrides)
        return MrSomConfig(**kwargs)

    def test_checkpoint_then_resume_is_bit_identical(self, matrix, tmp_path):
        clean = mrsom_spmd(NPROCS, self._som_config(matrix))
        ckdir = str(tmp_path / "ck")
        partial = mrsom_spmd(
            NPROCS,
            self._som_config(matrix, checkpoint_dir=ckdir, stop_after_epochs=2),
        )
        assert not np.array_equal(partial[0].codebook, clean[0].codebook)
        resumed = mrsom_spmd(
            NPROCS, self._som_config(matrix, checkpoint_dir=ckdir, resume=True)
        )
        assert resumed[0].resumed_from_epoch == 2
        assert np.array_equal(resumed[0].codebook, clean[0].codebook)

    def test_supervised_crash_recovers_same_codebook(self, matrix, tmp_path):
        clean = mrsom_spmd(NPROCS, self._som_config(matrix))
        plan = FaultPlan([CrashRank(rank=1, at_op=10)])
        outcome = mrsom_supervised(
            NPROCS,
            self._som_config(matrix, checkpoint_dir=str(tmp_path / "ck2")),
            fault_plan=plan,
            retry=FAST_RETRY,
        )
        assert outcome.succeeded
        assert outcome.retries == 1
        assert all(r.retries == 1 and r.faults_injected == 1 for r in outcome.results)
        for r in outcome.results:
            assert np.array_equal(r.codebook, clean[0].codebook)


class TestPoisonQuarantine:
    def test_poison_unit_is_quarantined_after_budget(self, workload, tmp_path):
        def injector(item):
            if item.block_index == 0 and item.partition_index == 0:
                raise RuntimeError("poisoned unit")

        out = tmp_path / "poison"
        outcome = mrblast_supervised(
            NPROCS,
            _config(
                workload,
                out,
                unit_fault_injector=injector,
                poison_attempts=2,
            ),
            retry=FAST_RETRY,
        )
        # Attempts 1 and 2 die on the unit; attempt 3 quarantines it.
        assert outcome.succeeded
        assert outcome.retries == 2
        assert [a.outcome for a in outcome.attempts] == ["error", "error", "ok"]
        assert sum(r.quarantined_units for r in outcome.results) == 1
        with open(out / "poison.json") as fh:
            ledger = json.load(fh)
        assert ledger["b0:p0"]["failures"] == 2

        # The job reports the skip; everything else was still searched.
        merged = collect_rank_hits([r.output_path for r in outcome.results])
        clean = mrblast_spmd(NPROCS, _config(workload, tmp_path / "poison-clean"))
        clean_sig = _signatures(collect_rank_hits([r.output_path for r in clean]))
        assert set(_signatures(merged)) < set(clean_sig)

    def test_fresh_run_clears_stale_poison(self, workload, tmp_path):
        out = tmp_path / "stale"
        os.makedirs(out)
        with open(out / "poison.json", "w") as fh:
            json.dump({"b0:p0": {"failures": 99, "error": "old"}}, fh)
        results = mrblast_spmd(NPROCS, _config(workload, out))
        assert sum(r.quarantined_units for r in results) == 0
        assert not os.path.exists(out / "poison.json")


class TestSpoolHygiene:
    def test_no_spill_files_leak_after_injected_crash(self, workload, tmp_path):
        spool_dir = tmp_path / "spool"
        os.makedirs(spool_dir)
        # Probe a clean run first: the crash index must land mid-run, and
        # the op count depends on how many exchange rounds the data plane
        # needs, so it is measured rather than hardcoded.
        probe_spool = tmp_path / "probe-spool"
        os.makedirs(probe_spool)
        probe_cfg = _config(
            workload,
            tmp_path / "probe",
            memsize=2048,
            spool_dir=str(probe_spool),
        )
        probe = SpmdJob(NPROCS, run_mrblast, (probe_cfg,))
        probe.run()
        crash_at = (2 * probe.network.op_count(1)) // 3
        assert crash_at > 0

        config = _config(
            workload,
            tmp_path / "crashy",
            memsize=2048,  # force spills
            spool_dir=str(spool_dir),
        )
        with pytest.raises(RankFailure):
            SpmdJob(NPROCS, run_mrblast, (config,), fault_plan=FaultPlan(
                [CrashRank(rank=1, at_op=crash_at)]
            )).run()
        assert glob.glob(str(spool_dir / "*")) == []

    def test_no_spill_files_leak_after_clean_run(self, workload, tmp_path):
        spool_dir = tmp_path / "spool-clean"
        os.makedirs(spool_dir)
        mrblast_spmd(
            NPROCS,
            _config(workload, tmp_path / "ok", memsize=2048, spool_dir=str(spool_dir)),
        )
        assert glob.glob(str(spool_dir / "*")) == []


class TestConfigValidation:
    def test_mrblast_rejects_missing_alias(self, workload, tmp_path):
        cfg = _config(workload, tmp_path / "x", alias_path="/nonexistent/db.pal.json")
        with pytest.raises(ValueError, match="alias"):
            cfg.validate()

    def test_mrblast_rejects_unwritable_output_dir(self, workload, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cfg = _config(workload, blocker / "out")
        with pytest.raises(ValueError, match="writable|directory"):
            cfg.validate()

    def test_mrblast_validation_happens_before_ranks_spawn(self, workload, tmp_path):
        cfg = _config(workload, tmp_path / "y", alias_path="/nonexistent/db.pal.json")
        with pytest.raises(ValueError):
            mrblast_spmd(NPROCS, cfg)

    def test_mrsom_rejects_missing_matrix(self):
        cfg = MrSomConfig(matrix_path="/nonexistent.mat", grid=SOMGrid(4, 4))
        with pytest.raises(ValueError, match="matrix_path"):
            cfg.validate()

    def test_mrsom_rejects_resume_without_checkpoint_dir(self, tmp_path):
        path = os.path.join(tmp_path, "m.mat")
        write_matrix_file(path, np.zeros((10, 4)) + 1.0)
        cfg = MrSomConfig(matrix_path=path, grid=SOMGrid(4, 4), resume=True)
        with pytest.raises(ValueError, match="resume"):
            cfg.validate()


class TestStragglerMitigation:
    """PR 8: speculative re-execution and degraded-mode completion."""

    NP = 4  # the acceptance scenario: one stalled worker out of 4 ranks

    def _mw_config(self, workload, out, **overrides):
        return _config(workload, out, mapstyle=MapStyle.MASTER_WORKER,
                       **overrides)

    def test_speculation_output_is_byte_identical_to_fault_free(
        self, workload, tmp_path
    ):
        import time

        clean = mrblast_spmd(
            self.NP, self._mw_config(workload, tmp_path / "clean")
        )

        def stall(item):  # one seeded straggler unit
            if item.block_index == 0 and item.partition_index == 0:
                time.sleep(0.5)

        spec = mrblast_spmd(
            self.NP,
            self._mw_config(
                workload,
                tmp_path / "spec",
                speculation_factor=2.0,
                unit_fault_injector=stall,
            ),
        )
        assert sum(r.speculated_units for r in spec) >= 1
        assert all(not r.degraded for r in spec)
        for c, s in zip(clean, spec):
            with open(c.output_path, "rb") as a, open(s.output_path, "rb") as b:
                assert a.read() == b.read(), f"rank {c.rank} output diverged"

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_mid_map_crash_completes_degraded_with_counters(
        self, workload, tmp_path, backend
    ):
        clean = mrblast_spmd(
            self.NP, self._mw_config(workload, tmp_path / "deg-clean", backend=backend)
        )
        clean_sig = _signatures(collect_rank_hits([r.output_path for r in clean]))

        # Whichever worker runs unit (0, 0) first dies, once: the flag is
        # shared memory, so forked ranks see it as threads do.
        tripped = multiprocessing.get_context("fork").Value("b", 0)

        def die_once(item):
            if item.block_index == 0 and item.partition_index == 0:
                with tripped.get_lock():
                    if tripped.value:
                        return
                    tripped.value = 1
                raise RankFailure(-1, -1)

        results = mrblast_spmd(
            self.NP,
            self._mw_config(
                workload,
                tmp_path / "deg",
                backend=backend,
                degraded=True,
                unit_fault_injector=die_once,
            ),
        )
        dead = [i for i, r in enumerate(results) if r is None]
        assert len(dead) == 1 and dead[0] != 0  # one worker died, never the master
        live = [r for r in results if r is not None]
        for r in live:
            assert r.degraded
            assert r.lost_ranks == (dead[0],)
            assert r.reassigned_units >= 1
        # Survivors redid the lost work: the merged HSP set is unchanged.
        merged_sig = _signatures(collect_rank_hits([r.output_path for r in live]))
        assert merged_sig == clean_sig

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_degraded_mrsom_recovers_codebook(self, tmp_path, monkeypatch, backend):
        matrix = os.path.join(tmp_path, "deg.mat")
        rng = np.random.default_rng(11)
        write_matrix_file(matrix, rng.normal(size=(200, 6)))

        def cfg(**overrides):
            kwargs = dict(matrix_path=matrix, grid=SOMGrid(5, 5), epochs=3,
                          block_rows=20, seed=2, backend=backend)
            kwargs.update(overrides)
            return MrSomConfig(**kwargs)

        from repro.core.mrsom.driver import _BlockAccumulator, run_mrsom
        from repro.mpi.runtime import run_spmd

        clean = mrsom_spmd(self.NP, cfg())

        # Rank 2 dies inside the first epoch's map, from its mapper, with
        # units committed to its accumulator and another in flight:
        # survivors must redo them all.  The first round hands 10 units to
        # 3 workers as 2 + 2 + 2; the others hold their first unit until
        # rank 2 has committed its 2 and started the 1-unit chunk its report
        # was answered with (ceil(4 / 6)): 2 + 1 units reassigned.  The gate is
        # a shared-memory event and the victim is known by its rank, so
        # forked ranks and threads play the same script.
        dying = multiprocessing.get_context("fork").Event()
        me = threading.local()
        run_unit = _BlockAccumulator.__call__

        def run(comm, config):
            me.rank = comm.rank
            return run_mrsom(comm, config)

        def gated(acc, itask, item, kv):
            if me.rank == 2:
                if acc.metrics.value("mrsom.units") >= 1:
                    dying.set()
                    raise RankFailure(-1, -1)
            else:
                assert dying.wait(60)
            run_unit(acc, itask, item, kv)

        monkeypatch.setattr(_BlockAccumulator, "__call__", gated)
        results = run_spmd(self.NP, run, cfg(degraded=True), backend=backend)
        assert results[2] is None
        live = [r for r in results if r is not None]
        for r in live:
            assert r.degraded and r.lost_ranks == (2,)
            assert r.reassigned_units == 2 + 1
            assert np.allclose(r.codebook, clean[0].codebook)

    def test_degraded_rejects_mrmpi_reduce_plane(self, tmp_path):
        matrix = os.path.join(tmp_path, "m.mat")
        write_matrix_file(matrix, np.ones((20, 4)))
        with pytest.raises(ValueError, match="mrmpi"):
            MrSomConfig(matrix_path=matrix, grid=SOMGrid(3, 3),
                        degraded=True, reduce_mode="mrmpi")


def _instants(session, name):
    """All ``(rank, attrs)`` pairs for instants called *name* in *session*."""
    found = []
    for trc in session.tracers:
        for ph, _ts, _sid, ev_name, _cat, attrs in trc.iter_events():
            if ph == "i" and ev_name == name:
                found.append((trc.rank, attrs or {}))
    return found


class TestFaultTraceCoverage:
    """Injected faults and resumes must be visible in the trace."""

    def test_crash_and_resume_markers_in_blast_trace(self, workload, tmp_path):
        from repro.obs.trace import TraceSession

        session = TraceSession(NPROCS)
        plan, outcome = _crash_in_iter2(workload, tmp_path / "traced-crash", trace=session)
        assert outcome.succeeded

        crashes = _instants(session, "fault.crash")
        assert [rank for rank, _ in crashes] == [1]
        assert crashes[0][1]["op_index"] == plan.at_op

        # Both attempts emitted the resume marker: 0 for the fresh start,
        # >= 1 for the relaunch that picked up the committed iteration.
        resumes = [a["resumed_from_iteration"]
                   for _r, a in _instants(session, "mrblast.resume")]
        assert 0 in resumes
        assert any(v >= 1 for v in resumes)

        # The supervisor narrated the retry on its own timeline.
        sup = [(name, attrs or {}) for ph, _ts, _sid, name, _cat, attrs
               in session.supervisor.iter_events()]
        names = [n for n, _ in sup]
        assert names.count("supervisor.attempt") == 2
        assert "supervisor.failure" in names
        assert "supervisor.ok" in names

        # Crashed rank 1's trace still exports balanced (unwind ran).
        from repro.obs.export import chrome_trace, validate_chrome_trace

        assert validate_chrome_trace(chrome_trace(session)) == []

    def test_stall_fault_appears_in_trace(self, workload, tmp_path):
        from repro.mpi import StallRank
        from repro.obs.trace import TraceSession
        from repro.mpi.runtime import run_spmd

        session = TraceSession(NPROCS)
        plan = FaultPlan([StallRank(rank=2, at_op=5, seconds=0.05)])
        results = run_spmd(
            NPROCS,
            run_mrblast,
            _config(workload, tmp_path / "stalled"),
            fault_plan=plan,
            trace=session,
        )
        assert len(results) == NPROCS  # a stall slows the run, never kills it
        stalls = _instants(session, "fault.stall")
        assert [rank for rank, _ in stalls] == [2]
        assert stalls[0][1]["seconds"] == 0.05
        assert stalls[0][1]["op_index"] == 5

    def test_som_resume_marker_in_trace(self, tmp_path):
        from repro.obs.trace import TraceSession

        rng = np.random.default_rng(9)
        matrix = os.path.join(tmp_path, "v.mat")
        write_matrix_file(matrix, rng.normal(size=(200, 6)))

        def cfg(**overrides):
            kwargs = dict(
                matrix_path=matrix, grid=SOMGrid(5, 5), epochs=4,
                block_rows=40, mapstyle=MapStyle.CHUNK,
                checkpoint_dir=str(tmp_path / "ck"),
            )
            kwargs.update(overrides)
            return MrSomConfig(**kwargs)

        session = TraceSession(NPROCS)
        plan = FaultPlan([CrashRank(rank=1, at_op=10)])
        outcome = mrsom_supervised(
            NPROCS, cfg(), fault_plan=plan, retry=FAST_RETRY, trace=session,
        )
        assert outcome.succeeded
        assert _instants(session, "fault.crash")
        resumes = [a["resumed_from_epoch"]
                   for _r, a in _instants(session, "mrsom.resume")]
        assert 0 in resumes
        assert any(v >= 1 for v in resumes)
        # Epoch checkpoints the master committed are on the timeline too.
        commits = _instants(session, "checkpoint.commit")
        assert all(rank == 0 for rank, _ in commits)
        assert len(commits) >= cfg().epochs
