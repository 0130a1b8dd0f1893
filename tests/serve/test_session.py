"""Resident rank session: warm ranks, many jobs, clean traces, degradation.

These are integration tests of :mod:`repro.serve.session` alone (no
service front door): jobs are pushed straight at the session and envelopes
read back, pinning the rank-loop invariants the service builds on.
"""

import multiprocessing

import pytest

from repro.core.mrblast.pipeline import BlastPipeline
from repro.core.mrblast.reducer import MrBlastReducer
from repro.mpi.exceptions import RankFailure
from repro.mpi.runtime import run_spmd
from repro.obs.trace import TraceSession
from repro.serve.session import BlockJob, ResidentBlastSession, ServeConfig


def make_cfg(alias_path, options, **kw):
    defaults = dict(
        alias_path=alias_path, nprocs=2, options=options, backend="thread",
        idle_tick=0.05, max_batch=4,
    )
    defaults.update(kw)
    return ServeConfig(**defaults)


def _kv_bytes_after_map(comm, alias_path, options, queries):
    """``nbytes`` of the KV dataset one query block maps to, outside the service."""
    pipeline = BlastPipeline(comm, make_cfg(alias_path, options), [list(queries)])
    try:
        return pipeline.iterate({}, MrBlastReducer(pipeline.mapper.options))
    finally:
        pipeline.close()


def run_jobs(session, jobs, timeout=60.0):
    """Submit jobs one by one, returning their envelopes in order."""
    envelopes = []
    for job in jobs:
        session.submit(job)
        env = session.poll_result(timeout=timeout)
        assert env is not None, f"no envelope for job {job.job_id}"
        envelopes.append(env)
    return envelopes


class TestResidentSession:
    def test_two_consecutive_jobs_on_the_same_ranks(self, serve_workload, oracle):
        alias_path, reads, options = serve_workload
        session = ResidentBlastSession(make_cfg(alias_path, options)).start()
        try:
            envs = run_jobs(session, [
                BlockJob(job_id=0, queries=tuple(reads[:4])),
                BlockJob(job_id=1, queries=tuple(reads[4:8])),
            ])
        finally:
            stats = session.stop()
        assert [e.job_id for e in envs] == [0, 1]
        for env, queries in zip(envs, (reads[:4], reads[4:8])):
            for q in queries:
                assert env.results.get(q.id, b"") == oracle[q.id]
        # Same ranks served both jobs: lifetime counters span the session.
        assert all(s is not None and s.jobs_run == 2 for s in stats)
        assert sum(s.units_processed for s in stats) > 0

    def test_idle_session_survives_on_keepalive_ticks(self, serve_workload):
        import time

        alias_path, reads, options = serve_workload
        cfg = make_cfg(alias_path, options, idle_tick=0.02)
        session = ResidentBlastSession(cfg).start()
        try:
            time.sleep(0.15)  # several tick periods of pure idleness
            envs = run_jobs(session, [BlockJob(job_id=0, queries=tuple(reads[:2]))])
            assert envs[0].results
        finally:
            stats = session.stop()
        assert all(s.ticks_seen >= 1 for s in stats)
        assert not session.failed

    def test_session_budget_bounds_the_drain_not_the_lifetime(
            self, serve_workload, oracle):
        # Regression: the watcher used to pass session_budget to the join
        # at start(), so a perfectly healthy resident session was
        # force-aborted once it had merely been *up* that long.  The budget
        # must only clock the shutdown drain after the stop sentinel.
        import time

        alias_path, reads, options = serve_workload
        cfg = make_cfg(alias_path, options, session_budget=0.2)
        session = ResidentBlastSession(cfg).start()
        try:
            time.sleep(0.5)  # several whole budget periods of healthy uptime
            assert not session.failed and not session.closed
            envs = run_jobs(session, [BlockJob(job_id=0, queries=(reads[0],))])
            assert envs[0].results.get(reads[0].id, b"") == oracle[reads[0].id]
        finally:
            stats = session.stop(timeout=30.0)
        assert not session.failed
        assert stats is not None and all(s.jobs_run == 1 for s in stats)

    def test_session_reports_exact_kv_bytes(self, serve_workload):
        alias_path, reads, options = serve_workload
        session = ResidentBlastSession(make_cfg(alias_path, options)).start()
        try:
            (env,) = run_jobs(session, [BlockJob(job_id=0, queries=tuple(reads[:4]))])
        finally:
            session.stop()
        # Columnar plane: nbytes is exact array accounting, and a block
        # with hits must have staged a nonzero working set.
        assert env.kv_bytes > 0
        # The number the backpressure gauge feeds on is the post-map KV size
        # summed over ranks (it rides the result gather, not a collective of
        # its own): the same block mapped on one rank holds exactly that.
        assert env.kv_bytes == run_spmd(1, _kv_bytes_after_map, alias_path,
                                        options, tuple(reads[:4]))[0]

    def test_submit_after_stop_raises(self, serve_workload):
        alias_path, reads, options = serve_workload
        session = ResidentBlastSession(make_cfg(alias_path, options)).start()
        session.stop()
        with pytest.raises(RuntimeError):
            session.submit(BlockJob(job_id=0, queries=tuple(reads[:1])))

    def test_config_validation_fails_fast(self, serve_workload, tmp_path):
        alias_path, _reads, options = serve_workload
        with pytest.raises(ValueError):
            ServeConfig(alias_path=str(tmp_path / "nope.pal.json")).validate()
        with pytest.raises(ValueError):
            make_cfg(alias_path, options, nprocs=0).validate()
        with pytest.raises(ValueError):
            make_cfg(alias_path, options, idle_tick=0.0).validate()
        with pytest.raises(ValueError):
            make_cfg(alias_path, options, low_watermark=0.9,
                     high_watermark=0.5).validate()


class TestTraceBalanceAcrossJobs:
    """Regression: resident ranks must not leak open spans between jobs.

    The one-shot tracers assumed one job per process lifetime; a resident
    rank brackets every job with ``open_depth``/``unwind(to_depth=...)`` so
    two consecutive jobs on the same ranks export balanced B/E streams.
    """

    def test_b_e_balanced_after_two_jobs(self, serve_workload):
        alias_path, reads, options = serve_workload
        cfg = make_cfg(alias_path, options)
        trace = TraceSession(cfg.nprocs)
        session = ResidentBlastSession(cfg, trace=trace).start()
        try:
            run_jobs(session, [
                BlockJob(job_id=0, queries=tuple(reads[:3])),
                BlockJob(job_id=1, queries=tuple(reads[3:6])),
            ])
        finally:
            session.stop()
        for rank in range(cfg.nprocs):
            events = trace.tracer(rank).events
            begins = sum(1 for e in events if e[0] == "B")
            ends = sum(1 for e in events if e[0] == "E")
            assert begins == ends, f"rank {rank}: {begins} B vs {ends} E"
            assert trace.tracer(rank).open_depth == 0
            # Both jobs left their serve.job span in the stream.
            job_spans = [e for e in events if e[0] == "B" and e[3] == "serve.job"]
            assert len(job_spans) == 2

    def test_chrome_export_validates_after_consecutive_jobs(self, serve_workload):
        from repro.obs.export import chrome_trace, validate_chrome_trace

        alias_path, reads, options = serve_workload
        cfg = make_cfg(alias_path, options)
        trace = TraceSession(cfg.nprocs)
        session = ResidentBlastSession(cfg, trace=trace).start()
        try:
            run_jobs(session, [
                BlockJob(job_id=0, queries=tuple(reads[:2])),
                BlockJob(job_id=1, queries=tuple(reads[2:4])),
            ])
        finally:
            session.stop()
        assert validate_chrome_trace(chrome_trace(trace)) == []


def spans_inside_jobs(events):
    """``{job_id: [names of the spans opened inside its serve.job span]}``."""
    jobs, current = {}, None
    for ph, _ts, _sid, name, _cat, attrs in events:
        if ph == "B" and name == "serve.job":
            current = jobs[attrs["job_id"]] = []
        elif ph == "E" and name == "serve.job":
            current = None
        elif ph == "B" and current is not None:
            current.append(name)
    return jobs


class TestPerJobPath:
    """A service job reduces on rank 0: the ranks map, every worker's KV is
    gathered to rank 0, and rank 0 alone groups and reduces it.  No shuffle
    round, no collective and no barrier runs inside a job."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_one_query_job_gathers_to_rank_0_and_runs_no_collective(
            self, serve_workload, oracle, backend):
        alias_path, reads, options = serve_workload
        cfg = make_cfg(alias_path, options, nprocs=3, backend=backend)
        trace = TraceSession(cfg.nprocs)
        session = ResidentBlastSession(cfg, trace=trace).start()
        try:
            (env,) = run_jobs(session, [BlockJob(job_id=0, queries=(reads[0],))])
        finally:
            session.stop()
        assert env.results.get(reads[0].id, b"") == oracle[reads[0].id]
        for rank in range(cfg.nprocs):
            inside = spans_inside_jobs(trace.tracer(rank).events)[0]
            assert not {"mr.aggregate", "mpi.alltoall", "mpi.reduce",
                        "mpi.barrier"} & set(inside), (rank, inside)
            assert inside.count("mr.gather") == 1, (rank, inside)
        rank0 = spans_inside_jobs(trace.tracer(0).events)[0]
        assert {"mr.convert", "mr.reduce"} <= set(rank0)


class TestDegradedSession:
    @staticmethod
    def _worker_death_mid_batch(serve_workload, oracle, backend):
        alias_path, reads, options = serve_workload
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

        cfg = make_cfg(alias_path, options, nprocs=3, degraded=True, backend=backend,
                       unit_fault_injector=die_once)
        trace = TraceSession(cfg.nprocs)
        session = ResidentBlastSession(cfg, trace=trace).start()
        try:
            envs = run_jobs(session, [
                BlockJob(job_id=0, queries=tuple(reads[:4])),
                BlockJob(job_id=1, queries=tuple(reads[4:8])),
            ])
        finally:
            stats = session.stop()

        # Job 0 completed degraded with byte-correct results.
        assert envs[0].degraded
        assert len(envs[0].lost_ranks) == 1 and 0 not in envs[0].lost_ranks
        for q in reads[:4]:
            assert envs[0].results.get(q.id, b"") == oracle[q.id]
        # The session kept serving on the survivors: job 1 also correct.
        for q in reads[4:8]:
            assert envs[1].results.get(q.id, b"") == oracle[q.id]
        assert not session.failed

        dead = envs[0].lost_ranks[0]
        assert stats[dead] is None  # the lost rank left the session
        survivors = [s for s in stats if s is not None]
        assert {s.rank for s in survivors} | {dead} == {0, 1, 2}
        for s in survivors:
            assert s.degraded and s.lost_ranks == (dead,)
            assert s.jobs_run == 2

        # Even the dead rank's trace is balanced: its unwind closed the
        # spans DegradedRankLoss tore through.
        for rank in range(cfg.nprocs):
            events = trace.tracer(rank).events
            b = sum(1 for e in events if e[0] == "B")
            e_ = sum(1 for e in events if e[0] == "E")
            assert b == e_, f"rank {rank} unbalanced after degraded loss"

    def test_worker_death_mid_batch_then_service_continues(
            self, serve_workload, oracle):
        self._worker_death_mid_batch(serve_workload, oracle, "thread")

    def test_worker_death_mid_batch_on_the_process_backend(
            self, serve_workload, oracle):
        """The survivors' communicator is a shrunk one, and the root gather
        crosses it with array pages: each must be read from its sender."""
        self._worker_death_mid_batch(serve_workload, oracle, "process")
