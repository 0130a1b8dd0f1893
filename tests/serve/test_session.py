"""Resident rank session: warm ranks, many jobs, clean traces, degradation.

These are integration tests of :mod:`repro.serve.session` alone (no
service front door): jobs are pushed straight at the session and envelopes
read back, pinning the rank-loop invariants the service builds on.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro.blast.dbreader import DatabaseAlias
from repro.core.mrblast.pipeline import BlastPipeline
from repro.core.mrblast.reducer import MrBlastReducer
from repro.mpi.exceptions import RankFailure
from repro.mpi.runtime import run_spmd
from repro.obs.trace import TraceSession, current_tracer
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
        assert all(s is not None and s["serve.jobs"] == 2 for s in stats)
        assert sum(s["mrblast.units"] for s in stats) > 0

    def test_idle_session_survives_on_keepalive_ticks(self, serve_workload):
        alias_path, reads, options = serve_workload
        cfg = make_cfg(alias_path, options, idle_tick=0.02)
        session = ResidentBlastSession(cfg).start()
        try:
            time.sleep(0.15)  # several tick periods of pure idleness
            envs = run_jobs(session, [BlockJob(job_id=0, queries=tuple(reads[:2]))])
            assert envs[0].results
        finally:
            stats = session.stop()
        assert all(s["serve.ticks"] >= 1 for s in stats)
        assert not session.failed

    def test_session_budget_bounds_the_drain_not_the_lifetime(
            self, serve_workload, oracle):
        # Regression: the watcher used to pass session_budget to the join
        # at start(), so a perfectly healthy resident session was
        # force-aborted once it had merely been *up* that long.  The budget
        # must only clock the shutdown drain after the stop sentinel.
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
        assert stats is not None and all(s["serve.jobs"] == 1 for s in stats)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_running_session_reports_every_rank_metrics(self, serve_workload, backend):
        """A live session answers with each rank's snapshot, queued behind the
        jobs before it; stop() returns the same record, one job later."""
        alias_path, reads, options = serve_workload
        session = ResidentBlastSession(make_cfg(alias_path, options, backend=backend)).start()
        try:
            run_jobs(session, [BlockJob(job_id=0, queries=tuple(reads[:3]))])
            live = session.rank_metrics(timeout=60.0)
            run_jobs(session, [BlockJob(job_id=1, queries=tuple(reads[3:5]))])
        finally:
            final = session.stop()
        assert [s["serve.jobs"] for s in live] == [1, 1]
        assert [s["serve.jobs"] for s in final] == [2, 2]
        assert live[0]["mrblast.units"] == 0 < live[1]["mrblast.units"]  # rank 0 dispatches
        assert live[0]["mrblast.queries_written"] == 3  # a job reduces on rank 0
        for before, after in zip(live, final):
            assert after["mr.map_s"] > before["mr.map_s"] > 0

    def test_a_timed_out_request_leaves_no_stale_reply(self, serve_workload):
        """The reply to a call that timed out behind a job is dropped: the
        next call returns a snapshot taken after its own request."""
        alias_path, reads, options = serve_workload
        session = ResidentBlastSession(make_cfg(alias_path, options)).start()
        try:
            session.submit(BlockJob(job_id=0, queries=tuple(reads[:3])))
            with pytest.raises(TimeoutError):
                session.rank_metrics(timeout=0.0)  # queued behind job 0
            assert session.poll_result(timeout=60.0).job_id == 0
            run_jobs(session, [BlockJob(job_id=1, queries=tuple(reads[3:5]))])
            fresh = session.rank_metrics(timeout=60.0)
        finally:
            session.stop()
        assert [s["serve.jobs"] for s in fresh] == [2, 2]

    def test_rank_metrics_needs_a_running_session(self, serve_workload):
        alias_path, _reads, options = serve_workload
        session = ResidentBlastSession(make_cfg(alias_path, options))
        with pytest.raises(RuntimeError):
            session.rank_metrics()
        session.start().stop()
        with pytest.raises(RuntimeError):
            session.rank_metrics()

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
            make_cfg(alias_path, options, max_pending=0).validate()


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
    """A service job reduces on rank 0: each unit's rows ride its completion
    request to rank 0, which alone groups and reduces them once the map
    retires.  No gather, no shuffle round, no collective and no barrier
    runs inside a job."""

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
            assert not {"mr.gather", "mr.aggregate", "mpi.alltoall", "mpi.reduce",
                        "mpi.barrier"} & set(inside), (rank, inside)
            assert inside.count("mr.map") == 1, (rank, inside)
            grouped = {"mr.convert", "mr.reduce"} & set(inside)
            assert grouped == ({"mr.convert", "mr.reduce"} if rank == 0 else set()), (
                rank, inside)


def _unit_spans(events):
    """``[(block, partition)]`` of every ``mrblast.unit`` span, in order."""
    return [(attrs["block"], attrs["partition"])
            for ph, _ts, _sid, name, _cat, attrs in events
            if ph == "B" and name == "mrblast.unit"]


class TestCompletionPages:
    """Rank 0 keeps each unit's rows exactly once, whichever copies of it
    ran and whoever died after sending them."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_a_cloned_unit_keeps_one_copy_of_its_rows(
            self, split_workload, split_oracle, backend):
        alias_path, reads, options = split_workload
        # The first run of unit (0, 0) stalls until its chunk is overdue, so
        # an idle worker runs a copy; both copies reach rank 0.
        stalled = multiprocessing.get_context("fork").Value("b", 0)

        def stall_once(item):
            if item.block_index == 0 and item.partition_index == 0:
                with stalled.get_lock():
                    if stalled.value:
                        return
                    stalled.value = 1
                time.sleep(0.6)

        queries = tuple(reads[:4])
        cfg = make_cfg(alias_path, options, nprocs=3, backend=backend,
                       speculation_factor=2.0, unit_fault_injector=stall_once)
        session = ResidentBlastSession(cfg).start()
        try:
            (env,) = run_jobs(session, [BlockJob(job_id=0, queries=queries)])
        finally:
            stats = session.stop()
        assert stats[0]["sched.speculated_units"] >= 1
        assert stats[0]["sched.wasted_units"] >= 1
        for q in queries:
            assert env.results.get(q.id, b"") == split_oracle[q.id]
        # The wasted copy's rows were dropped on rank 0, not reduced twice.
        assert env.kv_bytes == run_spmd(1, _kv_bytes_after_map, alias_path,
                                        options, queries)[0]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_a_worker_lost_after_completing_units_has_them_redone_once(
            self, split_workload, split_oracle, backend):
        alias_path, reads, options = split_workload
        # The first worker to start a unit of its second chunk dies there:
        # its first chunk's rows are already on rank 0, accepted.
        started = multiprocessing.get_context("fork").Value("b", 0)
        units_here = {}

        def die_in_second_chunk(item):
            me = (os.getpid(), threading.get_ident())
            units_here[me] = units_here.get(me, 0) + 1
            if units_here[me] == 3:
                with started.get_lock():
                    if started.value:
                        return
                    started.value = 1
                raise RankFailure(-1, -1)

        queries = tuple(reads[:4])
        cfg = make_cfg(alias_path, options, nprocs=3, degraded=True, backend=backend,
                       unit_fault_injector=die_in_second_chunk)
        trace = TraceSession(cfg.nprocs)
        session = ResidentBlastSession(cfg, trace=trace).start()
        try:
            (env,) = run_jobs(session, [BlockJob(job_id=0, queries=queries)])
        finally:
            stats = session.stop()
        (dead,) = env.lost_ranks
        done_by_dead = _unit_spans(trace.tracer(dead).events)
        assert len(done_by_dead) == 2  # its first chunk, rows sent
        assert sum(attrs["hits"] for ph, _ts, _sid, name, _cat, attrs
                   in trace.tracer(dead).events
                   if ph == "E" and name == "mrblast.unit") > 0
        survivors = [u for rank in range(cfg.nprocs) if rank != dead
                     for u in _unit_spans(trace.tracer(rank).events)]
        nparts = DatabaseAlias.load(alias_path).num_partitions
        # Every unit ran once on the survivors, the dead rank's included.
        assert sorted(survivors) == [(0, p) for p in range(nparts)]
        assert stats[0]["sched.reassigned_units"] == len(done_by_dead) + 1
        for q in queries:
            assert env.results.get(q.id, b"") == split_oracle[q.id]
        assert env.kv_bytes == run_spmd(1, _kv_bytes_after_map, alias_path,
                                        options, queries)[0]


class TestResidentPartitions:
    """A resident rank maps a DB partition once and keeps it: a later
    unit on that partition, in this job or the next, opens nothing."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_each_rank_opens_a_partition_at_most_once(
            self, split_workload, split_oracle, backend, monkeypatch):
        alias_path, reads, options = split_workload
        opened = DatabaseAlias.open_partition

        def traced_open(self, index):
            current_tracer().instant("test.open_partition", cat="test", index=index)
            return opened(self, index)

        # Forked ranks inherit the patch; each rank's opens reach its trace.
        monkeypatch.setattr(DatabaseAlias, "open_partition", traced_open)
        cfg = make_cfg(alias_path, options, nprocs=3, backend=backend)
        trace = TraceSession(cfg.nprocs)
        session = ResidentBlastSession(cfg, trace=trace).start()
        jobs = [BlockJob(job_id=i, queries=tuple(reads[2 * i:2 * i + 2])) for i in range(4)]
        try:
            envs = run_jobs(session, jobs)
        finally:
            stats = session.stop()
        for env, job in zip(envs, jobs):
            for q in job.queries:
                assert env.results.get(q.id, b"") == split_oracle[q.id]
        nparts = DatabaseAlias.load(alias_path).num_partitions
        every = []
        for rank in range(cfg.nprocs):
            opens = [attrs["index"] for ph, _ts, _sid, name, _cat, attrs
                     in trace.tracer(rank).events
                     if ph == "i" and name == "test.open_partition"]
            assert len(opens) == len(set(opens)), (rank, opens)
            # A switch is still counted when it opens nothing.
            assert stats[rank]["mrblast.partition_switches"] >= len(opens)
            every += opens
        assert set(every) == set(range(nparts))
        assert sum(s["mrblast.partition_switches"] for s in stats) > len(every)


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
        assert envs[1].lost_ranks == (dead,)
        assert stats[dead] is None  # the lost rank left the session
        survivors = [rank for rank, s in enumerate(stats) if s is not None]
        assert len(survivors) == 2
        for rank in survivors:
            assert stats[rank]["sched.lost_ranks"] == 1
            assert stats[rank]["serve.jobs"] == 2
            # Every survivor shrank past the same global rank, once.
            shrinks = [tuple(attrs["lost"]) for ph, _ts, _sid, name, _cat, attrs
                       in trace.tracer(rank).iter_events()
                       if ph == "i" and name == "sched.shrink"]
            assert shrinks == [(dead,)], (rank, shrinks)

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
        """The survivors' communicator is a shrunk one, and completion
        requests cross it with array pages: each must be read from its
        sender."""
        self._worker_death_mid_batch(serve_workload, oracle, "process")
