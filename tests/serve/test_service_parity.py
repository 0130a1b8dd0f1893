"""Service/standalone parity: every interleaving, both backends, same bytes.

The pinned property: whatever order queries arrive in, however tenants mix
and wherever batch boundaries land, each :class:`QueryFuture` resolves to
exactly the bytes a standalone single-query ``run_mrblast`` produces —
including repeat submissions of the same query and queries with no hits.
"""

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bio.seq import SeqRecord
from repro.obs.trace import TraceSession
from repro.serve import QueryService, ServeConfig
from repro.serve.session import ResidentBlastSession
from test_session import spans_inside_jobs


def make_service(alias_path, options, *, backend="thread", nprocs=2,
                 max_batch=3, **kw):
    cfg = ServeConfig(
        alias_path=alias_path, nprocs=nprocs, options=options,
        backend=backend, max_batch=max_batch, max_delay=0.01,
        idle_tick=0.05, **kw)
    return QueryService(cfg).start()


@pytest.fixture(scope="module")
def thread_service(serve_workload):
    """One long-lived thread-backend service shared by every example."""
    alias_path, _reads, options = serve_workload
    svc = make_service(alias_path, options)
    yield svc
    svc.close()


class TestSubmissionInterleavings:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(plan=st.lists(
        st.tuples(st.integers(0, 7), st.sampled_from(["alice", "bob", "carol"])),
        min_size=1, max_size=12))
    def test_any_interleaving_matches_the_standalone_bytes(
            self, thread_service, serve_workload, oracle, plan):
        _alias, reads, _options = serve_workload
        futures = [
            (reads[qi].id, thread_service.submit(reads[qi], tenant=tenant))
            for qi, tenant in plan
        ]
        thread_service.drain(timeout=120.0)
        for qid, fut in futures:
            assert fut.result(timeout=0.0) == oracle[qid], (
                f"{qid} diverged from its standalone run")

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(order=st.permutations(list(range(8))))
    def test_arrival_order_never_changes_any_result(
            self, thread_service, serve_workload, oracle, order):
        _alias, reads, _options = serve_workload
        futures = [thread_service.submit(reads[i]) for i in order]
        thread_service.drain(timeout=120.0)
        for i, fut in zip(order, futures):
            assert fut.result(timeout=0.0) == oracle[reads[i].id]


class TestBatchBoundaryParity:
    @pytest.mark.parametrize("max_batch", [1, 2, 5, 8])
    def test_results_independent_of_batch_size(
            self, serve_workload, oracle, max_batch):
        alias_path, reads, options = serve_workload
        svc = make_service(alias_path, options, max_batch=max_batch)
        try:
            futures = [svc.submit(r) for r in reads]
            svc.drain(timeout=120.0)
            for r, fut in zip(reads, futures):
                assert fut.result(timeout=0.0) == oracle[r.id]
        finally:
            svc.close()

    def test_repeat_submissions_of_one_query_each_resolve(
            self, serve_workload, oracle):
        alias_path, reads, options = serve_workload
        svc = make_service(alias_path, options, max_batch=4)
        try:
            futures = [svc.submit(reads[0]) for _ in range(3)]
            futures += [svc.submit(reads[1])]
            svc.drain(timeout=120.0)
            for fut in futures[:3]:
                assert fut.result(timeout=0.0) == oracle[reads[0].id]
            assert futures[3].result(timeout=0.0) == oracle[reads[1].id]
            # The duplicate-id parity rule forced extra batches.
            assert svc.stats["batches"] >= 3
        finally:
            svc.close()

    def test_query_with_no_hits_resolves_empty(self, serve_workload):
        alias_path, reads, options = serve_workload
        svc = make_service(alias_path, options)
        try:
            miss = SeqRecord(id="nohit", seq="TTAATTAATT" * 6)
            fut_miss = svc.submit(miss)
            fut_hit = svc.submit(reads[0])
            svc.drain(timeout=120.0)
            assert fut_miss.result(timeout=0.0) == b""
            assert fut_hit.result(timeout=0.0) != b""
        finally:
            svc.close()


class TestConcurrentIntake:
    def test_submit_all_backfills_past_max_pending(self, serve_workload, oracle):
        # Regression: the CLI used to submit every record up front, so any
        # stream longer than max_pending crashed with AdmissionError
        # ("capacity").  submit_all interleaves submission with pumping.
        from repro.serve.cli import submit_all

        alias_path, reads, options = serve_workload
        svc = make_service(alias_path, options, max_batch=2, max_pending=2)
        try:
            futures = submit_all(svc, reads)
            svc.drain(timeout=120.0)
            for r, fut in zip(reads, futures):
                assert fut.result(timeout=0.0) == oracle[r.id]
        finally:
            svc.close()
        assert len(futures) == len(reads)

    def test_threaded_submits_with_background_pump(self, serve_workload, oracle):
        # Regression: submit() on caller threads and pump() on the pump
        # thread used to mutate shared state with no locking.
        import threading

        alias_path, reads, options = serve_workload
        svc = make_service(alias_path, options, max_batch=2)
        svc.start(pump_interval=0.005)
        futures = {}
        errors = []

        def submitter(chunk):
            try:
                for r in chunk:
                    futures[r.id] = svc.submit(r)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=submitter, args=(reads[i::4],))
            for i in range(4)
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors, f"concurrent submit failed: {errors!r}"
            for r in reads:
                assert futures[r.id].result(timeout=120.0) == oracle[r.id]
        finally:
            svc.close()


def _slow_unit(item):
    """Hold every unit 20 ms, so that both workers of a 3-rank session are
    handed some of every job's units."""
    time.sleep(0.02)


class TestProcessBackendParity:
    def test_process_backend_matches_the_thread_oracle(
            self, serve_workload, oracle):
        alias_path, reads, options = serve_workload
        svc = make_service(alias_path, options, backend="process", nprocs=2)
        try:
            futures = [
                svc.submit(r, tenant=t)
                for r, t in zip(reads[:6], ["a", "b", "a", "c", "b", "a"])
            ]
            svc.drain(timeout=180.0)
            for r, fut in zip(reads[:6], futures):
                assert fut.result(timeout=0.0) == oracle[r.id]
        finally:
            svc.close()

    @pytest.mark.parametrize("max_batch", [1, 8])
    def test_three_ranks_rank_0_merges_both_workers_pages(
            self, serve_workload, oracle, max_batch):
        """Two ranks means one worker and nothing to merge; with three,
        every job's units are split between two workers, so rank 0 reduces
        the completion pages of both."""
        alias_path, reads, options = serve_workload
        cfg = ServeConfig(
            alias_path=alias_path, nprocs=3, options=options, backend="process",
            max_batch=max_batch, max_delay=0.01, idle_tick=0.05,
            unit_fault_injector=_slow_unit)
        trace = TraceSession(cfg.nprocs)
        svc = QueryService(
            cfg, session_factory=lambda: ResidentBlastSession(cfg, trace=trace).start())
        svc.start()
        try:
            futures = [svc.submit(r) for r in reads]
            svc.drain(timeout=180.0)
            for r, fut in zip(reads, futures):
                assert fut.result(timeout=0.0) == oracle[r.id]
        finally:
            svc.close()
        assert svc.stats["batches"] == -(-len(reads) // max_batch)
        ones, twos = ({job: spans.count("mrblast.unit") for job, spans
                       in spans_inside_jobs(trace.tracer(rank).events).items()}
                      for rank in (1, 2))
        assert ones.keys() == twos.keys() and len(ones) == svc.stats["batches"]
        assert all(ones[job] and twos[job] for job in ones), (ones, twos)


class TestServeCli:
    def test_cli_serves_the_oracle_bytes_and_writes_every_rank_metrics(
            self, serve_workload, oracle, tmp_path):
        import json

        from repro.bio.fasta import write_fasta
        from repro.serve import cli

        alias_path, reads, _options = serve_workload
        fasta, out, metrics = tmp_path / "q.fasta", tmp_path / "out.tsv", tmp_path / "m.json"
        write_fasta(reads, fasta)
        assert cli.main([
            "--db", alias_path, "--queries", str(fasta), "--np", "2",
            "--backend", "thread", "--evalue", "1e-4", "--max-hits", "25",
            "--max-batch", "4", "--out", str(out), "--metrics", str(metrics)]) == 0
        assert out.read_bytes() == b"".join(oracle[r.id] for r in reads)
        record = json.loads(metrics.read_text())
        service, ranks = record["service"], record["ranks"]
        assert service["serve.delivered"] == service["serve.latency_s"]["count"] == len(reads)
        assert [r["serve.jobs"] for r in ranks] == [service["serve.batches"]] * 2
        assert sum(r["mrblast.units"] for r in ranks) > 0
