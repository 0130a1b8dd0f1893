"""Failure paths: degraded completion mid-batch and restart without dupes.

Two distinct failure classes:

- a *worker* dying mid-batch under ``degraded=True`` — the batch completes
  on survivors with byte-correct results and the session keeps serving;
- the whole *session* dying (application error, ``degraded=False``) — the
  service restarts it, resubmits only unresolved queries, and the delivery
  ledger guarantees the sink never sees a query's results twice, even
  across a full service restart.
"""

import pytest

from repro.mpi.exceptions import RankFailure
from repro.serve import DeliveryLedger, QueryService, ResidentBlastSession, ServeConfig


def make_cfg(alias_path, options, **kw):
    defaults = dict(
        alias_path=alias_path, nprocs=3, options=options, backend="thread",
        max_batch=4, max_delay=0.01, idle_tick=0.05,
    )
    defaults.update(kw)
    return ServeConfig(**defaults)


class TestDegradedMidBatch:
    def test_worker_crash_completes_batch_with_correct_results(
            self, serve_workload, oracle):
        alias_path, reads, options = serve_workload
        tripped = []

        def die_once(item):
            if item.block_index == 0 and item.partition_index == 0 and not tripped:
                tripped.append(True)
                raise RankFailure(-1, -1)

        cfg = make_cfg(alias_path, options, degraded=True,
                       unit_fault_injector=die_once)
        svc = QueryService(cfg).start()
        try:
            futures = [svc.submit(r) for r in reads]
            svc.drain(timeout=120.0)
            for r, fut in zip(reads, futures):
                assert fut.result(timeout=0.0) == oracle[r.id]
        finally:
            stats = dict(svc.stats)
            svc.close()
        assert tripped, "fault injector never fired"
        assert stats["degraded_batches"] >= 1
        assert stats["restarts"] == 0  # degraded completion, not a restart


class TestSessionRestart:
    def _arming_factory(self, cfg, armed):
        """Session factory whose fault injector fires only while armed."""

        def crash_when_armed(item):
            if armed and armed[0]:
                armed[0] = False
                raise RuntimeError("injected session loss")

        def factory():
            import dataclasses

            session_cfg = dataclasses.replace(
                cfg, unit_fault_injector=crash_when_armed)
            return ResidentBlastSession(session_cfg).start()

        return factory

    def test_restart_resubmits_only_unresolved_queries(
            self, serve_workload, oracle, tmp_path):
        alias_path, reads, options = serve_workload
        cfg = make_cfg(alias_path, options, degraded=False)
        armed = [False]
        ledger = DeliveryLedger(
            str(tmp_path / "ledger.json"), str(tmp_path / "sink.tsv"))
        svc = QueryService(
            cfg, session_factory=self._arming_factory(cfg, armed),
            ledger=ledger).start()
        try:
            # Phase 1: deliver a first wave cleanly.
            first = [svc.submit(r) for r in reads[:4]]
            svc.drain(timeout=120.0)
            assert all(f.done() for f in first)
            assert len(ledger) == 4

            # Phase 2: arm the injector; the next batch kills the session.
            armed[0] = True
            second = [svc.submit(r) for r in reads[4:8]]
            svc.drain(timeout=120.0)
            for r, fut in zip(reads[4:8], second):
                assert fut.result(timeout=0.0) == oracle[r.id]
        finally:
            stats = dict(svc.stats)
            svc.close()

        assert stats["restarts"] == 1
        assert stats["resubmitted"] >= 1
        # Exactly-once delivery: one ledger entry per query, and the sink
        # is precisely the concatenation the ledger describes.
        assert len(ledger) == 8
        sink = open(tmp_path / "sink.tsv", "rb").read()
        assert sink == b"".join(
            ledger.read(r.id) for r in sorted(
                reads, key=lambda r: ledger._entries[r.id][0]))
        for r in reads:
            assert ledger.read(r.id) == oracle[r.id]

    def test_restart_budget_is_bounded(self, serve_workload):
        alias_path, reads, options = serve_workload
        cfg = make_cfg(alias_path, options, degraded=False, nprocs=2)

        def always_crash(item):
            raise RuntimeError("permanently broken")

        import dataclasses

        broken = dataclasses.replace(cfg, unit_fault_injector=always_crash)
        svc = QueryService(
            cfg, session_factory=lambda: ResidentBlastSession(broken).start(),
            max_restarts=2).start()
        try:
            svc.submit(reads[0])
            with pytest.raises(RuntimeError, match="giving up"):
                svc.drain(timeout=120.0)
        finally:
            svc.close()

    def test_background_pump_failure_rejects_outstanding_futures(
            self, serve_workload):
        # Regression: a pump that gave up on the session used to leave
        # every outstanding future hanging until caller timeout, and
        # intake open.  Whoever pumps (here drain() on the caller) now
        # fails them all with the error it raises, and closes intake.
        alias_path, reads, options = serve_workload
        cfg = make_cfg(alias_path, options, degraded=False, nprocs=2)

        def always_crash(item):
            raise RuntimeError("permanently broken")

        import dataclasses

        broken = dataclasses.replace(cfg, unit_fault_injector=always_crash)
        svc = QueryService(
            cfg, session_factory=lambda: ResidentBlastSession(broken).start(),
            max_restarts=1).start()
        try:
            fut = svc.submit(reads[0])
            with pytest.raises(RuntimeError, match="giving up") as gave_up:
                svc.drain(timeout=120.0)
            with pytest.raises(RuntimeError) as rejected:
                fut.result(timeout=0.0)
            assert rejected.value is gave_up.value
            # Terminal: the service stopped intake too.
            from repro.serve.admission import AdmissionError

            with pytest.raises(AdmissionError, match="closed"):
                svc.submit(reads[1])
        finally:
            svc.close()


class TestLedgerResumeAcrossServices:
    def test_new_service_over_old_ledger_never_duplicates(
            self, serve_workload, oracle, tmp_path):
        alias_path, reads, options = serve_workload
        cfg = make_cfg(alias_path, options, nprocs=2)
        ledger_path = str(tmp_path / "ledger.json")
        sink_path = str(tmp_path / "sink.tsv")

        # Service 1 delivers the first half, then goes away entirely.
        svc1 = QueryService(
            cfg, ledger=DeliveryLedger(ledger_path, sink_path)).start()
        try:
            futs = [svc1.submit(r) for r in reads[:4]]
            svc1.drain(timeout=120.0)
            assert all(f.done() for f in futs)
        finally:
            svc1.close()
        sink_after_first = open(sink_path, "rb").read()

        # Service 2 resumes over the same ledger and is asked for all 8:
        # the first 4 come back from the sink, only the last 4 are new.
        ledger2 = DeliveryLedger(ledger_path, sink_path)
        assert len(ledger2) == 4
        svc2 = QueryService(cfg, ledger=ledger2).start()
        try:
            futs = [svc2.submit(r) for r in reads]
            svc2.drain(timeout=120.0)
            for r, fut in zip(reads, futs):
                assert fut.result(timeout=0.0) == oracle[r.id]
        finally:
            svc2.close()

        sink = open(sink_path, "rb").read()
        assert sink.startswith(sink_after_first)  # old bytes never rewritten
        assert len(ledger2) == 8  # one entry per query, no duplicates
        assert len(sink) == sum(
            ledger2._entries[r.id][1] for r in reads)

    def test_reopen_truncates_orphaned_sink_bytes(self, tmp_path):
        # A crash between the sink append and the ledger commit leaves
        # uncommitted bytes in the sink; reopening must truncate them so
        # the re-delivered query is not duplicated in the sink itself.
        ledger_path = str(tmp_path / "ledger.json")
        sink_path = str(tmp_path / "sink.tsv")
        ledger = DeliveryLedger(ledger_path, sink_path)
        ledger.record("q1", b"alpha\thit\n")
        with open(sink_path, "ab") as fh:  # the simulated crash window
            fh.write(b"orphaned-uncommitted-append\n")

        reopened = DeliveryLedger(ledger_path, sink_path)
        assert open(sink_path, "rb").read() == b"alpha\thit\n"
        reopened.record("q2", b"beta\thit\n")
        assert open(sink_path, "rb").read() == b"alpha\thit\nbeta\thit\n"
        assert reopened.read("q1") == b"alpha\thit\n"
        assert reopened.read("q2") == b"beta\thit\n"
