"""Admission control and backpressure on virtual time: no sleeps anywhere.

The fair queue, quota controller and watermark gauge are pure state
machines; the service-level backpressure test drives a full
:class:`~repro.serve.service.QueryService` against a scripted in-memory
session on a :class:`~repro.obs.trace.TickClock`.
"""

import pytest

from repro.bio.seq import SeqRecord
from repro.obs.trace import TickClock, Tracer
from repro.serve.admission import (
    AdmissionController,
    AdmissionError,
    BackpressureGauge,
    FairQueue,
)
from repro.serve.service import QueryService
from repro.serve.session import BlockResult, ServeConfig


class TestFairQueue:
    def test_fifo_within_a_tenant(self):
        q = FairQueue()
        for i in range(4):
            q.push("t", i)
        assert [q.pop() for _ in range(4)] == [0, 1, 2, 3]

    def test_weighted_ratio_between_tenants(self):
        q = FairQueue({"heavy": 3.0, "light": 1.0})
        for i in range(12):
            q.push("heavy", ("h", i))
            q.push("light", ("l", i))
        first8 = [q.pop()[0] for _ in range(8)]
        assert first8.count("h") == 6 and first8.count("l") == 2

    def test_pop_order_is_deterministic(self):
        def run():
            q = FairQueue({"a": 2.0})
            for i in range(6):
                q.push("a" if i % 2 else "b", i)
            return [q.pop() for _ in range(6)]

        assert run() == run()

    def test_new_tenant_does_not_jump_the_line(self):
        q = FairQueue()
        for i in range(10):
            q.push("old", i)
        for _ in range(5):
            q.pop()
        q.push("new", "x")
        # The newcomer starts at the current pass floor: it is served soon
        # (fair share) but the old tenant keeps draining too.
        drained = [q.pop() for _ in range(6)]
        assert "x" in drained
        assert [d for d in drained if d != "x"] == [5, 6, 7, 8, 9]

    def test_push_front_restores_head(self):
        q = FairQueue()
        q.push("t", 1)
        q.push("t", 2)
        head = q.pop()
        q.push_front("t", head)
        assert q.pop() == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            FairQueue().pop()

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            FairQueue({"t": 0.0})


class TestAdmissionController:
    def test_global_capacity(self):
        ac = AdmissionController(max_pending=4)
        ac.try_admit("t", pending_total=3, pending_tenant=3)
        with pytest.raises(AdmissionError) as ei:
            ac.try_admit("t", pending_total=4, pending_tenant=4)
        assert ei.value.reason == "capacity"

    def test_tenant_quota_under_saturation(self):
        ac = AdmissionController(
            max_pending=16, weights={"heavy": 3.0, "light": 1.0}, burst=1.0)
        # heavy's quota: 3/4 of 16 = 12; light's: 1/4 of 16 = 4.
        ac.try_admit("heavy", pending_total=11, pending_tenant=11)
        with pytest.raises(AdmissionError) as ei:
            ac.try_admit("heavy", pending_total=12, pending_tenant=12)
        assert ei.value.reason == "tenant-quota"
        ac.try_admit("light", pending_total=12, pending_tenant=3)  # still admitted

    def test_unknown_tenant_counts_at_weight_one(self):
        ac = AdmissionController(max_pending=10, weights={"a": 1.0}, burst=1.0)
        ac.try_admit("b", pending_total=0, pending_tenant=0)
        # a and b now split the weight table evenly: quota 5 each.
        with pytest.raises(AdmissionError):
            ac.try_admit("b", pending_total=5, pending_tenant=5)


class TestBackpressureGauge:
    def test_engage_release_hysteresis(self):
        g = BackpressureGauge(high_bytes=100, low_bytes=50)
        assert g.update(80) is None and not g.engaged
        assert g.update(100) == "engage" and g.engaged
        assert g.update(120) is None  # already engaged, no re-fire
        assert g.update(75) is None  # between watermarks: stays engaged
        assert g.update(49) == "release" and not g.engaged
        assert g.engage_count == 1

    def test_no_flapping_at_the_threshold(self):
        g = BackpressureGauge(high_bytes=100, low_bytes=50)
        transitions = [g.update(v) for v in (100, 99, 100, 99, 49, 99, 100)]
        assert transitions == ["engage", None, None, None, "release", None, "engage"]

    def test_watermark_validation(self):
        with pytest.raises(ValueError):
            BackpressureGauge(high_bytes=10, low_bytes=20)


class _ScriptedSession:
    """In-memory stand-in for ResidentBlastSession: echoes empty results.

    Each dispatched job yields one envelope whose ``kv_bytes`` comes from a
    script, letting tests steer the service's working-set estimate exactly.
    """

    def __init__(self, kv_bytes_per_batch):
        self.kv_script = list(kv_bytes_per_batch)
        self.envelopes = []
        self.failed = False
        self.failure = None
        self.closed = False

    def submit(self, job):
        kv = self.kv_script.pop(0) if self.kv_script else 0
        self.envelopes.append(BlockResult(
            job_id=job.job_id,
            results={q.id: b"" for q in job.queries},
            kv_bytes=kv,
        ))

    def poll_result(self, timeout=0.0):
        return self.envelopes.pop(0) if self.envelopes else None

    def stop(self, timeout=60.0):
        self.closed = True
        return []


def _cfg(tmp_path, alias_path, **kw):
    defaults = dict(
        alias_path=alias_path, nprocs=2, backend="thread",
        max_batch=2, max_delay=5.0, memsize=1000,
        high_watermark=0.8, low_watermark=0.4,
    )
    defaults.update(kw)
    return ServeConfig(**defaults)


class TestServiceBackpressure:
    """Service-level backpressure: virtual clock, scripted session."""

    def test_engages_and_releases_around_the_memsize_budget(
            self, serve_workload, tmp_path):
        alias_path, reads, options = serve_workload
        clock = TickClock()
        tracer = Tracer(rank=0, clock=TickClock())
        # Budget = nprocs x memsize = 2000 bytes; high mark 1600, low 800.
        cfg = _cfg(tmp_path, alias_path)
        session = _ScriptedSession(kv_bytes_per_batch=[4000] * 8)
        svc = QueryService(
            cfg, clock=clock, tracer=tracer,
            session_factory=lambda: session).start()

        # First batch teaches the EWMA: 4000 bytes / 2 queries = 2000 per
        # query, far above the 1600-byte high watermark.
        f0 = svc.submit(SeqRecord(id="q0", seq="ACGT"))
        f1 = svc.submit(SeqRecord(id="q1", seq="ACGT"))
        svc.pump()  # dispatches the full batch ...
        svc.pump()  # ... and the next step delivers it
        assert f0.done() and f1.done()

        # Next submissions drive the estimate over the high mark: pending
        # count x 2000 bytes crosses 1600 on the very first admit.
        svc.submit(SeqRecord(id="q2", seq="ACGT"))
        assert svc._gauge.engaged
        with pytest.raises(AdmissionError) as ei:
            svc.submit(SeqRecord(id="q3", seq="ACGT"))
        assert ei.value.reason == "backpressure"
        assert svc.stats["backpressure_engages"] == 1

        # Deliveries shrink the working set below the low mark: released.
        svc.flush()
        svc.pump()
        assert not svc._gauge.engaged
        svc.submit(SeqRecord(id="q4", seq="ACGT"))  # admitted again
        names = [e[3] for e in tracer.events if e[0] == "i"]
        assert "serve.backpressure" in names
        svc.close()

    def test_closed_service_rejects(self, serve_workload, tmp_path):
        alias_path, _reads, _options = serve_workload
        svc = QueryService(
            _cfg(tmp_path, alias_path), clock=TickClock(),
            session_factory=lambda: _ScriptedSession([]))
        svc.close()
        with pytest.raises(AdmissionError) as ei:
            svc.submit(SeqRecord(id="q", seq="ACGT"))
        assert ei.value.reason == "closed"
