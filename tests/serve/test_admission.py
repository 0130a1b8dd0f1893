"""Admission control and backpressure on virtual time: no sleeps anywhere.

The watermark gauge is a pure state machine; the service-level capacity
and backpressure tests drive a full
:class:`~repro.serve.service.QueryService` against a scripted in-memory
session on a :class:`~repro.obs.trace.TickClock`.
"""

import pytest

from repro.bio.seq import SeqRecord
from repro.obs.trace import Tracer
from repro.serve.admission import AdmissionError, BackpressureGauge
from repro.serve.service import QueryService
from repro.serve.session import BlockResult, ServeConfig

from oracles.clocks import TickClock


class TestBackpressureGauge:
    def test_engage_release_hysteresis(self):
        g = BackpressureGauge(high_bytes=100, low_bytes=50)
        assert g.update(80) is None and not g.engaged
        assert g.update(100) == "engage" and g.engaged
        assert g.update(120) is None  # already engaged, no re-fire
        assert g.update(75) is None  # between watermarks: stays engaged
        assert g.update(49) == "release" and not g.engaged
        # one engage per crossing: what the service's serve.backpressure_engages counts
        transitions = [g.update(v) for v in (100, 120, 49, 100)]
        assert transitions.count("engage") == 2

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
        # Budget = nprocs x memsize = 2000 bytes; high mark 1600, low 1000.
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


class TestServiceCapacity:
    def test_global_capacity(self, serve_workload, tmp_path):
        alias_path, _reads, _options = serve_workload
        svc = QueryService(
            _cfg(tmp_path, alias_path, max_pending=4), clock=TickClock(),
            session_factory=lambda: _ScriptedSession([])).start()
        for i in range(4):
            svc.submit(SeqRecord(id=f"q{i}", seq="ACGT"))
        with pytest.raises(AdmissionError) as ei:
            svc.submit(SeqRecord(id="q4", seq="ACGT"))
        assert ei.value.reason == "capacity"
        assert svc.stats["rejected"] == 1 and svc.stats["submitted"] == 4
        svc.close()
