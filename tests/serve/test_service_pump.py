"""``QueryService.pump``: deliver first, never wait on idle ranks, and never
hold the service lock while waiting.

A gated stand-in replaces the rank session, so "a job is in flight" lasts
exactly as long as a test says and nothing here depends on how fast a
search runs.  The only timeouts are on ``join``/``result`` calls that
return at once when the code is right and expire when it is not.
"""

import threading

from repro.bio.seq import SeqRecord
from repro.serve import QueryService, ServeConfig
from repro.serve.session import BlockResult

from oracles.clocks import TickClock


class _GatedSession:
    """Finishes a job only when the test calls :meth:`finish`."""

    failed = False
    failure = None
    closed = False

    def __init__(self):
        self.jobs = []
        self._done = []
        self._ready = threading.Condition()
        #: set while a caller is blocked inside poll_result(timeout > 0)
        self.polling = threading.Event()

    def submit(self, job):
        self.jobs.append(job)

    def finish(self, index=-1):
        job = self.jobs[index]
        with self._ready:
            self._done.append(BlockResult(
                job_id=job.job_id, results={q.id: b"" for q in job.queries}))
            self._ready.notify_all()

    def poll_result(self, timeout=0.0):
        with self._ready:
            if not self._done and timeout and timeout > 0:
                self.polling.set()
                self._ready.wait(timeout)
                self.polling.clear()
            return self._done.pop(0) if self._done else None

    def stop(self, timeout=60.0):
        return []


def make_service(serve_workload, session, **kw):
    alias_path, _reads, _options = serve_workload
    cfg = ServeConfig(alias_path=alias_path, nprocs=2, backend="thread",
                      max_batch=4, max_delay=50.0, **kw)
    return QueryService(cfg, clock=TickClock(), session_factory=lambda: session)


def q(i):
    return SeqRecord(id=f"q{i}", seq="ACGT")


class TestServiceMetrics:
    def test_counts_latency_and_batch_sizes_are_one_record(self, serve_workload):
        """``stats`` reads the registry's counters, and every delivery and
        dispatch lands in the latency and batch-size histograms."""
        session = _GatedSession()
        svc = make_service(serve_workload, session).start()
        futures = [svc.submit(q(0))]
        svc.pump()                              # idle: job 0 = [q0]
        futures += [svc.submit(q(i)) for i in (1, 2)]
        session.finish(0)
        svc.pump()                              # delivers job 0, sends [q1, q2]
        session.finish(1)
        svc.pump()
        assert all(f.done() for f in futures)
        snap = svc.metrics.snapshot()
        assert svc.stats == {name[len("serve."):]: int(value) for name, value in snap.items()
                             if not isinstance(value, dict)}
        assert svc.stats["submitted"] == svc.stats["delivered"] == 3
        assert snap["serve.batch_size"]["count"] == svc.stats["batches"] == 2
        assert snap["serve.batch_size"]["sum"] == 3
        latency = snap["serve.latency_s"]
        assert latency["count"] == 3 and latency["min"] > 0  # ticks of the service clock
        svc.close()


class _Clock:
    """A service clock the test (or a stand-in session) sets."""

    now = 0.0

    def __call__(self):
        return self.now


class _SlowDelivery(_GatedSession):
    """Handing over a result takes the service clock to ``after``."""

    def __init__(self, clock, after):
        super().__init__()
        self.clock, self.after = clock, after

    def poll_result(self, timeout=0.0):
        env = super().poll_result(timeout)
        if env is not None:
            self.clock.now = self.after
        return env


class TestClockAfterDelivery:
    def test_a_deadline_passing_during_delivery_flushes_in_that_pump(
            self, serve_workload):
        """The coalescer is asked with the clock read after delivering, and
        a latency sample is taken when its future resolves."""
        clock = _Clock()
        session = _SlowDelivery(clock, after=10.0)
        alias_path, _reads, _options = serve_workload
        cfg = ServeConfig(alias_path=alias_path, nprocs=2, backend="thread",
                          max_batch=2, max_delay=5.0)
        svc = QueryService(cfg, clock=clock, session_factory=lambda: session).start()
        svc.submit(q(0))
        svc.pump()                             # idle -> job 0
        svc.submit(q(1))
        svc.submit(q(2))
        svc.pump()                             # size -> job 1, still in flight below
        svc.submit(q(3))                       # due at 5
        clock.now = 4.0
        session.finish(0)
        svc.pump()                             # delivering job 0 lasts until 10
        assert [len(j.queries) for j in session.jobs] == [1, 2, 1]
        latency = svc.metrics.snapshot()["serve.latency_s"]
        assert latency["count"] == 1 and latency["sum"] == 10.0
        svc.close()


class TestIdleDispatch:
    def test_idle_service_dispatches_at_once_and_batches_behind_a_job(
            self, serve_workload):
        session = _GatedSession()
        svc = make_service(serve_workload, session).start()
        first = svc.submit(q(0))
        svc.pump()  # max_delay is 50 ticks away; the ranks are idle
        assert [len(j.queries) for j in session.jobs] == [1]
        # While that job runs, arrivals wait for company ...
        later = [svc.submit(q(i)) for i in (1, 2)]
        svc.pump()
        assert len(session.jobs) == 1
        # ... and the step that delivers it sends them out together.
        session.finish()
        assert svc.pump() == 1 and first.done()
        assert [len(j.queries) for j in session.jobs] == [1, 2]
        session.finish()
        svc.pump()
        assert all(f.done() for f in later)
        assert svc.stats["batches"] == 2
        svc.close()

    def test_busy_service_still_honours_size_and_deadline(self, serve_workload):
        session = _GatedSession()
        clock = TickClock()
        alias_path, _reads, _options = serve_workload
        cfg = ServeConfig(alias_path=alias_path, nprocs=2, backend="thread",
                          max_batch=2, max_delay=5.0)
        svc = QueryService(cfg, clock=clock, session_factory=lambda: session).start()
        svc.submit(q(0))
        svc.pump(now=0.0)                      # idle -> job 0
        svc.submit(q(1))
        svc.pump(now=1.0)
        assert len(session.jobs) == 1          # busy, one pending: wait
        svc.submit(q(2))
        svc.pump(now=2.0)
        assert [len(j.queries) for j in session.jobs] == [1, 2]   # size
        svc.submit(q(3))                       # stamped by the tick clock
        svc.pump(now=3.0)
        assert len(session.jobs) == 2
        svc.pump(now=100.0)
        assert [len(j.queries) for j in session.jobs] == [1, 2, 1]  # deadline
        svc.close()


class TestWaitingPumpHoldsNoLock:
    def test_submit_is_not_stalled_by_a_pump_waiting_on_results(self, serve_workload):
        session = _GatedSession()
        svc = make_service(serve_workload, session).start()
        svc.submit(q(0))
        svc.pump()  # job 0 in flight
        pumper = threading.Thread(target=svc.pump, kwargs={"wait": 30.0}, daemon=True)
        pumper.start()
        assert session.polling.wait(10.0), "pump never blocked on the result queue"
        box = []
        submitter = threading.Thread(target=lambda: box.append(svc.submit(q(1))),
                                     daemon=True)
        submitter.start()
        submitter.join(10.0)
        assert not submitter.is_alive(), "submit() waited for the pump's lock"
        session.finish()
        pumper.join(10.0)
        assert not pumper.is_alive()
        assert [len(j.queries) for j in session.jobs] == [1, 1]  # q1 went out on delivery
        session.finish()
        svc.drain(timeout=10.0)
        assert box[0].done()
        svc.close()

    def test_background_pump_is_woken_by_submit(self, serve_workload):
        session = _GatedSession()
        # One pump interval is far longer than this test may take: only a
        # pump that submit() wakes can dispatch in time.
        svc = make_service(serve_workload, session).start(pump_interval=60.0)
        try:
            fut = svc.submit(q(0))
            for _ in range(1000):
                if session.jobs:
                    break
                threading.Event().wait(0.01)
            assert len(session.jobs) == 1, "submit() did not wake the idle pump"
            assert session.polling.wait(10.0)  # now blocked on the result queue
            session.finish()
            assert fut.result(timeout=10.0) == b""
        finally:
            svc.close()
