"""Unit tests for the per-rank Tracer, clocks and TraceSession."""

import json
import threading

import pytest

from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    TraceSession,
    current_tracer,
    set_current_tracer,
)

from oracles.clocks import TickClock


def events_of(trc):
    return list(trc.iter_events())


class TestTracerRecording:
    def test_begin_end_produces_balanced_pair(self):
        trc = Tracer(0, clock=TickClock())
        sid = trc.begin("work", cat="test", n=3)
        trc.end(sid, seconds=1.5)
        (b, e) = events_of(trc)
        assert b[0] == "B" and e[0] == "E"
        assert b[2] == e[2] == sid
        assert b[3] == e[3] == "work"
        assert b[5] == {"n": 3} and e[5] == {"seconds": 1.5}

    def test_spans_nest_lifo(self):
        trc = Tracer(0, clock=TickClock())
        outer = trc.begin("outer")
        trc.begin("inner")
        assert trc.open_depth == 2
        trc.end()
        trc.end(outer)
        assert trc.open_depth == 0
        assert [e[3] for e in events_of(trc)] == ["outer", "inner", "inner", "outer"]

    def test_end_without_open_span_raises(self):
        trc = Tracer(0, clock=TickClock())
        with pytest.raises(RuntimeError, match="no open span"):
            trc.end()

    def test_end_with_wrong_sid_raises(self):
        trc = Tracer(0, clock=TickClock())
        trc.begin("a")
        with pytest.raises(RuntimeError, match="does not match"):
            trc.end(sid=12345)

    def test_span_context_manager(self):
        trc = Tracer(0, clock=TickClock())
        with trc.span("phase", cat="mr", k=1):
            trc.instant("tick")
        phases = [e[0] for e in events_of(trc)]
        assert phases == ["B", "i", "E"]

    def test_unwind_closes_all_open_spans(self):
        trc = Tracer(0, clock=TickClock())
        trc.begin("a")
        trc.begin("b")
        trc.begin("c")
        trc.unwind(aborted=True)
        assert trc.open_depth == 0
        ends = [e for e in events_of(trc) if e[0] == "E"]
        assert len(ends) == 3
        assert all(e[5] == {"aborted": True} for e in ends)

    def test_timestamps_monotonic_even_with_backwards_clock(self):
        ticks = iter([5.0, 3.0, 9.0, 1.0])
        trc = Tracer(0, clock=lambda: next(ticks))
        for _ in range(4):
            trc.instant("x")
        ts = [e[1] for e in events_of(trc)]
        assert ts == sorted(ts)
        assert ts == [5.0, 5.0, 9.0, 9.0]

    def test_span_ids_unique_across_ranks(self):
        session = TraceSession(4, clock=TickClock())
        sids = set()
        for rank in range(4):
            trc = session.tracer(rank)
            for _ in range(50):
                sid = trc.begin("s")
                assert sid not in sids
                sids.add(sid)
                trc.end(sid)


class TestTracerBounds:
    def test_overflow_without_spill_drops_and_counts(self):
        trc = Tracer(0, clock=TickClock(), max_events=4)
        for _ in range(10):
            trc.instant("x")
        assert len(trc.events) == 4
        assert trc.dropped_events == 6

    def test_overflow_spills_to_jsonl_and_iterates_in_order(self, tmp_path):
        spill = tmp_path / "spill.jsonl"
        trc = Tracer(2, clock=TickClock(), max_events=3, spill_path=spill)
        for i in range(10):
            trc.instant("x", i=i)
        assert trc.dropped_events == 0
        assert trc.spilled_events > 0
        got = [e[5]["i"] for e in events_of(trc)]
        assert got == list(range(10))
        # The spill file is real JSONL.
        with open(spill) as fh:
            for line in fh:
                json.loads(line)

    def test_spilled_events_keep_monotonic_timestamps(self, tmp_path):
        trc = Tracer(0, clock=TickClock(), max_events=2,
                     spill_path=tmp_path / "s.jsonl")
        for _ in range(7):
            trc.instant("x")
        ts = [e[1] for e in events_of(trc)]
        assert ts == sorted(ts)


class TestClocks:
    def test_tick_clock_deterministic(self):
        assert [TickClock()() for _ in range(1)] == [0.0]
        c = TickClock(start=10, step=2)
        assert [c(), c(), c()] == [10.0, 12.0, 14.0]

class TestNullTracer:
    def test_disabled_and_inert(self):
        trc = NullTracer()
        assert trc.enabled is False
        sid = trc.begin("x")
        trc.end(sid)
        trc.instant("y")
        trc.unwind()
        with trc.span("z"):
            pass
        assert list(trc.iter_events()) == []
        assert trc.open_depth == 0

    def test_current_tracer_defaults_to_null(self):
        set_current_tracer(None)
        assert current_tracer() is NULL_TRACER

    def test_current_tracer_is_thread_local(self):
        mine = Tracer(0, clock=TickClock())
        set_current_tracer(mine)
        seen = {}

        def other():
            seen["tracer"] = current_tracer()

        t = threading.Thread(target=other)
        t.start()
        t.join()
        assert current_tracer() is mine
        assert seen["tracer"] is NULL_TRACER
        set_current_tracer(None)


class TestTraceSession:
    def test_has_one_tracer_per_rank_plus_supervisor(self):
        session = TraceSession(3)
        assert len(session.tracers) == 4
        assert session.tracer(1).rank == 1
        assert session.supervisor is session.tracers[3]

    def test_spill_dir_gives_per_rank_paths(self, tmp_path):
        session = TraceSession(2, spill_dir=str(tmp_path))
        paths = {t.spill_path for t in session.tracers}
        assert len(paths) == 3  # distinct per rank
        assert all(str(tmp_path) in p for p in paths)
