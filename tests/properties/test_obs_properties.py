"""Property-based tests for the tracing layer.

Hypothesis generates random "rank programs" — sequences of begin / end /
instant operations — and executes them against tracers on deterministic
clocks.  Whatever the program, the resulting trace must be well-formed:
timestamps monotonic per rank, ``B``/``E`` balanced after unwind, span ids
unique across ranks, and the whole pipeline (export included) must be a
pure function of the program — identical programs give identical traces.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.obs.trace import Tracer, TraceSession

from oracles.clocks import TickClock

# One program step: begin a span, end the innermost span (a no-op when
# nothing is open), or record an instant.  Attribute values stay scalar,
# matching what the exporter permits.
_names = st.sampled_from(["map", "reduce", "exchange", "unit", "io"])
_attr_values = st.one_of(
    st.integers(-1000, 1000),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
    st.booleans(),
)
_attrs = st.dictionaries(st.sampled_from(["a", "b", "c"]), _attr_values, max_size=2)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("begin"), _names, _attrs),
        st.tuples(st.just("end"), st.none(), _attrs),
        st.tuples(st.just("instant"), _names, _attrs),
    ),
    max_size=80,
)
_programs = st.lists(_steps, min_size=1, max_size=4)  # one program per rank


def run_program(trc, steps):
    for op, name, attrs in steps:
        if op == "begin":
            trc.begin(name, cat="p", **attrs)
        elif op == "end":
            if trc.open_depth:
                trc.end(**attrs)
        else:
            trc.instant(name, cat="p", **attrs)
    trc.unwind()


def run_session(programs, max_events=1_000_000, spill_dir=None):
    session = TraceSession(len(programs), clock=None,
                          max_events_per_rank=max_events, spill_dir=spill_dir)
    for rank, steps in enumerate(programs):
        trc = session.tracer(rank)
        trc.clock = TickClock()  # deterministic per-rank virtual time
        run_program(trc, steps)
    return session


@given(_programs)
@settings(max_examples=60, deadline=None)
def test_any_program_yields_wellformed_trace(programs):
    session = run_session(programs)
    for trc in session.tracers:
        events = list(trc.iter_events())
        # Per-rank timestamps never run backwards.
        ts = [e[1] for e in events]
        assert ts == sorted(ts)
        # unwind() left everything balanced: B and E counts match and no
        # E ever outruns the Bs before it.
        depth = 0
        for ph, *_ in events:
            if ph == "B":
                depth += 1
            elif ph == "E":
                depth -= 1
                assert depth >= 0
        assert depth == 0
        assert trc.open_depth == 0


@given(_programs)
@settings(max_examples=60, deadline=None)
def test_span_ids_never_collide_across_ranks(programs):
    session = run_session(programs)
    seen = set()
    for trc in session.tracers:
        for ph, _ts, sid, *_ in trc.iter_events():
            if ph == "B":
                assert sid not in seen
                seen.add(sid)


@given(_programs)
@settings(max_examples=40, deadline=None)
def test_identical_programs_give_identical_traces(programs):
    """Determinism: the trace (and its export) is a pure function of the
    program under a virtual clock — the seed-reproducibility guarantee."""
    a = run_session(programs)
    b = run_session(programs)
    for ta, tb in zip(a.tracers, b.tracers):
        assert list(ta.iter_events()) == list(tb.iter_events())
    assert json.dumps(chrome_trace(a), sort_keys=True) == \
        json.dumps(chrome_trace(b), sort_keys=True)


@given(_programs)
@settings(max_examples=40, deadline=None)
def test_export_of_any_program_validates(programs):
    doc = chrome_trace(run_session(programs))
    assert validate_chrome_trace(doc) == []


@given(_steps, st.integers(min_value=1, max_value=16))
@settings(max_examples=40, deadline=None)
def test_bounded_buffer_never_exceeds_cap(steps, cap):
    unbounded = Tracer(0, clock=TickClock())
    bounded = Tracer(0, clock=TickClock(), max_events=cap)
    run_program(unbounded, steps)
    run_program(bounded, steps)
    assert len(bounded.events) <= cap
    # Nothing silently vanishes: kept + dropped = everything emitted, and
    # what was kept is a prefix of the unbounded stream.
    total = len(list(unbounded.iter_events()))
    assert len(bounded.events) + bounded.dropped_events == total
    assert bounded.events == list(unbounded.iter_events())[: len(bounded.events)]


@given(steps=_steps)
@settings(max_examples=40, deadline=None)
def test_spill_roundtrip_preserves_event_stream(steps, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("spill")
    unbounded = Tracer(0, clock=TickClock())
    spilling = Tracer(0, clock=TickClock(), max_events=4,
                      spill_path=tmp / "t.jsonl")
    run_program(unbounded, steps)
    run_program(spilling, steps)
    assert spilling.dropped_events == 0
    assert list(spilling.iter_events()) == list(unbounded.iter_events())
