"""Unit tests for the Chrome exporter, its validator, and the reports."""

import json

import pytest

from repro.obs.export import (
    assert_valid_chrome_trace,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.report import (
    critical_path_report,
    phase_durations,
    stage_breakdown,
    utilization_report,
)
from repro.obs.trace import TraceSession

from oracles.clocks import TickClock
from oracles.trace_traffic import shuffle_traffic


def make_session():
    """Two ranks doing a tiny synthetic mrblast-shaped run on a TickClock."""
    session = TraceSession(2, clock=TickClock())
    for rank, busy in ((0, 3.0), (1, 5.0)):
        trc = session.tracer(rank)
        trc.begin("rank", cat="lifecycle", nprocs=2)
        sid = trc.begin("mr.map", cat="mr")
        trc.begin("mrblast.unit", cat="driver", block=0, partition=rank)
        trc.end(busy_s=busy, seed_s=busy / 2, ungapped_s=busy / 4,
                gapped_s=busy / 8, hits=rank + 1)
        trc.end(sid, seconds=busy + 1.0)
        trc.instant("mr.traffic", cat="mr", phase="aggregate",
                    pairs=10 * (rank + 1), bytes=100 * (rank + 1))
        trc.unwind()
    return session


class TestChromeExport:
    def test_exports_valid_document(self):
        doc = chrome_trace(make_session())
        assert validate_chrome_trace(doc) == []
        assert doc["traceEvents"]

    def test_thread_metadata_per_rank(self):
        doc = chrome_trace(make_session())
        meta = [e for e in doc["traceEvents"]
                if e["ph"] == "M" and e["name"] == "thread_name"]
        names = {e["args"]["name"] for e in meta}
        assert names == {"rank 0", "rank 1", "supervisor"}

    def test_timestamps_are_microseconds(self):
        session = TraceSession(1, clock=TickClock())
        trc = session.tracer(0)
        trc.instant("x")  # TickClock -> ts 0.0 seconds
        trc.instant("y")  # ts 1.0 seconds
        doc = chrome_trace(session)
        ts = [e["ts"] for e in doc["traceEvents"] if e["ph"] == "i"]
        assert ts == [0.0, 1e6]

    def test_write_round_trips_through_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, make_session())
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []

    def test_instants_are_thread_scoped(self):
        doc = chrome_trace(make_session())
        for ev in doc["traceEvents"]:
            if ev["ph"] == "i":
                assert ev["s"] == "t"


class TestValidator:
    def test_flags_non_object(self):
        assert validate_chrome_trace([]) == ["document is not an object"]
        assert validate_chrome_trace({"x": 1}) == [
            "traceEvents is missing or not a list"]

    def test_flags_bad_phase_and_missing_fields(self):
        doc = {"traceEvents": [
            {"ph": "X", "name": "a", "pid": 0, "tid": 0, "ts": 0},
            {"ph": "i", "pid": 0, "tid": 0, "ts": 0, "s": "t"},
        ]}
        problems = validate_chrome_trace(doc)
        assert any("bad phase" in p for p in problems)
        assert any("missing name" in p for p in problems)

    def test_flags_backwards_timestamps(self):
        doc = {"traceEvents": [
            {"ph": "i", "name": "a", "pid": 0, "tid": 0, "ts": 5, "s": "t"},
            {"ph": "i", "name": "b", "pid": 0, "tid": 0, "ts": 2, "s": "t"},
        ]}
        assert any("previous ts" in p for p in validate_chrome_trace(doc))

    def test_flags_unbalanced_spans(self):
        doc = {"traceEvents": [
            {"ph": "E", "name": "a", "pid": 0, "tid": 0, "ts": 0},
            {"ph": "B", "name": "b", "pid": 0, "tid": 0, "ts": 1},
        ]}
        problems = validate_chrome_trace(doc)
        assert any("E with no open B" in p for p in problems)
        assert any("unclosed B" in p for p in problems)

    def test_flags_non_scalar_args(self):
        doc = {"traceEvents": [
            {"ph": "i", "name": "a", "pid": 0, "tid": 0, "ts": 0, "s": "t",
             "args": {"bad": [1, 2]}},
        ]}
        assert any("not a JSON scalar" in p for p in validate_chrome_trace(doc))

    def test_assert_raises_with_problem_list(self):
        with pytest.raises(ValueError, match="invalid Chrome trace"):
            assert_valid_chrome_trace({})


class TestReports:
    def test_phase_durations_from_seconds_attrs(self):
        durations = phase_durations(make_session())
        assert durations[0] == {"map": 4.0}
        assert durations[1] == {"map": 6.0}

    def test_shuffle_traffic_sums_exactly(self):
        traffic = shuffle_traffic(make_session())
        assert traffic["per_rank"][0]["aggregate"] == {"pairs": 10, "bytes": 100}
        assert traffic["per_rank"][1]["aggregate"] == {"pairs": 20, "bytes": 200}
        assert traffic["totals"]["aggregate"] == {"pairs": 30, "bytes": 300}

    def test_stage_breakdown_sums_unit_attrs(self):
        stages = stage_breakdown(make_session())
        assert stages[1]["busy_s"] == 5.0
        assert stages[1]["seed_s"] == 2.5
        assert stages[1]["units"] == 1 and stages[1]["hits"] == 2

    def test_utilization_report_shape(self):
        rep = utilization_report(make_session())
        assert set(rep["per_rank"]) >= {0, 1}
        assert rep["makespan_s"] > 0
        assert rep["straggler_rank"] in (0, 1)
        assert rep["stage_totals"]["busy_s"] == 8.0
        assert rep["phase_totals_s"]["map"] == 10.0
        for r in (0, 1):
            assert 0.0 <= rep["per_rank"][r]["utilization"] <= 1.0

    def test_critical_path_report_names_straggler(self):
        rep = utilization_report(make_session())
        text = critical_path_report(make_session())
        assert f"straggler: rank {rep['straggler_rank']}" in text
        assert "phase breakdown (critical path)" in text
        assert "makespan" in text
