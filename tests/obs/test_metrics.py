"""Unit tests for counters, gauges, histograms and the registry."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    metric_field,
)


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter("pairs")
        c.inc()
        c.inc(4)
        c.add(0.5)
        assert c.snapshot() == 5.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            Counter("x").inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge("depth")
        g.set(7)
        g.set(2.5)
        assert g.snapshot() == 2.5

    def test_gauge_raise_to_keeps_the_high_water_mark(self):
        g = Gauge("peak")
        for v in (3, 9, 4):
            g.raise_to(v)
        assert g.snapshot() == 9.0

    def test_histogram_buckets_inclusive_upper_edges(self):
        h = Histogram("lat", bounds=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 10.0, 99.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["buckets"] == [2, 2, 1]  # last is overflow
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(115.5)
        assert snap["min"] == 0.5 and snap["max"] == 99.0

    def test_empty_histogram_snapshot(self):
        snap = Histogram("empty").snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("a")

    def test_snapshot_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("zeta").inc(1)
        reg.counter("alpha").inc(2)
        assert list(reg.snapshot()) == ["alpha", "zeta"]


    def test_value_reads_without_creating(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.gauge("g").set(5)
        assert (reg.value("a"), reg.value("g"), reg.value("never")) == (2.0, 5.0, 0)
        assert list(reg.snapshot()) == ["a", "g"]


class TestMetricField:
    class Result:
        units = metric_field("x.units", int)
        seconds = metric_field("x.busy_s")

        def __init__(self, metrics):
            self.metrics = metrics

    def test_reads_the_snapshot_and_defaults_to_zero(self):
        reg = MetricsRegistry()
        reg.counter("x.units").inc(3)
        res = self.Result(reg.snapshot())
        assert res.units == 3 and isinstance(res.units, int)
        assert res.seconds == 0.0

    def test_is_read_only(self):
        with pytest.raises(AttributeError):
            self.Result({}).units = 4


class TestMergeSnapshots:
    def test_scalars_sum_across_ranks(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("pairs").inc(10)
        b.counter("pairs").inc(5)
        b.counter("only_b").inc(1)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["pairs"] == 15
        assert merged["only_b"] == 1

    def test_histograms_merge_bucketwise(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.histogram("lat", bounds=(1.0,)).observe(0.5)
        b.histogram("lat", bounds=(1.0,)).observe(2.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["lat"]["count"] == 2
        assert merged["lat"]["buckets"] == [1, 1]
        assert merged["lat"]["min"] == 0.5 and merged["lat"]["max"] == 2.0

    def test_mismatched_bounds_raise(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.histogram("lat", bounds=(1.0,)).observe(0.5)
        b.histogram("lat", bounds=(2.0,)).observe(0.5)
        with pytest.raises(ValueError, match="mismatched bounds"):
            merge_snapshots([a.snapshot(), b.snapshot()])
