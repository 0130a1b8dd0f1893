"""DES dispatch internals: schedulers, traces, derived metrics."""

import pytest

from repro.cluster import (
    BlastWorkloadModel, ClusterSpec, nucleotide_workload, ranger, simulate_blast_run)


def _node(cores):
    """One node of ``cores`` (Ranger allocates whole 16-core nodes)."""
    return ClusterSpec(n_nodes=1, cores_per_node=cores)


def _equal_cost(n_blocks, n_partitions):
    """Units of one cost: no spread, no stragglers."""
    return BlastWorkloadModel(
        name="equal-cost", n_blocks=n_blocks, queries_per_block=1000,
        n_partitions=n_partitions, partition_gb=0.01, base_unit_seconds=10.0,
        sigma=0.0, straggler_prob=0.0)


def _ran(wl, trace):
    """The units *trace* ran, in order, told apart by their compute time."""
    by_cost = {wl.compute_seconds(b, p): (b, p)
               for b in range(wl.n_blocks) for p in range(wl.n_partitions)}
    assert len(by_cost) == wl.n_units
    return [by_cost[min(by_cost, key=lambda c: abs(c - (end - io_end)))]
            for _start, io_end, end in trace.intervals]


def _chunks(trace):
    """``(start, units)`` of each chunk a worker ran: a chunk's units run
    back to back, and the next chunk arrives a dispatch latency after the
    report."""
    sizes, last_end = [], None
    for start, _io_end, end in trace.intervals:
        if last_end is None or start > last_end:
            sizes.append((start, 0))
        sizes[-1] = (sizes[-1][0], sizes[-1][1] + 1)
        last_end = end
    return sizes


class TestSchedulerClasses:
    """The three schedulers, seen from the units each worker ran."""

    WL = nucleotide_workload(12_000)

    def test_master_worker_exhausts_in_order(self):
        r = simulate_blast_run(_node(2), self.WL)  # one worker
        (trace,) = r.traces
        assert _ran(self.WL, trace) == [
            (b, p) for b in range(self.WL.n_blocks) for p in range(self.WL.n_partitions)]
        assert trace.reloads == self.WL.n_units  # query-major: a new partition each

    def test_static_partitioning_disjoint_and_complete(self):
        workers = 8
        r = simulate_blast_run(_node(workers), self.WL, scheduler="static")
        assert len(r.traces) == workers  # no master: every core walks its list
        for w, trace in enumerate(r.traces):
            # ownership rule: partition p belongs to worker p % workers
            assert _ran(self.WL, trace) == [
                (b, p) for b in range(self.WL.n_blocks)
                for p in range(self.WL.n_partitions) if p % workers == w]
        assert sum(t.units for t in r.traces) == self.WL.n_units

    def test_affinity_feeds_current_partition_first(self):
        r = simulate_blast_run(_node(5), self.WL, scheduler="affinity")
        for trace in r.traces:
            partitions = [p for _b, p in _ran(self.WL, trace)]
            # A worker keeps its partition until nobody has work left on it:
            # it visits each partition in one run and reloads once per run.
            runs = [p for i, p in enumerate(partitions) if i == 0 or p != partitions[i - 1]]
            assert len(runs) == len(set(runs)) == trace.reloads
            assert partitions[:self.WL.n_blocks] == [runs[0]] * self.WL.n_blocks
        assert r.total_reloads < self.WL.n_units / 10

    def test_affinity_steals_when_claims_exhausted(self):
        wl = _equal_cost(n_blocks=8, n_partitions=3)
        r = simulate_blast_run(_node(9), wl, scheduler="affinity")
        # 3 partitions claimed by 3 of 8 workers: the other 5 steal.
        assert all(t.units >= 1 for t in r.traces)
        assert sum(t.units for t in r.traces) == wl.n_units == r.sched.completed

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            simulate_blast_run(ranger(16), self.WL, scheduler="round_robin")


def test_factoring_chunks_on_the_simulated_clock():
    """``chunk=None``: the real master's factoring, 32 units on 2 workers."""
    r = simulate_blast_run(_node(3), _equal_cost(32, 1), chunk=None)
    handed = sorted(chunk for trace in r.traces for chunk in _chunks(trace))
    assert [size for _start, size in handed] == [8, 8, 4, 4, 2, 2, 1, 1, 1, 1]
    assert [[size for _start, size in _chunks(t)] for t in r.traces] == [[8, 4, 2, 1, 1]] * 2


class TestSimResultMetrics:
    @pytest.fixture(scope="class")
    def result(self):
        return simulate_blast_run(ranger(64), nucleotide_workload(12_000))

    def test_makespan_composition(self, result):
        assert result.makespan == pytest.approx(
            result.map_makespan + result.collate_seconds + result.reduce_seconds
        )

    def test_core_seconds_and_per_query(self, result):
        assert result.core_seconds == pytest.approx(result.makespan * 64)
        expected = result.core_seconds / 60.0 / 12_000
        assert result.core_minutes_per_query == pytest.approx(expected)

    def test_traces_cover_workers(self, result):
        assert len(result.traces) == result.cluster.workers
        for t in result.traces:
            assert t.io_seconds >= 0 and t.compute_seconds >= 0
            for start, io_end, end in t.intervals:
                assert start <= io_end <= end

    def test_intervals_non_overlapping_per_worker(self, result):
        for t in result.traces:
            spans = sorted((s, e) for s, _m, e in t.intervals)
            for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
                assert s2 >= e1 - 1e-9

    def test_busy_plus_idle_bounded_by_makespan(self, result):
        for t in result.traces:
            assert t.io_seconds + t.compute_seconds <= result.map_makespan + 1e-6
