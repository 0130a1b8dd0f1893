"""Unit tests for the straggler-mitigation primitives (``repro.sched``)
and their use in the simulated fleet (``repro.cluster.dispatch``)."""

import numpy as np
import pytest

from repro.cluster.blast_model import BlastWorkloadModel
from repro.cluster.dispatch import simulate_blast_run
from repro.cluster.machine import ClusterSpec, ranger
from repro.mpi.faultplan import FaultPlan
from repro.sched import P2Quantile, SpeculationPolicy
from repro.sched.speculation import StragglerTracker


class TestP2Quantile:
    def test_empty_returns_none(self):
        assert P2Quantile().value() is None

    def test_small_samples_are_exact(self):
        q = P2Quantile(0.5)
        for x in (3.0, 1.0, 2.0):
            q.add(x)
        assert q.value() == 2.0
        q.add(4.0)
        assert q.value() == 2.5  # interpolated median of {1,2,3,4}

    def test_single_observation(self):
        q = P2Quantile(0.9)
        q.add(7.0)
        assert q.value() == 7.0

    @pytest.mark.parametrize("quantile", [0.25, 0.5, 0.9])
    def test_tracks_numpy_percentile_on_large_stream(self, quantile):
        rng = np.random.default_rng(42)
        data = rng.lognormal(0.0, 0.6, size=5000)
        est = P2Quantile(quantile)
        for x in data:
            est.add(float(x))
        exact = float(np.quantile(data, quantile))
        assert est.count == len(data)
        # P² is an approximation; a few percent on a lognormal is typical.
        assert abs(est.value() - exact) / exact < 0.05

    def test_rejects_degenerate_quantile(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)


class TestSpeculationPolicy:
    def test_defaults_valid(self):
        p = SpeculationPolicy()
        assert p.factor == 2.0 and p.max_copies == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"factor": 1.0},
            {"factor": 0.5},
            {"quantile": 0.0},
            {"warmup": 0},
            {"min_elapsed": -1.0},
            {"max_copies": 1},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            SpeculationPolicy(**kwargs)


class TestStragglerTracker:
    def _warmed(self, policy=None):
        """A tracker with 4 one-second completions behind it."""
        t = StragglerTracker(policy or SpeculationPolicy(factor=2.0, warmup=3))
        for unit in range(4):
            t.assign(unit, worker=unit % 2, now=float(unit))
            t.complete(unit, worker=unit % 2, now=float(unit) + 1.0)
        return t

    def test_first_completion_wins(self):
        t = self._warmed()
        t.assign(10, worker=1, now=100.0)
        t.assign(10, worker=2, now=101.0)  # speculative copy
        assert t.speculated == 1
        assert t.complete(10, worker=2, now=101.5) is True
        assert t.complete(10, worker=1, now=109.0) is False
        assert t.wasted == 1
        assert t.completed == 5

    def test_candidate_requires_warmup_and_overdue(self):
        t = StragglerTracker(SpeculationPolicy(factor=2.0, warmup=3))
        t.assign(0, worker=1, now=0.0)
        assert t.candidate(now=1000.0) is None  # no completions yet
        t = self._warmed()  # median 1.0 -> deadline 2.0
        t.assign(10, worker=1, now=100.0)
        assert t.candidate(now=101.0) is None  # not overdue
        assert t.candidate(now=103.0) == 10
        assert t.candidate(now=103.0, exclude_worker=1) is None

    def test_candidate_honours_max_copies(self):
        t = self._warmed()
        t.assign(10, worker=1, now=100.0)
        t.assign(10, worker=2, now=100.0)
        assert t.candidate(now=200.0, exclude_worker=9) is None

    def test_candidate_picks_most_overdue(self):
        t = self._warmed()
        t.assign(10, worker=1, now=100.0)
        t.assign(11, worker=2, now=90.0)
        assert t.candidate(now=110.0, exclude_worker=9) == 11

    def test_release_worker_orphans_only_runnerless_units(self):
        t = self._warmed()
        t.assign(10, worker=1, now=100.0)
        t.assign(11, worker=1, now=100.0)
        t.assign(11, worker=2, now=101.0)  # speculation survivor
        orphans = t.release_worker(1, now=102.0)
        assert orphans == [10]
        assert t.runners(11) == (2,)

    def test_forget_reopens_a_done_unit(self):
        t = self._warmed()
        assert t.is_done(0)
        assert t.accepted_units(0) == [0, 2]
        t.forget(0)
        assert not t.is_done(0)
        assert t.completed == 3

    def test_report_snapshot(self):
        t = self._warmed()
        rep = t.report(lost_ranks=(3,), degraded=True)
        assert rep.completed == 4
        assert rep.lost_ranks == (3,)
        assert rep.degraded
        assert rep.median_unit_seconds == 1.0


def _workload(n_blocks=8, n_partitions=6, seed=0):
    return BlastWorkloadModel(
        name="sched-test",
        n_blocks=n_blocks,
        queries_per_block=500,
        n_partitions=n_partitions,
        partition_gb=0.05,
        base_unit_seconds=10.0,
        sigma=0.4,
        straggler_prob=0.0,
        seed=seed,
    )


class TestSimulatedFleet:
    def test_static_policy_rejects_speculation_and_reassignment(self):
        wl = _workload()
        with pytest.raises(ValueError, match="static"):
            simulate_blast_run(ranger(16), wl, scheduler="static",
                               speculation=SpeculationPolicy())
        # a crash needs a master to requeue the dead worker's units
        with pytest.raises(ValueError, match="static"):
            simulate_blast_run(ranger(16), wl, scheduler="static",
                               fault_plan=FaultPlan.parse("crash=2@3", 16))

    def test_tracked_clean_run_matches_untracked(self):
        wl = _workload()
        plain = simulate_blast_run(ranger(16), wl)
        # speculation armed, but its quantile is never trusted
        tracked = simulate_blast_run(
            ranger(16), wl, speculation=SpeculationPolicy(warmup=wl.n_units + 1))
        assert tracked.map_makespan == plain.map_makespan
        assert tracked.traces == plain.traces
        assert tracked.sched.speculated == 0
        assert tracked.sched.lost_ranks == ()

    def test_speculation_beats_a_stalled_worker(self):
        wl = _workload(n_blocks=16, n_partitions=8)
        plan = FaultPlan.parse("stall=3@2:400", 63)
        slow = simulate_blast_run(ranger(64), wl, fault_plan=plan)
        fast = simulate_blast_run(
            ranger(64), wl, fault_plan=plan,
            speculation=SpeculationPolicy(factor=2.0),
        )
        assert fast.map_makespan * 1.5 <= slow.map_makespan
        assert fast.sched.speculated >= 1
        assert fast.sched.wasted >= 1
        assert fast.wasted_seconds > 0

    def test_crash_with_reassignment_completes_every_unit(self):
        wl = _workload()
        plan = FaultPlan.parse("crash=2@3", 15)
        res = simulate_blast_run(ranger(16), wl, fault_plan=plan)
        _assert_each_unit_kept_once(wl, res)
        # the two units rank 2 completed died with it, and the third it held
        assert res.sched.reassigned == 3
        assert res.sched.lost_ranks == (2,)
        assert res.traces[2].crashed and res.traces[2].units == 0

    def test_affinity_scheduler_supports_reassignment(self):
        wl = _workload()
        plan = FaultPlan.parse("crash=1@2", 15)
        res = simulate_blast_run(ranger(16), wl, scheduler="affinity", fault_plan=plan)
        _assert_each_unit_kept_once(wl, res)
        assert res.sched.reassigned == 2

    def test_a_fleet_with_no_survivor_raises(self):
        plan = FaultPlan.parse("crash=0@2,crash=1@3", 2)
        with pytest.raises(RuntimeError, match="crashed"):
            simulate_blast_run(ClusterSpec(n_nodes=1, cores_per_node=3), _workload(),
                               fault_plan=plan)

    def test_deterministic_replay(self):
        wl = _workload(n_blocks=10)
        plan = FaultPlan.parse("stall=1@2:50,crash=4@6", 15)
        kwargs = dict(fault_plan=plan, speculation=SpeculationPolicy(factor=2.0))
        a = simulate_blast_run(ranger(16), wl, **kwargs)
        b = simulate_blast_run(ranger(16), wl, **kwargs)
        assert a.map_makespan == b.map_makespan
        assert a.sched == b.sched
        assert a.wasted_seconds == b.wasted_seconds
        assert [t.units for t in a.traces] == [t.units for t in b.traces]
        _assert_each_unit_kept_once(wl, a)


def _assert_each_unit_kept_once(wl, res):
    """Every unit's output is kept exactly once: the kept runs' compute
    times are the workload's, one each."""
    assert res.sched.completed == sum(t.units for t in res.traces) == wl.n_units
    assert res.total_compute_seconds == pytest.approx(
        sum(wl.compute_seconds(b, p) for b in range(wl.n_blocks)
            for p in range(wl.n_partitions)), rel=1e-9)
    assert all(len(t.intervals) == t.units + t.wasted_units for t in res.traces)
