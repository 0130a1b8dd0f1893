"""Cluster performance models: machine specs, cache, workloads, DES runs."""

import numpy as np
import pytest

from repro.cluster import (
    BlastWorkloadModel,
    ClusterSpec,
    PartitionCache,
    SomScalingModel,
    nucleotide_workload,
    protein_workload,
    ranger,
    simulate_blast_run,
    simulate_som_run,
    utilization_curve,
)


class TestClusterSpec:
    def test_ranger_geometry(self):
        c = ranger(1024)
        assert c.n_nodes == 64
        assert c.cores == 1024
        assert c.workers == 1023

    def test_ranger_whole_node_allocation(self):
        with pytest.raises(ValueError):
            ranger(100)
        with pytest.raises(ValueError):
            ranger(8)

    def test_page_cache_capacity_crosses_db_size_at_128(self):
        """The paper's superlinear region: the 109 GB DB fits from 128 cores."""
        db_gb = nucleotide_workload(80_000).db_gb
        assert ranger(64).page_cache_gb < db_gb
        assert ranger(128).page_cache_gb >= db_gb

    def test_load_seconds_cached_much_faster(self):
        c = ranger(32)
        assert c.load_seconds(1.0, cached=True) < c.load_seconds(1.0, cached=False) / 10

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(n_nodes=0)
        with pytest.raises(ValueError):
            ClusterSpec(n_nodes=1, app_ram_gb=32.0)


class TestPartitionCache:
    def test_miss_then_hit(self):
        cache = PartitionCache(10.0)
        assert cache.access(0, 1.0) is False
        assert cache.access(0, 1.0) is True
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_order(self):
        cache = PartitionCache(2.0)
        cache.access(0, 1.0)
        cache.access(1, 1.0)
        cache.access(0, 1.0)  # 0 now most recent
        cache.access(2, 1.0)  # evicts 1
        assert cache.access(0, 1.0) is True
        assert cache.access(1, 1.0) is False

    def test_cyclic_sweep_larger_than_capacity_always_misses(self):
        """LRU pathological case — the mechanism behind the 32/64-core regime."""
        cache = PartitionCache(5.0)
        for _sweep in range(3):
            for p in range(10):
                assert cache.access(p, 1.0) is False

    def test_oversized_item_never_cached(self):
        cache = PartitionCache(1.0)
        assert cache.access(0, 5.0) is False
        assert cache.access(0, 5.0) is False
        assert cache.used_gb == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionCache(-1.0)
        with pytest.raises(ValueError):
            PartitionCache(1.0).access(0, -2.0)


class TestWorkloadModel:
    def test_unit_times_deterministic_and_schedule_independent(self):
        wl = nucleotide_workload(12_000)
        a = wl.compute_seconds(3, 17)
        b = wl.compute_seconds(3, 17)
        assert a == b
        assert wl.compute_seconds(3, 18) != a

    def test_mean_scales_with_block_size(self):
        wl1 = nucleotide_workload(80_000, queries_per_block=1000)
        wl2 = nucleotide_workload(80_000, queries_per_block=2000)
        m1 = np.mean([wl1.compute_seconds(b, 0) for b in range(wl1.n_blocks)])
        m2 = np.mean([wl2.compute_seconds(b, 0) for b in range(wl2.n_blocks)])
        assert 1.6 < m2 / m1 < 2.6

    def test_heavy_tail_present(self):
        wl = nucleotide_workload(80_000)
        times = [wl.compute_seconds(b, p) for b in range(80) for p in range(20)]
        assert max(times) > 4 * np.mean(times)

    def test_counts(self):
        wl = nucleotide_workload(40_000)
        assert wl.n_blocks == 40
        assert wl.n_units == 40 * 109
        assert wl.total_queries == 40_000
        assert wl.db_gb == pytest.approx(109.0)

    def test_block_size_must_divide(self):
        with pytest.raises(ValueError):
            nucleotide_workload(12_345, queries_per_block=1000)

    def test_bounds_checked(self):
        wl = nucleotide_workload(12_000)
        with pytest.raises(ValueError):
            wl.compute_seconds(12, 0)
        with pytest.raises(ValueError):
            wl.compute_seconds(0, 109)

    def test_protein_more_cpu_bound_than_nucleotide(self):
        nt, aa = nucleotide_workload(80_000), protein_workload()
        assert aa.cpu_fraction > nt.cpu_fraction
        assert aa.partition_gb < nt.partition_gb


class TestBlastSimulation:
    def test_work_conservation(self):
        wl = nucleotide_workload(12_000)
        r = simulate_blast_run(ranger(64), wl)
        total_units = sum(t.units for t in r.traces)
        assert total_units == wl.n_units
        expected_compute = sum(
            wl.compute_seconds(b, p)
            for b in range(wl.n_blocks)
            for p in range(wl.n_partitions)
        )
        assert r.total_compute_seconds == pytest.approx(expected_compute, rel=1e-9)

    def test_determinism(self):
        wl = nucleotide_workload(12_000)
        r1 = simulate_blast_run(ranger(64), wl)
        r2 = simulate_blast_run(ranger(64), wl)
        assert r1.makespan == r2.makespan
        assert r1.cache_misses == r2.cache_misses

    def test_makespan_at_least_critical_path(self):
        wl = nucleotide_workload(12_000)
        r = simulate_blast_run(ranger(128), wl)
        longest_unit = max(
            wl.compute_seconds(b, p)
            for b in range(wl.n_blocks)
            for p in range(wl.n_partitions)
        )
        assert r.map_makespan >= longest_unit
        perfect = r.total_compute_seconds / r.cluster.workers
        assert r.map_makespan >= perfect

    def test_more_cores_never_slower(self):
        wl = nucleotide_workload(40_000)
        t = [simulate_blast_run(ranger(c), wl).makespan for c in (32, 128, 512)]
        assert t[0] > t[1] > t[2]

    def test_cache_regime_change_at_128_cores(self):
        wl = nucleotide_workload(40_000)
        cold = simulate_blast_run(ranger(64), wl)
        warm = simulate_blast_run(ranger(128), wl)
        assert cold.cache_hits == 0  # cyclic sweep > capacity: all misses
        assert warm.cache_hits > 0.9 * wl.n_units
        # The superlinear signature: I/O core-hours collapse.
        assert warm.total_io_seconds < cold.total_io_seconds / 10

    def test_paper_anchor_superlinear_and_1024_efficiency(self):
        """Fig. 4 anchors: 167 % at 128 cores, ~95 % at 1024 (vs 32)."""
        wl = nucleotide_workload(80_000)
        res = {c: simulate_blast_run(ranger(c), wl) for c in (32, 128, 1024)}
        eff128 = res[128].efficiency_vs(res[32])
        eff1024 = res[1024].efficiency_vs(res[32])
        assert 1.5 < eff128 < 1.9
        assert 0.85 < eff1024 < 1.05

    def test_block_size_crossover(self):
        """Fig. 4: big blocks win at low cores, small blocks at high cores."""
        wl1k = nucleotide_workload(80_000, queries_per_block=1000)
        wl2k = nucleotide_workload(80_000, queries_per_block=2000)
        low1 = simulate_blast_run(ranger(32), wl1k).core_minutes_per_query
        low2 = simulate_blast_run(ranger(32), wl2k).core_minutes_per_query
        high1 = simulate_blast_run(ranger(1024), wl1k).core_minutes_per_query
        high2 = simulate_blast_run(ranger(1024), wl2k).core_minutes_per_query
        assert low2 < low1
        assert high1 < high2

    def test_static_scheduler_worse_than_master_worker(self):
        wl = nucleotide_workload(40_000)
        dyn = simulate_blast_run(ranger(256), wl, scheduler="master_worker")
        static = simulate_blast_run(ranger(256), wl, scheduler="static")
        assert static.map_makespan > dyn.map_makespan

    def test_affinity_scheduler_cuts_reloads(self):
        wl = nucleotide_workload(12_000)
        fifo = simulate_blast_run(ranger(64), wl, scheduler="master_worker")
        aff = simulate_blast_run(ranger(64), wl, scheduler="affinity")
        assert aff.total_reloads < fifo.total_reloads / 5
        assert aff.makespan < fifo.makespan

    def test_protein_scaling_anchor(self):
        """§IV.A: ~6 % more core·min/query at 1024 vs 512; ~294 min wall."""
        pw = protein_workload()
        r512 = simulate_blast_run(ranger(512), pw)
        r1024 = simulate_blast_run(ranger(1024), pw)
        ratio = r1024.core_minutes_per_query / r512.core_minutes_per_query
        assert 1.0 < ratio < 1.12
        assert 240 < r1024.makespan / 60 < 350

    def test_efficiency_requires_same_workload(self):
        a = simulate_blast_run(ranger(32), nucleotide_workload(12_000))
        b = simulate_blast_run(ranger(32), nucleotide_workload(40_000))
        with pytest.raises(ValueError):
            a.efficiency_vs(b)

    def test_unknown_scheduler_and_order(self):
        wl = nucleotide_workload(12_000)
        with pytest.raises(ValueError):
            simulate_blast_run(ranger(32), wl, scheduler="magic")
        with pytest.raises(ValueError):
            simulate_blast_run(ranger(32), wl, order="diagonal")


class TestUtilizationTrace:
    def test_plateau_then_taper(self):
        """Fig. 5's shape: high flat utilisation, tapering tail."""
        r = simulate_blast_run(ranger(256), protein_workload(n_queries=30_000))
        t, u = utilization_curve(r, n_bins=20)
        assert len(u) == 20
        plateau = u[2:12].mean()
        assert plateau > 0.9
        assert u[-1] < 0.5 * plateau
        assert (u <= 1.0 + 1e-9).all()

    def test_curve_validation(self):
        r = simulate_blast_run(ranger(32), nucleotide_workload(12_000))
        with pytest.raises(ValueError):
            utilization_curve(r, n_bins=0)


class TestSomModel:
    def test_paper_anchor_96_percent_at_1024(self):
        m = SomScalingModel()
        base = simulate_som_run(ranger(32), m)
        top = simulate_som_run(ranger(1024), m)
        assert 0.93 < top.efficiency_vs(base) <= 1.0

    def test_near_linear_throughout(self):
        m = SomScalingModel()
        prev = None
        base = simulate_som_run(ranger(32), m)
        for cores in (32, 64, 128, 256, 512, 1024):
            r = simulate_som_run(ranger(cores), m)
            eff = r.efficiency_vs(base)
            assert eff > 0.9
            if prev is not None:
                assert r.makespan < prev
            prev = r.makespan

    def test_serial_smoothing_is_the_amdahl_term(self):
        """2·K·K·dim of dense smoothing per epoch left on one core is 6.4 s
        against 0.4 s of everything else at 1024 cores, and the paper's 96 %
        is gone (DESIGN.md §5 prices the separable smoother the driver runs)."""
        def eff(model):
            base = simulate_som_run(ranger(32), model)
            return simulate_som_run(ranger(1024), model).efficiency_vs(base)
        assert eff(SomScalingModel()) >= 0.96
        assert eff(SomScalingModel(split_smoothing=False)) < 0.5
        # the split moves no work, only who does it
        split = simulate_som_run(ranger(1024), SomScalingModel())
        serial = simulate_som_run(ranger(1024), SomScalingModel(split_smoothing=False))
        assert split.compute_seconds == pytest.approx(serial.compute_seconds)

    def test_block_rows_80_identical_timings(self):
        """Fig. 6 note: 80-vector work units produced identical timings."""
        r40 = simulate_som_run(ranger(512), SomScalingModel(block_rows=40))
        r80 = simulate_som_run(ranger(512), SomScalingModel(block_rows=80))
        assert abs(r40.makespan - r80.makespan) / r40.makespan < 0.02

    def test_workload_counts(self):
        m = SomScalingModel()
        assert m.n_blocks == 2048
        assert m.map_units == 2500

    def test_validation(self):
        with pytest.raises(ValueError):
            SomScalingModel(n_vectors=0)
        with pytest.raises(ValueError):
            SomScalingModel(epochs=0)
