"""SOM substrate: grid, kernels, BMU, batch/online training, U-matrix, quality."""

import numpy as np
import pytest

from repro.som import (
    BatchSOM,
    OnlineSOM,
    SOMGrid,
    accumulate_batch,
    batch_update,
    best_matching_units,
    gaussian_kernel,
    init_codebook,
    pairwise_sq_distances,
    quantization_error,
    radius_schedule,
    topographic_error,
    umatrix,
)
from repro.som.umatrix import render_ascii


class TestGrid:
    def test_geometry(self):
        g = SOMGrid(3, 4)
        assert g.n_units == 12
        assert g.diagonal == pytest.approx(np.hypot(2, 3))
        pos = g.positions()
        assert pos.shape == (12, 2)
        assert pos[5].tolist() == [1, 1]

    def test_grid_sq_distances_symmetric_zero_diag(self):
        g = SOMGrid(4, 4)
        d = g.grid_sq_distances()
        assert (np.diag(d) == 0).all()
        np.testing.assert_array_equal(d, d.T)
        assert d[0, 5] == 2  # (0,0) to (1,1)

    def test_neighbors(self):
        g = SOMGrid(3, 3)
        assert sorted(g.neighbors(4)) == [1, 3, 5, 7]  # center
        assert sorted(g.neighbors(0)) == [1, 3]  # corner
        with pytest.raises(IndexError):
            g.neighbors(9)

    def test_validation(self):
        with pytest.raises(ValueError):
            SOMGrid(0, 5)


class TestInit:
    DATA = np.random.default_rng(1).random((50, 8))

    def test_random_init_within_bounding_box(self):
        cb = init_codebook(SOMGrid(5, 5), self.DATA, method="random", seed_or_rng=2)
        assert cb.shape == (25, 8)
        assert (cb >= self.DATA.min(axis=0) - 1e-12).all()
        assert (cb <= self.DATA.max(axis=0) + 1e-12).all()

    def test_linear_init_deterministic_and_planar(self):
        cb1 = init_codebook(SOMGrid(6, 6), self.DATA, method="linear")
        cb2 = init_codebook(SOMGrid(6, 6), self.DATA, method="linear")
        np.testing.assert_array_equal(cb1, cb2)
        # Planar: rank of centered codebook is 2.
        rank = np.linalg.matrix_rank(cb1 - cb1.mean(axis=0), tol=1e-8)
        assert rank == 2

    def test_degenerate_rank1_data(self):
        line = np.outer(np.linspace(0, 1, 30), np.ones(4))
        cb = init_codebook(SOMGrid(3, 3), line, method="linear")
        assert np.isfinite(cb).all()

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            init_codebook(SOMGrid(2, 2), self.DATA, method="pca3")

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            init_codebook(SOMGrid(2, 2), np.zeros((0, 3)))


class TestKernels:
    def test_gaussian_values(self):
        d2 = np.array([0.0, 1.0, 4.0])
        h = gaussian_kernel(d2, sigma=2.0)
        np.testing.assert_allclose(h, np.exp(-d2 / 4.0))
        assert h[0] == 1.0

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            gaussian_kernel(np.zeros(1), 0.0)

    def test_radius_schedule(self):
        r = radius_schedule(10.0, 1.0, 10)
        assert r[0] == 10.0 and r[-1] == 1.0
        assert (np.diff(r) < 0).all()
        assert radius_schedule(5.0, 1.0, 1).tolist() == [5.0]
        with pytest.raises(ValueError):
            radius_schedule(1.0, 2.0, 5)
        with pytest.raises(ValueError):
            radius_schedule(2.0, 0.0, 5)


class TestBMU:
    def test_pairwise_matches_naive(self):
        rng = np.random.default_rng(3)
        data = rng.random((20, 6))
        cb = rng.random((15, 6))
        d2 = pairwise_sq_distances(data, cb)
        naive = ((data[:, None, :] - cb[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(d2, naive, atol=1e-9)

    def test_bmu_exact_match(self):
        cb = np.eye(5)
        data = cb[[3, 1, 4]]
        np.testing.assert_array_equal(best_matching_units(data, cb), [3, 1, 4])

    def test_chunking_invariant(self):
        rng = np.random.default_rng(4)
        data = rng.random((101, 7))
        cb = rng.random((23, 7))
        full = best_matching_units(data, cb, chunk=1024)
        small = best_matching_units(data, cb, chunk=7)
        np.testing.assert_array_equal(full, small)

    def test_deterministic_tie_break_lowest_index(self):
        cb = np.zeros((4, 3))
        data = np.ones((2, 3))
        np.testing.assert_array_equal(best_matching_units(data, cb), [0, 0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            pairwise_sq_distances(np.zeros((3, 2)), np.zeros((4, 3)))
        with pytest.raises(ValueError):
            best_matching_units(np.zeros((3, 2)), np.zeros((4, 2)), chunk=0)


class TestBatchTraining:
    @staticmethod
    def _rgb(n=120, seed=0):
        return np.random.default_rng(seed).random((n, 3))

    def test_quantization_error_decreases(self):
        data = self._rgb()
        # one epoch is the first epoch of fifteen: same initial codebook,
        # and both radius schedules start at half the diagonal
        first = BatchSOM(SOMGrid(10, 10), dim=3).train(data, epochs=1)
        last = BatchSOM(SOMGrid(10, 10), dim=3).train(data, epochs=15)
        assert quantization_error(data, last) < quantization_error(data, first) / 2

    def test_order_independence_exact(self):
        """Paper §II.D: "the batch algorithm is not influenced by the order
        in which the input vectors are presented"."""
        data = self._rgb()
        perm = np.random.default_rng(9).permutation(data.shape[0])
        cb1 = BatchSOM(SOMGrid(8, 8), dim=3).train(data, epochs=8)
        cb2 = BatchSOM(SOMGrid(8, 8), dim=3).train(data[perm], epochs=8)
        # Equal up to FP summation order (np.add.at accumulates per input).
        np.testing.assert_allclose(cb1, cb2, atol=1e-8)

    def test_accumulate_decomposes_over_blocks(self):
        """Eq. 5 sums decompose over any partition — the MapReduce property."""
        data = self._rgb(97)
        grid = SOMGrid(6, 6)
        cb = init_codebook(grid, data)
        kernel = gaussian_kernel(grid.grid_sq_distances(), 2.5)
        num_all, den_all = accumulate_batch(data, cb, kernel)
        num_sum, den_sum = None, None
        for block in np.array_split(data, 7):
            num_sum, den_sum = accumulate_batch(block, cb, kernel, num_sum, den_sum)
        np.testing.assert_allclose(num_all, num_sum, atol=1e-10)
        np.testing.assert_allclose(den_all, den_sum, atol=1e-10)

    def test_batch_update_keeps_untouched_units(self):
        cb = np.full((4, 2), 7.0)
        num = np.zeros((4, 2))
        denom = np.zeros(4)
        num[1] = [2.0, 4.0]
        denom[1] = 2.0
        new = batch_update(cb, num, denom)
        np.testing.assert_array_equal(new[1], [1.0, 2.0])
        np.testing.assert_array_equal(new[0], [7.0, 7.0])

    def test_topology_preserved_on_rgb(self):
        data = self._rgb(200, seed=3)
        grid = SOMGrid(10, 10)
        cb = BatchSOM(grid, dim=3).train(data, epochs=20)
        assert topographic_error(data, cb, grid) < 0.2
        # Neighbouring units must be closer than random unit pairs.
        u = umatrix(grid, cb)
        rng = np.random.default_rng(0)
        pairs = rng.integers(0, 100, size=(200, 2))
        rand_d = np.linalg.norm(cb[pairs[:, 0]] - cb[pairs[:, 1]], axis=1).mean()
        assert u.mean() < rand_d / 2

    def test_empty_block_accumulation_is_noop(self):
        grid = SOMGrid(3, 3)
        cb = np.random.default_rng(1).random((9, 4))
        kernel = gaussian_kernel(grid.grid_sq_distances(), 1.0)
        num, den = accumulate_batch(np.zeros((0, 4)), cb, kernel)
        assert num.sum() == 0 and den.sum() == 0

    def test_shape_validation(self):
        som = BatchSOM(SOMGrid(3, 3), dim=5)
        with pytest.raises(ValueError):
            som.train(np.zeros((10, 4)))

    def test_kernel_shape_checked(self):
        with pytest.raises(ValueError):
            accumulate_batch(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros((3, 3)))


class TestOnlineTraining:
    def test_learns_rgb_clusters(self):
        data = np.random.default_rng(5).random((150, 3))
        som = OnlineSOM(SOMGrid(8, 8), dim=3)
        cb = som.train(data, epochs=6)
        assert quantization_error(data, cb) < 0.2

    def test_order_dependence(self):
        """The online rule — unlike batch — depends on presentation order."""
        data = np.random.default_rng(6).random((80, 3))
        perm = np.random.default_rng(7).permutation(80)
        cb1 = OnlineSOM(SOMGrid(6, 6), dim=3).train(data, epochs=3)
        cb2 = OnlineSOM(SOMGrid(6, 6), dim=3).train(data[perm], epochs=3)
        assert not np.allclose(cb1, cb2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            OnlineSOM(SOMGrid(2, 2), dim=2, alpha0=0.0)
        with pytest.raises(ValueError):
            OnlineSOM(SOMGrid(2, 2), dim=2, alpha_final=0.9, alpha0=0.5)


class TestUmatrixAndQuality:
    def test_two_cluster_data_shows_ridge(self):
        rng = np.random.default_rng(8)
        a = rng.normal(0.0, 0.02, size=(100, 4))
        b = rng.normal(1.0, 0.02, size=(100, 4))
        data = np.vstack([a, b])
        grid = SOMGrid(10, 10)
        cb = BatchSOM(grid, dim=4).train(data, epochs=20)
        u = umatrix(grid, cb)
        # Ridge: max boundary distance far above median within-cluster value.
        assert u.max() > 4 * np.median(u)

    def test_render_ascii(self):
        art = render_ascii(np.arange(12).reshape(3, 4))
        lines = art.splitlines()
        assert len(lines) == 3
        assert len(lines[0]) == 4
        assert lines[0][0] == " " and lines[-1][-1] == "@"

    def test_quality_validation(self):
        with pytest.raises(ValueError):
            quantization_error(np.zeros((0, 3)), np.zeros((4, 3)))
        with pytest.raises(ValueError):
            topographic_error(np.zeros((5, 3)), np.zeros((4, 3)), SOMGrid(3, 3))

    def test_codebook_grid_mismatch(self):
        with pytest.raises(ValueError):
            umatrix(SOMGrid(3, 3), np.zeros((5, 2)))
