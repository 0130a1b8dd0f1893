"""Eq. 5 against its definition, not against another copy of the repo's code.

The batch epoch is accumulate → reduce → smooth: class sums per BMU, then the
neighbourhood once, in strips of output units.  The reference here is the
formula as the paper prints it, one input vector and one unit at a time::

    num[i] += exp(−‖r_b(x) − r_i‖² / σ²) · x        den[i] += exp(...)
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mrsom.driver import MrSomConfig, mrsom_spmd
from repro.core.mrsom.mmap_input import write_matrix_file
from repro.som import BatchSOM, SOMGrid, accumulate_batch, batch_update, gaussian_kernel
from repro.som.batch import accumulate_classes, smooth_classes

GRIDS = [SOMGrid(5, 7), SOMGrid(6, 5, topology="hex"), SOMGrid(5, 6, periodic=True)]
grid_id = lambda g: f"{g.topology}{'-torus' if g.periodic else ''}"  # noqa: E731


def literal_bmus(data, codebook):
    """Eq. 2 by exhaustive search, lowest index on ties."""
    return np.array([
        min(range(len(codebook)), key=lambda i: (sum((x - codebook[i]) ** 2), i))
        for x in data
    ])


def literal_eq5(grid, sigma, data, bmus):
    pos = grid.positions()
    num = np.zeros((grid.n_units, data.shape[1]))
    den = np.zeros(grid.n_units)
    for x, b in zip(data, bmus):
        for i in range(grid.n_units):
            dy, dx = abs(pos[b] - pos[i])
            if grid.periodic:
                dy, dx = min(dy, grid.rows - dy), min(dx, grid.cols - dx)
            h = math.exp(-(dy * dy + dx * dx) / sigma**2)
            num[i] += h * x
            den[i] += h
    return num, den


def accumulate_then_smooth(grid, sigma, blocks, codebook, strips, bmus=None):
    """The epoch as the trainers run it: ``blocks`` one at a time into the
    class sums, then ``strips`` contiguous strips of output units."""
    k = grid.n_units
    sums, counts = np.zeros((k, codebook.shape[1])), np.zeros(k)
    start = 0
    for block in blocks:
        part = None if bmus is None else bmus[start : start + len(block)]
        accumulate_classes(block, codebook, sums, counts, bmus=part)
        start += len(block)
    bounds = [r * k // strips for r in range(strips + 1)]
    parts = [smooth_classes(grid, sigma, sums, counts, lo, hi)
             for lo, hi in zip(bounds, bounds[1:])]
    return (np.vstack([p[0] for p in parts]), np.concatenate([p[1] for p in parts]),
            counts)


@pytest.mark.parametrize("grid", GRIDS, ids=grid_id)
class TestAgainstTheDefinition:
    def setup_method(self):
        rng = np.random.default_rng(14)
        self.data = rng.random((23, 3))
        self.rng = rng

    def test_blocks_and_strips_match_the_double_loop(self, grid):
        codebook = self.rng.random((grid.n_units, 3))
        bmus = literal_bmus(self.data, codebook)
        want_num, want_den = literal_eq5(grid, 1.7, self.data, bmus)
        # a single-row block among the blocks; 30 or 35 units over 4 strips
        blocks = [self.data[:1], self.data[1:8], self.data[8:]]
        for strips in (1, 4):
            assert grid.n_units % 4 != 0
            num, den, counts = accumulate_then_smooth(grid, 1.7, blocks, codebook, strips)
            np.testing.assert_allclose(num, want_num, rtol=1e-12, atol=0)
            np.testing.assert_allclose(den, want_den, rtol=1e-12, atol=0)
        # 23 vectors on >= 30 units: empty classes were part of the case
        assert (counts == 0).any() and counts.sum() == 23
        np.testing.assert_array_equal(counts, np.bincount(bmus, minlength=grid.n_units))

    def test_block_whose_rows_share_one_bmu(self, grid):
        codebook = self.rng.random((grid.n_units, 3))
        target = grid.n_units // 2
        data = codebook[target] + 1e-3 * self.rng.random((6, 3))
        bmus = literal_bmus(data, codebook)
        assert (bmus == target).all()
        want_num, want_den = literal_eq5(grid, 1.0, data, bmus)
        num, den, counts = accumulate_then_smooth(grid, 1.0, [data], codebook, 3)
        assert np.count_nonzero(counts) == 1
        np.testing.assert_allclose(num, want_num, rtol=1e-12, atol=0)
        np.testing.assert_allclose(den, want_den, rtol=1e-12, atol=0)

    def test_kernel_matrix_composition_and_trainer_agree(self, grid):
        """`accumulate_batch` (callers holding a kernel matrix) and one
        `BatchSOM` epoch are the same Eq. 5."""
        codebook = self.rng.random((grid.n_units, 3))
        bmus = literal_bmus(self.data, codebook)
        sigma = 2.2
        want_num, want_den = literal_eq5(grid, sigma, self.data, bmus)
        kernel = gaussian_kernel(grid.grid_sq_distances(), sigma)
        num, den = None, None
        for block in (self.data[:9], self.data[9:]):
            num, den = accumulate_batch(block, codebook, kernel, num, den)
        np.testing.assert_allclose(num, want_num, rtol=1e-12, atol=0)
        np.testing.assert_allclose(den, want_den, rtol=1e-12, atol=0)
        som = BatchSOM(grid, dim=3, initial_radius=sigma, codebook=codebook.copy())
        trained = som.train(self.data, epochs=1)
        np.testing.assert_allclose(
            trained, batch_update(codebook, want_num, want_den), rtol=1e-12, atol=0)


def test_unit_out_of_double_precision_reach_keeps_its_weight():
    """exp(−d²/σ²) below the smallest normal double is 0, not a denormal: the
    far end of a 1×40 line at σ = 1 is untouched by a class at unit 0."""
    grid = SOMGrid(1, 40)
    codebook = np.linspace(0.0, 1.0, 40)[:, None] * np.ones((1, 2))
    data = codebook[:1] + 0.01
    num, den, _ = accumulate_then_smooth(grid, 1.0, [data], codebook, 2)
    reach = int(math.sqrt(-math.log(np.finfo(np.float64).tiny)))  # 26 cells
    want_num, want_den = literal_eq5(grid, 1.0, data, np.zeros(1, dtype=int))
    np.testing.assert_allclose(num[: reach + 1], want_num[: reach + 1], rtol=1e-12, atol=0)
    np.testing.assert_allclose(den[: reach + 1], want_den[: reach + 1], rtol=1e-12, atol=0)
    assert (den[reach + 1 :] == 0).all() and (num[reach + 1 :] == 0).all()
    new = batch_update(codebook, num, den)
    np.testing.assert_array_equal(new[reach + 1 :], codebook[reach + 1 :])


@given(
    grid=st.sampled_from(GRIDS),
    rows=st.integers(1, 24),
    cuts=st.lists(st.integers(0, 24), max_size=5),
    strips=st.integers(1, 5),
    sigma=st.floats(0.7, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_any_blocks_times_any_strips(grid, rows, cuts, strips, sigma, seed):
    """Eq. 5 is linear in the class sums: however the rows are cut into
    blocks (empty ones included) and the units into strips, the result is
    the double loop's.  BMUs are drawn, not searched, so the property is
    about the sums and the neighbourhood alone; positive data keep
    rtol 1e-12 meaningful (no cancellation)."""
    rng = np.random.default_rng(seed)
    data = 0.125 + 8.0 * rng.random((rows, 2))
    bmus = rng.integers(0, grid.n_units, size=rows)
    edges = [0, *sorted(min(c, rows) for c in cuts), rows]
    blocks = [data[a:b] for a, b in zip(edges, edges[1:])]
    want_num, want_den = literal_eq5(grid, sigma, data, bmus)
    codebook = np.zeros((grid.n_units, 2))  # unused: the BMUs are given
    num, den, _ = accumulate_then_smooth(grid, sigma, blocks, codebook, strips, bmus=bmus)
    np.testing.assert_allclose(num, want_num, rtol=1e-12, atol=0)
    np.testing.assert_allclose(den, want_den, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "grid",
    [SOMGrid(40, 40), SOMGrid(40, 40, topology="hex"), SOMGrid(40, 40, periodic=True)],
    ids=grid_id,
)
def test_no_rank_of_run_mrsom_holds_a_k_by_k_array(grid, tmp_path):
    """Both ranks together (thread backend: one traced heap) stay below ONE
    (K, K) float64 matrix, for every topology."""
    data = np.random.default_rng(5).random((400, 4))
    path = write_matrix_file(tmp_path / "v.mat", data)
    config = MrSomConfig(matrix_path=str(path), grid=grid, epochs=2, block_rows=40,
                         backend="thread")
    tracemalloc.start()
    try:
        results = mrsom_spmd(2, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(r.units_processed for r in results) == 2 * 10
    assert peak < grid.n_units * grid.n_units * 8, f"peak {peak / 2**20:.1f} MiB"
