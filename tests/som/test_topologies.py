"""SOM grid geometry: adjacency, the diagonal and the squared grid distances."""

import numpy as np
import pytest

from repro.som import SOMGrid


class TestBackwardCompatibility:
    def test_default_grid_unchanged(self):
        g = SOMGrid(3, 4)
        assert g.diagonal == pytest.approx(np.hypot(2, 3))
        assert sorted(g.neighbors(5)) == [1, 4, 6, 9]


GRIDS = [SOMGrid(5, 7)]


def _literal_sq_distances(grid):
    """The definition, one pair at a time (the (K, K, 2) formula PR 14 removed)."""
    pos = grid.positions()
    k = grid.n_units
    out = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            dy, dx = np.abs(pos[i] - pos[j])
            out[i, j] = dy**2 + dx**2
    return out


@pytest.mark.parametrize("grid", GRIDS, ids=["rect-False-5x7"])
class TestSqDistancesFrom:
    def test_full_matrix_is_the_definition_exactly(self, grid):
        np.testing.assert_array_equal(grid.grid_sq_distances(), _literal_sq_distances(grid))

    def test_stacked_rows_equal_the_full_matrix(self, grid, monkeypatch):
        full = grid.grid_sq_distances()
        k = grid.n_units
        for parts in (1, 3, k):
            bounds = [i * k // parts for i in range(parts + 1)]
            rows = [grid.sq_distances_from(np.arange(lo, hi))
                    for lo, hi in zip(bounds, bounds[1:])]
            np.testing.assert_array_equal(np.vstack(rows), full)
        # ... and when the full matrix itself is filled in more than one strip
        monkeypatch.setattr("repro.som.codebook.STRIP_ELEMS", 2 * k + 1)
        np.testing.assert_array_equal(grid.grid_sq_distances(), full)

    def test_subset_of_rows_and_columns(self, grid):
        full = grid.grid_sq_distances()
        rng = np.random.default_rng(grid.n_units)
        units = rng.permutation(grid.n_units)[:5]
        to = np.sort(rng.permutation(grid.n_units)[:4])
        np.testing.assert_array_equal(grid.sq_distances_from(units), full[units])
        # ... and any (rows, columns) block is the sum of the two axis tables
        dy2, dx2 = grid.axis_sq_distances()
        (r, c), (r2, c2) = np.divmod(units, grid.cols), np.divmod(to, grid.cols)
        split = dy2[r[:, None], r2[None, :]] + dx2[c[:, None], c2[None, :]]
        np.testing.assert_array_equal(split, full[np.ix_(units, to)])
