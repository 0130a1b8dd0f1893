"""Hexagonal and toroidal SOM grid topologies."""

import numpy as np
import pytest

from repro.som import BatchSOM, SOMGrid, quantization_error, topographic_error, umatrix


class TestHexGrid:
    def test_interior_unit_has_six_equidistant_neighbors(self):
        g = SOMGrid(6, 6, topology="hex")
        center = 3 * 6 + 3
        neigh = g.neighbors(center)
        assert len(neigh) == 6
        pos = g.positions()
        dists = np.linalg.norm(pos[neigh] - pos[center], axis=1)
        np.testing.assert_allclose(dists, 1.0, atol=1e-9)

    def test_corner_units_have_fewer_neighbors(self):
        g = SOMGrid(5, 5, topology="hex")
        assert 2 <= len(g.neighbors(0)) <= 3

    def test_row_spacing_compressed(self):
        g = SOMGrid(4, 4, topology="hex")
        pos = g.positions()
        assert pos[4, 0] == pytest.approx(np.sqrt(3) / 2)
        assert pos[4 + 1, 1] == pytest.approx(1.5)  # odd row shifted by 0.5

    def test_neighbor_relation_symmetric(self):
        g = SOMGrid(5, 7, topology="hex")
        for k in range(g.n_units):
            for n in g.neighbors(k):
                assert k in g.neighbors(n)

    def test_training_on_hex_grid_works(self):
        data = np.random.default_rng(2).random((150, 3))
        grid = SOMGrid(8, 8, topology="hex")
        cb = BatchSOM(grid, dim=3).train(data, epochs=12)
        assert quantization_error(data, cb) < 0.15
        assert topographic_error(data, cb, grid) < 0.25
        u = umatrix(grid, cb)
        assert u.shape == (8, 8)
        assert np.isfinite(u).all() and (u > 0).all()

class TestToroidalGrid:
    def test_every_unit_has_four_neighbors(self):
        g = SOMGrid(4, 5, periodic=True)
        for k in range(g.n_units):
            assert len(g.neighbors(k)) == 4

    def test_wraparound_adjacency(self):
        g = SOMGrid(4, 5, periodic=True)
        # Unit (0, 0) is adjacent to (3, 0) and (0, 4) across the seams.
        assert 3 * 5 + 0 in g.neighbors(0)
        assert 0 * 5 + 4 in g.neighbors(0)

    def test_distances_wrap(self):
        g = SOMGrid(8, 8, periodic=True)
        d2 = g.grid_sq_distances()
        # Opposite corners are 2 steps apart on the torus, not ~9.9.
        assert d2[0, 7 * 8 + 7] == pytest.approx(2.0)
        np.testing.assert_array_equal(d2, d2.T)
        assert d2.max() <= 2 * (4**2)

    def test_diagonal_reflects_torus(self):
        g = SOMGrid(10, 10, periodic=True)
        assert g.diagonal == pytest.approx(np.hypot(5, 5))

    def test_training_and_umatrix(self):
        data = np.random.default_rng(3).random((120, 3))
        grid = SOMGrid(7, 7, periodic=True)
        cb = BatchSOM(grid, dim=3).train(data, epochs=10)
        assert quantization_error(data, cb) < 0.2
        u = umatrix(grid, cb)
        assert u.shape == (7, 7) and (u > 0).all()

    def test_hex_periodic_combination_rejected(self):
        with pytest.raises(ValueError):
            SOMGrid(4, 4, topology="hex", periodic=True)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            SOMGrid(4, 4, topology="triangular")


class TestBackwardCompatibility:
    def test_default_grid_unchanged(self):
        g = SOMGrid(3, 4)
        assert g.topology == "rect" and not g.periodic
        assert g.diagonal == pytest.approx(np.hypot(2, 3))
        assert sorted(g.neighbors(5)) == [1, 4, 6, 9]


GRIDS = [
    SOMGrid(5, 7),
    SOMGrid(6, 5, topology="hex"),
    SOMGrid(7, 4, periodic=True),  # odd and even spans
    SOMGrid(1, 6, periodic=True),
]


def _literal_sq_distances(grid):
    """The definition, one pair at a time (the (K, K, 2) formula PR 14 removed)."""
    pos = grid.positions()
    k = grid.n_units
    out = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            dy, dx = np.abs(pos[i] - pos[j])
            if grid.periodic:
                dy, dx = min(dy, grid.rows - dy), min(dx, grid.cols - dx)
            out[i, j] = dy**2 + dx**2
    return out


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.topology}-{g.periodic}-{g.rows}x{g.cols}")
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
        par = len(dx2)
        assert par == (2 if grid.topology == "hex" else 1)
        (r, c), (r2, c2) = np.divmod(units, grid.cols), np.divmod(to, grid.cols)
        split = (dy2[r[:, None], r2[None, :]]
                 + dx2[r[:, None] % par, r2[None, :] % par, c[:, None], c2[None, :]])
        np.testing.assert_array_equal(split, full[np.ix_(units, to)])
