"""U-matrix: the paper's SOM visualisation.

Figures 7 and 8 present U-matrices of trained 50×50 maps.  The U-matrix
value of a neuron is the mean distance between its weight vector and those
of its grid neighbours; cluster interiors show low values, cluster
boundaries show high "ridges".  ``umatrix`` returns the per-neuron (rows ×
cols) form.
"""

from __future__ import annotations

import numpy as np

from repro.som.codebook import SOMGrid

__all__ = ["umatrix", "render_ascii"]


def _weights_grid(grid: SOMGrid, codebook: np.ndarray) -> np.ndarray:
    if codebook.shape[0] != grid.n_units:
        raise ValueError(
            f"codebook has {codebook.shape[0]} units, grid expects {grid.n_units}"
        )
    return codebook.reshape(grid.rows, grid.cols, -1)


def umatrix(grid: SOMGrid, codebook: np.ndarray) -> np.ndarray:
    """(rows, cols) mean weight distance from each unit to its neighbours.

    Vectorised over the grid's up to four neighbours per unit.
    """
    w = _weights_grid(grid, codebook)
    total = np.zeros((grid.rows, grid.cols))
    count = np.zeros((grid.rows, grid.cols))
    # vertical neighbour distances
    if grid.rows > 1:
        dv = np.linalg.norm(w[1:] - w[:-1], axis=2)
        total[:-1] += dv
        total[1:] += dv
        count[:-1] += 1
        count[1:] += 1
    if grid.cols > 1:
        dh = np.linalg.norm(w[:, 1:] - w[:, :-1], axis=2)
        total[:, :-1] += dh
        total[:, 1:] += dh
        count[:, :-1] += 1
        count[:, 1:] += 1
    count[count == 0] = 1
    return total / count


_SHADES = " .:-=+*#%@"


def render_ascii(matrix: np.ndarray, width: int = 10) -> str:
    """Terminal rendering of a U-matrix (dark = ridge), for the examples."""
    m = np.asarray(matrix, dtype=np.float64)
    lo, hi = float(m.min()), float(m.max())
    span = (hi - lo) or 1.0
    idx = ((m - lo) / span * (len(_SHADES) - 1)).astype(int)
    del width
    return "\n".join("".join(_SHADES[v] for v in row) for row in idx)
