"""SOM grid geometry and codebook initialisation.

The paper trains 50×50 maps; "initially all weight vectors are either
assigned random values or linearly generated from the first two PCA
eigen-vectors" — both strategies are provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import as_rng

__all__ = ["SOMGrid", "init_codebook"]

#: elements of one working strip (2 MiB of float64): what
#: :meth:`SOMGrid.grid_sq_distances` and the batch smoother's scratch hold
STRIP_ELEMS = 1 << 18


@dataclass(frozen=True)
class SOMGrid:
    """A 2-D rectangular neuron grid.

    Neuron k sits at row ``k // cols``, column ``k % cols``.  Grid distances
    (Eq. 4's ``r_i``) are Euclidean in cell units.
    """

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")

    @property
    def n_units(self) -> int:
        return self.rows * self.cols

    @property
    def diagonal(self) -> float:
        """Largest grid distance (the paper's initial radius scale)."""
        return float(np.hypot(self.rows - 1, self.cols - 1)) or 1.0

    def positions(self) -> np.ndarray:
        """(K, 2) array of (y, x) coordinates in unit order."""
        r, c = np.divmod(np.arange(self.n_units), self.cols)
        return np.stack([r, c], axis=1).astype(np.float64)

    def sq_distances_from(self, units: np.ndarray) -> np.ndarray:
        """Squared grid distances ‖r_u − r_j‖² from ``units`` to every unit:
        the rows ``units`` of :meth:`grid_sq_distances`."""
        units = np.asarray(units, dtype=np.intp)
        y, x = self.positions().T
        out = np.square(y[units, None] - y[None, :])
        out += np.square(x[units, None] - x[None, :])
        return out

    def axis_sq_distances(self) -> tuple[np.ndarray, np.ndarray]:
        """The squared grid distance split over the two grid axes::

            ‖r_i − r_j‖² = dy2[row_i, row_j] + dx2[col_i, col_j]

        Same arithmetic as :meth:`positions`: the sum is
        :meth:`grid_sq_distances` bit for bit.
        """
        y = np.arange(self.rows, dtype=np.float64)
        x = np.arange(self.cols, dtype=np.float64)
        return np.square(y[:, None] - y[None, :]), np.square(x[:, None] - x[None, :])

    def grid_sq_distances(self) -> np.ndarray:
        """(K, K) squared grid distances ‖r_i − r_j‖² (Eq. 4's exponent),
        filled a strip of rows at a time: no (K, K, 2) difference tensor."""
        k = self.n_units
        out = np.empty((k, k))
        step = max(1, STRIP_ELEMS // k)
        for lo in range(0, k, step):
            out[lo : lo + step] = self.sq_distances_from(np.arange(lo, min(lo + step, k)))
        return out

    def neighbors(self, k: int) -> list[int]:
        """The up to four adjacent units of ``k``."""
        if not (0 <= k < self.n_units):
            raise IndexError(f"unit {k} outside grid of {self.n_units}")
        r, c = divmod(k, self.cols)
        return [rr * self.cols + cc for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
                if 0 <= rr < self.rows and 0 <= cc < self.cols]


def init_codebook(
    grid: SOMGrid,
    data: np.ndarray,
    method: str = "linear",
    seed_or_rng: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """Initial codebook of shape (K, dim).

    ``"random"`` samples uniformly inside the data bounding box;
    ``"linear"`` spreads the grid over the plane of the first two principal
    components (the deterministic initialisation the paper mentions, which
    also makes batch training reproducible without luck).
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 1:
        raise ValueError(f"data must be a non-empty (N, dim) matrix, got {data.shape}")
    dim = data.shape[1]
    if method == "random":
        rng = as_rng(seed_or_rng)
        lo = data.min(axis=0)
        hi = data.max(axis=0)
        return lo + (hi - lo) * rng.random((grid.n_units, dim))
    if method == "linear":
        mean = data.mean(axis=0)
        centered = data - mean
        # Principal directions from eigh of the (dim, dim) Gram matrix: one
        # N·dim² product, where a thin SVD of the sample does several.
        vals, vecs = np.linalg.eigh(centered.T @ centered)
        vals, vt = vals[::-1][:2], vecs[:, ::-1][:, :2].T.copy()
        s = np.sqrt(np.maximum(vals, 0.0))
        # Canonicalise the signs (an eigenvector is sign-ambiguous and the
        # ambiguity depends on row order): make each direction's largest
        # component positive so the init is independent of input order.
        pivots = np.abs(vt).argmax(axis=1)
        vt[vt[np.arange(len(vt)), pivots] < 0] *= -1.0
        # eigh resolves an eigenvalue to about dim·eps of the largest one;
        # a second one below that is rounding, not a direction.
        if vt.shape[0] < 2 or vals[1] <= vals[0] * dim * np.finfo(np.float64).eps:
            # Degenerate data (rank < 2): fall back to tiny deterministic
            # jitter around the mean so units remain distinct.
            jitter = np.linspace(-0.5, 0.5, grid.n_units)[:, None]
            direction = vt[0] if s[0] > 0 else np.ones(dim) / np.sqrt(dim)
            return mean + jitter * direction
        scale = s / np.sqrt(max(data.shape[0] - 1, 1))
        pos = grid.positions()
        # Map grid coords to [-1, 1]^2.
        extent = pos.max(axis=0) - pos.min(axis=0)
        extent[extent == 0] = 1.0
        uv = 2.0 * (pos - pos.min(axis=0)) / extent - 1.0
        codebook = (uv * scale) @ vt
        codebook += mean
        return codebook
    raise ValueError(f"unknown init method {method!r} (use 'random' or 'linear')")
