"""Batch SOM training (paper Eq. 5).

Per epoch, with BMU assignments b(x) frozen at the epoch-start codebook::

    w_i(end) = Σ_x h_{b(x),i} · x   /   Σ_x h_{b(x),i}

Both sums are linear in the per-BMU *class sums* S_c = Σ_{x: b(x)=c} x and
counts n_c (Σ_x h_{b(x),i}·x = Σ_c h_{c,i}·S_c), and S, n decompose over any
partition of the inputs.  So an epoch is accumulate → reduce → smooth: each
map() call only finds BMUs and adds its block into S and n
(:func:`accumulate_classes`, rows·K·dim work), one ``MPI_Reduce`` adds the
partial sums (Fig. 2), and the neighbourhood is applied once, after the
reduction (:func:`smooth_classes`).

The smoother is separable.  On a rect or torus grid the squared distance is
Δy² + Δx², so exp(−(Δy² + Δx²)/σ²) is a row factor Gy (R, R) times a column
factor Gx (C, C), and Σ_c h_{c,i}·S_c is two small contractions, Gy along
the rows of S viewed as (R, C, dim) and then Gx along its columns:
2·K·(R + C)·dim flops and R² + C² ``exp`` calls, where the dense form costs
2·K·K·dim and K².  On a hex grid odd rows sit half a cell to the right, so
Δx depends on the two row parities as well as on the columns, and on nothing
else of the rows: one Gx per pair of parities, source rows contracted one
parity at a time, each output row through the Gx of its own parity.

**Denormal rule.**  A factor that would be denormal is exactly 0, as
:func:`~repro.som.neighborhood.gaussian_kernel` makes it: no factor array
holds a denormal, and σ = 1 on a 50 × 50 map stays off the slow path.  Two
normal factors can still multiply to a 2-D weight below the smallest normal
double; such a weight adds less than that double per input vector to a
denominator, possibly nothing.  A unit for which *every* non-empty class has
such a weight gets numerator and denominator exactly 0 and keeps its old
weights, as under a dense kernel flushed the same way.

The serial trainers and the parallel driver call the same two functions, so
parallel and serial training are the same arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.som.bmu import best_matching_units
from repro.som.codebook import STRIP_ELEMS, SOMGrid, init_codebook
from repro.som.neighborhood import gaussian_kernel, radius_schedule
from repro.som.quality import quantization_error

__all__ = ["accumulate_classes", "smooth_classes", "accumulate_batch", "batch_update",
           "BatchSOM"]


def accumulate_classes(
    data: np.ndarray, codebook: np.ndarray, sums: np.ndarray, counts: np.ndarray,
    codebook_sq: np.ndarray | None = None, bmus: np.ndarray | None = None,
) -> None:
    """Add one block into the class sums S (K, dim) and counts n (K,).

    ``bmus`` skips the search for a block whose BMUs were found earlier (a
    unit staged under scheduled dispatch); ``codebook_sq`` as in
    :func:`~repro.som.bmu.best_matching_units`.
    """
    if bmus is None:
        bmus = best_matching_units(data, codebook, codebook_sq=codebook_sq)
    np.add.at(sums, bmus, data)
    np.add.at(counts, bmus, 1.0)


def _separable(gy: np.ndarray, gx: list, values: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """Rows ``r0:r1`` of Σ_{r,c} gy[r', r]·gx[c', c]·values[r, c, :], the hex
    parities kept apart; ``values`` is (rows, cols, d), ``gx[q]`` the
    (cols, P·cols) column factor into output rows of parity q."""
    rows, cols, d = values.shape
    par = len(gx)
    values = values.reshape(rows, cols * d)
    out = np.empty((r1 - r0, cols, d))
    # a strip of output rows at a time: a cache-sized scratch, not a second (K, d)
    step = max(1, STRIP_ELEMS // (par * cols * d))
    scratch = np.empty((min(step, r1 - r0), par, cols * d))
    for a in range(r0, r1, step):
        b = min(a + step, r1)
        along_y = scratch[: b - a]
        for p in range(par):  # from source rows of parity p
            np.matmul(gy[a:b, p::par], values[p::par], out=along_y[:, p])
        along_y = along_y.reshape(b - a, par * cols, d)
        for q in range(par):  # into output rows of parity q
            first = (q - a) % par
            np.matmul(gx[q], along_y[first::par], out=out[a - r0 + first : b - r0 : par])
    return out


def smooth_classes(
    grid: SOMGrid, sigma: float, sums: np.ndarray, counts: np.ndarray,
    lo: int = 0, hi: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. 5 numerator (hi−lo, dim) and denominator (hi−lo,) of output units
    ``lo:hi`` (default: all) from the reduced class sums, one grid axis at a
    time (module docstring): ``num[i] = Σ_c h[c, i]·S[c]``."""
    rows, cols = grid.rows, grid.cols
    hi = grid.n_units if hi is None else hi
    r0, r1 = lo // cols, -(-hi // cols)  # the grid rows that hold lo:hi
    dy2, dx2 = grid.axis_sq_distances()
    gy, gx = gaussian_kernel(dy2, sigma), gaussian_kernel(dx2, sigma)
    par = len(gx)
    # per output parity q, the Gx from every source parity side by side
    gx_into = [gx[:, q].reshape(par * cols, cols).T for q in range(par)]
    num = _separable(gy, gx_into, sums.reshape(rows, cols, -1), r0, r1)
    denom = _separable(gy, gx_into, counts.reshape(rows, cols, 1), r0, r1)
    if gy.min() * gx.min() < np.finfo(np.float64).tiny:
        # Some 2-D weight is out of double reach: squared distance to the
        # nearest non-empty class, min-plus over the same two axes.
        parity = np.arange(rows) % par
        gap = np.where(counts.reshape(rows, cols) > 0, 0.0, np.inf)
        along_x = (dx2[parity] + gap[:, None, :, None]).min(axis=2)
        nearest = (dy2[:, r0:r1, None] + along_x[:, parity[r0:r1]]).min(axis=0)
        dead = gaussian_kernel(nearest, sigma) == 0
        num[dead], denom[dead] = 0.0, 0.0
    a, b = lo - r0 * cols, hi - r0 * cols
    return num.reshape(-1, num.shape[2])[a:b], denom.reshape(-1)[a:b]


def accumulate_batch(
    data: np.ndarray,
    codebook: np.ndarray,
    kernel: np.ndarray,
    num: np.ndarray | None = None,
    denom: np.ndarray | None = None,
    chunk: int = 2048,
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate Eq. 5 numerator/denominator contributions of one block.

    For callers that hold the (K, K) neighbourhood matrix ``kernel`` h[c, i]:
    :func:`accumulate_classes` followed by the kernel rows of the block's own
    classes.  Pass existing ``num`` (K, dim) and ``denom`` (K,) arrays to
    accumulate in place (the mapper's running accumulators); fresh zeroed
    arrays are created otherwise.
    """
    data = np.asarray(data, dtype=np.float64)
    k, dim = codebook.shape
    if kernel.shape != (k, k):
        raise ValueError(f"kernel shape {kernel.shape} != ({k}, {k})")
    if num is None:
        num = np.zeros((k, dim))
    if denom is None:
        denom = np.zeros(k)
    if data.shape[0] == 0:
        return num, denom
    sums, counts = np.zeros((k, dim)), np.zeros(k)
    bmus = best_matching_units(data, codebook, chunk=chunk)
    accumulate_classes(data, codebook, sums, counts, bmus=bmus)
    # Only the kernel rows the block's BMUs select: 2·rows·K·dim, not 2·K·K·dim.
    classes = np.flatnonzero(counts)
    rows = kernel[classes].T
    num += rows @ sums[classes]
    denom += rows @ counts[classes]
    return num, denom


def batch_update(
    codebook: np.ndarray, num: np.ndarray, denom: np.ndarray
) -> np.ndarray:
    """Apply Eq. 5: new weights = num/denom; units nobody touched keep
    their old weights (standard batch-SOM convention for empty units)."""
    alive = denom > 0
    new = num / np.where(alive, denom, 1.0)[:, None]
    new[~alive] = codebook[~alive]
    return new


@dataclass
class BatchSOM:
    """Serial batch-SOM trainer — also the arithmetic reference for mrsom.

    Parameters mirror the paper's setup: a 2-D grid, Gaussian neighbourhood,
    radius shrinking linearly from half the grid diagonal to one cell.
    """

    grid: SOMGrid
    dim: int
    init: str = "linear"
    seed: int = 0
    initial_radius: float | None = None
    final_radius: float = 1.0
    codebook: np.ndarray | None = None
    #: per-epoch quantization error, appended during train()
    history: list[float] = field(default_factory=list)

    def _ensure_codebook(self, data: np.ndarray) -> np.ndarray:
        if self.codebook is None:
            self.codebook = init_codebook(self.grid, data, method=self.init,
                                          seed_or_rng=self.seed)
        return self.codebook

    def radii(self, epochs: int) -> np.ndarray:
        initial = self.initial_radius
        if initial is None:
            initial = max(self.grid.diagonal / 2.0, self.final_radius)
        return radius_schedule(initial, self.final_radius, epochs)

    def train(self, data: np.ndarray, epochs: int = 10, track_error: bool = False
              ) -> np.ndarray:
        """Run ``epochs`` batch epochs; returns the trained codebook."""
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != self.dim:
            raise ValueError(f"data must be (N, {self.dim}), got {data.shape}")
        codebook = self._ensure_codebook(data)
        k = self.grid.n_units
        for sigma in self.radii(epochs):
            sums, counts = np.zeros((k, self.dim)), np.zeros(k)
            accumulate_classes(data, codebook, sums, counts)
            num, denom = smooth_classes(self.grid, float(sigma), sums, counts)
            codebook = batch_update(codebook, num, denom)
            if track_error:
                self.history.append(quantization_error(data, codebook))
        self.codebook = codebook
        return codebook
