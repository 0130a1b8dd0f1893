"""Batch SOM training (paper Eq. 5).

Per epoch, with BMU assignments b(x) frozen at the epoch-start codebook::

    w_i(end) = Σ_x h_{b(x),i} · x   /   Σ_x h_{b(x),i}

Both sums are linear in the per-BMU *class sums* S_c = Σ_{x: b(x)=c} x and
counts n_c (Σ_x h_{b(x),i}·x = Σ_c h_{c,i}·S_c), and S, n decompose over any
partition of the inputs.  So an epoch is accumulate → reduce → smooth: each
map() call only finds BMUs and adds its block into S and n
(:func:`accumulate_classes`, rows·K·dim work), one ``MPI_Reduce`` adds the
partial sums (Fig. 2), and the neighbourhood is applied once, after the
reduction, to any strip of output units (:func:`smooth_classes`).  The
serial trainers and the parallel driver call the same two functions, so
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


def smooth_classes(
    grid: SOMGrid, sigma: float, sums: np.ndarray, counts: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. 5 numerator (hi−lo, dim) and denominator (hi−lo,) of output units
    ``lo:hi`` from the reduced class sums: ``num[i] = Σ_c h[c, i]·S[c]``.

    Gaussian rows are computed on the fly from the grid positions, a bounded
    strip of output units at a time and over the non-empty classes only, so
    no (K, K) matrix exists for any topology.
    """
    classes = np.flatnonzero(counts)
    class_sums, class_counts = sums[classes], counts[classes]
    num = np.empty((hi - lo, sums.shape[1]))
    denom = np.empty(hi - lo)
    step = max(1, STRIP_ELEMS // max(1, classes.size))
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        h = gaussian_kernel(grid.sq_distances_from(np.arange(a, b), classes), sigma)
        num[a - lo : b - lo] = h @ class_sums
        denom[a - lo : b - lo] = h @ class_counts
    return num, denom


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
    new = codebook.copy()
    alive = denom > 0
    new[alive] = num[alive] / denom[alive, None]
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
            num, denom = smooth_classes(self.grid, float(sigma), sums, counts, 0, k)
            codebook = batch_update(codebook, num, denom)
            if track_error:
                self.history.append(quantization_error(data, codebook))
        self.codebook = codebook
        return codebook
