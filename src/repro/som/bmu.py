"""Best Matching Unit search (paper Eqs. 1-2), fully vectorised.

The BMU of an input x is the neuron minimising ‖x − w_i‖ (Eq. 2).  Squared
distances are computed as ‖x‖² + ‖w‖² − 2·x·wᵀ so the inner loop is one
matrix multiply; inputs are processed in chunks to bound the (chunk × K)
distance matrix, which is how the full 10 000 × 2 500 × 500-D searches of
Fig. 8 stay fast and memory-safe.

Ties: the paper breaks BMU ties randomly.  The default here is the lowest
index (deterministic — required for the parallel == serial parity tests and
harmless statistically); pass an ``rng`` to get the paper's randomised
tie-breaking.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import as_rng

__all__ = ["pairwise_sq_distances", "best_matching_units"]


def pairwise_sq_distances(
    data: np.ndarray, codebook: np.ndarray, codebook_sq: np.ndarray | None = None
) -> np.ndarray:
    """(N, K) squared Euclidean distances (clipped at 0 for FP safety).

    ``codebook_sq`` is ``(codebook**2).sum(axis=1)`` when the caller already
    holds it (the codebook is frozen for a whole epoch of blocks).
    """
    data = np.asarray(data, dtype=np.float64)
    codebook = np.asarray(codebook, dtype=np.float64)
    if data.ndim != 2 or codebook.ndim != 2 or data.shape[1] != codebook.shape[1]:
        raise ValueError(
            f"shape mismatch: data {data.shape} vs codebook {codebook.shape}"
        )
    if codebook_sq is None:
        codebook_sq = (codebook**2).sum(axis=1)
    d2 = (
        (data**2).sum(axis=1)[:, None]
        + codebook_sq[None, :]
        - 2.0 * (data @ codebook.T)
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def best_matching_units(
    data: np.ndarray,
    codebook: np.ndarray,
    chunk: int = 2048,
    rng: np.random.Generator | int | None = None,
    codebook_sq: np.ndarray | None = None,
) -> np.ndarray:
    """BMU index for every input row.

    ``rng=None`` → deterministic lowest-index tie-breaking;
    otherwise ties are broken uniformly at random (paper behaviour).
    ``codebook_sq`` as in :func:`pairwise_sq_distances`.
    """
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    out = np.empty(n, dtype=np.int64)
    generator = None if rng is None else as_rng(rng)
    for start in range(0, n, chunk):
        block = data[start : start + chunk]
        d2 = pairwise_sq_distances(block, codebook, codebook_sq)
        if generator is None:
            out[start : start + block.shape[0]] = np.argmin(d2, axis=1)
        else:
            mins = d2.min(axis=1, keepdims=True)
            for r in range(block.shape[0]):
                ties = np.nonzero(d2[r] <= mins[r] + 1e-12)[0]
                out[start + r] = ties[generator.integers(0, ties.size)]
    return out
