"""DUST low-complexity masking for nucleotide queries.

BLAST seeds in low-complexity sequence (poly-A runs, microsatellites) match
half the database by chance; NCBI blastn therefore DUST-masks queries by
default, and the paper notes that "the low-complexity filtering is usually
requested".  This is the classic windowed DUST: the score of a window is
based on triplet over-representation,

    score(window) = 10 · Σ_t c_t·(c_t − 1)/2 / (w − 2)

(c_t = count of triplet t in the window, w − 2 the number of triplets in
it); positions inside windows scoring above the threshold are soft-masked —
excluded from *seeding* but still available to extensions, matching BLAST's
soft-mask semantics.

There is one implementation, :func:`dust_mask_batch`, and it works on a whole
query block: windows sit at fixed offsets (0, ``step``, 2·``step``, ...) from
the start of a sequence, so sequences of one length share their window
grid, and the window at one offset is scored for all of them by a single
``bincount`` over (sequence, triplet) pairs.  A block of equal-length reads
and their reverse strands costs one ``bincount`` per window offset instead
of one per window per strand.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["dust_mask_batch"]

_DEFAULT_WINDOW = 64
_DEFAULT_THRESHOLD = 20.0
_DEFAULT_STEP = 32


def _triplets(codes: np.ndarray) -> np.ndarray:
    """Packed 6-bit triplet at every position of each row of ``codes``
    (rows, n >= 3), offset into the row's own block of 64 bins."""
    c = codes.astype(np.int64)
    trips = c[:, :-2] * 16 + c[:, 1:-1] * 4 + c[:, 2:]
    trips += 64 * np.arange(len(c), dtype=np.int64)[:, None]
    return trips


def _scores(trips: np.ndarray) -> np.ndarray:
    """DUST score of each row of a (rows, window - 2) slab of triplets."""
    rows, width = trips.shape
    counts = np.bincount(trips.ravel(), minlength=64 * rows).reshape(rows, 64)
    rep = (counts * (counts - 1)).sum(axis=1) / 2.0
    return 10.0 * rep / width


def dust_mask_batch(
    code_rows: Sequence[np.ndarray],
    window: int = _DEFAULT_WINDOW,
    threshold: float = _DEFAULT_THRESHOLD,
    step: int = _DEFAULT_STEP,
) -> list[np.ndarray]:
    """Boolean mask (True = masked) for each encoded sequence of ``code_rows``."""
    if window < 8:
        raise ValueError(f"window must be >= 8, got {window}")
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    masks: list[np.ndarray | None] = [None] * len(code_rows)
    by_length: dict[int, list[int]] = {}
    for k, codes in enumerate(code_rows):
        by_length.setdefault(int(codes.size), []).append(k)
    for n, members in by_length.items():
        group = np.zeros((len(members), n), dtype=bool)
        if n >= 3:
            trips = _triplets(np.stack([code_rows[k] for k in members]))
            for start in range(0, n - 2, step):
                end = min(start + window, n)
                group[_scores(trips[:, start : end - 2]) > threshold, start:end] = True
                if end == n:
                    break
        for row, k in zip(group, members):
            masks[k] = row
    return masks


