"""k-mer composition vectors: the SOM's input space.

The paper's SOM application clusters metagenomic sequences "in a
multi-dimensional sequence composition space" — tetranucleotide frequency
vectors (k=4, 256 dimensions).  These helpers turn sequences into that
representation, fully vectorised.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.bio.alphabet import DNA
from repro.bio.seq import SeqRecord

__all__ = ["kmer_frequencies", "composition_matrix"]


def kmer_frequencies(seq: str, k: int = 4, normalize: bool = True) -> np.ndarray:
    """Frequency vector of all ``4**k`` k-mers of a DNA sequence.

    Sliding windows are counted with a vectorised polynomial rolling encode
    (no Python loop over positions).  Ambiguity characters participate via
    their canonical substitution (see :mod:`repro.bio.alphabet`).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n_bins = 4**k
    codes = DNA.encode(seq).astype(np.int64)
    n = codes.size - k + 1
    if n <= 0:
        return np.zeros(n_bins, dtype=np.float64)
    # index(i) = sum_j codes[i+j] * 4**(k-1-j): build via strided windows.
    weights = 4 ** np.arange(k - 1, -1, -1, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(codes, k)
    idx = windows @ weights
    counts = np.bincount(idx, minlength=n_bins).astype(np.float64)
    if normalize:
        counts /= counts.sum()
    return counts


def composition_matrix(
    records: Sequence[SeqRecord] | Iterable[SeqRecord],
    k: int = 4,
    normalize: bool = True,
) -> np.ndarray:
    """Stack per-record k-mer frequency vectors into an (N, 4**k) matrix."""
    rows = [kmer_frequencies(rec.seq, k=k, normalize=normalize) for rec in records]
    if not rows:
        return np.zeros((0, 4**k), dtype=np.float64)
    return np.vstack(rows)


