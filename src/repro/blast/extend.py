"""Stage 2 of BLAST: ungapped X-drop extension of word hits.

A word hit is extended in both directions as long as the running score does
not fall more than ``xdrop`` below the best score seen (paper §II.B: "the
second stage extends each matching word as an ungapped alignment").

:func:`extend_ungapped` extends many hits of one subject against a query
block at once: ``ungapped`` of the engine's C library walks each hit left
and right inside its own context's span, one direct loop a hit with no
windows or padding, so each result is the one-hit rule's
(``tests/oracles/ungapped.py``) whatever else is in the call.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.blast import _native

__all__ = ["UngappedExtents", "extend_ungapped"]


class UngappedExtents(NamedTuple):
    """Per-hit results of :func:`extend_ungapped` (parallel arrays)."""

    score: np.ndarray
    q_start: np.ndarray
    q_end: np.ndarray
    s_start: np.ndarray
    s_end: np.ndarray


def extend_ungapped(
    q_codes: np.ndarray,
    s_codes: np.ndarray,
    spans: np.ndarray,
    hits: np.ndarray,
    word_size: int,
    matrix: np.ndarray,
    xdrop: float,
    rows: np.ndarray | None = None,
) -> UngappedExtents:
    """Ungapped X-drop extension of word hits of one subject.

    ``q_codes`` is a query block (its contexts back to back) and ``spans``
    a ``(2, n_contexts)`` int64 array of each context's half-open span in
    it; ``hits`` is a ``(3, n)`` int64 array of context index, query word
    start and subject word start per hit.  The hits extended are ``rows``
    (all of them by default); each extends inside its context's span and
    the whole subject.  Coordinates come back half-open, in the hits'
    coordinates.  A hit outside its sequences or a code outside the matrix
    raises :class:`ValueError`.
    """
    q_codes, s_codes = (np.ascontiguousarray(c, dtype=np.uint8) for c in (q_codes, s_codes))
    hits, spans = (np.ascontiguousarray(a, dtype=np.int64) for a in (hits, spans))
    matrix = np.ascontiguousarray(matrix, dtype=np.int32)
    if rows is not None:
        rows = np.ascontiguousarray(rows, dtype=np.int64)
    k = hits.shape[1] if rows is None else rows.size
    out = np.empty((5, k), dtype=np.int64)
    # An integer depth d > xdrop  <=>  d > floor(xdrop).
    if k and _native.call(
        "ungapped", k, 0 if rows is None else rows, hits, hits.shape[1],
        spans, spans.shape[1], q_codes, q_codes.size, s_codes, s_codes.size,
        word_size, matrix, matrix.shape[1], math.floor(xdrop), out,
    ):
        raise ValueError("a word hit lies outside its sequences or a code outside the matrix")
    return UngappedExtents(*out)
