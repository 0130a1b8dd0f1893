"""One-hit ungapped X-drop extension: the parity oracle for stage 2.

The engine extends a subject's word hits with one compiled loop
(:func:`repro.blast.extend.extend_ungapped`).  This is the rule it must
reproduce, one hit at a time and in numpy: pair scores from one
fancy-indexing gather, the X-drop stopping point from a cumulative-sum /
running-max scan.  ``tests/properties/test_extension_kernels.py`` and
``tests/blast/test_extension_batch.py`` assert the kernel equals it field
for field; ``benchmarks/bench_extension.py`` uses it as the per-hit
reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["UngappedHSP", "ungapped_extend", "extension_scores"]


@dataclass(frozen=True)
class UngappedHSP:
    """Result of one ungapped extension (coordinates half-open)."""

    score: int
    q_start: int
    q_end: int
    s_start: int
    s_end: int

    @property
    def length(self) -> int:
        return self.q_end - self.q_start

    def seed_point(self) -> tuple[int, int]:
        """Mid-point of the segment — the anchor for gapped extension."""
        mid = (self.q_end - self.q_start) // 2
        return self.q_start + mid, self.s_start + mid


def extension_scores(
    q_codes: np.ndarray, s_codes: np.ndarray, matrix: np.ndarray
) -> np.ndarray:
    """Pair scores of two equal-length encoded segments."""
    if q_codes.size != s_codes.size:
        raise ValueError("segments must have equal length")
    if q_codes.size == 0:
        return np.empty(0, dtype=np.int64)
    return matrix[q_codes.astype(np.intp), s_codes.astype(np.intp)].astype(np.int64)


def _xdrop_extent(scores: np.ndarray, xdrop: float) -> tuple[int, int]:
    """(best_partial_sum, length) of an X-drop-limited extension.

    Walk the score sequence accumulating; stop at the first position where
    the running sum falls ``xdrop`` below the running maximum; return the
    best prefix sum (if positive) and its length.
    """
    if scores.size == 0:
        return 0, 0
    cum = np.cumsum(scores)
    runmax = np.maximum.accumulate(np.maximum(cum, 0))
    dropped = (runmax - cum) > xdrop
    limit = int(np.argmax(dropped)) if dropped.any() else scores.size
    if limit == 0:
        return 0, 0
    window = cum[:limit]
    best_idx = int(np.argmax(window))
    best = int(window[best_idx])
    if best <= 0:
        return 0, 0
    return best, best_idx + 1


def ungapped_extend(
    q_codes: np.ndarray,
    s_codes: np.ndarray,
    q_pos: int,
    s_pos: int,
    word_size: int,
    matrix: np.ndarray,
    xdrop: float,
) -> UngappedHSP:
    """Extend a word hit at ``(q_pos, s_pos)`` without gaps.

    The seed word ``[q_pos, q_pos+word_size)`` is always included; the
    extension grows left from ``q_pos-1`` and right from
    ``q_pos+word_size`` under the X-drop rule.
    """
    if not (0 <= q_pos <= q_codes.size - word_size):
        raise ValueError(f"query word start {q_pos} out of range")
    if not (0 <= s_pos <= s_codes.size - word_size):
        raise ValueError(f"subject word start {s_pos} out of range")

    word_score = int(
        extension_scores(
            q_codes[q_pos : q_pos + word_size], s_codes[s_pos : s_pos + word_size], matrix
        ).sum()
    )

    # Right of the word.
    n_right = min(q_codes.size - (q_pos + word_size), s_codes.size - (s_pos + word_size))
    right_scores = extension_scores(
        q_codes[q_pos + word_size : q_pos + word_size + n_right],
        s_codes[s_pos + word_size : s_pos + word_size + n_right],
        matrix,
    )
    right_gain, right_len = _xdrop_extent(right_scores, xdrop)

    # Left of the word (walk outward, i.e. reversed slices).
    n_left = min(q_pos, s_pos)
    left_scores = extension_scores(
        q_codes[q_pos - n_left : q_pos][::-1],
        s_codes[s_pos - n_left : s_pos][::-1],
        matrix,
    )
    left_gain, left_len = _xdrop_extent(left_scores, xdrop)

    return UngappedHSP(
        score=word_score + right_gain + left_gain,
        q_start=q_pos - left_len,
        q_end=q_pos + word_size + right_len,
        s_start=s_pos - left_len,
        s_end=s_pos + word_size + right_len,
    )
