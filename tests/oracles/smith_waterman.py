"""Brute-force affine-gap Smith-Waterman: the oracle for extension tests.

No heuristics, no bands, no X-drop.  Kept out of the shipped package: the
test suite uses it to validate that the heuristic engine's best HSP score
matches the true optimal local alignment score; never run on big inputs.

Gap model matches the engine: a gap of length g costs
``gap_open + g*gap_extend``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["smith_waterman_score", "smith_waterman"]

_NEG = np.float64(-1e18)


def _sw_best_cell(
    q: np.ndarray, s: np.ndarray, matrix: np.ndarray, gap_open: int, gap_extend: int
) -> tuple[float, int, int]:
    """(best score, end_i, end_j) of the optimal local alignment.

    Row-vectorised three-state DP; the within-row gap state is solved with a
    prefix-max scan (same trick as the production code, but unbounded).
    """
    n, m = int(q.size), int(s.size)
    if n == 0 or m == 0:
        return 0.0, 0, 0
    open_cost = gap_open + gap_extend
    cols = np.arange(m + 1, dtype=np.float64)
    H_prev = np.zeros(m + 1)
    Ix_prev = np.full(m + 1, _NEG)
    best, bi, bj = 0.0, 0, 0
    s_idx = s.astype(np.intp)
    for i in range(1, n + 1):
        m_row = np.full(m + 1, _NEG)
        m_row[1:] = H_prev[:-1] + matrix[q[i - 1], s_idx]
        ix_row = np.maximum(H_prev - open_cost, Ix_prev - gap_extend)
        base = np.maximum(m_row, ix_row)
        run = np.maximum.accumulate(base + gap_extend * cols)
        iy_row = np.full(m + 1, _NEG)
        iy_row[1:] = run[:-1] - open_cost - gap_extend * (cols[1:] - 1)
        h_row = np.maximum(np.maximum(m_row, ix_row), np.maximum(iy_row, 0.0))
        row_max = float(h_row.max())
        if row_max > best:
            best = row_max
            bi, bj = i, int(np.argmax(h_row))
        H_prev, Ix_prev = h_row, ix_row
    return best, bi, bj


def smith_waterman_score(
    q: np.ndarray, s: np.ndarray, matrix: np.ndarray, gap_open: int, gap_extend: int
) -> int:
    """Optimal local alignment score."""
    best, _, _ = _sw_best_cell(q, s, matrix, gap_open, gap_extend)
    return int(round(best))


def smith_waterman(
    q: np.ndarray, s: np.ndarray, matrix: np.ndarray, gap_open: int, gap_extend: int
) -> tuple[int, tuple[int, int, int, int]]:
    """Optimal local score and its (q_start, q_end, s_start, s_end) range.

    The end cell comes from the forward pass; the start cell from an
    identical pass over the reversed prefixes (the classic two-pass trick).
    Returns score 0 with an empty range when nothing scores positive.
    """
    best, bi, bj = _sw_best_cell(q, s, matrix, gap_open, gap_extend)
    if best <= 0:
        return 0, (0, 0, 0, 0)
    rbest, ri, rj = _sw_best_cell(
        q[:bi][::-1], s[:bj][::-1], matrix, gap_open, gap_extend
    )
    if int(round(rbest)) != int(round(best)):  # pragma: no cover - sanity
        raise AssertionError("forward/backward Smith-Waterman disagree")
    return int(round(best)), (bi - ri, bi, bj - rj, bj)
