"""Dense float32 gapped extension: the parity oracle for ``repro.blast.gapped``.

The pre-banded implementation, kept out of the shipped package: full
``(n+1, m+1)`` float32 M/Ix/Iy matrices, one half at a time, with a
tolerance-based traceback.  The property suite and
``benchmarks/bench_extension.py`` assert that the production compiled
kernel reproduces its scores, coordinates and operation strings element for
element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.blast.gapped import GappedAlignment

__all__ = ["HalfExtension", "reference_extend_gapped", "reference_half_extension"]

_NEG = np.float32(-1e30)


@dataclass(frozen=True)
class HalfExtension:
    """One direction of a gapped extension, measured from the seed."""

    score: int
    q_len: int  # query residues consumed
    s_len: int  # subject residues consumed
    identities: int
    align_len: int
    gaps: int
    #: alignment operations walking *away* from the seed: 'M' aligned pair,
    #: 'I' gap in subject (query residue alone), 'D' gap in query
    ops: str = ""


_ZERO_HALF = HalfExtension(0, 0, 0, 0, 0, 0)


def reference_half_extension(
    q: np.ndarray,
    s: np.ndarray,
    matrix: np.ndarray,
    gap_open: int,
    gap_extend: int,
    xdrop: float,
    band: int,
) -> HalfExtension:
    """Dense-matrix half extension.

    Returns the zero extension when nothing scores positive.
    """
    n, m_full = int(q.size), int(s.size)
    if n == 0 or m_full == 0:
        return _ZERO_HALF
    m = min(m_full, n + band)
    s = s[:m]

    open_cost = gap_open + gap_extend

    M = np.full((n + 1, m + 1), _NEG, dtype=np.float32)
    Ix = np.full((n + 1, m + 1), _NEG, dtype=np.float32)  # gap in subject (down moves)
    Iy = np.full((n + 1, m + 1), _NEG, dtype=np.float32)  # gap in query (right moves)
    M[0, 0] = 0.0
    j0 = np.arange(1, min(band, m) + 1)
    Iy[0, j0] = -open_cost - gap_extend * (j0 - 1)

    cols = np.arange(m + 1)
    best_seen = 0.0
    last_live_row = 0
    q_idx = q.astype(np.intp)
    s_idx = s.astype(np.intp)

    for i in range(1, n + 1):
        in_band = np.abs(cols - i) <= band
        prev_best = np.maximum(np.maximum(M[i - 1], Ix[i - 1]), Iy[i - 1])

        m_row = np.full(m + 1, _NEG, dtype=np.float32)
        pair = matrix[q_idx[i - 1], s_idx].astype(np.float32)
        m_row[1:] = prev_best[:-1] + pair

        ix_row = np.maximum(prev_best - open_cost, Ix[i - 1] - gap_extend)

        # Band-prune M and Ix first so the within-row gap scan can only
        # chain from cells that will actually be kept (traceback relies on
        # every stored value being explained by stored predecessors).
        m_row[~in_band] = _NEG
        ix_row[~in_band] = _NEG

        # Iy[i,j] = max_{k<j} base[k] - open_cost - ext*(j-1-k), solved with
        # a prefix-max scan over t[k] = base[k] + ext*k.
        base = np.maximum(m_row, ix_row)
        t = base + gap_extend * cols
        run = np.maximum.accumulate(t)
        iy_row = np.full(m + 1, _NEG, dtype=np.float32)
        iy_row[1:] = run[:-1] - open_cost - gap_extend * (cols[1:] - 1)
        iy_row[~in_band] = _NEG
        row_best = np.maximum(np.maximum(m_row, ix_row), iy_row)
        dead = row_best < (best_seen - xdrop)
        m_row[dead] = _NEG
        ix_row[dead] = _NEG
        iy_row[dead] = _NEG

        M[i] = m_row
        Ix[i] = ix_row
        Iy[i] = iy_row

        row_max = float(row_best[in_band].max()) if in_band.any() else float(_NEG)
        if row_max <= float(_NEG) / 2:
            last_live_row = i - 1
            break
        best_seen = max(best_seen, row_max)
        last_live_row = i

    rows = last_live_row + 1
    best_grid = np.maximum(np.maximum(M[:rows], Ix[:rows]), Iy[:rows])
    flat = int(np.argmax(best_grid))
    bi, bj = divmod(flat, m + 1)
    best_score = float(best_grid[bi, bj])
    if best_score <= 0:
        return _ZERO_HALF

    return _traceback_dense(
        q, s, M, Ix, Iy, bi, bj, int(round(best_score)), gap_extend, open_cost
    )


def _traceback_dense(
    q: np.ndarray,
    s: np.ndarray,
    M: np.ndarray,
    Ix: np.ndarray,
    Iy: np.ndarray,
    bi: int,
    bj: int,
    best_score: int,
    gap_extend: int,
    open_cost: int,
) -> HalfExtension:
    """Walk back from the best cell counting identities/gaps exactly."""

    def close(a: float, b: float) -> bool:
        return abs(a - b) < 0.25  # all scores are integers in float32

    i, j = bi, bj
    vals = (M[i, j], Ix[i, j], Iy[i, j])
    state = int(np.argmax(vals))
    identities = 0
    align_len = 0
    gaps = 0
    ops: list[str] = []  # collected end -> seed; reversed below
    max_steps = 2 * (bi + bj) + 4  # every step decrements i or j; guard anyway
    steps = 0
    while i > 0 or j > 0:
        steps += 1
        if steps > max_steps:  # pragma: no cover - defensive
            raise RuntimeError("gapped traceback failed to terminate")
        if state == 0:  # M: aligned pair
            align_len += 1
            ops.append("M")
            if q[i - 1] == s[j - 1]:
                identities += 1
            i -= 1
            j -= 1
            if i == 0 and j == 0:
                break
            prev = (M[i, j], Ix[i, j], Iy[i, j])
            state = int(np.argmax(prev))
        elif state == 1:  # Ix: gap in subject, consume query
            align_len += 1
            gaps += 1
            ops.append("I")
            cur = Ix[i, j]
            i -= 1
            if close(cur, Ix[i, j] - gap_extend):
                state = 1
            else:
                state = int(np.argmax((M[i, j], _NEG, Iy[i, j])))
        else:  # Iy: gap in query, consume subject
            align_len += 1
            gaps += 1
            ops.append("D")
            cur = Iy[i, j]
            j -= 1
            if close(cur, Iy[i, j] - gap_extend):
                state = 2
            else:
                state = int(np.argmax((M[i, j], Ix[i, j], _NEG)))
    return HalfExtension(
        score=best_score,
        q_len=bi,
        s_len=bj,
        identities=identities,
        align_len=align_len,
        gaps=gaps,
        ops="".join(reversed(ops)),  # seed -> extension end order
    )


def reference_extend_gapped(
    q_codes: np.ndarray,
    s_codes: np.ndarray,
    q_seed: int,
    s_seed: int,
    matrix: np.ndarray,
    gap_open: int,
    gap_extend: int,
    xdrop: float,
    band: int,
) -> GappedAlignment | None:
    """Dense-kernel gapped extension around ``(q_seed, s_seed)``."""
    if not (0 <= q_seed <= q_codes.size) or not (0 <= s_seed <= s_codes.size):
        raise ValueError("seed point out of range")
    right = reference_half_extension(
        q_codes[q_seed:], s_codes[s_seed:], matrix, gap_open, gap_extend, xdrop, band
    )
    left = reference_half_extension(
        q_codes[:q_seed][::-1], s_codes[:s_seed][::-1], matrix, gap_open, gap_extend, xdrop, band
    )
    score = left.score + right.score
    if score <= 0:
        return None
    q_start, q_end = q_seed - left.q_len, q_seed + right.q_len
    s_start, s_end = s_seed - left.s_len, s_seed + right.s_len
    if q_end <= q_start or s_end <= s_start:
        return None
    return GappedAlignment(
        score=score,
        q_start=q_start,
        q_end=q_end,
        s_start=s_start,
        s_end=s_end,
        identities=left.identities + right.identities,
        align_len=left.align_len + right.align_len,
        gaps=left.gaps + right.gaps,
        # left half ops run seed -> leftward; reverse to get left-to-right.
        ops=left.ops[::-1] + right.ops,
    )
