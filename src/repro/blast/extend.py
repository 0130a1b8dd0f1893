"""Stage 2 of BLAST: ungapped X-drop extension of word hits.

A word hit is extended in both directions as long as the running score does
not fall more than ``xdrop`` below the best score seen (paper §II.B: "the
second stage extends each matching word as an ungapped alignment").

:func:`batch_ungapped_extend_spans` extends many hits at once, each inside
the span of its own sequence pair: fixed-size left/right windows are
gathered into padded 2-D arrays, scored with one ``matrix[q, s]`` gather,
and every hit's X-drop extent found with one row-wise cumsum/running-max
scan.  Hits that outrun the window are re-batched with geometrically wider
windows until every extension terminates in-batch, so each result is
bit-identical to the one-hit rule (``tests/oracles/ungapped.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: fill for cells past a row's admissible scan limit (batch grids are int32)
_I32_MIN = np.int32(np.iinfo(np.int32).min)

__all__ = [
    "UngappedExtents",
    "batch_ungapped_extend_spans",
]


def _as_index(codes: np.ndarray) -> np.ndarray:
    """Codes as an ``intp`` index array, avoiding the copy when possible."""
    return codes if codes.dtype == np.intp else codes.astype(np.intp)


@dataclass(frozen=True)
class UngappedExtents:
    """Per-hit results of :func:`batch_ungapped_extend_spans` (parallel arrays)."""

    score: np.ndarray
    q_start: np.ndarray
    q_end: np.ndarray
    s_start: np.ndarray
    s_end: np.ndarray


def _batch_extents(
    scores: np.ndarray, avail: np.ndarray, xdrop: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise X-drop extent (best prefix sum, its length) over a padded
    score window.

    ``scores[r, t]`` is the t-th step score of row r; cells at ``t >=
    avail[r]`` must already hold a pad below ``-xdrop`` so the scan drops at
    the boundary.  Returns (gain, length, complete) arrays; a row is
    complete when the X-drop rule fired inside the window or the window
    covered everything reachable.
    """
    window = scores.shape[1]
    cum = np.cumsum(scores, axis=1)  # int32: |cum| <= window * max|score|
    runmax = np.maximum.accumulate(cum, axis=1)
    np.maximum(runmax, 0, out=runmax)
    np.subtract(runmax, cum, out=runmax)  # reused as the drop depth
    # Integer depth > float xdrop  <=>  depth >= floor(xdrop) + 1.
    dropped = runmax >= np.int32(int(np.floor(xdrop)) + 1)
    any_drop = dropped.any(axis=1)
    complete = any_drop | (avail <= window)
    limit = np.where(any_drop, np.argmax(dropped, axis=1), np.minimum(avail, window))
    cols = np.arange(window, dtype=np.int64)
    masked = np.where(cols[None, :] < limit[:, None], cum, _I32_MIN)
    best_idx = np.argmax(masked, axis=1)
    best = masked.max(axis=1)
    positive = (limit > 0) & (best > 0)
    gain = np.where(positive, best, 0)
    length = np.where(positive, best_idx + 1, 0)
    return gain, length, complete


def _batch_pass(
    q_idx: np.ndarray,
    s_idx: np.ndarray,
    qp: np.ndarray,
    sp: np.ndarray,
    bounds: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    word_size: int,
    matrix: np.ndarray,
    xdrop: float,
    window: int,
    cell_budget: int,
) -> tuple[np.ndarray, ...]:
    """One fixed-window pass over a set of hits (chunked to the cell budget).

    ``bounds`` carries per-row ``(q_lo, q_hi, s_lo, s_hi)`` sequence spans
    inside ``q_idx``/``s_idx``: a row's extension may not read outside its
    own span, which is what lets one pass serve hits of *many* concatenated
    sequences.  Cells gathered past a span are clamped into the arrays (the
    gather must stay in range) and masked below ``-xdrop``, so the X-drop
    scan stops exactly at each row's own boundary.
    """
    n = qp.size
    q_lo_a, q_hi_a, s_lo_a, s_hi_a = bounds
    qlen, slen = q_idx.size, s_idx.size
    pad = np.int32(int(np.floor(xdrop)) + 1)
    steps = np.arange(window, dtype=np.int64)
    word_steps = np.arange(word_size, dtype=np.int64)
    chunk = max(1, cell_budget // max(window, 1))
    if matrix.dtype != np.int32:
        matrix = matrix.astype(np.int32)

    score = np.empty(n, dtype=np.int64)
    len_left = np.empty(n, dtype=np.int64)
    len_right = np.empty(n, dtype=np.int64)
    complete = np.empty(n, dtype=bool)

    for lo in range(0, n, chunk):
        qp_c = qp[lo : lo + chunk, None]
        sp_c = sp[lo : lo + chunk, None]
        nc = qp_c.shape[0]
        q_hi_c = q_hi_a[lo : lo + chunk]
        s_hi_c = s_hi_a[lo : lo + chunk]
        q_lo_c = q_lo_a[lo : lo + chunk]
        s_lo_c = s_lo_a[lo : lo + chunk]

        word_scores = matrix[
            q_idx[qp_c + word_steps], s_idx[sp_c + word_steps]
        ].sum(axis=1, dtype=np.int64)

        # Right of the word: step t reads q[qp+word+t], s[sp+word+t].
        avail_r = np.minimum(q_hi_c - (qp_c[:, 0] + word_size),
                             s_hi_c - (sp_c[:, 0] + word_size))
        q_r = np.minimum(qp_c + word_size + steps, qlen - 1)
        s_r = np.minimum(sp_c + word_size + steps, slen - 1)
        scores_r = matrix[q_idx[q_r], s_idx[s_r]]
        scores_r[steps[None, :] >= avail_r[:, None]] = -pad

        # Left of the word: step t reads q[qp-1-t], s[sp-1-t] (outward walk).
        avail_l = np.minimum(qp_c[:, 0] - q_lo_c, sp_c[:, 0] - s_lo_c)
        q_l = np.maximum(qp_c - 1 - steps, 0)
        s_l = np.maximum(sp_c - 1 - steps, 0)
        scores_l = matrix[q_idx[q_l], s_idx[s_l]]
        scores_l[steps[None, :] >= avail_l[:, None]] = -pad

        # Both directions share one row-wise X-drop scan (they are
        # independent rows of the same fixed-window problem).
        gain, length, comp = _batch_extents(
            np.concatenate((scores_r, scores_l), axis=0),
            np.concatenate((avail_r, avail_l)),
            xdrop,
        )

        sl = slice(lo, lo + nc)
        score[sl] = word_scores + gain[:nc] + gain[nc:]
        len_left[sl] = length[nc:]
        len_right[sl] = length[:nc]
        complete[sl] = comp[:nc] & comp[nc:]

    return score, len_left, len_right, complete


def batch_ungapped_extend_spans(
    q_codes: np.ndarray,
    s_codes: np.ndarray,
    q_pos: np.ndarray,
    s_pos: np.ndarray,
    q_lo: np.ndarray,
    q_hi: np.ndarray,
    s_lo: np.ndarray,
    s_hi: np.ndarray,
    word_size: int,
    matrix: np.ndarray,
    xdrop: float,
    window: int = 64,
    chunk: int = 4096,
    stats: dict | None = None,
) -> UngappedExtents:
    """Ungapped X-drop extension of many word hits in array passes.

    ``q_pos``/``s_pos`` are word-start coordinates into ``q_codes`` /
    ``s_codes``, concatenations of whole sequence sets; each row carries the
    half-open span ``[q_lo, q_hi)`` / ``[s_lo, s_hi)`` of its own sequences
    (``[0, len)`` for one pair).  Windows of ``window`` steps each way are
    gathered into padded 2-D arrays (a score below ``-xdrop`` past a span
    end stops the scan exactly there); rows that outrun the window are
    re-batched 4x wider until every row terminates.  Memory stays
    O(chunk * window).  Each pass is one gather and one row-wise scan
    across the whole batch, however many queries, contexts and subjects
    contributed rows: what the fused engine scheduler relies on.

    ``stats`` (optional dict) accumulates ``peak_window_bytes``: the largest
    padded score-window slab any pass allocated.
    """
    q_idx, s_idx = _as_index(q_codes), _as_index(s_codes)
    qp = np.asarray(q_pos, dtype=np.int64)
    sp = np.asarray(s_pos, dtype=np.int64)
    bounds = tuple(np.asarray(b, dtype=np.int64) for b in (q_lo, q_hi, s_lo, s_hi))
    q_lo_a, q_hi_a, s_lo_a, s_hi_a = bounds
    n = qp.size
    out_score = np.zeros(n, dtype=np.int64)
    out_len_l = np.zeros(n, dtype=np.int64)
    out_len_r = np.zeros(n, dtype=np.int64)
    cell_budget = max(chunk, 1) * max(window, 1)

    pending = np.arange(n)
    w = max(window, 1)
    while pending.size:
        if stats is not None:
            # Both direction slabs of the widest chunk this pass gathers.
            rows = min(pending.size, max(1, cell_budget // max(w, 1)))
            stats["peak_window_bytes"] = max(
                stats.get("peak_window_bytes", 0), 2 * rows * w * 4
            )
        score, len_l, len_r, complete = _batch_pass(
            q_idx, s_idx, qp[pending], sp[pending],
            tuple(b[pending] for b in bounds),
            word_size, matrix, xdrop, w, cell_budget,
        )
        out_score[pending] = score
        out_len_l[pending] = len_l
        out_len_r[pending] = len_r
        pending = pending[~complete]
        if pending.size == 0:
            break
        # A window covering everything reachable completes every row, so
        # the escalation terminates at the widest remaining reach.
        reach_r = np.minimum(q_hi_a[pending] - (qp[pending] + word_size),
                             s_hi_a[pending] - (sp[pending] + word_size))
        reach_l = np.minimum(qp[pending] - q_lo_a[pending],
                             sp[pending] - s_lo_a[pending])
        reach = int(max(reach_r.max(), reach_l.max(), 1))
        w = min(w * 4, reach)

    return UngappedExtents(
        out_score,
        qp - out_len_l,
        qp + word_size + out_len_r,
        sp - out_len_l,
        sp + word_size + out_len_r,
    )
