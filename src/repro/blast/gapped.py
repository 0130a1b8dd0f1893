"""Stage 3 of BLAST: banded affine-gap X-drop extension with traceback.

From a seed point inside a promising ungapped HSP, the alignment is extended
independently to the left and to the right with a gapped dynamic program
(paper §II.B: "the third stage performs gapped alignment").  Each half is a
*global-start* alignment — every path begins at the seed — pruned two ways:

- **band**: the alignment may drift at most ``band`` cells off the seed
  diagonal (a bounded version of NCBI's dynamically grown X-drop frontier);
- **X-drop**: cells scoring more than ``xdrop`` below the best cell seen so
  far are dropped; a row with no live cells terminates the extension.

Gap cost model: a gap of length g costs ``gap_open + g*gap_extend``.

There is one kernel, :func:`extend_gapped_batch`.  The three DP states
M/Ix/Iy are computed *band-compressed* — cell (i, j) lives at column
``c = j - i + band`` of row i, ``2*band+1`` int32 columns per row with an
integer ``-inf`` sentinel — and all halves of a chunk of seeds advance one
DP row per Python iteration, so the numpy dispatch cost of a row is shared.
The within-row gap recurrence is a prefix-max scan.  Work is done only where
the X-drop frontier is alive, and what is kept for the traceback is sized
for the seeds that live (since the engine's gap trigger, most of a batch):

- **Row blocks and live-set compaction.**  Rows are computed in blocks
  for the halves live when the block starts; a half leaves at the next
  boundary once X-drop has killed it or its query is exhausted, and each
  block remembers which halves own its slots and its first DP row.  A block
  holds four int32 planes, M/Iy/Ix and the best of the three, over a halo
  row: the DP row above, copied and compacted from the last block, so every
  row reads its predecessor from the block.  X-drop masks Ix and best as a
  row is computed; M and Iy, which no later row reads, are masked once per
  block where best is the sentinel.  A block's height follows its live set
  (:func:`_block_rows`): ``_BLOCK_ROWS`` rows from eight halves up, up to
  ``_MAX_BLOCK_ROWS`` for one or two (never more slot rows than the block
  of eight), cut at the ``_BLOCK_ROWS`` boundary at or past the shallowest
  half's last row, so a lone seed pays the per-block work once per 64 rows.
- **One traceback byte per cell.**  A finished block's int32 scores are
  reduced to the decisions a traceback can take in it (NCBI's edit-script
  bytes: which state a cell is in, whether its Ix / Iy continue a gap) and
  dropped; only the bytes are retained, a sixteenth of the scores.  Nothing
  is recomputed: a traceback stitches one half's slot out of the blocks it
  lived in and walks the bytes, a whole run of aligned pairs at a step.
- **Two ways to address a row.**  While four or fewer halves live, the live
  sets whose blocks are taller than ``_BLOCK_ROWS``, a row runs over the
  full band on row views made once per block: a dozen or so numpy calls and
  no slicing, since a row of one or two halves is all per-call cost.  From
  five halves up a row is computed on its live-column window: dropped cells
  are exactly the sentinel, so if row i-1's live cells sit in columns
  ``[wa, wb)``, row i's live M cells are in ``[wa, wb)``, its Ix cells in
  ``[wa-1, wb-1)`` and its Iy cells at most ``pad`` columns right of a live
  M/Ix cell, where ``pad = (floor(xdrop) + matrix.max() - gap_open -
  gap_extend) // gap_extend + 1`` bounds the Iy run a row-i cell (at most
  ``best + matrix.max()``) can open and still score ``best -
  floor(xdrop)``.  Cells outside ``[wa-1, wb+pad+1)`` keep the sentinel
  fill the full-band computation would have masked them to.
- **Traceback where it can be reported.**  The best cell of every half is
  tracked while the rows are computed, so score and extents cost no second
  look at the grid.  With ``min_scores`` the caller names, per seed, the raw
  score below which it will not report the alignment; such seeds come back
  *extents-only* (``identities = align_len = gaps = 0``, ``ops = ""``) and
  the traceback runs for the rest.

Per-half semantics do not depend on what else is in the batch: each half has
its own X-drop threshold (from the best of the *previous* rows), its own
termination row and its own best cell (the first row-major occurrence of the
maximum), all in exact integer arithmetic.  ``tests/oracles/dense_gapped.py``
holds the original dense float32 implementation; the property suite asserts
this kernel reproduces its scores, coordinates and operation strings element
for element.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GappedAlignment",
    "extend_gapped",
    "extend_gapped_batch",
]

#: integer -inf for the band-compressed kernel: deep enough that no real
#: path score (bounded by sequence length times the matrix range) comes
#: near it, shallow enough that per-row arithmetic on sentinels cannot
#: overflow int32.
_NEG_I32 = np.int32(-(2**30))

#: DP rows per storage block while eight or more halves are live, and the
#: unit every block height is a multiple of; the live set is compacted
#: between blocks.
_BLOCK_ROWS = 16
#: the tallest block, for one or two live halves
_MAX_BLOCK_ROWS = 64
#: slot rows (height x live halves) a taller block may hold: what the
#: ``_BLOCK_ROWS`` block of eight halves holds.
_TALL_SLOT_ROWS = 8 * _BLOCK_ROWS
#: working bytes per band cell of a chunk's block buffer, halo rows
#: included: four int32 planes, and half as much again while a block's pair
#: scores are gathered (an intp arena index) or its traceback bytes built
#: (the bytes, an int32 and a bool temporary).  Row views cost nothing.
_WORK_CELL_BYTES = 24
#: what one lockstep chunk may hold, sized for seeds that live: chunks are
#: cut so that the block buffer fits next to the traceback bytes of every
#: half's full depth, so deep halves narrow the chunk instead of blowing
#: memory up (400-bp reads: about 70 seeds a chunk).
_CHUNK_BYTES = 8 << 20


@dataclass(frozen=True)
class GappedAlignment:
    """A complete gapped extension around a seed point.

    An *extents-only* result — a seed whose score is below the floor the
    caller passed in ``min_scores`` — carries the score and the four
    coordinates and has ``identities = align_len = gaps = 0`` and
    ``ops = ""``.  The engine reads ``s_end`` of such a result for diagonal
    coverage and never emits it.
    """

    score: int
    q_start: int
    q_end: int
    s_start: int
    s_end: int
    identities: int
    align_len: int
    gaps: int
    #: left-to-right operation string over the whole alignment ('M' aligned
    #: pair, 'I' gap in subject, 'D' gap in query)
    ops: str = ""


def extend_gapped(
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
    """Gapped extension around ``(q_seed, s_seed)``.

    The left half aligns the reversed prefixes ending just before the seed;
    the right half aligns the suffixes starting at the seed.  Returns
    ``None`` when no positive-scoring alignment exists.
    """
    return extend_gapped_batch(
        [(q_codes, s_codes, q_seed, s_seed)],
        matrix, gap_open, gap_extend, xdrop, band,
    )[0]


def extend_gapped_batch(
    seeds,
    matrix: np.ndarray,
    gap_open: int,
    gap_extend: int,
    xdrop: float,
    band: int,
    stats: dict | None = None,
    min_scores=None,
) -> list:
    """Gapped extensions around many seed points, batched.

    ``seeds`` is a sequence of ``(q_codes, s_codes, q_seed, s_seed)``
    tuples; the result list matches it index for index, each entry a
    :class:`GappedAlignment` or ``None`` exactly as :func:`extend_gapped`
    would return for that seed.  Results are independent of how seeds are
    ordered and grouped into calls, so callers may batch across subjects
    and queries freely.

    ``min_scores`` (optional, one raw score per seed) is the floor below
    which the caller will not report an alignment: a seed scoring less
    returns extents only (see :class:`GappedAlignment`) and skips the
    traceback.  ``None`` traces every alignment.

    ``stats`` (optional dict) accumulates ``peak_grid_bytes`` (the most any
    chunk held: traceback bytes retained plus the block buffer),
    ``dp_rows`` (lockstep row iterations) and ``dp_cells`` (band cells
    computed, summed over halves: a row's live window from five live halves
    up, the whole band, ``k × width``, for k of four or fewer).
    """
    seeds = list(seeds)
    if min_scores is not None and len(min_scores) != len(seeds):
        raise ValueError("min_scores must give one floor per seed")
    # A seed's two halves retain, if neither ever dies, one traceback byte
    # per band cell of their whole depth, rounded up to the block boundary
    # past it (see ``_block_rows``).  The block buffer of a chunk of n seeds
    # holds ``_slot_rows(2n)`` slot rows.
    width = 2 * band + 1
    retained = []
    for q_codes, s_codes, q_seed, s_seed in seeds:
        if not (0 <= q_seed <= q_codes.size) or not (0 <= s_seed <= s_codes.size):
            raise ValueError("seed point out of range")
        rows = sum(
            -(-(n + 1) // _BLOCK_ROWS) * _BLOCK_ROWS
            for n in (q_seed, q_codes.size - q_seed)
        )
        retained.append(rows * width)

    def working(n: int) -> int:
        return _slot_rows(2 * n) * _WORK_CELL_BYTES * width

    out: list = []
    pos = 0
    while pos < len(seeds):
        # Chunks are cut on seed boundaries: a seed's two halves share one.
        end, held = pos + 1, retained[pos]
        while (end < len(seeds)
               and held + retained[end] + working(end + 1 - pos) <= _CHUNK_BYTES):
            held += retained[end]
            end += 1
        out.extend(
            _extend_chunk(
                seeds[pos:end],
                None if min_scores is None else min_scores[pos:end],
                matrix, gap_open, gap_extend, xdrop, band, stats,
            )
        )
        pos = end
    return out


def _extend_chunk(
    seeds: list,
    min_scores,
    matrix: np.ndarray,
    gap_open: int,
    gap_extend: int,
    xdrop: float,
    band: int,
    stats: dict | None,
) -> list:
    """One lockstep chunk: DP over both halves of every seed, then results.

    Half ``2t`` is seed t's left extension, half ``2t+1`` its right one.
    """
    # One arena of residue codes for the chunk.  Seed t owns its query and,
    # right after it, the q_size + 2*band subject residues its two halves
    # can reach (the path cannot drift more than ``band`` off the diagonal),
    # zero where the subject ends sooner.  The arena is followed by its own
    # reverse, in which a left half runs forwards too: a half is then just
    # the arena positions of its first query and subject residue, and row i
    # of its band is one contiguous window of the arena.
    width = 2 * band + 1
    # Rows past a half's depth read in here: a block ends fewer than
    # _BLOCK_ROWS rows past its shallowest half's last row.
    margin = _BLOCK_ROWS + width
    length = 2 * margin + sum(2 * q.size + 2 * band for q, _, _, _ in seeds)
    arena = np.zeros(2 * length, dtype=np.intp)
    nh = 2 * len(seeds)
    depth = np.empty(nh, dtype=np.int64)  # query residues available
    reach = np.empty(nh, dtype=np.int64)  # subject residues available
    q_at = np.empty(nh, dtype=np.int64)  # arena position of the half's q[0]
    s_at = np.empty(nh, dtype=np.int64)
    at = margin
    for t, (q_codes, s_codes, q_seed, s_seed) in enumerate(seeds):
        left = min(s_seed, q_seed + band)
        right = min(s_codes.size - s_seed, q_codes.size - q_seed + band)
        depth[2 * t], depth[2 * t + 1] = q_seed, q_codes.size - q_seed
        reach[2 * t], reach[2 * t + 1] = left, right
        arena[at : at + q_codes.size] = q_codes
        q_at[2 * t + 1] = at + q_seed
        at += q_codes.size + q_seed + band  # the subject's seed position
        arena[at - left : at + right] = s_codes[s_seed - left : s_seed + right]
        s_at[2 * t + 1] = at
        at += q_codes.size - q_seed + band
    arena[length:] = arena[length - 1 :: -1]
    # Position p of the forward half is position 2*length - 1 - p of the
    # reverse; a left half starts one residue before the seed.
    q_at[0::2] = 2 * length - q_at[1::2]
    s_at[0::2] = 2 * length - s_at[1::2]

    best, best_i, best_j, blocks, owners, bases = _lockstep_dp(
        arena, depth, reach, q_at, s_at,
        matrix, gap_open, gap_extend, xdrop, band, stats,
    )

    results: list = []
    for t, (q_codes, s_codes, q_seed, s_seed) in enumerate(seeds):
        left, right = 2 * t, 2 * t + 1
        score = int(best[left]) + int(best[right])
        q_start, q_end = q_seed - int(best_i[left]), q_seed + int(best_i[right])
        s_start, s_end = s_seed - int(best_j[left]), s_seed + int(best_j[right])
        if score <= 0 or q_end <= q_start or s_end <= s_start:
            results.append(None)
            continue
        if min_scores is not None and score < min_scores[t]:
            results.append(GappedAlignment(score, q_start, q_end, s_start, s_end, 0, 0, 0))
            continue
        halves = (
            (left, q_codes[:q_seed][::-1], s_codes[:s_seed][::-1]),
            (right, q_codes[q_seed:], s_codes[s_seed:]),
        )
        counts = [0, 0, 0]
        ops = []
        for h, q_h, s_h in halves:
            if best[h] <= 0:
                ops.append("")
                continue
            grid = _stitch(h, int(best_i[h]), blocks, owners, bases)
            ident, alen, gaps, half_ops = _traceback_banded(
                q_h, s_h, grid, band, int(best_i[h]), int(best_j[h])
            )
            counts[0] += ident
            counts[1] += alen
            counts[2] += gaps
            ops.append(half_ops)
        results.append(
            GappedAlignment(
                score, q_start, q_end, s_start, s_end, *counts,
                # left half ops run seed -> leftward; reverse to get left-to-right.
                ops=ops[0][::-1] + ops[1],
            )
        )
    return results


def _lockstep_dp(
    arena: np.ndarray,
    depth: np.ndarray,
    reach: np.ndarray,
    q_at: np.ndarray,
    s_at: np.ndarray,
    matrix: np.ndarray,
    gap_open: int,
    gap_extend: int,
    xdrop: float,
    band: int,
    stats: dict | None,
):
    """Advance every half row by row.

    Returns each half's best score and the DP cell ``(i, j)`` it was first
    reached in, plus what the tracebacks need: ``blocks[b]`` is a
    ``(rows, width, k_b)`` array of :func:`_directions` bytes for DP rows
    ``bases[b] ...`` of the ``k_b`` halves listed (ascending) in
    ``owners[b]``.  The scores themselves live in one working block at a
    time, ``(4, 1 + rows, width, k_b)`` int32 for M/Iy/Ix/best, whose row 0
    is the halo (the DP row above the block); halves run along the last
    axis, so a whole row, or its live window ``[a:b]`` on the column axis,
    is one contiguous piece of memory.
    """
    open_cost = gap_open + gap_extend
    width = 2 * band + 1
    NEG = _NEG_I32
    nh = depth.size
    best = np.zeros(nh, dtype=np.int32)
    best_i = np.zeros(nh, dtype=np.int64)
    best_c = np.full(nh, band, dtype=np.int64)  # DP row 0: the seed cell
    blocks: list = []
    owners: list = []
    bases: list = []
    dp_rows = dp_cells = retained = peak = 0

    mat_flat = np.ascontiguousarray(matrix, dtype=np.int32).ravel()
    n_codes = matrix.shape[1]
    windows = np.lib.stride_tricks.sliding_window_view(arena, width)
    # Integer v < float(B - x)  <=>  v < ceil(B - x) == B - floor(x) for
    # integer B: the whole X-drop compare stays in int32.
    xfloor = np.int32(math.floor(xdrop))
    pad = max((int(xfloor) + int(mat_flat.max()) - open_cost) // gap_extend + 1, 0)
    cols = np.arange(width)[:, None]
    ext_c = (gap_extend * cols).astype(np.int32)
    # Per-column Iy deduction: open_cost + gap_extend * (c - 1).
    iy_off = (open_cost + gap_extend * (cols - 1)).astype(np.int32)
    cols_j = cols - band  # j - i per column
    # Ix[i, c] is the better of Ix and best at (i-1, c+1), less these.
    ix_cost = np.array([gap_extend, open_cost], dtype=np.int32)[:, None, None]

    # Halves with an empty side align nothing and never enter the batch.
    ids = np.flatnonzero((depth > 0) & (reach > 0))
    k = ids.size
    halo = np.full((2, width, k), NEG, dtype=np.int32)  # (Ix, best) over DP row 0
    # One buffer holds every block in turn: no block has more slot rows.
    cells = width * _slot_rows(k)
    work = np.empty(4 * cells, dtype=np.int32)
    if k:
        wa, wb = band, band + 1 + int(min(band, reach[ids].max()))
    i = 0  # next DP row
    while k:
        ns, ms = depth[ids], reach[ids]
        base = i  # DP row of block row 1
        rows = _block_rows(base, ns)
        i_end = base + rows  # one past this block's last DP row
        blk = work[: 4 * (1 + rows) * width * k].reshape(4, 1 + rows, width, k)
        owners.append(ids)
        bases.append(base)

        # Pair scores for the whole block, gathered half-major into the Iy
        # plane's memory and transposed into the M plane (the row above's
        # best is added in place): row i of half h scores q_h[i-1] against
        # the window s_h[i-1-band ... i-1+band].  (DP row 0 has no pair
        # scores; its slot reads the arena's margin.)  Nothing reads M or
        # Iy of the halo row.
        rr = np.arange(base - 1, i_end - 1)[:, None]
        pair = windows[s_at[ids] - band + rr]  # (rows, k, width), a copy
        pair += (arena[q_at[ids] + rr] * n_codes)[:, :, None]
        staged = blk[1, 1:].reshape(rows, k, width)
        mat_flat.take(pair, out=staged, mode="clip")
        del pair
        blk[0, 1:] = staged.transpose(0, 2, 1)
        blk[1:, 1:] = NEG
        blk[2:, 0] = halo
        if not base:
            # DP row 0: M = 0 at the seed, Iy a leading gap; no X-drop.
            m0, iy0, _, b0 = blk[:, 1]
            m0.fill(NEG)
            m0[band] = 0
            iy0[band + 1 :] = np.where(cols_j[band + 1 :] <= ms, -iy_off[1 : band + 1], NEG)
            np.maximum(m0, iy0, out=b0)
            i = 1

        # The ragged edges are rare, and checked per row: a block can be
        # tall.  The subject end matters only for a half whose subject stops
        # short of depth + band, from the row where j = i + band can pass its
        # m; the query end only from the row past a half's last one.
        s_edge = int(np.where(ms < ns + band, ms, i_end + band).min()) - band
        q_edge = int(ns.min())

        # ``thr`` is each half's X-drop threshold, best - floor(xdrop): the
        # running maximum of ``row_top``, the block's row maxima less
        # floor(xdrop), off which its best score and row are read at the end.
        thr = best[ids] - xfloor
        row_top = np.full((rows, k), NEG, dtype=np.int32)
        scratch = np.empty((width, k), dtype=np.int32)
        ix_pair = np.empty((2, width - 1, k), dtype=np.int32)
        dead = np.empty((width, k), dtype=bool)
        gt = np.empty((width, k), dtype=bool)
        if 2 * _BLOCK_ROWS * k > _TALL_SLOT_ROWS:  # the live-column window
            ua, ub = width, 0  # columns any row of this block computed
            while i < i_end:
                r = i - base + 1
                a = max(wa - 1, 0)
                b = min(width, wb + pad + 1)
                bx = min(b, width - 1)  # Ix has no c+1 predecessor at the right edge
                ua, ub = min(ua, a), max(ub, b)
                g_row, g_up = blk[:, r], blk[:, r - 1]  # (4, width, k) views
                m_row, y_row, x_row, rb = g_row[:, a:b]
                ix_row, ix_w = x_row[: bx - a], ix_pair[:, : bx - a]
                sc = scratch[a:b]

                # M[i, c] comes from (i-1, j-1): the same diagonal offset c.
                np.add(g_up[3, a:b], m_row, out=m_row)
                # Ix[i, c] comes from (i-1, j): offset c+1 in the previous row.
                np.subtract(g_up[2:, a + 1 : bx + 1], ix_cost, out=ix_w)
                np.maximum(ix_w[0], ix_w[1], out=ix_row)

                # Cell (i, c) is subject column j = c + i - band.  Nothing
                # left of j = 0 is ever live: from DP row 0 on, such a cell
                # reads only such cells, all sentinel, so X-drop resets it.
                # The right edge j > m is per half, masked with one compare.
                clip_s = i > s_edge
                if clip_s:
                    gt_w = gt[a:b]
                    np.greater(cols_j[a:b] + i, ms, out=gt_w)
                    np.copyto(m_row, NEG, where=gt_w)
                    np.copyto(x_row, NEG, where=gt_w)

                # Iy[i, c] = max_{c'<c} base[c'] - open_cost - ext*(c-1-c'), a
                # prefix-max scan over t[c'] = base[c'] + ext*c'.  M and Ix are
                # masked past the subject first, so the scan only chains from
                # cells that exist — the traceback relies on every stored value
                # being explained by stored predecessors.
                np.maximum(m_row, x_row, out=rb)
                np.add(rb, ext_c[a:b], out=sc)
                np.maximum.accumulate(sc, axis=0, out=sc)
                np.subtract(sc[:-1], iy_off[a + 1 : b], out=y_row[1:])
                if clip_s:
                    np.copyto(y_row, NEG, where=gt_w)
                np.maximum(rb, y_row, out=rb)

                # X-drop against the best of the *previous* rows: the threshold
                # rises only after masking.  A half past its query end computes
                # rows from residues that are not its own, which must not count.
                top = row_top[r - 1]
                np.maximum.reduce(rb, axis=0, out=top)
                np.subtract(top, xfloor, out=top)
                if i > q_edge:
                    top[ns < i] = NEG
                dead_w = dead[a:b]
                np.less(rb, thr, out=dead_w)
                np.copyto(g_row[2:, a:b], NEG, where=dead_w)
                np.maximum(thr, top, out=thr)
                dp_rows += 1
                dp_cells += k * (b - a)

                i += 1
                col_dead = np.logical_and.reduce(dead_w, axis=1).tobytes()
                wa = a + col_dead.find(b"\0")
                if wa < a:
                    break  # every half is X-dropped dead
                wb = a + col_dead.rfind(b"\0") + 1
        else:
            # Four or fewer halves: the same recurrences on the whole band,
            # over row views made once per block; a running max down the
            # row gives its maximum cheaper than a reduce.
            r0 = i - base + 1
            m, iy, ix, bst = blk
            xb = blk[2:].swapaxes(0, 1)  # (1 + rows, 2, width, k): Ix, best
            xb_flat = blk[2:].reshape(2, 1 + rows, width * k).swapaxes(0, 1)
            dead_w, dead_flat = dead, dead.reshape(-1)
            ext_k = np.repeat(ext_c, k, axis=1)
            iy_k = np.repeat(iy_off[1:], k, axis=1)
            (ix_x, ix_b), sc_head, sc_last = ix_pair, scratch[:-1], scratch[-1]
            for i, m_row, b_up, xb_up, x_head, x_row, rb, y_tail, y_row, xb_row, top in zip(
                range(i, i_end), m[r0:], bst[r0 - 1 : -1], xb[r0 - 1 : -1, :, 1:],
                ix[r0:, :-1], ix[r0:], bst[r0:], iy[r0:, 1:], iy[r0:], xb_flat[r0:],
                row_top[r0 - 1 :],
            ):
                np.add(b_up, m_row, out=m_row)
                np.subtract(xb_up, ix_cost, out=ix_pair)
                np.maximum(ix_x, ix_b, out=x_head)
                clip_s = i > s_edge
                if clip_s:
                    np.greater(cols_j + i, ms, out=gt)
                    np.copyto(m_row, NEG, where=gt)
                    np.copyto(x_row, NEG, where=gt)
                np.maximum(m_row, x_row, out=rb)
                np.add(rb, ext_k, out=scratch)
                np.maximum.accumulate(scratch, axis=0, out=scratch)
                np.subtract(sc_head, iy_k, out=y_tail)
                if clip_s:
                    np.copyto(y_row, NEG, where=gt)
                np.maximum(rb, y_row, out=rb)
                np.maximum.accumulate(rb, axis=0, out=scratch)
                np.subtract(sc_last, xfloor, out=top)
                if i > q_edge:
                    top[ns < i] = NEG
                np.less(rb, thr, out=dead)
                np.copyto(xb_row, NEG, where=dead_flat)
                np.maximum(thr, top, out=thr)
                if b"\0" not in dead.tobytes():
                    break  # every half is X-dropped dead
            i += 1
            dp_rows += i - (base + r0 - 1)
            dp_cells += (i - (base + r0 - 1)) * k * width
            ua, ub = 0, width

        # X-drop masked Ix and best as it went; M and Iy of the cells it
        # dropped, or never computed, are masked here, before anything
        # reads them.
        np.copyto(blk[:2, 1:, ua:ub], NEG, where=blk[3, 1:, ua:ub] == NEG)
        # Best cell so far: the first row whose maximum beats every earlier
        # row's (strictly) and the first column holding it, so the block's
        # first occurrence of its maximum, if that beats the blocks before.
        block_best = row_top.max(axis=0) + xfloor
        slots = np.flatnonzero(block_best > best[ids])
        if slots.size:
            r_top = row_top.argmax(axis=0)[slots]
            best[ids[slots]] = block_best[slots]
            best_i[ids[slots]] = base + r_top
            best_c[ids[slots]] = blk[3, 1 + r_top, :, slots].argmax(axis=1)
        peak = max(peak, retained + _WORK_CELL_BYTES * cells)
        blocks.append(_directions(blk, gap_extend, ua, ub))
        retained += blocks[-1].nbytes
        # Compact: a half goes on iff its last row kept a cell and its
        # query has a row left.
        keep = np.flatnonzero(~dead_w.all(axis=0) & (ns >= i))
        ids = ids[keep]
        k = keep.size
        halo = blk[2:, -1][:, :, keep]

    if stats is not None:
        stats["peak_grid_bytes"] = max(stats.get("peak_grid_bytes", 0), peak)
        stats["dp_rows"] = stats.get("dp_rows", 0) + dp_rows
        stats["dp_cells"] = stats.get("dp_cells", 0) + dp_cells
    return best, best_i, best_c + best_i - band, blocks, owners, bases


def _slot_rows(k: int) -> int:
    """Most slot rows, halo rows included, of a block of ``k`` or fewer halves."""
    return max(k, _TALL_SLOT_ROWS // _BLOCK_ROWS) * (_BLOCK_ROWS + 1)


def _block_rows(base: int, ns: np.ndarray) -> int:
    """Height of the row block starting at DP row ``base`` for live halves
    of depths ``ns``.

    ``_TALL_SLOT_ROWS // len(ns)`` rows, in whole ``_BLOCK_ROWS``, between
    ``_BLOCK_ROWS`` and ``_MAX_BLOCK_ROWS``; cut at the ``_BLOCK_ROWS``
    boundary at or past the shallowest half's last row, and at the deepest
    half's last row.  Every block but a chunk's last therefore starts on a
    ``_BLOCK_ROWS`` boundary.
    """
    rows = _TALL_SLOT_ROWS // ns.size // _BLOCK_ROWS * _BLOCK_ROWS
    rows = min(max(rows, _BLOCK_ROWS), _MAX_BLOCK_ROWS)
    shallow = -(-(int(ns.min()) - base + 1) // _BLOCK_ROWS) * _BLOCK_ROWS
    return min(rows, shallow, int(ns.max()) - base + 1)


def _directions(blk: np.ndarray, gap_extend: int, a: int, b: int):
    """Every decision a traceback can take in a finished block, one byte a cell.

    For cell (i, c) of the stored (X-drop masked) scores of block rows
    ``1 ...``: bit 0 is ``M >= Ix``, bit 1 ``M >= Iy``, bit 2 ``Ix >= Iy``
    (which state a walk arriving here is in); bit 3 says Ix continues the
    gap of the row above, ``Ix[i, c] == Ix[i-1, c+1] - gap_extend`` (the
    halo row is above the block's first), and bit 4 that Iy continues the
    gap from the left, ``Iy[i, c] == Iy[i, c-1] - gap_extend``.  Only
    columns ``[a, b)``, the ones some row of the block computed, are looked
    at: a path never leaves them.
    """
    _, rows, width, k = blk.shape
    out = np.zeros((rows - 1, width, k), dtype=np.uint8)
    m, y, x, _ = blk[:, 1:]

    def mark(bit: int, lo: int, hi: int, flags: np.ndarray) -> None:
        flags = flags.view(np.uint8)
        flags <<= bit
        out[:, lo:hi] |= flags

    mark(0, a, b, m[:, a:b] >= x[:, a:b])
    mark(1, a, b, m[:, a:b] >= y[:, a:b])
    mark(2, a, b, x[:, a:b] >= y[:, a:b])
    hi = min(b, width - 1)  # the last column has no c+1 above it
    mark(3, a, hi, x[:, a:hi] == blk[2, :-1, a + 1 : hi + 1] - gap_extend)
    lo = max(a, 1)
    mark(4, lo, b, y[:, lo:b] == y[:, lo - 1 : b - 1] - gap_extend)
    return out


def _stitch(h: int, last_row: int, blocks: list, owners: list, bases: list) -> np.ndarray:
    """Half ``h``'s traceback bytes for DP rows ``0..last_row``, ``(rows, width)``."""
    parts = []
    for b in range(bisect.bisect_right(bases, last_row)):
        slot = int(np.searchsorted(owners[b], h))
        parts.append(blocks[b][:, :, slot])
    return np.concatenate(parts)


#: state (0 = M, 1 = Ix, 2 = Iy) of a walk arriving at a cell, by the low three
#: :func:`_directions` bits: the first maximum in the order M, Ix, Iy.
_ARRIVAL = tuple((0 if v & 2 else 2) if v & 1 else (1 if v & 4 else 2) for v in range(8))


def _traceback_banded(
    q: np.ndarray, s: np.ndarray, grid: np.ndarray, band: int, bi: int, bj: int
) -> tuple[int, int, int, str]:
    """Walk back from the best cell ``(bi, bj)`` over the compressed band.

    ``grid`` holds one :func:`_directions` byte per cell; cell (i, j) lives
    at ``[i, j - i + band]``, and every move stays inside the band by
    construction (stored cells only chain from stored cells).  A run of
    aligned pairs is one diagonal, so one column of the grid: it is taken
    in a single step, down to the first row whose cell is not in state M.
    Returns ``(identities, align_len, gaps, ops)`` with ``ops`` walking
    *away* from the seed.
    """
    in_m = (grid & 3) == 3
    i, c = bi, bj - bi + band
    d = grid.item(i, c)
    state = _ARRIVAL[d & 7]
    identities = 0
    gaps = 0
    ops: list[str] = []  # collected end -> seed; reversed below
    steps = 0
    while i > 0 or c != band:
        steps += 1
        if steps > 2 * (bi + bj) + 4:  # pragma: no cover - defensive
            raise RuntimeError("gapped traceback failed to terminate")
        if state == 0:  # M: aligned pairs up the column, rows i down to t + 1
            # DP row 0 is in state M at the seed cell only, where the walk
            # ends, so a run that reaches row 0 stops there either way.
            t = max(in_m[:i, c].tobytes().rfind(b"\0"), 0)
            off = c - band
            identities += int(np.count_nonzero(q[t:i] == s[t + off : i + off]))
            ops.append("M" * (i - t))
            i = t
            d = grid.item(i, c)
            state = _ARRIVAL[d & 7]
        elif state == 1:  # Ix: gap in subject, consume query
            gaps += 1
            ops.append("I")
            i -= 1
            c += 1
            extends, d = d & 8, grid.item(i, c)
            if not extends:  # the gap opened here, from M or Iy
                state = 0 if d & 2 else 2
        else:  # Iy: gap in query, consume subject
            gaps += 1
            ops.append("D")
            c -= 1
            extends, d = d & 16, grid.item(i, c)
            if not extends:  # from M or Ix
                state = 0 if d & 1 else 1
    ops_str = "".join(reversed(ops))
    return identities, len(ops_str), gaps, ops_str
