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

There is one kernel, :func:`extend_gapped_batch`, whose dynamic program is
``gapped_dp`` of the engine's C library (``_engine.c``, beside the stage 1
and 2 kernels), built once per source hash at import
(:mod:`repro.blast._native`) and called through ``ctypes`` once per chunk
of seeds, with the GIL released.  The
three DP states M/Ix/Iy are *band-compressed* — cell (i, j) lives at column
``c = j - i + band`` of row i, ``2*band+1`` int32 columns a row with an
integer ``-inf`` sentinel — and each half runs on its own to its own end,
under these rules:

- DP row 0 holds M = 0 at the seed cell and Iy a leading gap, and is not
  X-dropped.  Row i's M comes from ``(i-1, c)`` plus the pair score, Ix
  from ``(i-1, c+1)``, Iy from the running maximum along the row (computed
  from M and Ix before any masking).  Cells past the subject end do not
  exist; a half stops at its query depth.
- X-drop compares a cell against the best of the *previous* rows, in
  integers: a score v is dropped when ``v < best - floor(xdrop)``.  A
  dropped cell stores the sentinel in M, Ix and Iy, so every stored value
  is explained by stored predecessors.  A row computes only the columns
  its predecessor's live cells can reach: from one left of the first live
  cell to the last, and on along an Iy run until it drops.
- The best cell is the first row whose maximum strictly beats every
  earlier row's, and the first column in that row holding it.
- Each half keeps two rows of scores and writes one traceback byte per
  cell (NCBI's edit-script bits: which state a cell is in, whether its Ix /
  Iy continue a gap) into a ``(rows, width)`` grid; a traceback walks those
  bytes, a whole run of aligned pairs at a step.  With ``min_scores`` the
  caller names, per seed, the raw score below which it will not report the
  alignment; such seeds come back *extents-only* (``identities =
  align_len = gaps = 0``, ``ops = ""``) and the traceback runs for the
  rest.

Per-half results do not depend on what else is in the batch.
``tests/oracles/dense_gapped.py`` holds the original dense float32
implementation; the property suite asserts this kernel reproduces its
scores, coordinates and operation strings element for element.  Without a
C compiler the package still imports, and the first gapped call raises a
:class:`RuntimeError` naming the compile command and its stderr.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.blast import _native

__all__ = [
    "GappedAlignment",
    "extend_gapped",
    "extend_gapped_batch",
]

#: what one chunk's traceback bytes may hold: chunks are cut so that every
#: half's grid at its full depth fits, so deep halves narrow the chunk
#: instead of blowing memory up (400-bp reads: about 200 seeds a chunk).
_CHUNK_BYTES = 8 << 20
#: a seed's records in :func:`_gapped_dp`: six int64 of geometry, two
#: grid offsets, two result rows of four int64
_SEED_RECORD_BYTES = 8 * (6 + 2 + 2 * 4)


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

    ``stats`` (optional dict) accumulates ``dp_rows`` (DP rows below row 0
    a half computed, summed over halves), ``dp_cells`` (band cells
    computed: each row's columns from one left of the row above's first
    live cell to its last, and on along an Iy run until it drops) and
    keeps ``peak_grid_bytes`` (the most any chunk's buffers held: its
    traceback grids, score rows and per-seed records).
    """
    seeds = list(seeds)
    if min_scores is not None and len(min_scores) != len(seeds):
        raise ValueError("min_scores must give one floor per seed")
    # The kernel indexes the matrix by residue code pairs and the band by
    # column: both shapes are checked here, the codes by the kernel.
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("the scoring matrix must be square")
    if band < 0:
        raise ValueError("band must be >= 0")
    # A seed's two halves keep one traceback byte per band cell of their
    # whole depth, row 0 included, and its records: a geometry row, two
    # grid offsets and two result rows.  A chunk also holds four int32
    # score rows, the int32 matrix, a counter and a closing grid offset.
    width = 2 * band + 1
    retained = []
    for q_codes, s_codes, q_seed, s_seed in seeds:
        if not (0 <= q_seed <= q_codes.size) or not (0 <= s_seed <= s_codes.size):
            raise ValueError("seed point out of range")
        retained.append((q_codes.size + 2) * width + _SEED_RECORD_BYTES)
    budget = _CHUNK_BYTES - 16 * width - 4 * matrix.size - 16

    out: list = []
    pos = 0
    while pos < len(seeds):
        # Chunks are cut on seed boundaries: a seed's two halves share one.
        end, held = pos + 1, retained[pos]
        while end < len(seeds) and held + retained[end] <= budget:
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
    """One chunk: the DP over both halves of every seed, then results.

    Half ``2t`` is seed t's left extension, half ``2t+1`` its right one.
    """
    width = 2 * band + 1
    # The kernel reads every sequence in place as uint8 codes.  Seeds share
    # their queries and subjects, and an address costs microseconds, so
    # each array is looked at once (the seeds keep it alive meanwhile).
    held: dict = {}

    def address(codes: np.ndarray) -> int:
        if id(codes) not in held:
            as_uint8 = np.ascontiguousarray(codes, dtype=np.uint8)
            held[id(codes)] = (as_uint8, as_uint8.ctypes.data)
        return held[id(codes)][1]

    geometry = np.array(
        [(address(q_codes), address(s_codes), q_codes.size, s_codes.size, q_seed, s_seed)
         for q_codes, s_codes, q_seed, s_seed in seeds],
        dtype=np.int64,
    )

    halves, grid, grid_at = _gapped_dp(geometry, matrix, gap_open, gap_extend, xdrop, band, stats)

    results: list = []
    for t, (q_codes, s_codes, q_seed, s_seed) in enumerate(seeds):
        (lb, li, lj, _), (rb, ri, rj, _) = halves[2 * t], halves[2 * t + 1]
        score = lb + rb
        q_start, q_end = q_seed - li, q_seed + ri
        s_start, s_end = s_seed - lj, s_seed + rj
        if score <= 0 or q_end <= q_start or s_end <= s_start:
            results.append(None)
            continue
        if min_scores is not None and score < min_scores[t]:
            results.append(GappedAlignment(score, q_start, q_end, s_start, s_end, 0, 0, 0))
            continue
        counts = [0, 0, 0]
        ops = []
        for h, q_h, s_h in (
            (2 * t, q_codes[:q_seed][::-1], s_codes[:s_seed][::-1]),
            (2 * t + 1, q_codes[q_seed:], s_codes[s_seed:]),
        ):
            best, bi, bj, _ = halves[h]
            if best <= 0:
                ops.append("")
                continue
            rows = grid[grid_at[h] : grid_at[h] + (bi + 1) * width].reshape(bi + 1, width)
            ident, alen, gaps, half_ops = _traceback_banded(q_h, s_h, rows, band, bi, bj)
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


def _gapped_dp(
    geometry: np.ndarray,
    matrix: np.ndarray,
    gap_open: int,
    gap_extend: int,
    xdrop: float,
    band: int,
    stats: dict | None,
):
    """Run the compiled DP over every half of a chunk.

    ``geometry`` has one row per seed: the addresses of its query and
    subject uint8 codes, their lengths and the seed point.  Returns per half
    ``(best score, best row, best subject column, rows computed)`` as
    Python ints, the traceback grids, and where each half's grid starts:
    ``(depth + 1) * width`` bytes, of which rows ``0 ... best row`` are
    written.
    """
    width = 2 * band + 1
    q_len, q_seed = geometry[:, 2], geometry[:, 4]
    rows = np.empty(2 * len(geometry), dtype=np.int64)
    rows[0::2], rows[1::2] = q_seed + 1, q_len - q_seed + 1
    grid_at = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(rows * width, out=grid_at[1:])
    grid = np.empty(int(grid_at[-1]), dtype=np.uint8)
    work = np.empty(4 * width, dtype=np.int32)  # best and Ix of two rows
    mat = np.ascontiguousarray(matrix, dtype=np.int32)
    out = np.empty((rows.size, 4), dtype=np.int64)
    cells = np.zeros(1, dtype=np.int64)
    # An integer v < float(B - x)  <=>  v < B - floor(x) for integer B.
    if _native.call(
        "gapped_dp", len(geometry), geometry, mat, mat.shape[1], gap_open, gap_extend,
        math.floor(xdrop), band, work, grid, grid_at, out, cells,
    ):
        raise ValueError("a residue code is outside the scoring matrix")
    if stats is not None:
        held = sum(a.nbytes for a in (geometry, grid_at, grid, work, mat, out, cells))
        stats["peak_grid_bytes"] = max(stats.get("peak_grid_bytes", 0), held)
        stats["dp_rows"] = stats.get("dp_rows", 0) + int(out[:, 3].sum())
        stats["dp_cells"] = stats.get("dp_cells", 0) + int(cells[0])
    return out.tolist(), grid, grid_at.tolist()


#: state (0 = M, 1 = Ix, 2 = Iy) of a walk arriving at a cell, by the low three
#: traceback bits: the first maximum in the order M, Ix, Iy.
_ARRIVAL = tuple((0 if v & 2 else 2) if v & 1 else (1 if v & 4 else 2) for v in range(8))


def _traceback_banded(
    q: np.ndarray, s: np.ndarray, grid: np.ndarray, band: int, bi: int, bj: int
) -> tuple[int, int, int, str]:
    """Walk back from the best cell ``(bi, bj)`` over the compressed band.

    ``grid`` holds one traceback byte per cell (``_engine.c``'s
    ``directions``: bit 0 ``M >= Ix``, bit 1 ``M >= Iy``, bit 2 ``Ix >= Iy``,
    bit 3 Ix continues the gap above, bit 4 Iy the gap on the left); cell (i, j) lives
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
