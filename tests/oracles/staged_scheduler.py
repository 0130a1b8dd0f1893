"""Staged per-subject scheduler: the parity oracle for the engine's scheduler.

The pre-fused pipeline, kept out of the shipped package as a function over
an engine: one subject at a time, one batched ungapped call per context per
round, one gapped batch per round over *every* admitted seed.  It has no
containment rule, so with :func:`no_containment` in force the engine's
scheduler must reproduce it bit for bit (the per-run admission state
machines depend only on their own word-hit coordinates and extension
extents, both extension kernels are batch-composition independent, and
per-subject culling sees the same rank-ordered HSP sequence either way);
with the rule on, the difference between the two is the rule's whole effect.

:func:`staged_search` has the signature of ``_EngineBase._search_fused``,
so :func:`staged_scheduler` can put it under anything that drives an engine
(blastx, tblastn, a forked mrblast job).

The per-run admission walk (one state list a run, one Python step a word
hit or jump, for the one-hit and the two-hit rule alike) and the admission
compare are this file's own: the engine settles blastn's runs with array
gathers, and a mistake there must not cancel out here.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.blast.engine import _EngineBase
from repro.blast.extend import batch_ungapped_extend, ungapped_extend
from repro.blast.hsp import cull_overlapping

__all__ = ["no_containment", "staged_scheduler", "staged_search"]


def staged_search(engine, block, lookup, partition, db_len, db_seqs, cutoffs, stats):
    """Every subject of ``partition`` through the staged pipeline, in order."""
    all_hits = []
    for subject_id, s_codes in partition:
        stats.n_subjects += 1
        all_hits.extend(
            _search_subject(
                engine, block, lookup, subject_id, s_codes, db_len, db_seqs, cutoffs, stats
            )
        )
    return all_hits


def _search_subject(engine, block, lookup, subject_id, s_codes, db_len, db_seqs, cutoffs, stats):
    opts = engine.options
    t_seed = time.perf_counter()
    qpos_concat, spos_arr = lookup.scan(s_codes)
    stats.seed_seconds += time.perf_counter() - t_seed
    stats.n_word_hits += int(qpos_concat.size)
    if qpos_concat.size == 0:
        return []
    runs = engine._prepare_runs(block, qpos_concat, spos_arr)
    n = runs.n
    q_r = runs.qg_r - block._starts[runs.ctx_r]  # context-local query word start
    word = opts.word_size
    found = []

    # Stage 2, batched by rounds: every (context, diagonal) run is an
    # independent admission state machine.  Each round advances every live
    # run to its pending trigger, extends all of them with one batched
    # kernel call per context, then resumes the runs with their extents.
    s_index = s_codes if s_codes.dtype == np.intp else s_codes.astype(np.intp)
    ext_score = np.zeros(n, dtype=np.int64)
    ext_qs = np.zeros(n, dtype=np.int64)
    ext_qe = np.zeros(n, dtype=np.int64)
    ext_ss = np.zeros(n, dtype=np.int64)
    ext_se = np.zeros(n, dtype=np.int64)
    ext_complete = np.zeros(n, dtype=bool)

    waiting = _make_states(engine, runs)
    while waiting:
        t_ext = time.perf_counter()
        by_ctx: dict[int, list[int]] = {}
        for st in waiting:
            by_ctx.setdefault(int(runs.ctx_r[st[1]]), []).append(st[1])
        for c, row_list in by_ctx.items():
            rows = np.asarray(row_list, dtype=np.int64)
            ext = batch_ungapped_extend(
                block.contexts[c].codes_index,
                s_index,
                q_r[rows],
                runs.s_r[rows],
                word,
                engine.matrix,
                opts.xdrop_ungapped,
                window=opts.extension_window,
            )
            ext_score[rows] = ext.score
            ext_qs[rows] = ext.q_start
            ext_qe[rows] = ext.q_end
            ext_ss[rows] = ext.s_start
            ext_se[rows] = ext.s_end
            ext_complete[rows] = ext.complete
        stats.ungapped_seconds += time.perf_counter() - t_ext

        # A run's gapped result only influences its own later triggers
        # (coverage on its diagonal), so every job queued in a round is
        # independent of the others.
        gapped_jobs = []
        for st in waiting:
            i = st[1]
            ctx = block.contexts[int(runs.ctx_r[i])]
            if ext_complete[i]:
                u_score = int(ext_score[i])
                u_q_start = int(ext_qs[i])
                u_q_end = int(ext_qe[i])
                u_s_start = int(ext_ss[i])
                u_s_end = int(ext_se[i])
            else:
                # Kernel escalation was capped: exact scalar path.
                t_u = time.perf_counter()
                u = ungapped_extend(
                    ctx.codes_index, s_index, int(q_r[i]), int(runs.s_r[i]),
                    word, engine.matrix, opts.xdrop_ungapped,
                )
                stats.ungapped_seconds += time.perf_counter() - t_u
                u_score = u.score
                u_q_start, u_q_end = u.q_start, u.q_end
                u_s_start, u_s_end = u.s_start, u.s_end
            stats.n_ungapped += 1
            st[3] = u_s_end  # covered
            seed = _gapped_seed(ctx, cutoffs, u_score, u_q_start, u_q_end, u_s_start)
            if seed is not None:
                gapped_jobs.append((st, i, ctx, seed))

        if gapped_jobs:
            t_g = time.perf_counter()
            aligns = engine._extend_gapped(
                [(ctx, s_index, *seed) for _, _, ctx, seed in gapped_jobs]
            )
            stats.n_gapped += len(gapped_jobs)
            stats.gapped_seconds += time.perf_counter() - t_g
            for (st, i, ctx, _), g in zip(gapped_jobs, aligns):
                if g is None:
                    continue
                st[3] = max(st[3], g.s_end)
                hsp = engine._emit_hsp(block, ctx, subject_id, g, db_len, db_seqs)
                if hsp is not None:
                    found.append((int(runs.rank_r[i]), hsp))

        next_waiting = []
        for st in waiting:
            st[1] += 1
            if _advance_run(engine, st, runs.s_r) >= 0:
                next_waiting.append(st)
        waiting = next_waiting
    found.sort(key=lambda rh: rh[0])
    return cull_overlapping([h for _, h in found])


def _advance_run(engine, st: list, s_r: np.ndarray) -> int:
    """Walk a run to its next extension trigger; -1 when exhausted.

    Run state is ``[a, i, b, covered, last_end]``: ``covered`` is the
    subject end of the last extension on the diagonal, ``last_end`` the
    two-hit anchor (end of the last admitted word hit).
    """
    two_hit = engine._two_hit
    word = engine.options.word_size
    window = engine.options.two_hit_window
    a, i, b, covered, last_end = st
    while i < b:
        s_pos = int(s_r[i])
        if s_pos < covered:
            # Jump over every hit inside the already-extended region.
            i = a + int(np.searchsorted(s_r[a:b], covered, side="left"))
            continue
        if two_hit:
            # NCBI's two-hit rule: remember the *end* of the last word
            # hit on this diagonal; hits overlapping it are ignored
            # outright (the anchor survives), a non-overlapping hit
            # within the window triggers extension, and a hit beyond
            # the window becomes the new anchor.
            if last_end < 0:
                last_end = s_pos + word
                i += 1
                continue
            if s_pos < last_end:
                # Jump over the whole overlapping stretch at once.
                i = a + int(np.searchsorted(s_r[a:b], last_end, side="left"))
                continue
            if s_pos - last_end > window:
                last_end = s_pos + word
                i += 1
                continue
            last_end = s_pos + word
        st[1], st[4] = i, last_end
        return i
    st[1], st[4] = i, last_end
    return -1


def _make_states(engine, runs) -> list:
    """Fresh run states advanced to their first trigger (dead runs dropped)."""
    states = [
        [int(a), int(a), int(b), 0, -1]
        for a, b in zip(runs.run_starts, runs.run_ends)
    ]
    return [st for st in states if _advance_run(engine, st, runs.s_r) >= 0]


def _gapped_seed(ctx, cutoffs, u_score, u_q_start, u_q_end, u_s_start):
    """``(q_seed, s_seed, floor)`` if the ungapped segment is admitted, else None."""
    trigger, floor = cutoffs[ctx.query_index]
    if u_score < trigger:
        return None
    # Mid-point of the ungapped segment — the gapped anchor (same
    # arithmetic as UngappedHSP.seed_point).
    mid = (u_q_end - u_q_start) // 2
    return u_q_start + mid, u_s_start + mid, floor


@contextmanager
def staged_scheduler():
    """Every engine schedules with :func:`staged_search` inside the block.

    The patch is on the class, so engines wrapped by blastx / tblastn and
    ranks forked while it is in force run the oracle too.
    """
    with mock.patch.object(_EngineBase, "_search_fused", staged_search):
        yield


@contextmanager
def no_containment():
    """The engine's scheduler with its containment check answering "no"."""
    with mock.patch.object(_EngineBase, "_containing_box", lambda self, boxes, segment: None):
        yield
