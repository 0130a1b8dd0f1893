"""The containment rule's contract, over planted homologs.

Stage 3 of the engine skips an admitted seed that lies inside a gapped
alignment its subject already has (``_EngineBase._containing_box``, NCBI's
``BlastIntervalTreeContainsHSP``).  The rule exists once, in the engine;
these tests patch it out from here (``oracles.staged_scheduler
.no_containment``; there is no switch under ``src/``) and pin what it may
and may not change:

(a) with the check answering "no", the scheduler is the staged oracle, bit
    for bit: the rule is the whole difference between the two;
(b) with it on, nothing is reported that was not reported without it, in
    the same order, and every HSP that disappears lies inside a reported HSP
    of the same query, subject and strand that scores at least as much;
(c) every admitted seed is either extended or contained, so ``n_gapped +
    n_contained`` with the rule equals ``n_gapped`` without it whenever both
    runs see the same triggers (a contained seed covers its diagonal to the
    box's end, not to the end of the alignment it would have produced, so a
    run that triggers again inside a box can go on differently).

(a) and (c) hold by construction and draw fresh examples on every run.  (b)
is what a heuristic promises, not what it proves: an alignment is forced
through its seed, and a contained seed's own extension can score more than
the box that contains it (see the last test).  On families with isolated
indels, a second HSP further down the subject and a far copy of a stretch
of the first, 3000 random draws gave 0 (blastn) and 4 (blastp) exceptions;
the examples of (b) are therefore derandomised, so that it says what the
rule does on the inputs it is for and cannot turn Tier-1 into a lottery.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio.alphabet import DNA, PROTEIN
from repro.bio.seq import SeqRecord
from repro.blast import engine as engine_module
from repro.blast.engine import make_engine
from repro.blast.options import BlastOptions

from oracles.staged_scheduler import no_containment, staged_scheduler

AA = "ARNDCQEGHILKMFPSTWYV"


class _Subjects:
    """The partition surface the engine iterates, over in-memory records."""

    def __init__(self, records, alphabet):
        self._codes = [(r.id, alphabet.encode(r.seq)) for r in records]
        self.name = "planted"
        self.num_seqs = len(records)
        self.total_length = sum(len(r.seq) for r in records)

    def __iter__(self):
        return iter(self._codes)


@st.composite
def _planted(draw, letters, unit):
    """One query of two ancestral pieces, and subjects that hold diverged
    copies of both, apart, the first with isolated indels, and sometimes a
    second copy of a stretch of it further down.

    Residues come from a drawn seed (uniform text, so word hits look like a
    real search's); the structure is drawn outright: how long the pieces
    are, how much they diverge, which of the indel slots (one every four to
    six units, so that no ungapped extension bridges two) hold an indel of
    which size, how far apart the two copies sit, which stretch is repeated.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def text(n):
        return "".join(rng.choice(list(letters), size=n))

    def diverge(seq, rate, indels):
        chars = [c if rng.random() >= rate else letters[rng.integers(len(letters))]
                 for c in seq]
        for at, size, insert in sorted(indels, reverse=True):
            chars[at:at + (0 if insert else size)] = text(size) if insert else ""
        return "".join(chars)

    units_a = draw(st.integers(8, 14))
    piece_a = text(units_a * unit)
    piece_b = text(draw(st.integers(4, 8)) * unit)
    subjects = []
    for i in range(draw(st.integers(1, 3))):
        rate = draw(st.sampled_from([0.02, 0.06, 0.10]))
        slots = range(draw(st.integers(2, 4)), units_a - 1, draw(st.integers(4, 6)))
        indels = [
            (slot * unit + draw(st.integers(0, unit - 1)), draw(st.integers(1, 3)),
             draw(st.booleans()))
            for slot in slots if draw(st.booleans())
        ]
        copy_a = diverge(piece_a, rate, indels)
        copy_b = diverge(piece_b, rate, [])
        repeat = ""
        if draw(st.booleans()):
            lo = draw(st.integers(0, len(copy_a) - 4 * unit))
            repeat = text(13 * unit) + copy_a[lo:lo + draw(st.integers(3, 6)) * unit]
        # Further apart than twice the band: no seed sees both copies.
        gap = text(draw(st.integers(13, 18)) * unit)
        subjects.append(SeqRecord(
            f"s{i}", text(3 * unit) + copy_a + gap + copy_b + repeat + text(3 * unit)))
    return [SeqRecord("q", piece_a + piece_b)], subjects


@contextmanager
def _triggers(engine, queries):
    """Every ungapped extension of the block: (context offset, score, context-
    and subject-local extents, admitted).

    The engine admits with one array compare per round, so there is no
    per-trigger decision to spy on: the extents are read off the span kernel
    as the scheduler calls it, and ``admitted`` is this file's own compare
    against :meth:`admission_scores` (one query, so one gap trigger), which
    the accounting assertions then hold the engine's to.
    """
    seen = []
    kernel = engine_module.batch_ungapped_extend_spans
    opts = engine.options
    trigger, _ = engine.admission_scores(
        len(queries[0].seq), opts.db_length_override, opts.db_num_seqs_override
    )

    def spy(q_codes, s_codes, q_pos, s_pos, q_lo, q_hi, s_lo, s_hi, *args, **kwargs):
        ext = kernel(q_codes, s_codes, q_pos, s_pos, q_lo, q_hi, s_lo, s_hi, *args, **kwargs)
        seen.extend(zip(
            q_lo.tolist(), ext.score.tolist(),
            (ext.q_start - q_lo).tolist(), (ext.q_end - q_lo).tolist(),
            (ext.s_start - s_lo).tolist(), (ext.score >= trigger).tolist(),
        ))
        return ext

    with mock.patch.object(engine_module, "batch_ungapped_extend_spans", spy):
        yield seen


def _search(engine, queries, partition):
    with _triggers(engine, queries) as seen:
        hits = engine.search_block(queries, partition)
    return hits, engine.last_stats, seen


def _check_scheduler_and_accounting(engine, queries, partition):
    on, s_on, t_on = _search(engine, queries, partition)
    with no_containment():
        off, s_off, t_off = _search(engine, queries, partition)
    with staged_scheduler():
        assert engine.search_block(queries, partition) == off  # (a)
    assert s_off.n_contained == 0
    assert s_off.n_gapped == sum(admitted for *_, admitted in t_off)
    assert s_on.n_gapped + s_on.n_contained == sum(admitted for *_, admitted in t_on)
    if sorted(t_on) == sorted(t_off):  # (c)
        assert s_on.n_gapped + s_on.n_contained == s_off.n_gapped
    return on, off


def _inside(h, box):
    return (
        (h.query_id, h.subject_id, h.strand) == (box.query_id, box.subject_id, box.strand)
        and box.q_start <= h.q_start and h.q_end <= box.q_end
        and box.s_start <= h.s_start and h.s_end <= box.s_end
        and box.score >= h.score
    )


def _check_only_contained_copies_go(on, off):
    kept = set(on)
    assert on == [h for h in off if h in kept]  # (b): a sub-sequence of ``off``
    for gone in off:
        if gone not in kept:
            assert any(_inside(gone, box) for box in on), gone


BLASTN = dict(letters="ACGT", unit=10)
BLASTP = dict(letters=AA, unit=8)


def _blastn(family):
    queries, subjects = family
    engine = make_engine(BlastOptions.blastn(evalue=1e-3).with_db_size(100_000, 50))
    return engine, queries, _Subjects(subjects, DNA)


def _blastp(family):
    queries, subjects = family
    engine = make_engine(BlastOptions.blastp(evalue=1e-3).with_db_size(100_000, 300))
    return engine, queries, _Subjects(subjects, PROTEIN)


@given(_planted(**BLASTN))
@settings(max_examples=25, deadline=None)
def test_blastn_scheduler_is_the_oracle_but_for_the_rule(family):
    _check_scheduler_and_accounting(*_blastn(family))


@given(_planted(**BLASTP))
@settings(max_examples=25, deadline=None)
def test_blastp_scheduler_is_the_oracle_but_for_the_rule(family):
    _check_scheduler_and_accounting(*_blastp(family))


@given(_planted(**BLASTN))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_blastn_rule_removes_only_contained_copies(family):
    _check_only_contained_copies_go(*_check_scheduler_and_accounting(*_blastn(family)))


@given(_planted(**BLASTP))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_blastp_rule_removes_only_contained_copies(family):
    _check_only_contained_copies_go(*_check_scheduler_and_accounting(*_blastp(family)))


def _noisy_family(seed, letters, unit):
    """A query and one subject holding a copy of it with 6 % substitutions
    and an indel at 3 % of its positions: close enough together for an
    ungapped extension to bridge two that cancel."""
    rng = np.random.default_rng(seed)
    indel_rate = 0.03

    def text(n):
        return "".join(rng.choice(list(letters), size=n))

    query = text(int(rng.integers(8, 15)) * unit)
    copy = []
    for c in query:
        r = rng.random()
        if r < indel_rate / 2:
            continue
        copy.append(c if rng.random() >= 0.06 else letters[rng.integers(len(letters))])
        if r > 1 - indel_rate / 2:
            copy.append(letters[rng.integers(len(letters))])
    subject = text(3 * unit) + "".join(copy) + text(3 * unit)
    return [SeqRecord("q", query)], [SeqRecord("s0", subject)]


def _overlaps(h, k):
    return (
        (h.query_id, h.subject_id, h.strand) == (k.query_id, k.subject_id, k.strand)
        and min(h.q_end, k.q_end) > max(h.q_start, k.q_start)
        and min(h.s_end, k.s_end) > max(h.s_start, k.s_start)
    )


def test_what_the_rule_costs_where_indels_are_dense():
    """The price, on seeded families, where it is highest.  An alignment
    is forced through its seed, the mid-point of an ungapped segment; when
    that segment bridges two cancelling indels the mid-point can sit off
    the best path, and the seed the rule spares would have scored a little
    more.  Extending every seed and keeping the best hid that; extending
    one shows it.  Bounded here: with an indel every 33 positions the
    report changes in 1 family of 150 (blastn) and 1 of 60 (blastp) today
    and may in no more than 4; what changes is which path through the same
    region is reported, never whether the region is; and the rule does
    contain seeds on these families."""
    for make, spec, families, allowed in ((_blastn, BLASTN, 150, 4), (_blastp, BLASTP, 60, 4)):
        changed = contained = 0
        for seed in range(families):
            engine, queries, partition = make(_noisy_family(seed, **spec))
            on = engine.search_block(queries, partition)
            contained += engine.last_stats.n_contained
            with no_containment():
                off = engine.search_block(queries, partition)
            if on != off:
                changed += 1
                assert all(any(_overlaps(h, k) for k in on) for h in off if h not in on)
                assert all(any(_overlaps(h, k) for k in off) for h in on if h not in off)
        assert contained > families // 2, make.__name__
        assert changed <= allowed, (make.__name__, changed)
