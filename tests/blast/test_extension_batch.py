"""Directed tests for the compiled stage-2 kernel against the one-hit oracle.

Complements the hypothesis parity suite in
``tests/properties/test_extension_kernels.py`` with deterministic edge
cases: empty calls, results that do not depend on how hits are split into
calls, extensions longer than any fixed window, walks that stop exactly at
a context's or the subject's edge, fractional ``xdrop``, and the inputs
the kernel refuses rather than read out of bounds.
"""

import numpy as np
import pytest

from repro.bio import mutate_dna, random_genome
from repro.bio.alphabet import DNA
from repro.blast.extend import extend_ungapped
from repro.blast.matrices import nucleotide_matrix

from oracles.staged_scheduler import extend_pair
from oracles.ungapped import ungapped_extend

NT = nucleotide_matrix(1, -2)


def _row(ext, r):
    return tuple(int(col[r]) for col in ext)


def _oracle(q, s, qp, sp, word, xdrop):
    u = ungapped_extend(q, s, qp, sp, word, NT, xdrop)
    return (u.score, u.q_start, u.q_end, u.s_start, u.s_end)


class TestBatchKernel:
    def test_empty_batch(self):
        seq = DNA.encode(random_genome(50, seed_or_rng=0))
        empty = np.empty(0, dtype=np.int64)
        ext = extend_pair(seq, seq, empty, empty, 11, NT, 20.0)
        assert ext.score.size == 0

    def test_chunking_is_invisible(self):
        """Results must not depend on how the hits are split into calls."""
        base = random_genome(300, seed_or_rng=1)
        q = DNA.encode(base)
        s = DNA.encode(mutate_dna(base, 0.06, seed_or_rng=2))
        rng = np.random.default_rng(3)
        qp = rng.integers(0, q.size - 11 + 1, size=40)
        sp = rng.integers(0, s.size - 11 + 1, size=40)
        whole = extend_pair(q, s, qp, sp, 11, NT, 20.0)
        pieces = [extend_pair(q, s, qp[i:i + 7], sp[i:i + 7], 11, NT, 20.0)
                  for i in range(0, 40, 7)]
        for field in range(5):
            np.testing.assert_array_equal(
                whole[field], np.concatenate([p[field] for p in pieces])
            )

    @pytest.mark.parametrize("length", [200, 1100, 3000])
    def test_extensions_longer_than_64_and_1024_steps(self, length):
        """A perfect self-match runs to both ends of the sequence: walks of
        more than 64 and more than 1024 steps a side, in one pass."""
        seq = DNA.encode(random_genome(length, seed_or_rng=4))
        mid = length // 2
        ext = extend_pair(seq, seq, np.array([mid]), np.array([mid]), 11, NT, 20.0)
        assert _row(ext, 0) == _oracle(seq, seq, mid, mid, 11, 20.0)
        assert _row(ext, 0) == (length, 0, length, 0, length)

    def test_extension_stopping_exactly_at_a_span_edge(self):
        """Two contexts back to back in one block: a hit's walk stops at its
        own context's edge, and at the subject's, never past either."""
        a = random_genome(60, seed_or_rng=5)
        b = random_genome(40, seed_or_rng=6)
        block = DNA.encode(a + b)
        spans = np.array([[0, 60], [60, 100]], dtype=np.int64)
        subject = DNA.encode(a[10:] + b)  # context 0 runs on into context 1's text
        hits = np.array([[0, 1, 0], [20, 70, 10], [10, 60, 0]], dtype=np.int64)
        ext = extend_ungapped(block, subject, spans, hits, 11, NT, 50.0)
        ctx0, ctx1 = DNA.encode(a), DNA.encode(b)
        assert _row(ext, 0) == _oracle(ctx0, subject, 20, 10, 11, 50.0)
        assert _row(ext, 0)[1:3] == (10, 60)  # right edge of context 0
        want = _oracle(ctx1, subject, 10, 60, 11, 50.0)
        assert _row(ext, 1) == (want[0], want[1] + 60, want[2] + 60, *want[3:])
        assert _row(ext, 1)[2] == 100 and _row(ext, 1)[4] == subject.size
        # Word at the subject's very start: nothing to the left.
        assert (_row(ext, 2)[1], _row(ext, 2)[3]) == (10, 0)
        assert _row(ext, 2) == _oracle(ctx0, subject, 10, 0, 11, 50.0)

    @pytest.mark.parametrize("xdrop", [0.5, 1.0, 1.99, 2.0, 2.01, 4.5, 7.25])
    def test_fractional_xdrop(self, xdrop):
        """A depth d drops the walk when d > xdrop: for integer scores that
        is d > floor(xdrop), which the kernel compares in integers."""
        base = random_genome(400, seed_or_rng=7)
        q = DNA.encode(base)
        s = DNA.encode(mutate_dna(base, 0.15, seed_or_rng=8))
        rng = np.random.default_rng(9)
        qp = rng.integers(0, q.size - 11 + 1, size=30)
        ext = extend_pair(q, s, qp, qp, 11, NT, xdrop)
        for r in range(30):
            assert _row(ext, r) == _oracle(q, s, int(qp[r]), int(qp[r]), 11, xdrop)

    def test_rows_pick_the_hits_extended(self):
        seq = DNA.encode(random_genome(120, seed_or_rng=10))
        hits = np.array([[0, 0, 0], [5, 40, 80], [5, 40, 80]], dtype=np.int64)
        spans = np.array([[0], [120]], dtype=np.int64)
        every = extend_ungapped(seq, seq, spans, hits, 11, NT, 20.0)
        picked = extend_ungapped(seq, seq, spans, hits, 11, NT, 20.0, rows=np.array([2, 0]))
        assert [_row(picked, 0), _row(picked, 1)] == [_row(every, 2), _row(every, 0)]

    def test_inputs_outside_the_sequences_are_refused(self):
        """What the kernel would read out of bounds is refused: a word past
        its context or the subject, a context index past the spans, a code
        outside the matrix."""
        seq = DNA.encode(random_genome(40, seed_or_rng=11))
        spans = np.array([[0], [40]], dtype=np.int64)
        bad_code = seq.copy()
        bad_code[25] = NT.shape[0]
        for q, s, hit in (
            (seq, seq, (0, 35, 0)),  # query word past the context
            (seq, seq, (0, 0, 35)),  # subject word past the subject
            (seq, seq, (1, 0, 0)),  # no context 1
            (seq, seq, (0, -1, 0)),
            (seq, bad_code, (0, 20, 20)),
            (bad_code, seq, (0, 5, 5)),  # a code reached by the walk
        ):
            hits = np.array(hit, dtype=np.int64).reshape(3, 1)
            with pytest.raises(ValueError, match="outside"):
                extend_ungapped(q, s, spans, hits, 11, NT, 1000.0)
