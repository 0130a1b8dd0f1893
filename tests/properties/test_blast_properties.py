"""Property-based tests for the BLAST substrate."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bio.alphabet import DNA
from repro.blast.formatdb import pack_2bit, unpack_2bit
from repro.blast.gapped import extend_gapped
from repro.blast.karlin import KarlinParams
from repro.blast.matrices import nucleotide_matrix
from repro.blast.statistics import evalue

from oracles.smith_waterman import smith_waterman_score
from oracles.staged_scheduler import extend_pair

NT = nucleotide_matrix(1, -2)

dna_text = st.text(alphabet="ACGT", min_size=0, max_size=200)
dna_seq = st.text(alphabet="ACGT", min_size=30, max_size=120)


@given(dna_text)
@settings(max_examples=100, deadline=None)
def test_pack_unpack_roundtrip(seq):
    codes = DNA.encode(seq)
    assert DNA.decode(unpack_2bit(pack_2bit(codes), len(seq))) == seq


@given(dna_seq, dna_seq, st.integers(0, 15))
@settings(max_examples=50, deadline=None)
def test_ungapped_extension_never_beats_smith_waterman(q_text, s_text, offset):
    """Any ungapped local alignment scores at most the SW optimum."""
    q = DNA.encode(q_text)
    s = DNA.encode(s_text)
    word = 8
    q_pos = min(offset, q.size - word)
    s_pos = min(offset, s.size - word)
    assume(q_pos >= 0 and s_pos >= 0)
    score = int(extend_pair(q, s, np.array([q_pos]), np.array([s_pos]),
                            word, NT, 15.0).score[0])
    sw = smith_waterman_score(q, s, NT, gap_open=5, gap_extend=2)
    # The seed word itself may score negative (mismatches); SW floors at 0.
    assert score <= max(sw, score if score < 0 else sw) or score <= sw
    if score > 0:
        assert score <= sw


@given(dna_seq, dna_seq, st.integers(0, 25))
@settings(max_examples=40, deadline=None)
def test_gapped_extension_bounded_by_optimum_and_consistent(q_text, s_text, seed_pos):
    q = DNA.encode(q_text)
    s = DNA.encode(s_text)
    qp = min(seed_pos, q.size - 1)
    sp = min(seed_pos, s.size - 1)
    g = extend_gapped(q, s, qp, sp, NT, 5, 2, xdrop=30, band=32)
    sw = smith_waterman_score(q, s, NT, gap_open=5, gap_extend=2)
    if g is not None:
        assert 0 < g.score <= sw
        # Coordinate sanity: spans bracket the seed and fit the sequences.
        assert 0 <= g.q_start <= qp <= g.q_end <= q.size
        assert 0 <= g.s_start <= sp <= g.s_end <= s.size
        # Alignment accounting: columns = identities+mismatches+gap columns.
        assert g.align_len >= max(g.q_end - g.q_start, g.s_end - g.s_start)
        assert 0 <= g.identities <= g.align_len
        assert 0 <= g.gaps <= g.align_len
        # Gap columns explain the span difference exactly.
        assert g.gaps >= abs((g.q_end - g.q_start) - (g.s_end - g.s_start))


@given(dna_seq)
@settings(max_examples=30, deadline=None)
def test_self_alignment_is_perfect(seq_text):
    q = DNA.encode(seq_text)
    mid = q.size // 2
    g = extend_gapped(q, q, mid, mid, NT, 5, 2, xdrop=25, band=16)
    assert g is not None
    assert g.score == q.size  # +1 per matched base
    assert g.identities == q.size
    assert g.gaps == 0


@given(
    st.integers(10, 10_000),       # raw score
    st.integers(50, 5_000),        # query length
    st.integers(10_000, 10**9),    # db length
    st.integers(10, 10**6),        # db sequences
)
@settings(max_examples=100, deadline=None)
def test_evalue_monotonicity(score, qlen, dblen, dbseqs):
    params = KarlinParams(lam=0.267, K=0.041, H=0.14, gapped=True)
    # Physical regime: average DB sequence at least 50 residues (below
    # that the length-adjustment clamp pins the effective DB length and
    # E-values flatten out, which is fine but not monotone to the epsilon).
    assume(dbseqs * 50 <= dblen)
    e = evalue(score, params, qlen, dblen, dbseqs)
    assert e >= 0
    # Higher score -> smaller E-value.
    assert evalue(score + 10, params, qlen, dblen, dbseqs) <= e
    # Bigger database -> bigger E-value.
    assert evalue(score, params, qlen, dblen * 2, dbseqs) >= e
