"""Stage 1 in whole-array passes, pinned to its per-sequence references.

A query block is encoded and DUST-masked across all its strands at once,
its lookup postings are cut from the concatenated block in one pass, and
two-bit words are packed by shift-or doubling.  Each of the three has a
loop-shaped reference kept on this side of the package boundary: the
per-sequence, per-window DUST loop below, and the Horner pack, cumulative-sum
window test and per-context dict builder of ``tests/oracles/dict_lookup.py``.
Equality is exact everywhere (the arithmetic is integer, or float in the
same order).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio.alphabet import DNA
from repro.bio.seq import SeqRecord, reverse_complement
from repro.blast.dust import dust_mask_batch
from repro.blast.lookup import (
    NucleotideLookup,
    QueryBlock,
    _pack_words,
    _window_unmasked,
    nucleotide_postings,
)

from oracles import dict_lookup
from oracles.dict_lookup import ReferenceNucleotideLookup

# Upper and lower case, N and the IUPAC degenerate codes the alphabet folds
# onto a base; long single-letter and dinucleotide stretches so that some
# windows do score above the threshold.
_LETTERS = "ACGTacgtNRYSWKMBDHVn"
_low_complexity = st.builds(
    lambda unit, times: unit * times,
    st.text(alphabet="ACGTacgt", min_size=1, max_size=3), st.integers(1, 70),
)
_dna_text = st.lists(
    st.one_of(st.text(alphabet=_LETTERS, max_size=60), _low_complexity), max_size=5
).map("".join)


def _reference_dust_mask(seq, window=64, threshold=20.0, step=32):
    """The per-sequence DUST: one Python step and one ``bincount`` a window."""
    codes = DNA.encode(seq).astype(np.int64)
    n = codes.size
    mask = np.zeros(n, dtype=bool)
    for start in range(0, n - 2, step):
        end = min(start + window, n)
        c = codes[start:end]
        counts = np.bincount(c[:-2] * 16 + c[1:-1] * 4 + c[2:], minlength=64)
        rep = float((counts * (counts - 1)).sum()) / 2.0
        if 10.0 * rep / (c.size - 2) > threshold:
            mask[start:end] = True
        if end == n:
            break
    return mask


# ---- DUST -------------------------------------------------------------------


@given(
    st.lists(_dna_text, min_size=1, max_size=6),
    st.integers(8, 70), st.integers(1, 40), st.sampled_from([2.0, 8.0, 20.0]),
)
@settings(max_examples=120, deadline=None)
def test_batched_dust_equals_per_sequence_reference(texts, window, step, threshold):
    """Ragged lengths (groups of one), n < 3, n < window, n not a multiple
    of ``step``, lower case and IUPAC codes, every strand of a block."""
    texts = texts + [reverse_complement(t) for t in texts]
    got = dust_mask_batch([DNA.encode(t) for t in texts], window, threshold, step)
    assert len(got) == len(texts)
    for text, mask in zip(texts, got):
        want = _reference_dust_mask(text, window, threshold, step)
        assert mask.dtype == bool and np.array_equal(mask, want)


@given(st.lists(st.text(alphabet="ACGT", min_size=40, max_size=40), min_size=2, max_size=8))
@settings(max_examples=40, deadline=None)
def test_batched_dust_equal_length_group(texts):
    """Equal-length strands share one window grid and one bincount a
    window; a low-complexity member must not leak into its neighbours."""
    texts[0] = "AC" * 20
    got = dust_mask_batch([DNA.encode(t) for t in texts], 16, 8.0, 8)
    for text, mask in zip(texts, got):
        assert np.array_equal(mask, _reference_dust_mask(text, 16, 8.0, 8))
    assert got[0].all()


@pytest.mark.parametrize("text", ["", "A", "AC", "ACG", "ACGTACG", "a" * 9, "N" * 70])
def test_dust_edge_lengths(text):
    (mask,) = dust_mask_batch([DNA.encode(text)])
    assert np.array_equal(mask, _reference_dust_mask(text))
    assert mask.shape == (len(text),)


def test_dust_argument_errors_are_the_single_sequence_ones():
    with pytest.raises(ValueError, match="window must be >= 8"):
        dust_mask_batch([DNA.encode("ACGTACGT")], window=7)
    with pytest.raises(ValueError, match="step must be >= 1"):
        dust_mask_batch([DNA.encode("ACGTACGT")], step=0)
    assert dust_mask_batch([]) == []


# ---- word packing -----------------------------------------------------------


@given(st.integers(4, 31), st.integers(0, 90), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_shift_pack_equals_sliding_window_pack(word_size, n, seed):
    codes = np.random.default_rng(seed).integers(0, 4, size=n).astype(np.uint8)
    want = dict_lookup._pack_words(codes, word_size, 4)
    for dtype in (np.uint8, np.intp):  # DB partitions give uint8, tests intp
        got = _pack_words(codes.astype(dtype), word_size)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
    assert got.size == max(n - word_size + 1, 0)


@pytest.mark.parametrize("word_size", range(4, 32))
def test_shift_pack_every_word_size_at_the_top_of_its_range(word_size):
    """All-T windows set every bit of the word: a narrow intermediate that
    lost its high bits would show here."""
    codes = np.full(word_size + 3, 3, dtype=np.uint8)
    assert _pack_words(codes, word_size).tolist() == [4**word_size - 1] * 4


@given(st.lists(st.booleans(), max_size=60), st.integers(1, 31))
@settings(max_examples=100, deadline=None)
def test_window_unmasked_equals_any_over_the_window(mask, word_size):
    mask = np.array(mask, dtype=bool)
    want = [not mask[i : i + word_size].any() for i in range(mask.size - word_size + 1)]
    assert _window_unmasked(mask, word_size).tolist() == want


# ---- block-level postings ---------------------------------------------------


@st.composite
def _masked_block(draw):
    """A blastn block with contexts shorter than a word among longer ones
    and a drawn soft mask, whole stretches of it up against context ends."""
    word_size = draw(st.integers(4, 12))
    lengths = draw(st.lists(st.integers(1, 3 * word_size), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records = [
        SeqRecord(f"q{i}", "".join(rng.choice(list("ACGT"), size=n)))
        for i, n in enumerate(lengths)
    ]
    block = QueryBlock(records, "blastn", use_mask=False)
    style = draw(st.sampled_from(["none", "all", "ends", "random"]))
    if style == "all":
        block.mask[:] = True
    elif style == "ends":
        for ctx in block.contexts:
            k = draw(st.integers(0, min(ctx.length, word_size)))
            ctx.mask[ctx.length - k :] = True  # a view of block.mask
            ctx.mask[: draw(st.integers(0, 2))] = True
    elif style == "random":
        block.mask[:] = rng.random(block.total_length) < draw(st.sampled_from([0.05, 0.3]))
    return block, word_size


def _per_context_postings(block, word_size):
    words, positions = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for ctx in block.contexts:
        usable = np.flatnonzero(dict_lookup._window_unmasked(ctx.mask, word_size))
        words.append(dict_lookup._pack_words(ctx.codes, word_size, 4)[usable])
        positions.append(ctx.offset + usable)
    return np.concatenate(words), np.concatenate(positions)


@given(_masked_block())
@settings(max_examples=150, deadline=None)
def test_block_postings_equal_per_context_postings(case):
    block, word_size = case
    # The block-level arrays and the contexts' are one memory.
    assert all(np.shares_memory(c.mask, block.mask) for c in block.contexts if c.length)
    assert all(np.shares_memory(c.codes, block.codes) for c in block.contexts if c.length)
    want_words, want_positions = _per_context_postings(block, word_size)
    words, positions = nucleotide_postings(block, word_size)
    assert np.array_equal(words, want_words)
    assert np.array_equal(positions, want_positions)
    # No window leaves its context.
    ctx, local = block.localize(positions)
    assert all(local[k] + word_size <= block.contexts[ctx[k]].length for k in range(len(ctx)))


def test_block_postings_empty_usable_set():
    records = [SeqRecord("a", "ACGTAC"), SeqRecord("b", "GGT")]
    block = QueryBlock(records, "blastn", use_mask=False)
    # Every context shorter than the word: the only windows straddle.
    words, positions = nucleotide_postings(block, 7)
    assert words.size == positions.size == 0
    lut = NucleotideLookup(block, word_size=7)
    assert (lut._words.size, lut._positions.size) == (0, 0)
    assert lut.scan(DNA.encode("ACGTACGGTACGTACC"))[0].size == 0
    # The concatenation does hold 7-mers (ACGTACG, crossing a into its
    # reverse strand); none may be indexed.
    assert block.total_length >= 7
    block.mask[:] = True
    assert nucleotide_postings(block, 4)[0].size == 0


@given(_masked_block(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_scan_equals_dict_oracle_in_order(case, seed):
    """Hits, element for element, in order, on a subject that carries
    copies of query stretches (real hits) in random sequence."""
    block, word_size = case
    rng = np.random.default_rng(seed)
    pieces = [rng.integers(0, 4, size=30).astype(np.uint8)]
    for ctx in block.contexts[:3]:
        pieces += [ctx.codes, rng.integers(0, 4, size=int(rng.integers(0, 9))).astype(np.uint8)]
    subject = np.concatenate(pieces)
    ref = ReferenceNucleotideLookup(block, word_size=word_size)
    lut = NucleotideLookup(block, word_size=word_size)
    assert lut._words.size == ref.n_words
    for got, want in zip(lut.scan(subject), ref.scan(subject)):
        assert np.array_equal(got, want)


def test_query_block_strands_and_masks_match_single_sequence_calls():
    """One encode and one DUST pass over the block give every context what
    the per-strand calls give it, ambiguity codes included (``N`` folds to
    ``A`` on both strands: the reverse strand is complemented as text)."""
    records = [SeqRecord("a", "ACGTNNRYACGT" + "A" * 70), SeqRecord("b", "ttgacnag" * 9),
               SeqRecord("c", "AC")]
    block = QueryBlock(records, "blastn", use_mask=True)
    assert [(c.query_index, c.strand) for c in block.contexts] == [
        (0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1)]
    offset = 0
    for ctx in block.contexts:
        seq = records[ctx.query_index].seq
        seq = seq if ctx.strand == 1 else reverse_complement(seq)
        assert ctx.offset == offset
        assert np.array_equal(ctx.codes, DNA.encode(seq))
        assert np.array_equal(ctx.mask, _reference_dust_mask(seq))
        offset += ctx.length
    assert block.total_length == offset
    assert np.array_equal(block.codes, np.concatenate([c.codes for c in block.contexts]))
    assert block.mask.any() and not block.mask.all()
