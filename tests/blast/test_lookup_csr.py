"""CSR lookup tables vs the dict oracle, and the cache.

The word table is a flat CSR layout (sorted words + offsets + concatenated
positions) behind a presence vector indexed by ``word & mask``.  These
tests pin the invariant both rest on: ``scan()`` output is *element-wise*
identical to ``tests/oracles/dict_lookup.py`` — same hits, same order — for
both programs, masked and unmasked, at word sizes where the presence vector
is exact (``4**w <= 2**18``) and where it is a hash.  The LRU
:class:`LookupCache` and its engine-level wiring (cached runs produce
byte-identical hits and real cache hits) are covered alongside.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio.alphabet import DNA, PROTEIN
from repro.bio.seq import SeqRecord
from repro.blast.engine import BlastnEngine
from repro.blast.lookup import (
    _PV_SIZE,
    LookupCache,
    NucleotideLookup,
    ProteinLookup,
    QueryBlock,
    block_fingerprint,
)
from repro.blast.options import BlastOptions

from oracles.dict_lookup import ReferenceNucleotideLookup, ReferenceProteinLookup

dna_seq = st.text(alphabet="ACGT", min_size=11, max_size=80)
# Keep proteins short: the reference builder enumerates neighbourhoods per
# position in Python and exists only as an oracle.
protein_seq = st.text(alphabet="ARNDCQEGHILKMFPSTWYV", min_size=3, max_size=40)


def assert_scan_identical(ref, csr, subject):
    rq, rs = ref.scan(subject)
    cq, cs = csr.scan(subject)
    assert np.array_equal(rq, cq)
    assert np.array_equal(rs, cs)


@given(st.lists(dna_seq, min_size=1, max_size=4), dna_seq, st.booleans())
@settings(max_examples=40, deadline=None)
def test_nucleotide_scan_matches_reference(seqs, subject_text, use_mask):
    records = [SeqRecord(f"q{i}", s) for i, s in enumerate(seqs)]
    block = QueryBlock(records, "blastn", use_mask=use_mask)
    ref = ReferenceNucleotideLookup(block)
    csr = NucleotideLookup(block)
    assert csr.n_words == ref.n_words
    assert_scan_identical(ref, csr, DNA.encode(subject_text))


@given(st.lists(protein_seq, min_size=1, max_size=3), protein_seq, st.booleans())
@settings(max_examples=25, deadline=None)
def test_protein_scan_matches_reference(seqs, subject_text, use_mask):
    records = [SeqRecord(f"q{i}", s) for i, s in enumerate(seqs)]
    block = QueryBlock(records, "blastp", use_mask=use_mask)
    ref = ReferenceProteinLookup(block)
    csr = ProteinLookup(block)
    assert csr.n_words == ref.n_words
    assert csr.n_postings == sum(v.size for v in ref._table.values())
    assert_scan_identical(ref, csr, PROTEIN.encode(subject_text))


@pytest.mark.parametrize("word_size", [7, 9, 10, 11, 16])
def test_nucleotide_scan_matches_reference_at_every_pv_regime(word_size):
    """Word sizes 7 and 9 index the presence vector exactly; 10, 11 and 16
    hash into it.  Subjects share long stretches with the queries (real
    hits) among random sequence (presence-vector rejections)."""
    rng = np.random.default_rng(word_size)
    texts = ["".join(rng.choice(list("ACGT"), size=n)) for n in (300, 180, 64)]
    records = [SeqRecord(f"q{i}", t) for i, t in enumerate(texts)]
    for use_mask in (False, True):
        block = QueryBlock(records, "blastn", use_mask=use_mask)
        ref = ReferenceNucleotideLookup(block, word_size=word_size)
        csr = NucleotideLookup(block, word_size=word_size)
        assert csr.n_words == ref.n_words
        assert csr._pv.size == _PV_SIZE and csr._pv.sum() <= csr.n_words
        filler = "".join(rng.choice(list("ACGT"), size=4000))
        subject = filler[:1500] + texts[0][40:200] + filler[1500:] + texts[2][::-1]
        hits = csr.scan(DNA.encode(subject))[0].size
        assert hits >= 160 - word_size + 1
        assert_scan_identical(ref, csr, DNA.encode(subject))
        assert_scan_identical(ref, csr, DNA.encode(texts[1]))


@pytest.mark.parametrize("word_size", [10, 11, 16])
def test_word_colliding_under_the_pv_mask_is_no_hit(word_size):
    """A subject word equal to a query word in its low 18 bits (its last 9
    letters) and different above them passes the presence vector and must
    be refused by the exact join, wherever it sorts: before the table's
    first word, between two, past its last."""
    block = QueryBlock([SeqRecord("q", "C" * word_size)], "blastn", use_mask=False)
    csr = NucleotideLookup(block, word_size=word_size)
    ref = ReferenceNucleotideLookup(block, word_size=word_size)
    assert csr.n_words == 2  # C...C and, on the minus strand, G...G
    slots = []
    for collider in ("A" + "C" * (word_size - 1), "G" + "C" * (word_size - 1),
                     "T" + "G" * (word_size - 1)):
        codes = DNA.encode(collider)
        (word,) = csr._subject_words(codes)
        assert csr._pv[word & (_PV_SIZE - 1)] and csr.postings(int(word)).size == 0
        slots.append(int(np.searchsorted(csr._words, word)))
        assert csr.scan(codes)[0].size == 0
        assert_scan_identical(ref, csr, DNA.encode("AT" + collider + "TA"))
    assert slots == [0, 1, 2]
    assert csr.scan(DNA.encode("C" * word_size))[0].size == 1


def test_protein_subject_with_ambiguity_codes():
    """Windows holding B/Z/X/* get word -1: index ``_PV_SIZE - 1`` of the
    presence vector, which no 3-mer (< 8000) can set."""
    records = [SeqRecord("q0", "MKTAYIAKQRQISFVKSHFSRQ"), SeqRecord("q1", "WWXWWCCBCC")]
    for use_mask in (False, True):
        block = QueryBlock(records, "blastp", use_mask=use_mask)
        ref, csr = ReferenceProteinLookup(block), ProteinLookup(block)
        assert not csr._pv[_PV_SIZE - 1]
        for subject in ("MKTAYXAKQRQISBVKSHF*RQWWW", "XXXX", "WWXWW", "MKZTAY"):
            assert_scan_identical(ref, csr, PROTEIN.encode(subject))
        assert csr.scan(PROTEIN.encode("MKTAYIAK"))[0].size > 0


def test_empty_lookup_and_short_subject():
    empty = QueryBlock([SeqRecord("q", "ACGTACG")], "blastn", use_mask=False)  # < 11
    for lut in (NucleotideLookup(empty), ReferenceNucleotideLookup(empty)):
        assert lut.n_words == 0
        for subject in ("ACGTACGTACGTACGT", "ACG", ""):
            q, s = lut.scan(DNA.encode(subject))
            assert q.size == s.size == 0 and q.dtype == s.dtype == np.int64
    assert not NucleotideLookup(empty)._pv.any()
    block = QueryBlock([SeqRecord("q", "ACGTTGCAACGTAGCTAGCT")], "blastn", use_mask=False)
    pblock = QueryBlock([SeqRecord("p", "MKTAYIAKQR")], "blastp", use_mask=False)
    for ref, csr, alphabet, short in (
        (ReferenceNucleotideLookup(block), NucleotideLookup(block), DNA, "ACGTTGCAAC"),
        (ReferenceProteinLookup(pblock), ProteinLookup(pblock), PROTEIN, "MK"),
    ):
        for subject in (short, ""):
            assert_scan_identical(ref, csr, alphabet.encode(subject))
            assert csr.scan(alphabet.encode(subject))[0].size == 0


@given(st.lists(dna_seq, min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_csr_structure_invariants(seqs):
    records = [SeqRecord(f"q{i}", s) for i, s in enumerate(seqs)]
    lut = NucleotideLookup(QueryBlock(records, "blastn", use_mask=False))
    words, offsets = lut._words, lut._offsets
    assert np.all(np.diff(words) > 0)  # strictly ascending, deduplicated
    assert offsets[0] == 0 and offsets[-1] == lut.n_postings
    assert np.all(np.diff(offsets) > 0)  # every listed word has postings
    for i, w in enumerate(words.tolist()):
        np.testing.assert_array_equal(
            lut.postings(w), lut._positions[offsets[i] : offsets[i + 1]]
        )
        # positions ascend within a word (the admission loop relies on it)
        assert np.all(np.diff(lut.postings(w)) > 0)


def test_postings_of_absent_word_is_empty():
    lut = NucleotideLookup(QueryBlock([SeqRecord("q", "ACGT" * 10)], "blastn", use_mask=False))
    missing = int(lut._words.max()) + 1
    assert lut.postings(missing).size == 0


# ------------------------------------------------------------------ cache

def _block(tag: str):
    return [SeqRecord(f"{tag}{i}", "ACGTACGTACGTACG" + "ACGT" * i) for i in range(1, 3)]


def test_lookup_cache_lru_eviction_and_counters():
    cache = LookupCache(capacity=2)
    blocks = {k: _block(k) for k in "abc"}
    built = {k: NucleotideLookup(QueryBlock(v, "blastn", use_mask=False)) for k, v in blocks.items()}
    keys = {k: ("blastn", block_fingerprint(v)) for k, v in blocks.items()}

    assert cache.get(keys["a"]) is None  # miss
    cache.put(keys["a"], QueryBlock(blocks["a"], "blastn", use_mask=False), built["a"])
    cache.put(keys["b"], QueryBlock(blocks["b"], "blastn", use_mask=False), built["b"])
    assert cache.get(keys["a"])[1] is built["a"]  # hit refreshes recency
    cache.put(keys["c"], QueryBlock(blocks["c"], "blastn", use_mask=False), built["c"])  # evicts b
    assert len(cache) == 2
    assert cache.get(keys["b"]) is None
    assert cache.get(keys["a"]) is not None
    assert cache.get(keys["c"]) is not None
    assert cache.hits == 3 and cache.misses == 2


def test_lookup_cache_rejects_zero_capacity():
    with pytest.raises(ValueError):
        LookupCache(capacity=0)


def test_block_fingerprint_is_content_based():
    a = [SeqRecord("q0", "ACGTACGTACGT")]
    b = [SeqRecord("q0", "ACGTACGTACGT")]  # distinct objects, same content
    c = [SeqRecord("q0", "ACGTACGTACGA")]
    assert block_fingerprint(a) == block_fingerprint(b)
    assert block_fingerprint(a) != block_fingerprint(c)


def test_engine_cached_matches_uncached_across_partitions():
    """Cached sweeps return identical hits and actually hit the cache."""
    from repro.bio.simulate import mutate_dna, random_genome

    genomes = [random_genome(3000, seed_or_rng=20 + i) for i in range(4)]
    queries = [
        SeqRecord(f"q{i}", mutate_dna(genomes[i][400:1000], 0.04, seed_or_rng=50 + i))
        for i in range(3)
    ]

    class Part:
        def __init__(self, name, recs):
            self.name, self._recs = name, recs
            self.num_seqs = len(recs)
            self.total_length = sum(len(r.seq) for r in recs)

        def __iter__(self):
            for r in self._recs:
                yield r.id, DNA.encode(r.seq)

    parts = [
        Part(f"p{j}", [SeqRecord(f"s{j}_{k}", genomes[2 * j + k]) for k in range(2)])
        for j in range(2)
    ]
    opts = BlastOptions.blastn()

    plain = BlastnEngine(opts)
    cached = BlastnEngine(opts)
    cache = LookupCache(capacity=4)
    cached.set_lookup_cache(cache)

    for sweep in range(2):
        for p in parts:
            assert plain.search_block(queries, p) == cached.search_block(queries, p)
    # first encounter is the only miss; the other three searches hit
    assert cache.misses == 1 and cache.hits == 3
    assert cached.last_stats.lookup_cache_hits == 1
