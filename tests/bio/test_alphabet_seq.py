"""Alphabets, sequence records, transforms."""

import numpy as np
import pytest

from repro.bio import DNA, PROTEIN, SeqRecord, reverse_complement, translate


class TestAlphabets:
    def test_dna_encode_decode_roundtrip(self):
        seq = "ACGTACGT"
        codes = DNA.encode(seq)
        np.testing.assert_array_equal(codes, [0, 1, 2, 3, 0, 1, 2, 3])
        assert DNA.decode(codes) == seq

    def test_dna_lowercase_and_ambiguity(self):
        assert DNA.decode(DNA.encode("acgt")) == "ACGT"
        assert DNA.decode(DNA.encode("NU")) == "AT"  # N->A, U->T

    def test_dna_invalid_character(self):
        with pytest.raises(ValueError, match="invalid characters"):
            DNA.encode("ACG!")

    def test_protein_blosum_order(self):
        assert PROTEIN.letters[:4] == "ARND"
        codes = PROTEIN.encode("ARND")
        np.testing.assert_array_equal(codes, [0, 1, 2, 3])

    def test_protein_rare_aliases(self):
        assert PROTEIN.decode(PROTEIN.encode("JUO")) == "LCK"

    def test_decode_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            DNA.decode(np.array([7], dtype=np.uint8))


class TestSeqRecord:
    def test_uppercases_and_header(self):
        rec = SeqRecord("id1", "acgt", "some description")
        assert rec.seq == "ACGT"
        assert rec.header == "id1 some description"
        assert len(rec) == 4

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            SeqRecord("", "ACGT")

class TestTransforms:
    def test_reverse_complement_involution(self):
        seq = "ACGTTGCAN"
        assert reverse_complement(reverse_complement(seq)) == seq

    def test_reverse_complement_known(self):
        assert reverse_complement("AACG") == "CGTT"

    def test_translate_standard_code(self):
        assert translate("ATGAAATAG") == "MK"
        assert translate("ATGAAATAG", stop=False) == "MK*"

    def test_translate_frames(self):
        seq = "XATGGCC".replace("X", "G")
        assert translate(seq, frame=1) == "MA"

    def test_translate_ambiguity_gives_x(self):
        assert translate("ATGNNN", stop=False) == "MX"

    def test_translate_bad_frame(self):
        with pytest.raises(ValueError):
            translate("ATG", frame=3)
