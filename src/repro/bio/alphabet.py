"""Nucleotide and protein alphabets with numpy-friendly encodings.

Nucleotides encode to ``uint8`` codes 0-3 (A,C,G,T) so databases can be
packed two bits per base, matching NCBI's formatdb storage that the paper's
DB partitions use.  Ambiguity codes (N and friends) map to a configurable
replacement policy because 2-bit storage cannot represent them — NCBI's
packed format does the same and keeps an ambiguity side-channel; we
substitute a deterministic base, which is faithful enough for scoring
synthetic data.

Proteins use the BLOSUM matrix row order ``ARNDCQEGHILKMFPSTWYVBZX*`` so a
raw score lookup is ``matrix[code_a, code_b]`` with no indirection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Alphabet", "DNA", "PROTEIN"]


@dataclass(frozen=True)
class Alphabet:
    """A finite ordered alphabet with encode/decode tables."""

    name: str
    letters: str
    #: letters considered "real" (others are ambiguity codes)
    canonical: int
    _encode_table: np.ndarray = field(repr=False, default=None)
    _decode_table: np.ndarray = field(repr=False, default=None)

    @staticmethod
    def build(name: str, letters: str, canonical: int, aliases: dict[str, str] | None = None
              ) -> "Alphabet":
        encode = np.full(256, 255, dtype=np.uint8)
        for i, ch in enumerate(letters):
            encode[ord(ch)] = i
            encode[ord(ch.lower())] = i
        for alias, target in (aliases or {}).items():
            code = letters.index(target)
            encode[ord(alias)] = code
            encode[ord(alias.lower())] = code
        decode = np.frombuffer(letters.encode("ascii"), dtype=np.uint8).copy()
        return Alphabet(name, letters, canonical, encode, decode)

    @property
    def size(self) -> int:
        return len(self.letters)

    def encode(self, seq: str | bytes) -> np.ndarray:
        """Encode to uint8 codes; raises on characters outside the alphabet."""
        raw = seq.encode("ascii") if isinstance(seq, str) else bytes(seq)
        arr = np.frombuffer(raw, dtype=np.uint8)
        codes = self._encode_table[arr]
        if (codes == 255).any():
            bad = sorted({chr(b) for b, c in zip(raw, codes) if c == 255})
            raise ValueError(f"{self.name}: invalid characters {bad!r}")
        return codes

    def decode(self, codes: np.ndarray) -> str:
        """Inverse of :meth:`encode`."""
        codes = np.asarray(codes, dtype=np.uint8)
        if codes.size and int(codes.max()) >= self.size:
            raise ValueError(f"{self.name}: code {int(codes.max())} out of range")
        return self._decode_table[codes].tobytes().decode("ascii")

#: DNA: 2-bit codes A=0 C=1 G=2 T=3.  Ambiguity codes collapse onto a
#: canonical base (the common convention for packed storage of synthetic or
#: pre-cleaned data): N/X->A, U->T, and IUPAC degenerate codes pick their
#: alphabetically-first member.
DNA = Alphabet.build(
    "dna",
    "ACGT",
    canonical=4,
    aliases={
        "N": "A", "X": "A", "U": "T",
        "R": "A", "Y": "C", "S": "C", "W": "A",
        "K": "G", "M": "A", "B": "C", "D": "A", "H": "A", "V": "A",
    },
)

#: Protein in BLOSUM62 row order; J (rare) maps to L, U (selenocysteine) to C,
#: O (pyrrolysine) to K.
PROTEIN = Alphabet.build(
    "protein",
    "ARNDCQEGHILKMFPSTWYVBZX*",
    canonical=20,
    aliases={"J": "L", "U": "C", "O": "K"},
)
