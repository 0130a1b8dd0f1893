"""Sequence records and basic molecular-biology transforms."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SeqRecord", "reverse_complement", "translate", "CODON_TABLE"]

_COMPLEMENT = str.maketrans("ACGTNacgtn", "TGCANtgcan")


@dataclass
class SeqRecord:
    """One FASTA entry: ``>id description`` + sequence."""

    id: str
    seq: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("SeqRecord id must be non-empty")
        self.seq = self.seq.upper()

    def __len__(self) -> int:
        return len(self.seq)

    @property
    def header(self) -> str:
        return f"{self.id} {self.description}".strip()

def reverse_complement(seq: str) -> str:
    """Watson-Crick reverse complement (preserves N)."""
    return seq.translate(_COMPLEMENT)[::-1]


#: Standard genetic code (DNA codons).
CODON_TABLE = {
    "TTT": "F", "TTC": "F", "TTA": "L", "TTG": "L",
    "CTT": "L", "CTC": "L", "CTA": "L", "CTG": "L",
    "ATT": "I", "ATC": "I", "ATA": "I", "ATG": "M",
    "GTT": "V", "GTC": "V", "GTA": "V", "GTG": "V",
    "TCT": "S", "TCC": "S", "TCA": "S", "TCG": "S",
    "CCT": "P", "CCC": "P", "CCA": "P", "CCG": "P",
    "ACT": "T", "ACC": "T", "ACA": "T", "ACG": "T",
    "GCT": "A", "GCC": "A", "GCA": "A", "GCG": "A",
    "TAT": "Y", "TAC": "Y", "TAA": "*", "TAG": "*",
    "CAT": "H", "CAC": "H", "CAA": "Q", "CAG": "Q",
    "AAT": "N", "AAC": "N", "AAA": "K", "AAG": "K",
    "GAT": "D", "GAC": "D", "GAA": "E", "GAG": "E",
    "TGT": "C", "TGC": "C", "TGA": "*", "TGG": "W",
    "CGT": "R", "CGC": "R", "CGA": "R", "CGG": "R",
    "AGT": "S", "AGC": "S", "AGA": "R", "AGG": "R",
    "GGT": "G", "GGC": "G", "GGA": "G", "GGG": "G",
}


def translate(seq: str, frame: int = 0, stop: bool = True) -> str:
    """Translate a DNA sequence in the given frame (0, 1, 2).

    Codons containing ambiguity characters translate to ``X``.  With
    ``stop=True`` translation halts at the first stop codon (excluded).
    """
    if frame not in (0, 1, 2):
        raise ValueError(f"frame must be 0, 1 or 2, got {frame}")
    seq = seq.upper()
    out: list[str] = []
    for i in range(frame, len(seq) - 2, 3):
        aa = CODON_TABLE.get(seq[i : i + 3], "X")
        if aa == "*" and stop:
            break
        out.append(aa)
    return "".join(out)
