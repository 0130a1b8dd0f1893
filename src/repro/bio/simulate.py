"""Synthetic sequence workloads replacing the paper's NCBI downloads.

The paper searches shredded RefSeq fragments against a 364 Gbp nucleotide DB
and an env_nr protein subset against UniRef100.  Neither dataset is
available offline, so these generators produce scaled-down equivalents with
the properties the experiments exercise:

- databases contain *homologs* of the queries (mutated copies), so searches
  produce real hit distributions across DB partitions;
- queries derived from DB sequences produce self-hits (the paper explicitly
  excludes self-hits of RefSeq fragments — mrblast supports the same);
- per-query search cost is heavy-tailed (repeat-rich sequences), driving the
  load-balancing behaviour the scaling figures depend on.

All generators are deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bio.seq import SeqRecord
from repro.util.rng import as_rng

__all__ = [
    "random_genome",
    "random_protein",
    "mutate_dna",
    "synthetic_community",
    "synthetic_nt_database",
    "synthetic_protein_database",
]

_DNA = np.frombuffer(b"ACGT", dtype=np.uint8)
_AA = np.frombuffer(b"ARNDCQEGHILKMFPSTWYV", dtype=np.uint8)
#: Approximate Robinson-Robinson amino-acid background frequencies in the
#: order of ``_AA`` (normalised below).
_AA_FREQ = np.array(
    [7.8, 5.1, 4.5, 5.4, 1.9, 4.3, 6.3, 7.4, 2.2, 5.1,
     9.0, 5.7, 2.2, 3.9, 5.2, 7.1, 5.8, 1.3, 3.2, 6.4]
)
_AA_FREQ = _AA_FREQ / _AA_FREQ.sum()


def random_genome(
    length: int,
    gc: float = 0.5,
    seed_or_rng: int | np.random.Generator | None = 0,
    repeat_fraction: float = 0.0,
    repeat_unit: int = 24,
) -> str:
    """Random DNA with a target GC content and optional tandem repeats.

    ``repeat_fraction`` of the genome is rewritten as tandem copies of a
    random ``repeat_unit``-mer — repeats are what makes BLAST search time
    heavy-tailed and what low-complexity filtering targets.
    """
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if not (0.0 <= gc <= 1.0):
        raise ValueError(f"gc must be in [0, 1], got {gc}")
    if not (0.0 <= repeat_fraction <= 1.0):
        raise ValueError(f"repeat_fraction must be in [0, 1], got {repeat_fraction}")
    rng = as_rng(seed_or_rng)
    p = np.array([(1 - gc) / 2, gc / 2, gc / 2, (1 - gc) / 2])
    codes = rng.choice(4, size=length, p=p).astype(np.uint8)
    if repeat_fraction > 0 and length > repeat_unit * 2:
        n_repeat_bases = int(length * repeat_fraction)
        # A few long tandem arrays, not many short ones: long arrays are what
        # produce pathological BLAST hit counts and strong k-mer skew.
        n_regions = max(1, n_repeat_bases // 2048)
        span = min(max(n_repeat_bases // n_regions, repeat_unit * 2), length)
        for _ in range(n_regions):
            unit = rng.integers(0, 4, size=repeat_unit).astype(np.uint8)
            start = int(rng.integers(0, length - span + 1))
            tiled = np.tile(unit, span // repeat_unit + 1)[:span]
            codes[start : start + span] = tiled
    return _DNA[codes].tobytes().decode("ascii")


def random_protein(
    length: int, seed_or_rng: int | np.random.Generator | None = 0
) -> str:
    """Random protein drawn from background amino-acid frequencies."""
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    rng = as_rng(seed_or_rng)
    codes = rng.choice(20, size=length, p=_AA_FREQ)
    return _AA[codes].tobytes().decode("ascii")


def mutate_dna(
    seq: str,
    rate: float,
    seed_or_rng: int | np.random.Generator | None = 0,
    indel_fraction: float = 0.1,
) -> str:
    """Mutate DNA: ``rate`` of positions change; a fraction become indels.

    Substitutions pick one of the three other bases; indels are single-base
    insertions or deletions (half each), producing the gapped alignments the
    gapped extension stage must recover.
    """
    if not (0.0 <= rate <= 1.0):
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    if not (0.0 <= indel_fraction <= 1.0):
        raise ValueError(f"indel_fraction must be in [0, 1], got {indel_fraction}")
    rng = as_rng(seed_or_rng)
    out: list[str] = []
    bases = "ACGT"
    for ch in seq:
        r = rng.random()
        if r >= rate:
            out.append(ch)
            continue
        kind = rng.random()
        if kind < indel_fraction / 2:
            continue  # deletion
        if kind < indel_fraction:
            out.append(ch)
            out.append(bases[rng.integers(0, 4)])  # insertion after
            continue
        choices = bases.replace(ch, "") or bases
        out.append(choices[rng.integers(0, len(choices))])
    return "".join(out)


@dataclass
class Community:
    """A synthetic metagenomic community: genomes plus derived reads."""

    genomes: list[SeqRecord]
    reads: list[SeqRecord] = field(default_factory=list)

def synthetic_community(
    n_genomes: int = 8,
    genome_length: int = 20_000,
    seed: int = 0,
    gc_range: tuple[float, float] = (0.3, 0.7),
    repeat_fraction: float = 0.02,
) -> Community:
    """Generate a community of genomes with distinct GC contents.

    Distinct GC (and hence distinct tetranucleotide composition) is what
    makes SOM-based metagenomic binning work, so the binning example can
    recover the genome-of-origin structure.
    """
    rng = as_rng(seed)
    genomes = []
    for i in range(n_genomes):
        gc = gc_range[0] + (gc_range[1] - gc_range[0]) * (
            i / max(n_genomes - 1, 1)
        )
        seq = random_genome(
            genome_length, gc=gc, seed_or_rng=rng, repeat_fraction=repeat_fraction
        )
        genomes.append(SeqRecord(f"genome{i:03d}", seq, f"synthetic gc={gc:.2f}"))
    return Community(genomes=genomes)


def synthetic_nt_database(
    community: Community,
    n_decoys: int = 8,
    decoy_length: int = 10_000,
    homolog_rate: float = 0.05,
    seed: int = 1,
    homologs_per_genome: int = 1,
) -> list[SeqRecord]:
    """Build a nucleotide DB: mutated homologs of the community + decoys.

    Mirrors the paper's setup where queries (shredded RefSeq) have true
    homologs in the database alongside unrelated sequence.  With
    ``homologs_per_genome > 1``, each genome gets several independently
    mutated copies (deeper hit lists per query — heavier shuffles).
    """
    if homologs_per_genome < 1:
        raise ValueError(f"homologs_per_genome must be >= 1, got {homologs_per_genome}")
    rng = as_rng(seed)
    db: list[SeqRecord] = []
    for g in community.genomes:
        for copy in range(homologs_per_genome):
            hom = mutate_dna(g.seq, rate=homolog_rate, seed_or_rng=rng)
            suffix = "" if copy == 0 else f"_v{copy}"
            db.append(SeqRecord(f"db_{g.id}{suffix}", hom, f"homolog of {g.id}"))
    for d in range(n_decoys):
        db.append(
            SeqRecord(
                f"decoy{d:03d}",
                random_genome(decoy_length, gc=0.5, seed_or_rng=rng),
                "unrelated decoy",
            )
        )
    return db


def synthetic_protein_database(
    n_families: int = 6,
    members_per_family: int = 4,
    length: int = 300,
    mutation_rate: float = 0.2,
    seed: int = 2,
) -> tuple[list[SeqRecord], list[SeqRecord]]:
    """Protein DB of families plus one query per family.

    Returns ``(queries, database)``.  Family members are point-mutated
    copies, giving blastp remote-homology work in each family.
    """
    rng = as_rng(seed)
    aa = "ARNDCQEGHILKMFPSTWYV"
    queries: list[SeqRecord] = []
    db: list[SeqRecord] = []
    for f in range(n_families):
        ancestor = random_protein(length, seed_or_rng=rng)
        queries.append(SeqRecord(f"qfam{f:02d}", ancestor, "family query"))
        for m in range(members_per_family):
            chars = list(ancestor)
            for i in range(len(chars)):
                if rng.random() < mutation_rate:
                    chars[i] = aa[rng.integers(0, 20)]
            db.append(SeqRecord(f"fam{f:02d}_m{m}", "".join(chars), f"family {f}"))
    return queries, db
