"""BLAST search options.

Mirrors the knobs the paper's use cases exercise: E-value cutoff (their
protein run used 1e-4), maximum hits per query (the top-K cutoff applied in
mrblast's reduce step), low-complexity filtering ("usually requested"), and
the effective-DB-length override ("the DB length is overridden in the BLAST
call to be the entire length of the DB instead of the length of the current
partition").
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["BlastOptions"]


@dataclass(frozen=True)
class BlastOptions:
    """Options for one BLAST search.

    Defaults follow classic NCBI blastn/blastp settings.
    """

    program: str = "blastn"  # "blastn" or "blastp"

    # Seeding
    word_size: int = 11  # 11 for blastn, 3 for blastp
    neighbor_threshold: int = 11  # protein neighbourhood word score T
    two_hit_window: int = 40  # protein two-hit trigger window (0 = one-hit)

    # Scoring
    reward: int = 1
    penalty: int = -2
    gap_open: int = 5
    gap_extend: int = 2

    # Extension control
    xdrop_ungapped: float = 20.0
    xdrop_gapped: float = 30.0
    #: NCBI's gap trigger, in bits of the *ungapped* statistics
    #: (``BLAST_GAP_TRIGGER_NUCL`` = 27, ``BLAST_GAP_TRIGGER_PROT`` = 22, the
    #: latter set by :meth:`blastp`).  An ungapped extension reaches the
    #: gapped stage when its raw score is at least ``min(raw score of these
    #: bits, E-value cutoff score in the whole-DB search space)``: a bare
    #: blastn 11-mer is 21.8 bits and needs two more matches to get in, and
    #: when a loose ``evalue`` puts the cutoff score under the trigger,
    #: whatever could be reported on its own is admitted.
    ungapped_cutoff_bits: float = 27.0
    #: gapped extension band half-width; also how far off a gapped
    #: alignment's seed diagonal the engine's containment rule reaches
    band_width: int = 48
    #: scan-slab bound of the engine's round-based scheduler: more subjects
    #: are streamed into the open pool only while the word-hit rows held
    #: across open subjects stay below this, so stage-1 intermediates are a
    #: bounded slab instead of a whole-partition materialisation.
    fused_slab_rows: int = 65536

    # Reporting
    evalue: float = 10.0
    max_hits: int = 500  # hitlist size (top-K per query)

    # Masking
    dust: bool = True  # nucleotide low-complexity filter
    seg: bool = False  # protein low-complexity filter (NCBI default: off)

    # DB-split support: effective database size override
    db_length_override: int | None = None  # total DB residues (all partitions)
    db_num_seqs_override: int | None = None  # total DB sequence count

    def __post_init__(self) -> None:
        if self.program not in ("blastn", "blastp", "blastx"):
            raise ValueError(f"unknown program {self.program!r}")
        if self.word_size < 2:
            raise ValueError(f"word_size must be >= 2, got {self.word_size}")
        if self.program in ("blastp", "blastx") and self.word_size > 5:
            raise ValueError(
                f"protein-scored word_size must be small (2-5), got {self.word_size}"
            )
        if self.reward <= 0 or self.penalty >= 0:
            raise ValueError("reward must be > 0 and penalty < 0")
        if self.gap_open < 0 or self.gap_extend <= 0:
            raise ValueError("gap_open must be >= 0 and gap_extend > 0")
        if self.evalue <= 0:
            raise ValueError(f"evalue cutoff must be positive, got {self.evalue}")
        if self.max_hits < 1:
            raise ValueError(f"max_hits must be >= 1, got {self.max_hits}")
        if self.band_width < 1:
            raise ValueError(f"band_width must be >= 1, got {self.band_width}")
        if self.fused_slab_rows < 1:
            raise ValueError(
                f"fused_slab_rows must be >= 1, got {self.fused_slab_rows}"
            )

    @staticmethod
    def blastn(**overrides) -> "BlastOptions":
        """Classic nucleotide defaults (word 11, +1/-2, dust on)."""
        return BlastOptions(program="blastn", **overrides)

    @staticmethod
    def blastp(**overrides) -> "BlastOptions":
        """Classic protein defaults (word 3, BLOSUM62, two-hit, T=11)."""
        base = dict(
            program="blastp",
            word_size=3,
            gap_open=11,
            gap_extend=1,
            xdrop_ungapped=16.0,
            xdrop_gapped=38.0,
            ungapped_cutoff_bits=22.0,
            dust=False,
        )
        base.update(overrides)
        return BlastOptions(**base)

    @staticmethod
    def blastx(**overrides) -> "BlastOptions":
        """Translated search: protein scoring over 6-frame DNA queries."""
        overrides.setdefault("program", "blastx")
        return BlastOptions.blastp(**overrides)

    def with_db_size(self, total_length: int, num_seqs: int) -> "BlastOptions":
        """Copy with the effective-DB-size override set (DB-split mode)."""
        if total_length <= 0 or num_seqs <= 0:
            raise ValueError("db size override values must be positive")
        return replace(self, db_length_override=total_length, db_num_seqs_override=num_seqs)
