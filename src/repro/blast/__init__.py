"""From-scratch BLAST: the serial search engine the paper wraps.

The paper's mrblast calls an unmodified serial NCBI BLAST through its C++
toolkit API.  This package is that substrate, implemented in Python with the
same architecture NCBI describes (and the paper summarises in §II.B):

1. **Scan** — a word lookup table is built over a *block of query
   sequences*; each database sequence is streamed past it.  Nucleotide
   search uses exact fixed-size words; protein search uses neighbourhood
   words scoring ≥ T under BLOSUM62.
2. **Ungapped extension** — word hits are extended without gaps under an
   X-drop rule (two-hit trigger for protein).
3. **Gapped extension** — surviving HSPs get a banded affine-gap X-drop
   extension with traceback.

Every surviving alignment is scored with Karlin-Altschul statistics (λ, K
computed from the score system; E-values with length adjustment).  The
database is stored in partitioned 2-bit packed volumes built by
:mod:`repro.blast.formatdb` — the equivalent of NCBI formatdb that the paper
runs over its 364 Gbp database — and the **effective DB length can be
overridden**, which is the property DB-split parallelisation relies on: each
partition search reports E-values as if against the whole database, so hits
merge correctly in the reduce step.
"""

from repro.blast.options import BlastOptions
from repro.blast.hsp import HSP
from repro.blast.matrices import BLOSUM62, nucleotide_matrix
from repro.blast.karlin import KarlinParams, karlin_params
from repro.blast.statistics import bit_score, effective_lengths
from repro.blast.formatdb import DatabaseWriter, format_database
from repro.blast.dbreader import DatabaseAlias, DbPartition
from repro.blast.engine import BlastnEngine, BlastpEngine, make_engine
from repro.blast.blastx import BlastxEngine
from repro.blast.tblastn import TblastnEngine
from repro.blast.tabular import format_tabular, parse_tabular
from repro.blast.pairwise import render_pairwise

__all__ = [
    "BlastOptions",
    "HSP",
    "BLOSUM62",
    "nucleotide_matrix",
    "KarlinParams",
    "karlin_params",
    "bit_score",
    "effective_lengths",
    "format_database",
    "DatabaseWriter",
    "DatabaseAlias",
    "DbPartition",
    "BlastnEngine",
    "BlastpEngine",
    "BlastxEngine",
    "TblastnEngine",
    "make_engine",
    "format_tabular",
    "parse_tabular",
    "render_pairwise",
]
