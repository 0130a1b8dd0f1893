"""The paper's contributions: MR-MPI BLAST and MR-MPI batch SOM.

- :mod:`repro.core.mrblast` — Fig. 1: work units are (query block, DB
  partition) pairs dispatched master/worker; map() runs the serial engine
  and emits (query id, HSP); collate() regroups per query; reduce() sorts by
  E-value, applies top-K and appends to per-rank output files; an outer loop
  over query subsets bounds the in-flight key-value set.
- :mod:`repro.core.mrsom` — Fig. 2: the codebook is broadcast each epoch;
  map() over blocks of a memory-mapped input matrix accumulates Eq. 5's
  numerator/denominator; a direct MPI_Reduce combines them; no reduce()
  stage.
- :mod:`repro.core.baselines` — serial BLAST and serial SOM, the ground
  truth every parallel run must reproduce.
"""

from repro.core.checkpoint import (
    CodebookCheckpoint,
    IterationCheckpoint,
    PoisonList,
)
from repro.core.mrblast.driver import (
    MrBlastConfig,
    mrblast_spmd,
    mrblast_supervised,
    run_mrblast,
)
from repro.core.mrsom.driver import MrSomConfig, mrsom_spmd, mrsom_supervised, run_mrsom

__all__ = [
    "MrBlastConfig",
    "run_mrblast",
    "mrblast_spmd",
    "mrblast_supervised",
    "MrSomConfig",
    "run_mrsom",
    "mrsom_spmd",
    "mrsom_supervised",
    "IterationCheckpoint",
    "CodebookCheckpoint",
    "PoisonList",
]
