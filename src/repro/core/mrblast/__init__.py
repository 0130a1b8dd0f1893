"""MR-MPI BLAST (paper Fig. 1)."""

from repro.core.mrblast.workitems import WorkItem, build_work_items, load_query_blocks
from repro.core.mrblast.mapper import MrBlastMapper
from repro.core.mrblast.reducer import MrBlastReducer
from repro.core.mrblast.driver import MrBlastConfig, run_mrblast, mrblast_spmd
from repro.core.mrblast.merge import merge_rank_outputs

__all__ = [
    "WorkItem",
    "build_work_items",
    "load_query_blocks",
    "MrBlastMapper",
    "MrBlastReducer",
    "MrBlastConfig",
    "run_mrblast",
    "mrblast_spmd",
    "merge_rank_outputs",
]
