"""HTC-style matrix-split BLAST workflow (the paper's JCVI/VICS comparison).

"The search was controlled by a VICS workflow execution engine ... that
executed a matrix-split computation as a collection of 960 serial BLAST
jobs followed by a few merge-sort and formatting jobs.  The data files and
intermediate results were stored on a shared [storage] system." (§IV.A)

This baseline runs the same decomposition *functionally*: every (query
block, partition) cell becomes an independent job writing its hits to its
own file on "shared storage" (a directory); merge jobs then combine the
per-cell files per query.  Kept out of the shipped package: the parity
suite checks that its merged hits equal serial BLAST's.  The HTC-vs-MR-MPI
cost comparison is the cluster model's (``repro.figures.comparisons``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.bio.seq import SeqRecord
from repro.blast.dbreader import DatabaseAlias
from repro.blast.engine import make_engine
from repro.blast.hsp import HSP, top_hits
from repro.blast.options import BlastOptions
from repro.blast.tabular import parse_tabular, write_tabular

__all__ = ["HtcWorkflowResult", "run_htc_blast"]


@dataclass
class HtcWorkflowResult:
    """Outcome of the file-based workflow."""

    merged: dict[str, list[HSP]]
    n_jobs: int
    job_seconds: list[float] = field(default_factory=list)
    merge_seconds: float = 0.0

    @property
    def longest_job_seconds(self) -> float:
        return max(self.job_seconds, default=0.0)

    @property
    def total_cpu_seconds(self) -> float:
        return sum(self.job_seconds) + self.merge_seconds


def run_htc_blast(
    alias_path: str,
    query_blocks: Sequence[Sequence[SeqRecord]],
    options: BlastOptions,
    work_dir: str,
) -> HtcWorkflowResult:
    """Run the matrix of serial jobs + merge jobs through the file system."""
    alias = DatabaseAlias.load(alias_path)
    opts = options.with_db_size(alias.total_length, alias.num_seqs)
    os.makedirs(work_dir, exist_ok=True)

    # Phase 1: one independent serial job per matrix cell.
    job_seconds: list[float] = []
    cell_files: list[str] = []
    for p in range(alias.num_partitions):
        partition = alias.open_partition(p)
        for b, block in enumerate(query_blocks):
            t0 = time.perf_counter()
            engine = make_engine(opts)  # each job is a fresh process
            hits = engine.search_block(block, partition)
            path = os.path.join(work_dir, f"job_b{b:04d}_p{p:04d}.tsv")
            write_tabular(hits, path)
            cell_files.append(path)
            job_seconds.append(time.perf_counter() - t0)

    # Phase 2: merge-sort jobs combining the per-cell files.
    t0 = time.perf_counter()
    by_query: dict[str, list[HSP]] = {}
    for path in cell_files:
        for hsp in parse_tabular(path):
            by_query.setdefault(hsp.query_id, []).append(hsp)
    merged = {
        qid: top_hits(hits, opts.max_hits, opts.evalue)
        for qid, hits in by_query.items()
        if top_hits(hits, opts.max_hits, opts.evalue)
    }
    merge_seconds = time.perf_counter() - t0
    return HtcWorkflowResult(
        merged=merged,
        n_jobs=len(cell_files),
        job_seconds=job_seconds,
        merge_seconds=merge_seconds,
    )
