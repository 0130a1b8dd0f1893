"""mpiBLAST-like static DB scatter (the comparator the paper moved away from).

mpiBLAST statically assigns database partitions to ranks and streams all
queries past each rank's partitions, collating candidate results afterwards.
There is no dynamic work stealing, so a rank stuck with an expensive
partition becomes the critical path — the behaviour the paper's
master/worker dispatch avoids and the scheduling ablation quantifies.

This functional model, kept out of the shipped package, runs on the
in-process MPI runtime and must produce the same merged hits as mrblast and
serial BLAST (the parity suite checks that); only its *work placement*
differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.bio.seq import SeqRecord
from repro.blast.dbreader import DatabaseAlias
from repro.blast.engine import make_engine
from repro.blast.hsp import HSP, top_hits
from repro.blast.options import BlastOptions
from repro.mpi.comm import Comm
from repro.mpi.runtime import run_spmd

__all__ = ["run_mpiblast_like", "mpiblast_like_spmd"]


@dataclass
class MpiBlastLikeResult:
    rank: int
    partitions_owned: list[int]
    hits: dict[str, list[HSP]]  # rank 0 only: merged results
    units_processed: int


def run_mpiblast_like(
    comm: Comm,
    alias_path: str,
    query_blocks: Sequence[Sequence[SeqRecord]],
    options: BlastOptions,
) -> MpiBlastLikeResult:
    """Static scatter: rank r owns partitions {p : p % size == r}."""
    alias = DatabaseAlias.load(alias_path)
    opts = options.with_db_size(alias.total_length, alias.num_seqs)
    engine = make_engine(opts)
    owned = [p for p in range(alias.num_partitions) if p % comm.size == comm.rank]
    local: list[HSP] = []
    units = 0
    for p in owned:
        partition = alias.open_partition(p)
        for block in query_blocks:
            local.extend(engine.search_block(block, partition))
            units += 1
    gathered = comm.gather(local, root=0)
    merged: dict[str, list[HSP]] = {}
    if comm.rank == 0:
        by_query: dict[str, list[HSP]] = {}
        for rank_hits in gathered:
            for hsp in rank_hits:
                by_query.setdefault(hsp.query_id, []).append(hsp)
        merged = {
            qid: top_hits(hits, opts.max_hits, opts.evalue)
            for qid, hits in by_query.items()
            if top_hits(hits, opts.max_hits, opts.evalue)
        }
    return MpiBlastLikeResult(
        rank=comm.rank, partitions_owned=owned, hits=merged, units_processed=units
    )


def mpiblast_like_spmd(
    nprocs: int,
    alias_path: str,
    query_blocks: Sequence[Sequence[SeqRecord]],
    options: BlastOptions,
) -> list[MpiBlastLikeResult]:
    """Launch an in-process MPI job running the static-scatter baseline."""
    return run_spmd(nprocs, run_mpiblast_like, alias_path, query_blocks, options)
