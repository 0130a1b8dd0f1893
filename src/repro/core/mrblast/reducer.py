"""The reduce() side of MR-MPI BLAST.

After collate(), each rank holds, for some subset of query ids, *all* HSPs
found for that query across every DB partition.  The reducer "sorts each
query hits by the E-value, selects the requested number of top hits if such
cutoff is specified by the user and appends hits to the file that is owned
by each rank" (paper §III.A).  Results therefore land in one file per rank,
with each query's hits complete, contiguous and E-value-sorted within it.

The driver truncates each rank's file once at startup; the reducer only
ever appends, so multiple MapReduce iterations accumulate into the same
per-rank file exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.blast.hsp import HSP, top_hits
from repro.blast.options import BlastOptions
from repro.blast.tabular import format_tabular, write_tabular

__all__ = ["MrBlastReducer"]


@dataclass
class MrBlastReducer:
    """Callable KMV reducer: a query's top-K hits, into one of two sinks.

    With ``output_path`` the hits are appended to that rank's file, the
    paper's batch output.  Without one they are demultiplexed by query id
    into :attr:`results`, one outfmt-6 byte block per query: the resident
    service (:mod:`repro.serve`) streams each query's results back to its
    submitter, byte-identical to the slice a one-shot ``run_mrblast``
    would have appended for it.  Either way the reducer emits no pairs.
    """

    options: BlastOptions
    output_path: str | None = None
    #: query id -> encoded outfmt-6 block, when demultiplexing (empty
    #: queries never appear)
    results: dict[str, bytes] = field(default_factory=dict)
    #: number of queries and hits this rank wrote (instrumentation)
    queries_written: int = 0
    hits_written: int = 0

    def __call__(self, query_id: str, hsps: list[HSP], kv) -> None:
        selected = top_hits(hsps, self.options.max_hits, self.options.evalue)
        if not selected:
            return
        if self.output_path is None:
            self.results[query_id] = format_tabular(selected).encode("ascii")
        else:
            write_tabular(selected, self.output_path, append=True)
        self.queries_written += 1
        self.hits_written += len(selected)
