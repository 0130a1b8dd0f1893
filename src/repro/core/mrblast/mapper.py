"""The map() side of MR-MPI BLAST.

Each map() invocation searches one query block against one DB partition with
the serial engine and emits one ``(query id, HSP)`` key-value pair per hit.
Per the paper: "The DB object is cached between map() invocations on a given
rank, and only re-initialized if the different DB partition is required",
and "the DB length is overridden in the BLAST call to be the entire length
of the DB".  A self-hit filter reproduces the paper's "exclude the hits of
the RefSeq fragments against themselves" modification.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from repro.bio.seq import SeqRecord
from repro.bio.shred import parent_id
from repro.blast.dbreader import DatabaseAlias, DbPartition
from repro.blast.engine import make_engine
from repro.blast.hsp import HSP
from repro.blast.lookup import LookupCache
from repro.blast.options import BlastOptions
from repro.core.checkpoint import PoisonList
from repro.core.mrblast.workitems import WorkItem
from repro.mpi.exceptions import MPIError
from repro.mrmpi.columnar import ColumnarKeyValue
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import current_tracer

__all__ = ["MrBlastMapper", "MapUnitError", "exclude_self_hits", "unit_key"]


def unit_key(item: WorkItem) -> str:
    """Stable poison-ledger key for one (block, partition) work unit."""
    return f"b{item.block_index}:p{item.partition_index}"


class MapUnitError(RuntimeError):
    """A work unit's map() raised; carries the unit key for the poison ledger."""

    def __init__(self, key: str, cause: BaseException) -> None:
        super().__init__(f"work unit {key} failed: {cause!r}")
        self.unit_key = key


def exclude_self_hits(query_id: str, hsp: HSP) -> bool:
    """True when the hit is a shredded fragment matching its own parent."""
    return parent_id(query_id) == hsp.subject_id or f"db_{parent_id(query_id)}" == hsp.subject_id


class MrBlastMapper:
    """Callable work-unit executor bound to one rank.

    Keeps every DB partition it opens, mapped lazily, for the rank's life,
    so a unit on another partition than the last one is a dict lookup.
    That switch is still counted (``mrblast.partition_switches``): how
    often a rank changes partitions is what the paper's block-size tuning,
    the Fig. 4 crossover and locality-aware dispatch are about.

    What Fig. 5 plots goes into ``metrics`` (the ``mrblast.*`` and
    ``blast.*`` names of :mod:`repro.obs.metrics`), with units skipped
    because their failure budget is spent (``mrblast.quarantined_units``)
    and failures recorded into the poison ledger (``mrblast.map_failures``).
    """

    def __init__(
        self,
        alias: DatabaseAlias,
        query_blocks: Sequence[Sequence[SeqRecord]],
        options: BlastOptions,
        hit_filter: Callable[[str, HSP], bool] | None = None,
        lookup_cache_blocks: int = 8,
        poison: PoisonList | None = None,
        fault_injector: Callable[[WorkItem], None] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        # Always search with whole-database statistics (DB-split rule).
        self.options = options.with_db_size(alias.total_length, alias.num_seqs)
        self.alias = alias
        self.query_blocks = query_blocks
        self.hit_filter = hit_filter
        self.metrics = MetricsRegistry() if metrics is None else metrics
        count = self.metrics.counter
        self._units, self._busy = count("mrblast.units"), count("mrblast.busy_s")
        self._switches = count("mrblast.partition_switches")
        self._hits = count("mrblast.hits_emitted")
        self._stages = [(count(f"blast.{stage}_s"), f"{stage}_seconds")
                        for stage in ("seed", "ungapped", "gapped")]
        self._cache_hits = count("blast.lookup_cache_hits")
        self._rounds = count("blast.fused_rounds")
        self._peak_slab = self.metrics.gauge("blast.peak_slab_bytes")
        self._partitions: dict[int, DbPartition] = {}
        self._partition_index: int | None = None
        self._engine = make_engine(self.options)
        # Query-side mirror of the DB-partition cache: a block searched
        # against m partitions builds its lookup table once, not m times.
        self.lookup_cache: LookupCache | None = (
            LookupCache(capacity=lookup_cache_blocks) if lookup_cache_blocks > 0 else None
        )
        self._engine.set_lookup_cache(self.lookup_cache)
        self.poison = poison
        self.quarantined: frozenset[str] = (
            frozenset(poison.quarantined()) if poison is not None else frozenset()
        )
        self.fault_injector = fault_injector

    def set_query_blocks(self, query_blocks: Sequence[Sequence[SeqRecord]]) -> None:
        """Swap in a new set of query blocks, keeping every warm cache.

        The resident service mode (:mod:`repro.serve`) reuses one mapper per
        rank across its whole lifetime: the open DB partitions, the
        cross-partition :class:`~repro.blast.lookup.LookupCache` (keyed by
        block *content*, so stale blocks simply age out of the LRU) and the
        engine's Karlin/search-space caches all survive the swap — only the
        queries change between jobs.
        """
        self.query_blocks = query_blocks

    def close(self) -> None:
        """Drop the open DB partitions (called when the rank unwinds)."""
        self._partitions.clear()

    def _get_partition(self, index: int) -> DbPartition:
        if index != self._partition_index:
            self._partition_index = index
            self._switches.inc()
        if index not in self._partitions:
            self._partitions[index] = self.alias.open_partition(index)
        return self._partitions[index]

    def __call__(self, itask: int, item: WorkItem, kv: ColumnarKeyValue) -> None:
        """Execute one work unit and emit its hits.

        A unit that has exhausted its failure budget (the poison ledger of
        earlier supervised attempts) is skipped and counted instead of being
        allowed to kill the job again.  A unit that raises here records the
        failure *before* the exception propagates — the whole MPI job is
        about to die, and the ledger is what the relaunch learns from.
        """
        key = unit_key(item)
        trc = current_tracer()
        if key in self.quarantined:
            self.metrics.counter("mrblast.quarantined_units").inc()
            if trc.enabled:
                trc.instant("mrblast.unit.quarantined", cat="driver", unit=key)
            return
        try:
            if self.fault_injector is not None:
                self.fault_injector(item)
            self._execute(item, kv)
        except MPIError:
            raise  # runtime-level failure, not this unit's fault
        except Exception as exc:
            self.metrics.counter("mrblast.map_failures").inc()
            if trc.enabled:
                trc.instant("mrblast.unit.failed", cat="driver", unit=key,
                            error=repr(exc))
            if self.poison is not None:
                self.poison.record_failure(key, repr(exc))
            raise MapUnitError(key, exc) from exc

    def _execute(self, item: WorkItem, kv: ColumnarKeyValue) -> None:
        trc = current_tracer()
        sid = None
        if trc.enabled:
            sid = trc.begin("mrblast.unit", cat="driver",
                            block=item.block_index,
                            partition=item.partition_index)
        t0 = time.perf_counter()
        partition = self._get_partition(item.partition_index)
        queries = self.query_blocks[item.block_index]
        hits = self._engine.search_block(queries, partition)
        if self.hit_filter is not None:
            hits = [h for h in hits if not self.hit_filter(h.query_id, h)]
        # The whole unit's hits become one batch — one key column plus one
        # structured HSP row array.
        kv.add_batch([h.query_id for h in hits], hits)
        self._hits.inc(len(hits))
        t1 = time.perf_counter()
        self._units.inc()
        self._busy.inc(t1 - t0)
        last = self._engine.last_stats
        for counter, field in self._stages:
            counter.inc(getattr(last, field))
        self._cache_hits.inc(last.lookup_cache_hits)
        self._rounds.inc(last.fused_rounds)
        self._peak_slab.raise_to(last.peak_slab_bytes)
        if trc.enabled:
            # The attrs are the very floats added to the counters above, so
            # trace-derived stage sums match them bit-for-bit.
            trc.end(sid, busy_s=t1 - t0, seed_s=last.seed_seconds,
                    ungapped_s=last.ungapped_seconds,
                    gapped_s=last.gapped_seconds, hits=len(hits),
                    fused_rounds=last.fused_rounds,
                    slab_bytes=last.peak_slab_bytes)
