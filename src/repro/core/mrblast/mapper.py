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
from dataclasses import dataclass
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
from repro.mrmpi.keyvalue import KeyValue
from repro.obs.trace import current_tracer

__all__ = ["MrBlastMapper", "MapperStats", "MapUnitError", "exclude_self_hits", "unit_key"]


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


@dataclass
class MapperStats:
    """Per-rank instrumentation mirroring what Fig. 5 plots.

    The per-stage seconds break the engine's busy time into seeding
    (lookup build/fetch + scans), ungapped extension and gapped extension;
    ``lookup_cache_hits`` counts work units whose query-block lookup table
    came out of the cross-partition :class:`~repro.blast.lookup.LookupCache`
    instead of being rebuilt.
    """

    units_processed: int = 0
    partition_switches: int = 0
    hits_emitted: int = 0
    busy_seconds: float = 0.0
    seed_seconds: float = 0.0
    ungapped_seconds: float = 0.0
    gapped_seconds: float = 0.0
    lookup_cache_hits: int = 0
    #: engine scheduler telemetry: total rounds across this rank's units
    #: and the largest per-round intermediate slab any unit held
    fused_rounds: int = 0
    peak_slab_bytes: int = 0
    #: robustness counters: units skipped because their failure budget is
    #: spent, and map() exceptions this rank recorded into the poison ledger
    quarantined_units: int = 0
    map_failures: int = 0


class MrBlastMapper:
    """Callable work-unit executor bound to one rank.

    Caches the open DB partition object and the loaded query blocks between
    invocations; the cache behaviour (how often a rank must re-open a
    different partition) is exactly what the paper's block-size tuning and
    the Fig. 4 crossover are about.
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
    ) -> None:
        # Always search with whole-database statistics (DB-split rule).
        self.options = options.with_db_size(alias.total_length, alias.num_seqs)
        self.alias = alias
        self.query_blocks = query_blocks
        self.hit_filter = hit_filter
        self.stats = MapperStats()
        self._partition: DbPartition | None = None
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
        rank across its whole lifetime: the open DB partition, the
        cross-partition :class:`~repro.blast.lookup.LookupCache` (keyed by
        block *content*, so stale blocks simply age out of the LRU) and the
        engine's Karlin/search-space caches all survive the swap — only the
        queries change between jobs.
        """
        self.query_blocks = query_blocks

    def release(self) -> None:
        """Drop the cached DB partition (called when the rank unwinds)."""
        if self._partition is not None:
            self._partition.release()
            self._partition = None
            self._partition_index = None

    def _get_partition(self, index: int) -> DbPartition:
        if self._partition_index != index:
            if self._partition is not None:
                self._partition.release()
            self._partition = self.alias.open_partition(index)
            self._partition_index = index
            self.stats.partition_switches += 1
        assert self._partition is not None
        return self._partition

    def __call__(self, itask: int, item: WorkItem, kv: KeyValue) -> None:
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
            self.stats.quarantined_units += 1
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
            self.stats.map_failures += 1
            if trc.enabled:
                trc.instant("mrblast.unit.failed", cat="driver", unit=key,
                            error=repr(exc))
            if self.poison is not None:
                self.poison.record_failure(key, repr(exc))
            raise MapUnitError(key, exc) from exc

    def _execute(self, item: WorkItem, kv: KeyValue) -> None:
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
        self.stats.hits_emitted += len(hits)
        t1 = time.perf_counter()
        self.stats.units_processed += 1
        self.stats.busy_seconds += t1 - t0
        last = self._engine.last_stats
        self.stats.seed_seconds += last.seed_seconds
        self.stats.ungapped_seconds += last.ungapped_seconds
        self.stats.gapped_seconds += last.gapped_seconds
        self.stats.lookup_cache_hits += last.lookup_cache_hits
        self.stats.fused_rounds += last.fused_rounds
        self.stats.peak_slab_bytes = max(self.stats.peak_slab_bytes, last.peak_slab_bytes)
        if trc.enabled:
            # The attrs are the very floats added to MapperStats above, so
            # trace-derived stage sums match the counters bit-for-bit.
            trc.end(sid, busy_s=t1 - t0, seed_s=last.seed_seconds,
                    ungapped_s=last.ungapped_seconds,
                    gapped_s=last.gapped_seconds, hits=len(hits),
                    fused_rounds=last.fused_rounds,
                    slab_bytes=last.peak_slab_bytes)
