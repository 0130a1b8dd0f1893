"""The one mrblast pipeline: the paper's Fig. 1 superstep, written once.

Master/worker ``map`` over (query block, DB partition) units, ``collate``,
per-query ``reduce``.  The batch driver
(:func:`~repro.core.mrblast.driver.run_mrblast`) wraps outer iterations and
checkpoints around it, the resident service
(:func:`~repro.serve.session.serve_rank_main`) calls it once per coalesced
block, and a dynamically chunked run (:mod:`repro.core.mrblast.dynamic`) is
the batch driver over a lazy block source.  They differ in where the blocks
come from, where the reduce runs (on every rank, or for a service job on
rank 0 alone) and where the reducer puts the hits, so that is all they pass
in.
"""

from __future__ import annotations

import os
from dataclasses import KW_ONLY, dataclass, field
from typing import Callable, Mapping, Sequence

from repro.bio.seq import SeqRecord
from repro.blast.dbreader import DatabaseAlias
from repro.blast.hsp import HSP, top_hits
from repro.blast.options import BlastOptions
from repro.core.checkpoint import PoisonList
from repro.core.mrblast.hspcodec import hsp_schema
from repro.core.mrblast.mapper import MrBlastMapper
from repro.core.mrblast.workitems import WorkItem, build_work_items
from repro.mpi.comm import Comm
from repro.mpi.runtime import resolve_backend
from repro.mrmpi.mapreduce import MapReduce, MapStyle
from repro.sched import SpeculationPolicy

__all__ = ["RuntimeConfig", "BlastPipeline", "check_writable_dir"]


@dataclass
class RuntimeConfig:
    """The runtime knobs every mrblast entry point shares, declared once.

    ``MrBlastConfig``, ``DynamicChunkConfig`` and ``ServeConfig`` extend it
    with what is their own.  Everything after ``alias_path`` is keyword-only.
    """

    alias_path: str
    _: KW_ONLY
    options: BlastOptions = field(default_factory=BlastOptions.blastn)
    #: transport backend (None = REPRO_MPI_BACKEND default; see run_spmd)
    backend: str | None = None
    #: process-backend arena budget in MiB per rank (see run_spmd)
    arena_mb: int | None = None
    #: per-rank page size in bytes before KV/KMV pages spill to disk
    memsize: int = 64 * 1024 * 1024
    work_order: str = "partition_major"
    #: §V improvement: location-aware dispatch — workers preferentially
    #: receive units for the DB partition they already hold, cutting
    #: partition reloads (see the scheduling ablation bench).
    locality_aware: bool = True
    #: capacity (in query blocks) of the per-rank cross-partition lookup
    #: cache: the query-side mirror of the DB-partition cache, letting one
    #: block's stage-1 lookup table be reused across every partition it
    #: meets on a rank.  0 disables caching (the pre-cache behaviour).
    lookup_cache_blocks: int = 8
    #: byte width of the query/subject id columns of the HSP rows;
    #: encoding fails loudly (never truncates) if an id is wider.
    id_width: int = 64
    #: directory for KV/KMV spill files (None = system temp dir)
    spool_dir: str | None = None
    hit_filter: Callable[[str, HSP], bool] | None = None
    #: degraded-mode completion: a worker dying mid-map no longer aborts the
    #: job — its units are reassigned to survivors and the run finishes
    #: degraded, with loss counters in the result.
    degraded: bool = False
    #: straggler mitigation: re-issue a work unit to an idle worker once its
    #: elapsed time exceeds this factor times the running median unit
    #: runtime (None disables speculation).  First completion wins; output
    #: is byte-identical to a no-speculation run.
    speculation_factor: float | None = None
    #: test/chaos hook: called with each WorkItem before it executes; raise
    #: to simulate an application failure inside map()
    unit_fault_injector: Callable[[WorkItem], None] | None = None

    def __post_init__(self) -> None:
        if self.lookup_cache_blocks < 0:
            raise ValueError("lookup_cache_blocks must be >= 0")
        if self.id_width < 1:
            raise ValueError("id_width must be >= 1")
        if self.speculation_factor is not None and self.speculation_factor <= 1.0:
            raise ValueError(
                f"speculation_factor must be > 1.0, got {self.speculation_factor}")

    def validate(self) -> None:
        """Fail-fast checks before any rank spawns.

        One clear error in the launcher beats N ranks aborting mid-map.
        Raises :class:`ValueError` naming the offending field; subclasses
        extend it with their own.
        """
        who = type(self).__name__
        if not os.path.isfile(self.alias_path):
            raise ValueError(f"{who}: alias_path {self.alias_path!r} does not exist")
        try:
            DatabaseAlias.load(self.alias_path)
        except Exception as exc:
            raise ValueError(
                f"{who}: alias_path {self.alias_path!r} is not a readable "
                f"database alias ({exc})"
            ) from exc
        if self.memsize < 1:
            raise ValueError(f"{who}: memsize must be >= 1, got {self.memsize}")
        if self.work_order not in ("partition_major", "query_major"):
            raise ValueError(f"{who}: unknown work_order {self.work_order!r}")
        resolve_backend(self.backend)
        if self.spool_dir is not None:
            check_writable_dir(self.spool_dir, f"{who}: spool_dir")


def check_writable_dir(path: str, what: str) -> None:
    """Create ``path`` if needed and prove a file can be written there."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"{what} {path!r} cannot be created ({exc})") from exc
    probe = os.path.join(path, ".write-probe")
    try:
        with open(probe, "w") as fh:
            fh.write("")
        os.unlink(probe)
    except OSError as exc:
        raise ValueError(f"{what} {path!r} is not writable ({exc})") from exc


class BlastPipeline:
    """One rank's warm mrblast state and the Fig. 1 iteration over it.

    Built once per rank and kept for its lifetime: the mapper holds the open
    DB partition and the lookup cache, the ``MapReduce`` handle its
    communicator, spool directory and cumulative counters.  HSPs travel as
    structured rows (:func:`~repro.core.mrblast.hspcodec.hsp_schema`).
    """

    def __init__(
        self,
        comm: Comm,
        config: RuntimeConfig,
        query_blocks: Sequence[Sequence[SeqRecord]] = (),
        *,
        mapstyle: MapStyle = MapStyle.MASTER_WORKER,
        poison: PoisonList | None = None,
    ) -> None:
        self.config = config
        self.alias = DatabaseAlias.load(config.alias_path)
        self.mapper = MrBlastMapper(
            self.alias,
            query_blocks,
            config.options,
            hit_filter=config.hit_filter,
            lookup_cache_blocks=config.lookup_cache_blocks,
            poison=poison,
            fault_injector=config.unit_fault_injector,
        )
        self.mr = MapReduce(
            comm,
            memsize=config.memsize,
            mapstyle=mapstyle,
            spool_dir=config.spool_dir,
            schema=hsp_schema(config.id_width),
        )
        self.speculation = (
            SpeculationPolicy(factor=config.speculation_factor)
            if config.speculation_factor is not None
            else None
        )

    def iterate(
        self,
        query_order: Mapping[str, int],
        reducer: Callable,
        *,
        block_range: Sequence[int] | None = None,
        combiner: bool = False,
        reduce_at_root: bool = False,
    ) -> int:
        """map → collate → reduce over ``block_range`` of the mapper's blocks
        (default: all of them).

        The reducer meets a rank's queries in ``query_order`` (query id →
        input position).  ``combiner`` applies the per-query top-K locally
        (``compress``) before the shuffle.

        Where the reduce runs is the caller's to say.  By default every
        query is reduced on the rank its key hashes to (``collate``), as
        the paper's per-rank output files need; returns this rank's KV
        ``nbytes`` after map.  With ``reduce_at_root`` every rank's KV moves
        to rank 0 (``gather(1)``), which alone groups, orders and reduces
        it: a service job's answer is delivered from rank 0 anyway, and a
        few HSPs are not worth an all-to-all and its collectives.  Rank 0
        then returns the gathered KV's ``nbytes`` (the job's whole map
        output, which the service's backpressure gauge reads), every other
        rank 0.
        """
        cfg, mr, mapper = self.config, self.mr, self.mapper
        items = build_work_items(
            len(mapper.query_blocks), self.alias.num_partitions, cfg.work_order,
            block_range=block_range,
        )
        mr.reset()
        mr.map_items(
            items,
            mapper,
            locality_key=(lambda it: it.partition_index) if cfg.locality_aware else None,
            speculation=self.speculation,
            degraded=cfg.degraded,
        )
        kv_bytes = mr.kv.nbytes
        if combiner:
            opts = mapper.options

            def combine(qid, hsps, kv):
                for hsp in top_hits(hsps, opts.max_hits, opts.evalue):
                    kv.add(qid, hsp)

            mr.compress(combine)
        if reduce_at_root:
            mr.gather(1)
            if mr.rank != 0:
                return 0
            kv_bytes = mr.kv.nbytes
            mr.convert()
        else:
            mr.collate()
        mr.sort_kmv_keys(key=lambda qid: query_order.get(qid, len(query_order)))
        # The reducer emits plain (query id, hit count) summaries, not HSP
        # rows — its output lives on the object plane.
        mr.reduce(reducer, out_schema=None)
        return kv_bytes

    def close(self) -> None:
        """Reclaim spill pages and the cached DB partition; callers run it
        even when unwinding a crash, so no spill file outlives the job."""
        self.mr.close()
        self.mapper.release()
