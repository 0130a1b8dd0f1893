"""The four workloads: seeded generators, oracles, measured regions.

Every input (community, database, read sample, arrival schedule, key
stream, SOM matrix) derives from the seed; the program under test receives
only the generated inputs.  Oracles are serial and are computed once per
invocation, outside every timed region.  All jobs run on the process
backend, passed explicitly, with rank counts fixed here: busy ranks never
exceed the two cores the suite requires.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.bio import shred_records, synthetic_community, synthetic_nt_database
from repro.bio.seq import SeqRecord
from repro.blast import BlastOptions, DatabaseAlias, format_database, format_tabular
from repro.core import MrBlastConfig, mrblast_spmd
from repro.core.baselines.serial_blast import run_serial_blast
from repro.core.baselines.serial_som import run_serial_batch_som
from repro.core.mrblast.driver import run_mrblast
from repro.core.mrsom.driver import MrSomConfig, mrsom_spmd, run_mrsom
from repro.core.mrsom.mmap_input import MatrixFile, write_matrix_file
from repro.mrmpi import MapReduce, MapStyle, RecordSchema
from repro.obs.trace import TraceSession
from repro.serve import AdmissionError, QueryService, ServeConfig
from repro.som.codebook import SOMGrid

import measure
import probes
from measure import (BACKEND, NoSpans, Region, Spans, percentile, row, spmd, summarize,
                     time_repeats, timing_row)

MIN_REPEATS = 3
SETUP_REPS = 21


class Workload:
    """Common shape: generate inputs, time the job, check it, time the set-up."""

    name = ""
    ranks = 0
    FULL: dict = {}
    SMOKE: dict = {}

    def __init__(self, seed: int, smoke: bool, work: str, seconds: float):
        self.seed = seed
        self.p = dict(self.SMOKE if smoke else self.FULL)
        self.work = os.path.join(work, self.name)
        self.seconds = seconds
        self._dirs = 0
        os.makedirs(self.work)
        self.generate()
        #: what :meth:`oracle` returned, handed over by the runner: it is
        #: computed in another process, so that ranks forked from this one
        #: do not inherit (and report as their own RSS) the oracle's heap
        self.expected = None

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.work, f"{label}{self._dirs}")
        os.makedirs(path)
        return path

    # -- what a workload defines ---------------------------------------
    def generate(self) -> None:
        """Inputs from the seed, plus the working copy the jobs read."""
        raise NotImplementedError

    def oracle(self):
        """Expected outputs, computed serially."""
        raise NotImplementedError

    def setup_components(self) -> list:
        """(label, fn(i), reps): the system's own set-up steps."""
        raise NotImplementedError

    def job(self, spans, **kw):
        """Run the measured region once; returns (Region, output)."""
        raise NotImplementedError

    def failed_ops(self, output) -> int:
        raise NotImplementedError

    # -- measurement ----------------------------------------------------
    def setup_rows(self) -> list[dict]:
        """``setup_s``: sum of per-component medians, each run several times."""
        parts = [(label, time_repeats(fn, reps))
                 for label, fn, reps in self.setup_components()]
        total = row("setup_s", sum(s["median"] for _l, s in parts), "s",
                    n=min(s["n"] for _l, s in parts),
                    spread=max(s["spread"] for _l, s in parts))
        return [total] + [timing_row(f"setup.{label}_s", s, pick="median")
                          for label, s in parts]

    def untraced(self):
        """End-to-end pass: one discarded warm-up, then best of k repeats.

        Set-up is timed last: ranks are forked from this process and inherit
        its heap, so whatever the in-process set-up steps leave behind would
        be reported as every later rank's own resident memory.
        """
        _reg, out = self.job(NoSpans())
        # Peak RSS of one job's ranks, read before any other rank is reaped:
        # the running maximum over every later job would also pick up each
        # rare heap-fragmentation outlier (one job in ~30 peaks 25 % high).
        peak_rss = measure.peak_rank_rss_mib()
        failed = self.failed_ops(out)
        attempted = self.ops
        walls, cpus = [], []
        t_end = time.perf_counter() + self.seconds
        while len(walls) < MIN_REPEATS or time.perf_counter() < t_end:
            reg, out = self.job(NoSpans())
            failed += self.failed_ops(out)
            attempted += self.ops
            walls.append(reg.wall)
            cpus.append(reg.cpu)
        wall = summarize(walls)
        rows = [
            timing_row("wall_s", wall),
            timing_row("cpu_s", summarize(cpus), unit="core-s"),
            row("peak_rss_mb", peak_rss, "MiB"),
            # A closed batch job is its own single request: its latency is
            # its time to solution.
            timing_row("latency_p50_ms", wall, unit="ms", scale=1e3),
        ]
        return self.setup_rows() + rows, attempted, failed

    def traced(self):
        """Per-layer pass; returns (rows, attempted, failed, spans)."""
        raise NotImplementedError

    @staticmethod
    def sched_rows(results) -> list[dict]:
        """repro.sched counters of a job's ranks: all 0 on a clean run."""
        return [row(f"sched.{kind}_units", sum(getattr(r, f"{kind}_units") for r in results),
                    "count") for kind in ("speculated", "wasted", "reassigned")]

    @staticmethod
    def harness_row(traced: Region, plain: Region) -> dict:
        """What the runner's own spans cost: traced against untraced wall."""
        return row("harness.trace_overhead_frac", (traced.wall - plain.wall) / plain.wall, "frac")

    def warm_then_plain(self):
        """A discarded warm-up job, then the untraced job the traced one is
        compared with (the first job of a process runs 1.0-1.5x slow)."""
        _reg, out = self.job(NoSpans())
        failed = self.failed_ops(out)
        plain, out = self.job(NoSpans())
        return plain, failed + self.failed_ops(out)


# ----------------------------------------------------------------- blast


def _dna_inputs(p: dict, seed: int, n_reads: int, rename: bool):
    """Community, database and a seeded read sample shredded from it."""
    # No tandem-repeat arrays: whether one of a run's few reads lands on a
    # genome's single array is a coin the seed tosses, and it moved peak RSS
    # between 75 and 102 MiB and wall by +-5 % from seed to seed.
    com = synthetic_community(n_genomes=p["genomes"], genome_length=p["genome_len"],
                              seed=seed, repeat_fraction=0.0)
    db = synthetic_nt_database(com, n_decoys=p["decoys"], decoy_length=p["decoy_len"],
                               homolog_rate=0.05, seed=seed + 1)
    # Stratified sample: read i comes from genome i mod G, so every block or
    # batch of G reads has the same make-up and meets each DB partition with
    # the same number of true hits whatever the seed.  Full-length fragments
    # only, in seeded order; a stream longer than the pool starts over.
    rng = np.random.default_rng(seed + 2)
    pools = [[f for f in shred_records([g]) if len(f.seq) == 400] for g in com.genomes]
    for pool in pools:
        rng.shuffle(pool)
    reads = []
    for i in range(n_reads):
        pool = pools[i % len(pools)]
        reads.append(pool[(i // len(pools)) % len(pool)])
    if rename:
        reads = [SeqRecord(f"q{i:05d}", r.seq, r.id) for i, r in enumerate(reads)]
    return db, reads


def _open_everything(comm, alias_path):
    """Rank bring-up: load the alias, open every partition (decoding its first
    sequence forces the lazy volume load), meet at a barrier."""
    alias = DatabaseAlias.load(alias_path)
    total = sum(alias.open_partition(i).codes(0).size for i in range(alias.num_partitions))
    comm.barrier()
    return total


def _tabular_bytes(serial: dict) -> dict:
    return {qid: format_tabular(hits).encode("ascii") for qid, hits in serial.items()}


class BlastnBatch(Workload):
    """The paper's section IV job: shredded reads against a partitioned nt DB."""

    name = "blastn_batch"
    ranks = 3
    FULL = dict(genomes=8, genome_len=20_000, decoys=16, decoy_len=50_000,
                reads=64, block=16, blocks_per_iteration=2, volume_bytes=70_000,
                probe_proteins=(6, 4, 300))
    SMOKE = dict(genomes=3, genome_len=2_000, decoys=2, decoy_len=1_200,
                 reads=8, block=2, blocks_per_iteration=2, volume_bytes=1_500,
                 probe_proteins=(2, 2, 120))

    def generate(self):
        p = self.p
        self.db, reads = _dna_inputs(p, self.seed, p["reads"], rename=False)
        self.blocks = [reads[i:i + p["block"]] for i in range(0, len(reads), p["block"])]
        self.ops = len(reads)
        self.options = BlastOptions.blastn(evalue=1e-4, max_hits=25)
        self.alias = self.format(self.fresh_dir("db"))

    def oracle(self):
        return _tabular_bytes(run_serial_blast(self.alias, self.blocks, self.options))

    def format(self, out_dir):
        return str(format_database(self.db, out_dir, "nt", kind="dna",
                                   max_volume_bytes=self.p["volume_bytes"]))

    def setup_components(self):
        return [
            ("format_database", lambda i: self.format(self.fresh_dir("fmt")), SETUP_REPS),
            ("rank_bringup",
             lambda i: spmd(NoSpans(), "bringup", self.ranks, _open_everything, self.alias),
             SETUP_REPS),
        ]

    def job(self, spans, nprocs=None, trace=None):
        cfg = MrBlastConfig(
            alias_path=self.alias, query_blocks=self.blocks, options=self.options,
            output_dir=self.fresh_dir("out"), spool_dir=self.work,
            blocks_per_iteration=self.p["blocks_per_iteration"],
            locality_aware=True, backend=BACKEND)
        nprocs = nprocs or self.ranks
        with Region() as reg:
            if spans.enabled:
                cfg.validate()
                results = spmd(spans, "run_mrblast", nprocs, run_mrblast, cfg, trace=trace)
            else:
                results = mrblast_spmd(nprocs, cfg, trace=trace)
        return reg, results

    def failed_ops(self, results) -> int:
        """Queries whose merged rank-file bytes differ from the serial oracle."""
        got: dict[str, bytes] = {}
        for res in results:
            with open(res.output_path, "rb") as fh:
                for line in fh:
                    qid = line.split(b"\t", 1)[0].decode("ascii")
                    got[qid] = got.get(qid, b"") + line
        return sum(got.get(q) != self.expected.get(q) for q in set(got) | set(self.expected))

    def traced(self):
        spans = Spans(self.name)
        workers = self.ranks - 1
        with spans.span("format_database"):
            self.format(self.fresh_dir("fmt"))
        plain, failed = self.warm_then_plain()
        reg, results = self.job(spans)
        failed += self.failed_ops(results)
        session = TraceSession(self.ranks)
        with spans.span("mrblast_spmd.obs"):
            obs, out = self.job(NoSpans(), trace=session)
        failed += self.failed_ops(out)
        with spans.span("mrblast_spmd.serial"):
            serial, out = self.job(NoSpans(), nprocs=1)
        failed += self.failed_ops(out)

        total = lambda field: sum(getattr(r, field) for r in results)
        slowest = lambda field: max(getattr(r, field) for r in results)
        phases = max(r.map_seconds + r.collate_seconds + r.reduce_seconds for r in results)
        launch = measure.launch_overhead(spans, "run_mrblast")
        rows = [
            row("blast.formatdb_s", spans.seconds("format_database"), "s"),
            row("blast.seed_s", total("seed_seconds"), "s"),
            row("blast.ungapped_s", total("ungapped_seconds"), "s"),
            row("blast.gapped_s", total("gapped_seconds"), "s"),
            row("blast.lookup_cache_hits", total("lookup_cache_hits"), "count"),
            row("blast.hits", total("hits_written"), "count"),
            row("blast.fused_rounds", total("fused_rounds"), "count"),
            row("blast.peak_slab_mb", slowest("peak_slab_bytes") / 2**20, "MiB"),
            *probes.blast_probes(spans, self),
            row("mrblast.map_s", slowest("map_seconds"), "s"),
            row("mrblast.collate_s", slowest("collate_seconds"), "s"),
            row("mrblast.reduce_s", slowest("reduce_seconds"), "s"),
            row("mrblast.busy_s", total("busy_seconds"), "s"),
            row("mrblast.units", total("units_processed"), "count"),
            row("mrblast.partition_switches", total("partition_switches"), "count"),
            row("mrblast.shuffle_bytes", total("shuffle_bytes_moved"), "count"),
            row("mrblast.utilization", total("busy_seconds") / (workers * reg.wall), "frac"),
            row("mrblast.serial_wall_s", serial.wall, "s"),
            row("mrblast.speedup", serial.wall / reg.wall, "x"),
            row("mrblast.efficiency", serial.wall / reg.wall / workers, "frac"),
            row("mrblast.launch_s", launch, "s"),
            row("mrblast.unaccounted_frac", 1.0 - (launch + phases) / reg.wall, "frac"),
            *self.sched_rows(results),
            row("obs.trace_overhead_frac", (obs.wall - plain.wall) / plain.wall, "frac"),
            row("obs.events", sum(len(t.events) for t in session.tracers), "count"),
            self.harness_row(reg, plain),
        ]
        return rows, 5 * self.ops, failed, spans


# --------------------------------------------------------------- shuffle

VALUE_DTYPE = np.dtype([("score", "<i8"), ("pos", "<i8"), ("bit", "<f8"), ("evalue", "<f8")])
SHUFFLE_PHASES = ("map", "aggregate", "convert", "reduce")


def _shuffle_schema():
    return RecordSchema(key_dtype="S8", value_dtype=VALUE_DTYPE, key_kind="str")


def _shuffle_phase(comm, rec, label, tasks, keytab, memsize, spool):
    """emit -> aggregate -> convert -> reduce over one key stream."""
    counts = np.zeros(len(keytab), dtype=np.int64)

    def mapper(itask, kids, kv):
        rows = np.zeros(len(kids), dtype=VALUE_DTYPE)
        rows["score"] = kids
        rows["pos"] = np.arange(len(kids))
        kv.add_batch(keytab[kids], rows)

    def reducer(key, values, kv):
        counts[int(key[1:])] = len(values)
        kv.add(key, len(values))

    t0 = time.perf_counter()
    mr = MapReduce(comm, memsize=memsize, mapstyle=MapStyle.CHUNK,
                   schema=_shuffle_schema(), spool_dir=spool)
    try:
        with rec.span(f"{label}.map_items"):
            mr.map_items(tasks, mapper)
        with rec.span(f"{label}.aggregate"):
            mr.aggregate()
        with rec.span(f"{label}.convert"):
            mr.convert()
        with rec.span(f"{label}.reduce"):
            mr.reduce(reducer, out_schema=None)
        stats = mr.shuffle_stats()
        timers = dict(mr.timers)
    finally:
        mr.close()
    comm.barrier()
    return {"counts": counts, "timers": timers, "stats": stats,
            "wall": time.perf_counter() - t0}


def _shuffle_job(comm, rec, tasks_a, tasks_b, keytab, mem_a, mem_b, spool):
    return (_shuffle_phase(comm, rec, "incore", tasks_a, keytab, mem_a, spool),
            _shuffle_phase(comm, rec, "spill", tasks_b, keytab, mem_b, spool))


def _shuffle_bringup(comm, spool):
    mr = MapReduce(comm, memsize=1 << 20, mapstyle=MapStyle.CHUNK,
                   schema=_shuffle_schema(), spool_dir=spool)
    comm.barrier()
    mr.close()


class MrShuffle(Workload):
    """Engine absent: the columnar data plane and the transport do all the work."""

    name = "mr_shuffle"
    ranks = 2
    FULL = dict(pairs_a=3_000_000, pairs_b=1_000_000, keys=30_000, tasks=16,
                mem_a=256 << 20, mem_b=4 << 20)
    SMOKE = dict(pairs_a=60_000, pairs_b=20_000, keys=1_500, tasks=4,
                 mem_a=256 << 20, mem_b=64 << 10)

    def generate(self):
        p = self.p
        rng = np.random.default_rng(self.seed)
        self.keytab = np.array([f"k{k:07d}".encode() for k in range(p["keys"])], dtype="S8")
        self.tasks = [
            np.array_split(rng.integers(p["keys"], size=pairs, dtype=np.int64), p["tasks"])
            for pairs in (p["pairs_a"], p["pairs_b"])]
        self.ops = 2 * p["keys"]

    def oracle(self):
        return [np.bincount(np.concatenate(tasks), minlength=self.p["keys"])
                for tasks in self.tasks]

    def setup_components(self):
        return [("mapreduce_bringup",
                 lambda i: spmd(NoSpans(), "bringup", self.ranks, _shuffle_bringup, self.work),
                 SETUP_REPS)]

    def job(self, spans):
        p = self.p
        with Region() as reg:
            out = spmd(spans, "shuffle", self.ranks, _shuffle_job, self.tasks[0],
                       self.tasks[1], self.keytab, p["mem_a"], p["mem_b"], self.work,
                       rank_spans=True)
        return reg, out

    def failed_ops(self, out) -> int:
        """Keys whose reduced count differs from ``np.bincount`` of the stream."""
        failed = 0
        for phase, expected in enumerate(self.expected):
            got = sum(rank_out[phase]["counts"] for rank_out in out)
            failed += int(np.count_nonzero(got != expected))
        return failed

    def traced(self):
        spans = Spans(self.name)
        p = self.p
        plain, failed = self.warm_then_plain()
        reg, out = self.job(spans)
        failed += self.failed_ops(out)
        incore, spill = out[0]
        moved = lambda key: sum(ph["stats"]["aggregate"][key] for ph in (incore, spill))
        emitted = sum(ph["stats"]["map"]["pairs_moved"] for ph in (incore, spill))
        pairs = p["pairs_a"] + p["pairs_b"]
        rows = [row(f"mrmpi.{phase}_s",
                    max(rank_out[0]["timers"][phase] for rank_out in out), "s")
                for phase in SHUFFLE_PHASES]
        rows = probes.mpi_probes(spans) + rows + [
            row("mrmpi.incore_wall_s", max(r[0]["wall"] for r in out), "s"),
            row("mrmpi.spill_wall_s", max(r[1]["wall"] for r in out), "s"),
            row("mrmpi.pairs_per_s", pairs / reg.wall, "1/s"),
            row("mrmpi.pairs_moved", moved("pairs_moved"), "count"),
            row("mrmpi.bytes_moved", moved("bytes_moved"), "count"),
            row("mrmpi.reducer_size_max", int(max(e.max() for e in self.expected)), "count"),
            row("mrmpi.replication_rate", emitted / pairs, "x"),
            self.harness_row(reg, plain),
        ]
        return rows, 3 * self.ops, failed, spans


# ------------------------------------------------------------------- som


def _map_matrix(comm, path):
    """Rank bring-up: map the matrix, touch it, meet at a barrier."""
    matrix = MatrixFile(path)
    total = float(matrix.rows(0, matrix.n).sum())
    comm.barrier()
    return total


class SomBatch(Workload):
    """The paper's Fig. 6 shape scaled down: SOM kernels plus dense Bcast/Reduce."""

    name = "som_batch"
    ranks = 3
    FULL = dict(vectors=1_280, dim=256, side=50, block_rows=40, epochs=2)
    SMOKE = dict(vectors=160, dim=16, side=8, block_rows=40, epochs=2)

    def generate(self):
        p = self.p
        self.data = np.random.default_rng(self.seed).random((p["vectors"], p["dim"]))
        self.matrix_path = write_matrix_file(os.path.join(self.work, "vectors.bin"), self.data)
        self.cfg = MrSomConfig(
            matrix_path=self.matrix_path, grid=SOMGrid(p["side"], p["side"]),
            epochs=p["epochs"], block_rows=p["block_rows"], seed=self.seed,
            mapstyle=MapStyle.MASTER_WORKER, reduce_mode="mpi", backend=BACKEND)
        self.ops = p["epochs"]

    def oracle(self):
        return run_serial_batch_som(self.cfg)

    def setup_components(self):
        return [
            ("write_matrix_file",
             lambda i: write_matrix_file(os.path.join(self.fresh_dir("mat"), "v.bin"), self.data),
             SETUP_REPS),
            ("rank_bringup",
             lambda i: spmd(NoSpans(), "bringup", self.ranks, _map_matrix, self.matrix_path),
             SETUP_REPS),
        ]

    def job(self, spans, nprocs=None):
        nprocs = nprocs or self.ranks
        with Region() as reg:
            if spans.enabled:
                self.cfg.validate()
                results = spmd(spans, "run_mrsom", nprocs, run_mrsom, self.cfg)
            else:
                results = mrsom_spmd(nprocs, self.cfg)
        return reg, results

    def failed_ops(self, results) -> int:
        """MASTER_WORKER summation order is not run-to-run deterministic, so
        the codebook is held to rtol 1e-9 of the serial one, not to a digest;
        one wrong codebook fails every epoch that built it."""
        ok = all(np.allclose(r.codebook, self.expected, rtol=1e-9, atol=0.0) for r in results)
        return 0 if ok else self.ops

    def traced(self):
        spans = Spans(self.name)
        workers = self.ranks - 1
        plain, failed = self.warm_then_plain()
        reg, results = self.job(spans)
        failed += self.failed_ops(results)
        with spans.span("mrsom_spmd.serial"):
            serial, out = self.job(NoSpans(), nprocs=1)
        failed += self.failed_ops(out)
        total = lambda field: sum(getattr(r, field) for r in results)
        slowest = lambda field: max(getattr(r, field) for r in results)
        launch = measure.launch_overhead(spans, "run_mrsom")
        accounted = launch + max(
            r.busy_seconds + r.bcast_seconds + r.reduce_seconds for r in results)
        rows = [
            row("mrsom.busy_s", total("busy_seconds"), "s"),
            row("mrsom.bcast_s", slowest("bcast_seconds"), "s"),
            row("mrsom.reduce_s", slowest("reduce_seconds"), "s"),
            row("mrsom.units", total("units_processed"), "count"),
            row("mrsom.utilization", total("busy_seconds") / (workers * reg.wall), "frac"),
            row("mrsom.serial_wall_s", serial.wall, "s"),
            row("mrsom.efficiency", serial.wall / reg.wall / workers, "frac"),
            row("mrsom.launch_s", launch, "s"),
            row("mrsom.unaccounted_frac", 1.0 - accounted / reg.wall, "frac"),
            *probes.som_probes(spans, self),
            *self.sched_rows(results),
            self.harness_row(reg, plain),
        ]
        return rows, 4 * self.ops, failed, spans


# ----------------------------------------------------------------- serve


def _retag(data: bytes, old: str, new: str) -> bytes:
    """The same tabular block under another query id (column one)."""
    return b"".join(new.encode("ascii") + line[len(old):]
                    for line in data.splitlines(keepends=True))


class ServePaced(Workload):
    """Resident QueryService under a seeded open-loop arrival schedule."""

    name = "serve_paced"
    ranks = 3
    FULL = dict(genomes=4, genome_len=14_000, decoys=4, decoy_len=14_000, partitions=4,
                rate=15.0, min_queries=60, warmup=16, solo=24, start_reps=7)
    SMOKE = dict(genomes=3, genome_len=4_000, decoys=2, decoy_len=1_200, partitions=3,
                 rate=40.0, min_queries=24, warmup=4, solo=4, start_reps=3)
    MAX_BATCH = 8
    MAX_DELAY = 0.02
    PUMP_WAIT = 0.002

    def generate(self):
        p = self.p
        self.n = max(p["min_queries"], round(p["rate"] * self.seconds))
        self.db, reads = _dna_inputs(p, self.seed, self.n + p["warmup"], rename=True)
        self.warmup, self.reads = reads[:p["warmup"]], reads[p["warmup"]:]
        self.options = BlastOptions.blastn(evalue=1e-4, max_hits=25)
        self.alias = self.format(self.fresh_dir("db"))
        # One arrival per 1/rate slot at a seeded offset inside the slot:
        # open loop and bursty (gaps from 0 to 2/rate), but every seed
        # offers the same load, which Poisson gaps at this stream length do
        # not (p50 moved 15 % between seeds from queueing alone).
        jitter = np.random.default_rng(self.seed + 3).random(self.n)
        self.due = (np.arange(self.n) + jitter) / p["rate"]
        self.ops = self.n + p["warmup"]

    def oracle(self):
        """Standalone bytes: each query searched alone in its own block."""
        alone = [[r] for r in self.warmup + self.reads]
        return _tabular_bytes(run_serial_blast(self.alias, alone, self.options))

    def format(self, out_dir):
        packed = sum(len(r.seq) for r in self.db) // 4
        return str(format_database(self.db, out_dir, "nt", kind="dna",
                                   max_volume_bytes=packed // self.p["partitions"] + 512))

    def renamed(self, prefix: str, count: int) -> list[SeqRecord]:
        """Copies of the first ``count`` reads under fresh ids, oracle included:
        the service must never meet an id it has already delivered."""
        copies = []
        for i, rec in enumerate(self.reads[:count]):
            copy = SeqRecord(f"{prefix}{i:05d}", rec.seq, rec.description)
            if rec.id in self.expected:
                self.expected[copy.id] = _retag(self.expected[rec.id], rec.id, copy.id)
            copies.append(copy)
        return copies

    def service(self):
        return QueryService(ServeConfig(
            alias_path=self.alias, nprocs=self.ranks, options=self.options,
            backend=BACKEND, spool_dir=self.work, max_batch=self.MAX_BATCH,
            max_delay=self.MAX_DELAY, max_pending=4 * self.ops))

    def start_to_first_query(self, i):
        svc = self.service().start()
        try:
            fut = svc.submit(self.warmup[0])
            svc.drain(timeout=60.0)
            fut.result(timeout=0.0)
        finally:
            svc.close()

    def setup_components(self):
        return [
            ("format_database", lambda i: self.format(self.fresh_dir("fmt")), SETUP_REPS),
            ("start_to_first_query", self.start_to_first_query, self.p["start_reps"]),
        ]

    def wrong(self, records, futures) -> int:
        """Queries refused, unresolved, or resolved to other than standalone bytes."""
        bad = 0
        for rec, fut in zip(records, futures):
            if fut is None or not fut.done() or fut.exception() is not None:
                bad += 1
            elif fut.result(timeout=0.0) != self.expected.get(rec.id, b""):
                bad += 1
        return bad

    def closed_loop(self, spans, svc, records, label):
        """One client, one query in flight: the no-queue latency floor."""
        futures, latency = [], []
        for rec in records:
            t0 = time.perf_counter()
            with spans.span(f"{label}.submit"):
                fut = svc.submit(rec)
            svc.flush()
            while not fut.done():
                with spans.span(f"{label}.pump"):
                    svc.pump(wait=self.PUMP_WAIT)
            latency.append(time.perf_counter() - t0)
            futures.append(fut)
        return futures, latency

    def stream(self, spans, svc, records, due, label):
        """Submit each record at its due time; latency runs from the due time,
        so a stall of the generator or the service is charged to the queries
        it delayed.  A refused query keeps an infinite latency."""
        n = len(records)
        futures: list = [None] * n
        latency = [float("inf")] * n
        pending: set[int] = set()
        sent, lateness, last_resolve = 0, 0.0, 0.0
        before = dict(svc.stats)
        base = time.perf_counter() + 0.05
        with spans.span(label):
            while sent < n or pending:
                now = time.perf_counter() - base
                while sent < n and due[sent] <= now:
                    lateness = max(lateness, now - due[sent])
                    try:
                        with spans.span(f"{label}.submit"):
                            futures[sent] = svc.submit(records[sent])
                        pending.add(sent)
                    except AdmissionError:
                        pass
                    sent += 1
                wait = self.PUMP_WAIT
                if sent < n:
                    wait = min(wait, max(0.0, due[sent] - (time.perf_counter() - base)))
                with spans.span(f"{label}.pump"):
                    svc.pump(wait=wait)
                now = time.perf_counter() - base
                for i in [i for i in pending if futures[i].done()]:
                    latency[i] = now - due[i]
                    last_resolve = now
                    pending.discard(i)
        return {
            "futures": futures,
            "latency": sorted(latency),
            "wall": last_resolve - due[0],
            "lateness": lateness,
            "batches": svc.stats["batches"] - before["batches"],
            "refused": svc.stats["rejected"] - before["rejected"],
        }

    def session(self, spans, traced: bool):
        """start -> warm-up -> [solo] -> paced stream -> [saturation] -> close."""
        known = {proc.pid for proc in measure.multiprocessing.active_children()}
        out = {}
        with Region() as reg:
            t0 = time.perf_counter()
            with spans.span("QueryService.start"):
                svc = self.service().start()
            out["start_s"] = time.perf_counter() - t0
            try:
                with measure.pinned_service_ranks(known):
                    warm, first = self.closed_loop(spans, svc, self.warmup[:1], "first")
                    out["first_query_s"] = first[0]
                    warm += [svc.submit(rec) for rec in self.warmup[1:]]
                    svc.drain(timeout=60.0)
                    failed = self.wrong(self.warmup, warm)
                    if traced:
                        solo = self.renamed("solo", self.p["solo"])
                        futures, out["solo"] = self.closed_loop(spans, svc, solo, "solo")
                        failed += self.wrong(solo, futures)
                    out["paced"] = self.stream(spans, svc, self.reads, self.due, "paced")
                    failed += self.wrong(self.reads, out["paced"]["futures"])
                    if traced:
                        burst = self.renamed("sat", self.n)
                        out["saturation"] = self.stream(
                            spans, svc, burst, np.zeros(self.n), "saturation")
                        failed += self.wrong(burst, out["saturation"]["futures"])
            finally:
                with spans.span("QueryService.close"):
                    svc.close()
        return reg, out, failed

    def untraced(self):
        reg, out, failed = self.session(NoSpans(), traced=False)
        paced = out["paced"]
        rows = [
            row("wall_s", paced["wall"], "s"),
            row("cpu_s", reg.cpu, "core-s"),
            row("peak_rss_mb", measure.peak_rank_rss_mib(), "MiB"),
            row("latency_p50_ms", percentile(paced["latency"], 50) * 1e3, "ms", n=self.n),
            row("serve.latency_p90_ms", percentile(paced["latency"], 90) * 1e3, "ms", n=self.n),
            row("generator_lateness_max_ms", paced["lateness"] * 1e3, "ms"),
        ]
        return self.setup_rows() + rows, self.ops, failed  # set-up last: see Workload.untraced

    def traced(self):
        spans = Spans(self.name)
        reg, out, failed = self.session(spans, traced=True)
        paced, burst = out["paced"], out["saturation"]
        resolved = [l for l in paced["latency"] if l != float("inf")]
        rows = [
            row("serve.start_s", out["start_s"], "s"),
            row("serve.first_query_ms", out["first_query_s"] * 1e3, "ms"),
            timing_row("serve.solo_query_ms", summarize(out["solo"]), unit="ms",
                       scale=1e3, pick="median"),
            row("serve.batches", paced["batches"], "count"),
            row("serve.mean_batch_size", self.n / max(paced["batches"], 1), "x"),
            row("serve.refused", paced["refused"] + burst["refused"], "count"),
            row("serve.latency_mean_ms", 1e3 * sum(resolved) / max(len(resolved), 1), "ms",
                n=len(resolved)),
            row("serve.latency_p90_ms", percentile(paced["latency"], 90) * 1e3, "ms", n=self.n),
            row("serve.latency_p95_ms", percentile(paced["latency"], 95) * 1e3, "ms", n=self.n),
            row("serve.generator_lateness_max_ms", paced["lateness"] * 1e3, "ms"),
            row("serve.saturation_qps", self.n / burst["wall"], "1/s", n=self.n),
            # The paced stream is schedule-bound, so traced-vs-untraced wall
            # says nothing: charge the harness an empty span's measured cost
            # for every span it recorded inside the stream.
            row("harness.trace_overhead_frac",
                measure.empty_span_seconds() * len(
                    spans.named("paced.pump") + spans.named("paced.submit")) / paced["wall"],
                "frac"),
        ]
        attempted = self.ops + self.p["solo"] + self.n
        return rows, attempted, failed, spans


WORKLOADS = {w.name: w for w in (BlastnBatch, MrShuffle, SomBatch, ServePaced)}
