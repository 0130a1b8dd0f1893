"""Scheduled dispatch on the real runtime: speculative re-execution and
degraded-mode completion of ``MapReduce.map_items``.

The stall/crash timings below are generous (hundreds of milliseconds vs
~10 ms units) so the scheduler decisions under test are forced, not raced.
"""

import time

import pytest

from repro.mpi.exceptions import DegradedRankLoss, MPIError
from repro.mpi.faultplan import FaultPlan
from repro.mpi.runtime import SpmdJob, run_spmd
from repro.mrmpi.columnar import ColumnarKeyValue
from repro.mrmpi.mapreduce import MapReduce, MapStyle, _kept_rows
from repro.mrmpi.schema import UNTYPED
from repro.sched import SpeculationPolicy

NPROCS = 4
BACKENDS = ["thread", "process"]


def _spec_job(comm):
    """12 cheap units; rank 1 stalls 0.8 s on its first unit."""
    mr = MapReduce(comm, mapstyle=MapStyle.MASTER_WORKER)
    first = [True]

    def mapper(itask, item, kv):
        if comm.rank == 1 and first[0]:
            first[0] = False
            time.sleep(0.8)
        else:
            time.sleep(0.01)
        kv.add(str(itask), item * 2)

    mr.map_items(list(range(12)), mapper,
                 speculation=SpeculationPolicy(factor=2.0, warmup=3))
    pairs = sorted((int(k), v) for k, v in mr.kv) if mr.kv is not None else []
    sched = mr.sched
    mr.close()
    return pairs, sched


def _degraded_job(comm):
    mr = MapReduce(comm, mapstyle=MapStyle.MASTER_WORKER)

    def mapper(itask, item, kv):
        time.sleep(0.01)
        kv.add(str(itask), item)

    mr.map_items(list(range(12)), mapper, degraded=True)
    pairs = sorted((int(k), v) for k, v in mr.kv) if mr.kv is not None else []
    sched = mr.sched
    size_after = mr.comm.size
    lost = mr.lost_ranks
    mr.close()
    return pairs, sched, size_after, lost


class TestSpeculation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stalled_unit_is_cloned_and_output_deduped(self, backend):
        results = run_spmd(NPROCS, _spec_job, backend=backend)
        merged = sorted(p for pairs, _ in results for p in pairs)
        # Exactly one copy of every unit survives, loser discarded by id.
        assert merged == [(i, i * 2) for i in range(12)]
        sched = results[0][1]
        assert sched is not None
        assert sched.completed == 12
        assert sched.speculated >= 1
        assert sched.wasted == sched.speculated  # every clone raced a winner
        assert not sched.degraded
        # Every rank got the same broadcast report.
        assert all(r[1] == sched for r in results)

    def test_speculation_ignored_off_master_worker(self):
        def job(comm):
            mr = MapReduce(comm, mapstyle=MapStyle.CHUNK)
            mr.map_items(list(range(8)), lambda i, item, kv: kv.add(str(i), item),
                         speculation=SpeculationPolicy())
            n = len(sorted(mr.kv))
            sched = mr.sched
            mr.close()
            return n, sched

        results = run_spmd(NPROCS, job)
        assert all(sched is None for _n, sched in results)
        assert sum(n for n, _ in results) == 8


class TestDegradedCompletion:
    def _crash_plan(self, job, rank=2):
        """Measure a clean run's op count and aim a crash at a reply in its
        first half: ops pair up as (request, reply), and every reply but the
        last carries a chunk, so the rank dies with units committed and a
        chunk in flight."""
        probe = SpmdJob(NPROCS, job)
        probe.run()
        ops = probe.network.op_count(rank)
        return FaultPlan.parse(f"crash={rank}@{2 * max(1, ops // 4)}", NPROCS)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_death_reassigns_and_completes(self, backend):
        plan = self._crash_plan(_degraded_job)
        results = run_spmd(NPROCS, _degraded_job, fault_plan=plan,
                           backend=backend)
        assert results[2] is None  # the dead rank has no result
        live = [r for r in results if r is not None]
        assert len(live) == NPROCS - 1
        merged = sorted(p for pairs, *_ in live for p in pairs)
        assert merged == [(i, i) for i in range(12)]
        for _pairs, sched, size_after, lost in live:
            assert sched.degraded
            assert sched.lost_ranks == (2,)
            assert sched.reassigned >= 1
            assert size_after == NPROCS - 1  # comm shrank around the corpse
            assert lost == (2,)

    def test_without_degraded_flag_crash_still_aborts(self):
        def job(comm):
            mr = MapReduce(comm, mapstyle=MapStyle.MASTER_WORKER)
            mr.map_items(list(range(12)),
                         lambda i, item, kv: (time.sleep(0.01), kv.add(str(i), item)))
            out = sorted(mr.kv)
            mr.close()
            return out

        plan = self._crash_plan(job)
        with pytest.raises(MPIError):
            SpmdJob(NPROCS, job, fault_plan=plan).run()

    def test_degraded_rank_loss_pickles_roundtrip(self):
        import pickle

        exc = DegradedRankLoss(3, "RankFailure(...)")
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, DegradedRankLoss)
        assert clone.rank == 3


class TestUnitHooks:
    """begin/commit/discard hooks stage side effects per unit."""

    def test_discarded_duplicate_never_commits(self):
        class Mapper:
            def __init__(self, comm):
                self.comm = comm
                self.committed = []
                self.discarded = []
                self.pending = None
                self.first = True

            def begin_unit(self, itask):
                self.pending = itask

            def commit_unit(self, itask):
                self.committed.append(itask)
                self.pending = None

            def discard_unit(self, itask):
                self.discarded.append(itask)
                self.pending = None

            def __call__(self, itask, item, kv):
                if self.comm.rank == 1 and self.first:
                    self.first = False
                    time.sleep(0.8)
                else:
                    time.sleep(0.01)
                kv.add(str(itask), item)

        def job(comm):
            mr = MapReduce(comm, mapstyle=MapStyle.MASTER_WORKER)
            mapper = Mapper(comm)
            mr.map_items(list(range(12)), mapper,
                         speculation=SpeculationPolicy(factor=2.0, warmup=3))
            out = sorted((int(k), v) for k, v in mr.kv)
            sched = mr.sched
            mr.close()
            return out, mapper.committed, mapper.discarded, sched

        results = run_spmd(NPROCS, job)
        merged = sorted(p for pairs, *_ in results for p in pairs)
        assert merged == [(i, i) for i in range(12)]
        committed = sorted(u for _p, c, _d, _s in results for u in c)
        discarded = [u for _p, _c, d, _s in results for u in d]
        sched = results[0][3]
        # Accepted copies commit exactly once per unit; every wasted copy
        # was explicitly discarded on its worker.
        assert committed == list(range(12))
        assert len(discarded) == sched.wasted
        assert sched.wasted >= 1


class TestChunkStaging:
    """A speculative chunk stages into one store; kept units' rows move."""

    def test_only_the_kept_units_rows_leave_the_stage(self):
        stage = ColumnarKeyValue(UNTYPED, pagesize=50)  # pages cut units
        ends = []
        for unit in range(5):
            for j in range(4):
                stage.add(f"{unit}:{j}", unit * 10 + j)
            ends.append(len(stage))
        assert stage.spilled_pages > 1
        kv = ColumnarKeyValue(UNTYPED)
        for rows in _kept_rows(stage.iter_batches(), ends, [True, False, True, True, False]):
            kv.add_wire(rows)
        assert list(kv) == [(f"{u}:{j}", u * 10 + j) for u in (0, 2, 3) for j in range(4)]

    def test_a_chunk_stages_within_one_page(self):
        # Rank 1's first chunk is four units of ~3/8 of a page each.  Staged
        # into a store per unit they would hold 1.5 pages before the reply.
        rows = 200

        def emit(itask, kv):
            kv.add_batch([f"{itask}:{j}" for j in range(rows)], [b"x" * 40] * rows)

        probe = ColumnarKeyValue(UNTYPED)
        emit(0, probe)
        memsize = probe.nbytes * 8 // 3

        def job(comm):
            mr = MapReduce(comm, mapstyle=MapStyle.MASTER_WORKER, memsize=memsize)
            stages, peak = [], [0]

            def mapper(itask, item, kv):
                if all(kv is not s for s in stages):
                    stages.append(kv)
                emit(itask, kv)
                # bytes held in memory by every staging store of this rank
                peak[0] = max(peak[0], sum(s._live_bytes for s in stages))

            mr.map_items(list(range(16)), mapper,
                         speculation=SpeculationPolicy(warmup=100))
            out = [tuple(map(int, k.split(":"))) for k, _v in mr.kv]
            mr.close()
            return out, peak[0], len(stages)

        results = run_spmd(3, job)
        assert sorted(k for out, *_ in results for k in out) == [
            (i, j) for i in range(16) for j in range(rows)]
        for _out, peak, nstages in results[1:]:
            assert 0 < peak < memsize
        assert results[1][2] < 16  # a store per chunk, not per unit
