"""Event-driven MASTER_WORKER dispatch: one master loop, parked workers.

Nothing here depends on how long anything takes.  Where an order of events
has to be forced (both workers must hold a unit before either finishes, a
straggler must outlast its copy) a mapper waits on a gate another rank
opens; what is asserted is who ran which unit, the scheduler's counters
and each rank's MPI operation count.

A worker's operations in a map are one ``send(request)``, ``recv(reply)``
pair per chunk it runs: its first chunk comes with the map, every later
one answers the request that reported the chunk before, and the request
after its last chunk is answered by retirement.  So ``2 * chunks`` in all,
however long it sat parked, and the chunks are the factoring schedule's
(:func:`factoring`).  Under the old ``WAIT_RETRY`` protocol every 5 ms of
waiting cost another pair.
"""

import inspect
import multiprocessing
import sys
import threading
import time

import pytest

from repro.mpi.exceptions import DeadlockError, RankFailure
from repro.mpi.faultplan import CrashRank, FaultPlan
from repro.mpi.runtime import SpmdJob, run_spmd
from repro.mrmpi import mapreduce
from repro.mrmpi.mapreduce import MapReduce, MapStyle
from repro.sched import SpeculationPolicy, dispatcher
from repro.sched.dispatcher import UnitQueue

BACKENDS = ["thread", "process"]


def pause(seconds):
    """A mapper's stand-in for work (never ``time.sleep``: see the guard)."""
    threading.Event().wait(seconds)


def gate():
    """An event ranks of either backend can share (forked ranks inherit it)."""
    return multiprocessing.get_context("fork").Event()


def passes(opened):
    """Block a mapper until another rank opens the gate."""
    assert opened.wait(60), "the gate was never opened"


def factoring(nmap, workers):
    """Chunk sizes factoring cuts ``nmap`` units into when nobody dies:
    batches of one chunk per worker, each ``ceil(R / 2W)`` units."""
    sizes = []
    while nmap:
        size = -(-nmap // (2 * workers))
        for _ in range(workers):
            take = min(size, nmap)
            if take:
                sizes.append(take)
            nmap -= take
    return sizes


def _job(comm, nmap, unit, **map_kwargs):
    """Map ``nmap`` units, ``unit(rank, ran, itask)`` standing in for the
    work; report what this rank ran, its share of the KV, the master's
    report and op count."""
    mr = MapReduce(comm, mapstyle=MapStyle.MASTER_WORKER)
    ran = []

    def mapper(itask, item, kv):
        unit(comm.rank, ran, itask)
        ran.append(itask)
        kv.add(itask, item * 3)

    mr.map_items(list(range(nmap)), mapper, **map_kwargs)
    out = (ran, sorted(mr.kv), mr.sched, comm.network.op_count(comm.global_rank))
    mr.close()
    return out


def _one_unit_each():
    """A ``unit`` under which neither of two workers finishes its first
    unit before the other holds one too."""
    holds = {1: gate(), 2: gate()}

    def unit(rank, ran, itask):
        holds[rank].set()
        passes(holds[3 - rank])

    return unit


@pytest.fixture
def no_sleep_in_mapreduce(monkeypatch):
    """Any ``time.sleep`` called from ``mrmpi/mapreduce.py`` fails the job."""
    real_sleep = time.sleep

    def guard(seconds):
        caller = sys._getframe(1).f_code.co_filename
        assert caller != mapreduce.__file__, "sleep-polling in the dispatch loop"
        real_sleep(seconds)

    monkeypatch.setattr(mapreduce.time, "sleep", guard)


class TestNoPolling:
    def test_protocol_has_no_retry_and_no_sleep(self):
        assert not hasattr(mapreduce, "_WAIT_RETRY")
        assert "time.sleep" not in inspect.getsource(mapreduce)
        for gone in ("_run_master", "_run_locality_master", "_run_worker"):
            assert not hasattr(MapReduce, gone)

    @pytest.mark.parametrize("kwargs", [
        {"degraded": True},
        {"speculation": SpeculationPolicy(factor=2.0, warmup=2)},
        {"degraded": True, "speculation": SpeculationPolicy(factor=2.0, warmup=2)},
        {},
    ], ids=["degraded", "speculation", "both", "plain"])
    def test_maps_complete_without_sleeping(self, no_sleep_in_mapreduce, kwargs):
        # Rank 2 is ten times slower, so rank 1 spends most of the map parked.
        def unit(rank, ran, itask):
            pause({1: 0.005, 2: 0.05}[rank])

        results = run_spmd(3, _job, 6, unit, **kwargs)
        merged = sorted(p for _ran, pairs, *_ in results for p in pairs)
        assert merged == [(i, i * 3) for i in range(6)]
        sched = results[0][2]
        assert sched.completed == 6 and sched.reassigned == 0 and not sched.degraded
        if "speculation" not in kwargs:
            # Chunks of 2, 2, 1, 1: one request and one reply per chunk,
            # however the two workers split them.
            assert sum(ops for *_, ops in results[1:]) == 2 * len(factoring(6, 2))


class TestParkedWorkers:
    def test_retired_by_the_completion_that_ends_the_map(self):
        # Two units, one each, handed out with the map: whoever finishes
        # first reports and is parked; the other's report ends the map and
        # retires both.  Each asked once and was answered once.
        results = run_spmd(3, _job, 2, _one_unit_each())
        (ran1, _, sched, ops1), (ran2, _, _, ops2) = results[1], results[2]
        assert ran1 == [0] and ran2 == [1]  # the first round, in rank order
        assert ops1 == ops2 == 2
        assert (sched.speculated, sched.wasted, sched.reassigned) == (0, 0, 0)
        assert all(r[2] == sched for r in results)  # one report, every rank

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_gets_the_unit_requeued_when_its_peer_dies(self, backend):
        # Rank 2 dies at its first op: the send that would have reported
        # its unit done.  Rank 1's first request goes unanswered until the
        # sweep that finds rank 2 dead requeues the unit.
        plan = FaultPlan([CrashRank(rank=2, at_op=1)])
        results = run_spmd(3, _job, 2, _one_unit_each(), degraded=True,
                           fault_plan=plan, backend=backend)
        assert results[2] is None
        ran1, pairs1, sched, ops1 = results[1]
        assert sorted(ran1) == [0, 1]
        assert pairs1 == [(0, 0), (1, 3)]
        assert sched.reassigned == 1 and sched.lost_ranks == (2,)
        assert ops1 == 2 * 2  # two chunks of one unit; parked, not polling
        assert results[0][2] == sched

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_gets_a_speculative_copy_once_the_candidate_is_due(self, backend):
        # Rank 2 straggles on its unit until rank 1 has started the copy.
        # Rank 1's own unit costs 50 ms, so the straggler is not overdue
        # (twice the median) when rank 1 asks again: it is parked, and the
        # master's wait is bounded by the tracker's next due time.
        held, copying = gate(), gate()

        def unit(rank, ran, itask):
            if rank == 2:
                held.set()
                passes(copying)
            else:
                passes(held)
                if ran:
                    copying.set()
                pause(0.05)

        policy = SpeculationPolicy(factor=2.0, warmup=1)
        results = run_spmd(3, _job, 2, unit, speculation=policy, backend=backend)
        # Either copy may report first; the other's staging is discarded.
        merged = sorted(p for _ran, pairs, *_ in results for p in pairs)
        assert merged == [(0, 0), (1, 3)]
        (ran1, _, sched, _), (ran2, _, _, _) = results[1], results[2]
        assert sorted(ran1) == [0, 1] and ran2 == ran1[1:]
        assert (sched.speculated, sched.wasted) == (1, 1)

    def test_unit_completed_by_a_surviving_copy_is_not_handed_out_again(
        self, monkeypatch
    ):
        # Rank 1 runs x, wins a speculative copy of y, and dies in a copy
        # of z: x and y are lost with it and requeued, y while its first
        # runner is still on it.  That runner then completes y, so when it
        # asks again it must be handed x, not the y still at the head of
        # the queue.
        swept, z_may_finish = gate(), gate()
        holds = {2: gate(), 3: gate()}
        victim_ran = []  # shared with rank 1: thread backend only

        class Signalling(UnitQueue):
            def requeue(self, unit):
                super().requeue(unit)
                swept.set()

        monkeypatch.setattr(dispatcher, "UnitQueue", Signalling)

        def unit(rank, ran, itask):
            if rank == 1:
                for held in holds.values():
                    passes(held)
                victim_ran.append(itask)
                if len(victim_ran) == 3:
                    raise RankFailure(-1, -1)
            elif not ran:
                holds[rank].set()
                passes(swept)  # rank 1 is dead and the master knows
                if itask == victim_ran[2]:
                    passes(z_may_finish)  # y's runner asks first
            else:
                z_may_finish.set()

        policy = SpeculationPolicy(factor=2.0, warmup=1)
        results = run_spmd(4, _job, 3, unit, speculation=policy, degraded=True,
                           backend="thread")
        assert results[1] is None
        x, y, z = victim_ran
        sched = results[0][2]
        assert sched.reassigned == 2 and sched.lost_ranks == (1,)
        for ran, *_ in results[2:]:
            assert len(set(ran)) == len(ran)  # nobody reran a unit
        y_runner = next(r for r in results[2:] if r[0][0] == y)
        assert y_runner[0][:2] == [y, x]
        merged = sorted(p for r in results[2:] for p in r[1])
        assert merged == [(0, 0), (1, 3), (2, 6)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_chunk_may_outlast_op_timeout(self, backend):
        # op_timeout covers one of rank 2's units (0.3 s), not its first
        # chunk of four (1.2 s).  The master hears nothing from rank 2 for
        # longer than op_timeout, and rank 1, which drains the queue at
        # 0.05 s a unit, waits parked behind that chunk longer than it too.
        def unit(rank, ran, itask):
            pause({1: 0.05, 2: 0.3}[rank])

        results = SpmdJob(3, _job, (16, unit), op_timeout=0.4,
                          backend=backend).run(join_timeout=60)
        merged = sorted(p for _ran, pairs, *_ in results for p in pairs)
        assert merged == [(i, i * 3) for i in range(16)]
        (ran1, *_), (ran2, *_) = results[1], results[2]
        assert ran2[:4] == [4, 5, 6, 7] and len(ran1) > len(ran2)
        assert results[0][2].completed == 16

    def test_parked_recv_is_bound_by_op_timeout(self):
        # Rank 2's unit outlasts everyone's patience: it ends only once a
        # peer has given up.  A parked worker waits in recv where it used
        # to wait in the epoch barrier; the master, which has heard nothing
        # for op_timeout per unit of the largest chunk out (here one),
        # gives up and the job fails.
        held, gave_up = gate(), gate()

        def main(comm):
            mr = MapReduce(comm, mapstyle=MapStyle.MASTER_WORKER)

            def mapper(itask, item, kv):
                if comm.rank == 2:
                    held.set()
                    passes(gave_up)
                else:
                    passes(held)

            try:
                mr.map_items([0, 1], mapper)
            finally:
                gave_up.set()
                mr.close()

        t0 = time.monotonic()
        with pytest.raises(DeadlockError):
            SpmdJob(3, main, op_timeout=0.4).run()
        assert time.monotonic() - t0 >= 0.4


class TestSingleLoopParity:
    """Plain and locality maps through the one loop: same KV on both backends."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("locality", [False, True])
    def test_same_dataset_and_a_clean_report(self, backend, locality):
        def main(comm):
            mr = MapReduce(comm, mapstyle=MapStyle.MASTER_WORKER)
            keys_seen = []

            def mapper(itask, item, kv):
                keys_seen.append(item % 4)
                kv.add(item % 7, item)

            mr.map_items(list(range(60)), mapper,
                         locality_key=(lambda it: it % 4) if locality else None)
            local = sorted(mr.kv)
            mr.collate()
            mr.reduce(lambda key, values, kv: kv.add(key, sorted(values)))
            grouped = sorted(mr.kv)
            sched = mr.sched
            mr.close()
            switches = sum(a != b for a, b in zip(keys_seen, keys_seen[1:]))
            return local, grouped, sched, switches

        results = run_spmd(3, main, backend=backend)
        assert results[0][0] == []  # the master maps nothing
        assert sorted(p for r in results for p in r[0]) == sorted(
            (i % 7, i) for i in range(60))
        assert sorted(p for r in results for p in r[1]) == [
            (k, [i for i in range(60) if i % 7 == k]) for k in range(7)]
        sched = results[0][2]
        assert sched.completed == 60 and not sched.degraded
        assert (sched.speculated, sched.wasted, sched.reassigned) == (0, 0, 0)
        if locality:
            # Two workers, four keys: a worker changes key only when one
            # drains, never per item.
            assert all(r[3] <= 3 for r in results)
