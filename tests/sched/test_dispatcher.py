"""The MASTER_WORKER dispatch policy on its own: no ranks, no messages.

Every test drives :class:`~repro.sched.Dispatcher` the way the MPI master
does (request, death, clock tick, then ``replies``) on a
:class:`~repro.obs.trace.TickClock`, so what is asserted is the policy:
factoring chunk sizes, the implicit first round, first-completion-wins,
requeue on death and when a straggler may be cloned.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import Dispatcher, SpeculationPolicy
from repro.sched.speculation import MAX_COPIES, StragglerTracker

from oracles.clocks import TickClock


def chunks_in_turn(nmap, workers):
    """Chunk sizes when workers report in rank order, round after round."""
    disp = Dispatcher([None] * nmap, workers)
    held = dict(disp.first)
    sizes = [len(held[w]) for w in workers]
    clock = TickClock(start=1)
    while disp.retire() is None:
        for w in workers:
            if w in held:
                now = clock()
                disp.request(w, held.pop(w), now)
                for dest, keeps, chunk in disp.replies(now):
                    assert all(keeps)
                    held[dest] = chunk
                    sizes.append(len(chunk))
    assert sorted(disp.retire()) == [(w, (True,)) for w in workers]
    return sizes


class TestFactoring:
    def test_som_batch_shape(self):
        # 32 units on 2 workers: batches of ceil(R / 4), one chunk each.
        assert chunks_in_turn(32, [1, 2]) == [8, 8, 4, 4, 2, 2, 1, 1, 1, 1]

    def test_a_fixed_chunk_is_not_factored(self):
        disp = Dispatcher([None] * 5, [1, 2], chunk=2)
        assert disp.first == {1: (0, 1), 2: (2, 3)}
        disp.request(2, disp.first[2], 1.0)
        assert disp.replies(1.0) == [(2, (True, True), (4,))]

    def test_a_solo_service_job_keeps_one_unit_per_request(self):
        assert chunks_in_turn(4, [1, 2]) == [1, 1, 1, 1]

    def test_more_workers_than_units(self):
        disp = Dispatcher([None] * 2, [1, 2, 3])
        assert disp.first == {1: (0,), 2: (1,), 3: ()}
        disp.request(3, (), 0.0)  # nothing to report, nothing to hand out
        assert disp.replies(0.0) == [] and disp.retire() is None

    def test_a_death_starts_a_new_batch_over_the_survivors(self):
        disp = Dispatcher([None] * 16, [1, 2])
        assert disp.first == {1: tuple(range(4)), 2: tuple(range(4, 8))}
        disp.request(1, disp.first[1], 1.0)
        # a batch of two chunks of ceil(8 / 4); rank 1 takes the first
        assert disp.replies(1.0) == [(1, (True,) * 4, (8, 9))]
        assert disp.lose(2, 2.0) and not disp.lose(2, 2.0)
        assert disp.tracker.reassigned == 4
        disp.request(1, (8, 9), 3.0)
        # 10 queued (rank 2's 4 first), one worker: ceil(10 / 2), not the 2
        # left in the old batch
        [(dest, keeps, chunk)] = disp.replies(3.0)
        assert (dest, keeps) == (1, (True, True))
        assert sorted(chunk) == [4, 5, 6, 7, 10]


class TestFirstRound:
    KEYS = [i % 4 for i in range(40)]  # query-major: a new partition per unit

    def test_same_on_the_master_and_on_a_worker(self):
        master = Dispatcher(self.KEYS, range(1, 4), SpeculationPolicy(warmup=1), now=7.0)
        worker = Dispatcher(self.KEYS, range(1, 4))  # what a worker computes
        assert master.first == worker.first
        # The master tracked every first chunk; the map starts with no request.
        for w, chunk in master.first.items():
            assert all(master.tracker.runners(u) == (w,) for u in chunk)

    def test_a_first_chunk_stays_on_one_partition(self):
        first = Dispatcher(self.KEYS, [1, 2]).first
        assert {w: {self.KEYS[u] for u in chunk} for w, chunk in first.items()} == {
            1: {0}, 2: {1}}
        assert [len(chunk) for chunk in first.values()] == [10, 10]


class TestStragglerClock:
    def test_a_chunk_is_due_once_all_of_it_is_overdue(self):
        # A chunk is reported only when all of it is done, so each of its
        # units counts as started when the last one would.
        tracker = StragglerTracker(SpeculationPolicy(factor=2.0, warmup=3))
        for unit in range(3):
            tracker.assign(unit, worker=1, now=0.0, chunk=3)
        for unit in (3, 4, 5):
            tracker.assign(unit, worker=2, now=0.0)
            tracker.complete(unit, worker=2, now=9.0, seconds=1.0)
        assert tracker.median() == 1.0  # the given per-unit cost, not 9 s
        assert tracker.next_due() == 4.0  # started at 0 + 2 medians, due 2 later
        assert tracker.candidate(3.5) is None  # the report may still come
        assert tracker.candidate(4.5) == 0  # then head first
        tracker.assign(0, worker=3, now=4.5)  # cloned: MAX_COPIES reached
        assert tracker.candidate(4.5) == 1

    def test_a_healthy_chunk_gets_no_copy_from_a_parked_peer(self):
        disp = Dispatcher([None] * 32, [1, 2], SpeculationPolicy(factor=2.0, warmup=2))
        assert [len(disp.first[w]) for w in (1, 2)] == [8, 8]
        # Both run their first chunk at a unit a second and report together.
        disp.request(1, disp.first[1], 8.0)
        disp.request(2, disp.first[2], 8.0)
        (_, _, healthy), (_, _, done) = disp.replies(8.0)
        assert (len(healthy), len(done)) == (4, 4)
        # Rank 2 draws cheap units and drains the queue while rank 1 runs
        # its chunk of four at the median pace, due to report at 12.
        now = 8.0
        while done:
            now += 0.25 * len(done)
            disp.request(2, done, now)
            done = next((chunk for _, _, chunk in disp.replies(now)), ())
        # Parked at 11 with nothing for it: rank 1's head was handed out
        # 3 s ago, past 2 medians, but could not have been reported yet.
        # The chunk is due once its last unit has had 2 medians.
        median = disp.tracker.median()
        assert now == 11.0 and 2 * median < 3.0
        assert disp.tracker.next_due() == pytest.approx(8.0 + 3 * median + 2 * median)
        assert disp.tracker.next_due() > 12.0 and disp.replies(12.0) == []
        disp.request(1, healthy, 12.0)
        assert disp.retire() is not None and disp.tracker.speculated == 0

    def test_a_straggling_chunk_is_cloned_head_first(self):
        disp = Dispatcher([None] * 8, [1, 2], SpeculationPolicy(factor=2.0, warmup=2))
        assert disp.first == {1: (0, 1), 2: (2, 3)}
        done, handed = disp.first[2], []
        for now in range(2, 8):  # rank 2 runs a unit a tick, rank 1 stalls
            disp.request(2, done, float(now))
            [(_, keeps, done)] = disp.replies(float(now))
            assert all(keeps)
            handed.append(done)
            if done == (0,):
                assert disp.tracker.next_due() == 3.0  # unit 1: 0 + 1 + 2, as unit 0
        # Once the queue is empty, units 0 and 1 are cloned in chunk order:
        # both are due 2 medians after the chunk's last unit's estimated
        # start, one median after hand-out.
        assert handed == [(4,), (5,), (6,), (7,), (0,), (1,)]
        assert disp.tracker.next_due() is None  # both at MAX_COPIES
        disp.request(2, done, 8.0)
        assert disp.replies(8.0) == []
        disp.request(1, (0, 1), 9.0)  # the straggler's copies lose
        assert disp.retire() == [(2, (True,)), (1, (False, False))]
        assert (disp.tracker.speculated, disp.tracker.wasted) == (2, 2)

    def test_a_completed_chunk_adds_its_wall_per_unit(self):
        disp = Dispatcher([None] * 8, [1, 2], SpeculationPolicy(warmup=1))
        disp.request(2, disp.first[2], 10.0)  # two units in 10 s
        assert disp.tracker.median() == 5.0

    def test_a_unit_is_clonable_only_after_next_due(self):
        # next_due() is the instant *after* which a unit is a candidate: a
        # fleet woken at exactly that instant must find nothing to clone.
        disp = Dispatcher([None] * 3, [1, 2], SpeculationPolicy(factor=2.0, warmup=2), chunk=1)
        assert disp.first == {1: (0,), 2: (1,)}
        clock, done = TickClock(start=1), (1,)
        while done:  # rank 2 runs a unit a tick, rank 1 stalls on unit 0
            now = clock()
            disp.request(2, done, now)
            done = next((chunk for _, _, chunk in disp.replies(now)), ())
        due = disp.tracker.next_due()
        assert (now, due) == (2.0, 2.0)  # handed out at 0, 2 medians of 1 tick
        assert disp.tracker.candidate(due) is None and disp.replies(due) == []
        assert disp.tracker.candidate(due + 1e-9) == 0
        assert disp.replies(due + 1e-9) == [(2, (True,), (0,))]


POLICY = SpeculationPolicy(factor=2.0, warmup=2)


class _Calls:
    """A tracer that hands every ``sched.speculate`` instant to a check."""

    enabled = True

    def __init__(self, on_clone):
        self.on_clone = on_clone

    def instant(self, name, cat, **attrs):
        if name == "sched.speculate":
            self.on_clone(attrs["unit"])


EVENTS = st.lists(
    st.tuples(st.sampled_from(["report", "die", "tick"]), st.integers(1, 4),
              st.integers(1, 6)),
    max_size=60)


@settings(max_examples=300, deadline=None)
@given(nmap=st.integers(1, 30), nworkers=st.integers(1, 4),
       nkeys=st.integers(1, 3), speculate=st.booleans(),
       chunk=st.sampled_from([None, 1, 2]), events=EVENTS)
def test_every_unit_completes_once_under_any_interleaving(
        nmap, nworkers, nkeys, speculate, chunk, events):
    keys = [u % nkeys for u in range(nmap)]
    workers = list(range(1, nworkers + 1))
    clock = TickClock(start=0)
    policy = POLICY if speculate else None
    now = clock()
    disp = Dispatcher(keys, workers, policy, now, tracer=_Calls(lambda u: check_clone(u)),
                      chunk=chunk)
    held = dict(disp.first)         # worker -> chunk it is running
    handed_at = dict.fromkeys(workers, 0.0)
    owed = {}                       # worker -> keep flags its report earned
    accepted_by = {}                # unit -> worker holding its kept output
    kept, lost = [0] * nmap, [0] * nmap

    def runners(unit):
        return [w for w, chunk in held.items() if unit in chunk]

    def answer(at):
        nonlocal now
        now = at
        for dest, keeps, chunk in disp.replies(now):
            assert keeps == owed.pop(dest)
            assert dest not in held and chunk
            held[dest], handed_at[dest] = chunk, now

    def check_clone(unit):
        # Never a unit still queued behind its chunk-mates: each one ahead
        # of it on its runner was resolved or cloned first (the tracker
        # knows a clone made earlier in this same ``replies``; ``held`` does
        # not yet), and the clone is overdue counted from when its chunk's
        # last unit would start.
        assert policy is not None and runners(unit)
        median = disp.tracker.median()
        starts = []
        for r in runners(unit):
            i = held[r].index(unit)
            assert all(a in accepted_by
                       or len(disp.tracker.runners(a)) >= MAX_COPIES
                       for a in held[r][:i])
            starts.append(handed_at[r] + (len(held[r]) - 1) * median)
        assert now - min(starts) > policy.factor * median

    def report(w, now):
        done = held.pop(w)
        flags = []
        for unit in done:
            flags.append(unit not in accepted_by)
            if flags[-1]:
                accepted_by[unit] = w
                kept[unit] += 1
        owed[w] = tuple(flags)
        disp.request(w, done, now)

    for kind, w, ticks in events:
        now = clock()
        if kind == "report" and w in held:
            report(w, now)
        elif kind == "die" and w in disp.live and len(disp.live) > 1:
            reassigned = disp.tracker.reassigned
            orphans = [u for u in held.pop(w, ()) if u not in accepted_by
                       and not runners(u)]
            lost_done = [u for u, owner in accepted_by.items() if owner == w]
            for unit in lost_done:
                del accepted_by[unit]
                lost[unit] += 1
            owed.pop(w, None)
            assert disp.lose(w, now)
            # Both the chunk in flight and the units it had had accepted.
            assert disp.tracker.reassigned - reassigned == len(orphans) + len(lost_done)
        else:
            for _ in range(ticks):
                now = clock()
        answer(now)

    # Then one report a tick until done: the others straggle, and parked
    # workers get speculative copies.
    for _ in range(8 * nmap + 10):
        if (retired := disp.retire()) is not None:
            break
        if held:
            report(min(held), clock())
        answer(clock())
    assert retired is not None and not held
    for w, keeps in retired:
        assert keeps == owed.pop(w)
    assert not owed
    # Exactly one kept copy of every unit, on a live worker; a unit is kept
    # again only after a death took the kept copy with it.
    assert sorted(accepted_by) == list(range(nmap))
    assert set(accepted_by.values()) <= set(disp.live)
    assert kept == [1 + n for n in lost]
    assert disp.tracker.completed == nmap
