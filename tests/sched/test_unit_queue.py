"""The master's queue policy, checked against a model under arbitrary
request interleavings: no clock, no communicator, no threads.

This is the locality guarantee of the mr-mpi-blast guide ("distribute work
items to those ranks that have already processed the same DB partitions")
as a property, where the integration suite could only sample it through a
thread race.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.dispatcher import UnitQueue

KEYS = st.lists(st.integers(0, 4), min_size=0, max_size=40)
#: an event is (worker, requeue?) — a request by that worker, optionally
#: preceded by losing the unit it holds (its "death" as the master sees it)
EVENTS = st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=120)


class _Model:
    """Reference: per-key lists, front = next out; keys in first-seen order."""

    def __init__(self, keys):
        self.queues = {}
        for unit, key in enumerate(keys):
            self.queues.setdefault(key, []).append(unit)
        self.untouched = list(self.queues)

    def expect(self, last_key):
        """The set of units the policy may hand a worker of ``last_key``."""
        own = self.queues.get(last_key)
        if own:
            return {own[0]}  # match: the front of its own key
        fresh = [k for k in self.untouched if self.queues[k]]
        if fresh:
            return {self.queues[fresh[0]][0]}  # claim: first unclaimed key
        fullest = max((len(q) for q in self.queues.values()), default=0)
        if fullest == 0:
            return {None}
        return {q[0] for q in self.queues.values() if len(q) == fullest}  # steal

    def take(self, unit, matched):
        key = next(k for k, q in self.queues.items() if q and q[0] == unit)
        self.queues[key].pop(0)
        if not matched:
            # A non-matching request walks the claim order up to the key it
            # is served from (a steal means there was nothing left to claim).
            cut = self.untouched.index(key) + 1 if key in self.untouched else None
            self.untouched = self.untouched[cut:] if cut else []


@settings(max_examples=300, deadline=None)
@given(keys=KEYS, events=EVENTS)
def test_match_claim_steal_under_any_interleaving(keys, events):
    queue, model = UnitQueue(keys), _Model(keys)
    holding = {}  # worker -> unit it was last handed
    last_key = {}
    handed = []
    for worker, lose in events:
        if lose and worker in holding:
            unit = holding.pop(worker)
            queue.requeue(unit)
            model.queues[keys[unit]].insert(0, unit)  # lost work goes first
            handed.remove(unit)
        key = last_key.get(worker)
        allowed = model.expect(key)
        unit = queue.next(key)
        assert unit in allowed
        if unit is None:
            model.untouched = []  # the claim order was walked to its end
            continue
        matched = bool(model.queues.get(key))
        if matched:
            # A worker keeps its key while that key has anything queued.
            assert keys[unit] == key
        model.take(unit, matched)
        handed.append(unit)
        holding[worker] = unit
        last_key[worker] = keys[unit]
    # Every unit is handed out exactly once per time it was queued.
    assert len(handed) == len(set(handed))
    while (unit := queue.next(None)) is not None:
        handed.append(unit)
    assert sorted(handed) == list(range(len(keys)))


def test_one_key_is_a_fifo_with_requeues_first():
    queue = UnitQueue([None] * 5)
    assert [queue.next(None) for _ in range(3)] == [0, 1, 2]
    queue.requeue(1)
    queue.requeue(0)
    assert [queue.next(None) for _ in range(5)] == [0, 1, 3, 4, None]


def test_one_worker_switches_once_per_key():
    keys = [i % 3 for i in range(12)]  # query-major order: a new key per unit
    queue, last, order = UnitQueue(keys), None, []
    while (unit := queue.next(last)) is not None:
        last = keys[unit]
        order.append(last)
    assert order == [0] * 4 + [1] * 4 + [2] * 4
