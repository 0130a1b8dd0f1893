"""The MASTER_WORKER dispatch policy as a pure state machine.

:class:`Dispatcher` owns what the master decides: the unit queue, the
straggler tracker, the parked (asked, not yet answered) and dead workers,
and how many units answer a request; the caller passes ``now`` and sends
what comes back.  Which units: :class:`UnitQueue`.  How many: a fixed
``chunk``, or by default *factoring* (Hummel, Schonberg & Flynn, CACM
1992), batches of one chunk per live worker of ``ceil(R / 2W)`` units
each, ``R`` queued units and ``W`` live workers when the batch starts: 32
units on 2 workers go out as 8, 8, 4, 4, 2, 2, 1, 1, 1, 1.  The first
batch is a pure function of the SPMD-identical ``keys`` and workers, so
each worker computes its own first chunk (:attr:`Dispatcher.first`) and
no request precedes it.  The MPI master (:mod:`repro.mrmpi.mapreduce`)
and the simulated fleet (:mod:`repro.cluster.dispatch`, one unit per
request as in the paper) both drive this class.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Optional, Sequence

from repro.obs.trace import NULL_TRACER
from repro.sched.speculation import SpeculationPolicy, StragglerTracker

__all__ = ["Dispatcher", "UnitQueue"]


class UnitQueue:
    """Per-key FIFO queues served match → claim → steal.

    ``keys[u]`` is the locality key of unit ``u``.  A worker is handed, in
    order of preference: the next unit of the key it last ran (*match*, so
    it keeps its DB partition open), the first unit of a key nobody has
    claimed yet (*claim*, spreading keys across workers), or the next unit
    of the fullest remaining key (*steal*).  Every unit is handed out
    exactly once per time it was queued.  With one key for every unit
    (plain dispatch passes all ``None``) this is a single FIFO.
    """

    def __init__(self, keys: Sequence[Any]) -> None:
        self._keys = keys
        self._queues: dict[Any, deque[int]] = {}
        for unit, key in enumerate(keys):
            self._queues.setdefault(key, deque()).append(unit)
        self._unclaimed = deque(self._queues)

    def __len__(self) -> int:
        return sum(map(len, self._queues.values()))

    def next(self, last_key: Any) -> Optional[int]:
        """The unit for a worker that last ran ``last_key``; None when empty."""
        q = self._queues.get(last_key)
        if q:
            return q.popleft()
        while self._unclaimed:
            q = self._queues[self._unclaimed.popleft()]
            if q:
                return q.popleft()
        q = max(self._queues.values(), key=len, default=None)
        return q.popleft() if q else None

    def requeue(self, unit: int) -> None:
        """Put a lost unit back at the front of its key's queue, so lost
        work restarts before fresh work."""
        self._queues[self._keys[unit]].appendleft(unit)


class Dispatcher:
    """Chunked pull dispatch of units ``0..len(keys)-1``.

    A request carries the units a worker completed since its last one.  Its
    answer is a keep flag per unit (first completion wins) and the next
    chunk: units in :class:`UnitQueue` order, each keyed to the one before
    so the chunk stays on one DB partition where it can, or, once the queue
    is drained, a speculative copy of a straggler (none before its whole
    chunk is overdue: :meth:`StragglerTracker.assign`).  A completed chunk
    adds its wall time per unit to the running median.  ``chunk`` fixes
    the units per answer; None sizes them by factoring.
    """

    def __init__(self, keys: Sequence[Any], workers: Iterable[int],
                 speculation: SpeculationPolicy | None = None, now: float = 0.0,
                 tracer=NULL_TRACER, chunk: int | None = None) -> None:
        self._keys = keys
        self._chunk = chunk
        self._queue = UnitQueue(keys)
        self.tracker = StragglerTracker(speculation)
        self._tracer = tracer
        self.live = sorted(workers)
        self.dead: set[int] = set()
        #: worker -> keep flags owed to the request it is parked on
        self._parked: dict[int, tuple[bool, ...]] = {}
        self._last_key: dict[int, Any] = {}
        #: worker -> (hand-out time, units) of the chunk it runs (not parked)
        self._held: dict[int, tuple[float, int]] = {}
        #: chunk size of the current factoring batch, and chunks left in it
        self._size = self._left = 0
        self.first = {w: self._hand(w, now) for w in self.live}

    def request(self, worker: int, done: Sequence[int], now: float) -> None:
        """*worker* completed ``done`` and waits (parked) for an answer."""
        if worker in self.dead:
            return
        handed, _ = self._held.pop(worker, (now, 0))
        seconds = (now - handed) / len(done) if done else None
        self._parked[worker] = tuple(
            self.tracker.complete(unit, worker, now, seconds) for unit in done)

    def lose(self, worker: int, now: float) -> bool:
        """*worker* died: requeue its in-flight units and the ones it had
        completed (its dataset died with it).  False if it was not live."""
        if worker not in self.live:
            return False
        self.live.remove(worker)
        self.dead.add(worker)
        self._parked.pop(worker, None)
        self._held.pop(worker, None)
        orphans = self.tracker.release_worker(worker, now)
        lost_done = self.tracker.accepted_units(worker)
        for unit in lost_done:
            self.tracker.forget(unit)
        for unit in lost_done + orphans:
            self._queue.requeue(unit)
        self.tracker.reassigned += len(lost_done) + len(orphans)
        self._left = 0  # R and W changed: start a new batch
        if self._tracer.enabled:
            self._tracer.instant("sched.reassign", cat="sched", rank=worker,
                                 inflight=len(orphans), completed=len(lost_done))
        return True

    def replies(self, now: float) -> list[tuple[int, tuple[bool, ...], tuple[int, ...]]]:
        """``(worker, keep flags, chunk)`` for each parked worker there is
        work for at ``now``; it is no longer parked."""
        out = []
        if not len(self._queue) and self.tracker.candidate(now) is None:
            return out  # nothing any parked worker could be handed
        for worker in list(self._parked):
            chunk = self._hand(worker, now)
            if chunk:
                out.append((worker, self._parked.pop(worker), chunk))
        return out

    def retire(self) -> list[tuple[int, tuple[bool, ...]]] | None:
        """Once every unit is complete and every live worker parked, the
        ``(worker, keep flags)`` owed to each; None until then."""
        if self.tracker.completed < len(self._keys) or len(self._parked) < len(self.live):
            return None
        return list(self._parked.items())

    def next_due(self) -> float | None:
        """The instant after which the clock alone could get a parked
        worker a unit."""
        return self.tracker.next_due() if self._parked else None

    def longest_chunk(self) -> int:
        """Units in the largest chunk a worker is running (0: all parked)."""
        return max((units for _, units in self._held.values()), default=0)

    def _hand(self, worker: int, now: float) -> tuple[int, ...]:
        """Take and track *worker*'s next chunk (possibly empty)."""
        chunk: list[int] = []
        key = self._last_key.get(worker)
        if len(self._queue):
            if not self._left:
                self._size = self._chunk or -(-len(self._queue) // (2 * len(self.live)))
                self._left = len(self.live)
            self._left -= 1
            while len(chunk) < self._size and (unit := self._queue.next(key)) is not None:
                # A unit requeued when its winner died may since have been
                # completed by a speculative copy: nothing to redo.
                if not self.tracker.is_done(unit):
                    chunk.append(unit)
                    key = self._keys[unit]
        if not chunk:
            unit = self.tracker.candidate(now, exclude_worker=worker)
            if unit is None:
                return ()
            if self._tracer.enabled:
                self._tracer.instant(
                    "sched.speculate", cat="sched", unit=unit, rank=worker,
                    copies=len(self.tracker.runners(unit)) + 1,
                    median=self.tracker.median() or 0.0)
            chunk, key = [unit], self._keys[unit]
        for unit in chunk:
            self.tracker.assign(unit, worker, now, len(chunk))
        self._last_key[worker], self._held[worker] = key, (now, len(chunk))
        return tuple(chunk)
