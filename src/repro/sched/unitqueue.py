"""Which queued unit a worker asking for work is handed.

The queue policy of MASTER_WORKER dispatch, with no clock and no
communicator in it: the master feeds it the worker's previous locality key
and sends whatever comes back.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional, Sequence

__all__ = ["UnitQueue"]


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
