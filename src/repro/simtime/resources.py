"""Shared resources for the DES: a counting resource.

``Resource`` models things like a bounded-capacity I/O channel.  It grants
strictly FIFO, keeping runs deterministic.
"""

from __future__ import annotations

from collections import deque

from repro.simtime.events import Environment, Event

__all__ = ["Resource"]


class Resource:
    """Counting resource with FIFO grant order.

    ``request()`` returns an event that fires when a slot is granted;
    ``release()`` frees a slot.  (A context-manager style is deliberately
    omitted: DES processes here acquire and release across yields.)
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        self._waiters: deque[Event] = deque()

    def request(self) -> Event:
        ev = self.env.event()
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError("release without matching request")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1
