"""Event loop, events and generator-based processes.

Scheduling is strictly deterministic: events fire in (time, sequence) order
where the sequence number is assigned at schedule time, so identical inputs
replay identical traces — the property the cluster-model tests assert.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator

__all__ = ["Environment", "Event", "Process"]


class Event:
    """A one-shot occurrence processes can wait on."""

    __slots__ = ("env", "callbacks", "_value", "_triggered", "_scheduled")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._triggered = False
        self._scheduled = False

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._triggered:
            raise RuntimeError("event already triggered")
        self._triggered = True
        self._value = value
        self.env._schedule(self, delay=0.0)
        return self

class _Timeout(Event):
    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        super().__init__(env)
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        self._triggered = True
        self._value = value
        env._schedule(self, delay=delay)


class Process(Event):
    """A running generator; completes (as an event) when the generator returns."""

    __slots__ = ("_gen",)

    def __init__(self, env: "Environment", gen: Generator) -> None:
        super().__init__(env)
        self._gen = gen
        bootstrap = Event(env)
        bootstrap._triggered = True
        bootstrap.callbacks.append(self._resume)
        env._schedule(bootstrap, delay=0.0)

    def _resume(self, trigger: Event) -> None:
        try:
            nxt = self._gen.send(trigger._value)
        except StopIteration as stop:
            if not self._triggered:
                self.succeed(stop.value)
            return
        if not isinstance(nxt, Event):
            raise TypeError(f"process yielded {type(nxt).__name__}, expected Event")
        if nxt._triggered and nxt._scheduled:
            nxt.callbacks.append(self._resume)
        elif nxt._triggered:
            # Already processed event (fired in the past): resume immediately.
            wake = Event(self.env)
            wake._triggered = True
            wake._value = nxt._value
            wake.callbacks.append(self._resume)
            self.env._schedule(wake, delay=0.0)
        else:
            nxt.callbacks.append(self._resume)


class Environment:
    """The clock + event queue."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()

    def _schedule(self, event: Event, delay: float) -> None:
        event._scheduled = True
        heapq.heappush(self._queue, (self.now + delay, next(self._seq), event))

    def timeout(self, delay: float, value: Any = None) -> Event:
        return _Timeout(self, delay, value)

    def event(self) -> Event:
        return Event(self)

    def process(self, gen: Generator) -> Process:
        return Process(self, gen)

    def run(self, until: float | None = None) -> None:
        """Process events until the queue drains (or the time limit)."""
        while self._queue:
            t, _seq, event = self._queue[0]
            if until is not None and t > until:
                self.now = until
                return
            heapq.heappop(self._queue)
            self.now = t
            event._scheduled = False
            callbacks, event.callbacks = event.callbacks, []
            for cb in callbacks:
                cb(event)
