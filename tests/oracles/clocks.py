"""Deterministic clock for tracer and scheduler tests."""

__all__ = ["TickClock"]


class TickClock:
    """Deterministic clock: each call returns the next integer tick.

    Used by the property suite so generated rank programs produce
    bit-identical traces for identical seeds regardless of host speed.
    """

    def __init__(self, start=0, step=1):
        self._t = start - step
        self._step = step

    def __call__(self):
        self._t += self._step
        return float(self._t)
