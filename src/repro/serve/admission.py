"""Intake control for the always-on service: the refusal type and the
backpressure gauge.

The service front door admits a query only if it is open, the gauge is
not engaged and fewer than ``max_pending`` queries are unresolved.
:class:`BackpressureGauge` is a high/low watermark hysteresis over the
estimated columnar-KV working set: intake stops when the estimate
approaches the ranks' ``memsize`` budget and resumes only after it falls
below the low watermark (no flapping at the threshold).

The gauge reads no clock and never sleeps; the service drives it with
explicit state, which keeps the unit suite on virtual time.
"""

from __future__ import annotations

__all__ = ["AdmissionError", "BackpressureGauge"]

#: the gauge engages at this fraction of the ranks' ``nprocs x memsize`` budget
HIGH_WATERMARK = 0.8
#: ... and releases below this fraction of it
LOW_WATERMARK = 0.5


class AdmissionError(RuntimeError):
    """A submission was refused at the front door; ``reason`` says why.

    Reasons: ``"capacity"`` (``max_pending`` queries unresolved),
    ``"backpressure"`` (KV working set near the memory budget),
    ``"closed"`` (service shutting down).
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(f"submission refused ({reason})" + (f": {detail}" if detail else ""))
        self.reason = reason


class BackpressureGauge:
    """High/low watermark hysteresis over a working-set byte estimate.

    ``update(estimate)`` returns ``"engage"`` when the estimate crosses the
    high watermark from below, ``"release"`` when it falls back under the
    low watermark while engaged, and ``None`` otherwise.  The gap between
    the watermarks prevents flapping when the estimate hovers near the
    limit.
    """

    def __init__(self, high_bytes: int, low_bytes: int) -> None:
        if high_bytes <= 0 or low_bytes <= 0 or low_bytes > high_bytes:
            raise ValueError(
                f"need 0 < low_bytes <= high_bytes, got {low_bytes}/{high_bytes}")
        self.high_bytes = high_bytes
        self.low_bytes = low_bytes
        self.engaged = False
        self.last_estimate = 0

    def update(self, estimate_bytes: int) -> str | None:
        """Feed a fresh estimate; return the transition it caused, if any."""
        self.last_estimate = int(estimate_bytes)
        if not self.engaged and estimate_bytes >= self.high_bytes:
            self.engaged = True
            return "engage"
        if self.engaged and estimate_bytes < self.low_bytes:
            self.engaged = False
            return "release"
        return None
