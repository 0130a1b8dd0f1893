"""Intake control for the always-on service: fairness, quotas, backpressure.

Three independent pure mechanisms, composed by the service front door:

- :class:`FairQueue` — stride-scheduled weighted fair ordering across
  tenants, so the coalescer drains a saturating tenant no faster than its
  weight share allows.
- :class:`AdmissionController` — bounded intake: a global pending cap plus
  a per-tenant quota proportional to weight (with a burst allowance), so
  one tenant cannot fill the whole queue.
- :class:`BackpressureGauge` — a high/low watermark hysteresis over the
  estimated columnar-KV working set: intake stops when the estimate
  approaches the ranks' ``memsize`` budget and resumes only after it falls
  below the low watermark (no flapping at the threshold).

None of these reads a clock or sleeps; the service drives them with
explicit state, which keeps the unit suite on virtual time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

__all__ = [
    "AdmissionError",
    "FairQueue",
    "AdmissionController",
    "BackpressureGauge",
]


class AdmissionError(RuntimeError):
    """A submission was refused at the front door; ``reason`` says why.

    Reasons: ``"capacity"`` (global pending cap), ``"tenant-quota"``
    (per-tenant share exhausted), ``"backpressure"`` (KV working set near
    the memory budget), ``"closed"`` (service shutting down).
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(f"submission refused ({reason})" + (f": {detail}" if detail else ""))
        self.reason = reason


class FairQueue:
    """Weighted fair queue over tenants (stride scheduling).

    Each tenant holds a FIFO of items and a running ``pass`` value; a pop
    drains the tenant with the smallest pass and advances it by
    ``1 / weight``, so over time tenants are served proportionally to their
    weights.  Ties break on tenant name, making the pop order fully
    deterministic — a property the virtual-time tests pin down.  A tenant
    absent from the weight table gets weight 1.0.
    """

    def __init__(self, weights: dict[str, float] | None = None) -> None:
        self._weights = dict(weights or {})
        for tenant, w in self._weights.items():
            if w <= 0:
                raise ValueError(f"tenant {tenant!r} weight must be > 0, got {w}")
        self._queues: dict[str, deque] = {}
        self._pass: dict[str, float] = {}
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def weight(self, tenant: str) -> float:
        """The tenant's configured weight (1.0 when unconfigured)."""
        return self._weights.get(tenant, 1.0)

    def pending(self, tenant: str) -> int:
        """Items currently queued for one tenant."""
        q = self._queues.get(tenant)
        return len(q) if q else 0

    def push(self, tenant: str, item: Any) -> None:
        """Append an item to the tenant's FIFO."""
        q = self._queues.get(tenant)
        if q is None:
            q = self._queues[tenant] = deque()
            # A newly active tenant starts at the current minimum pass so it
            # neither jumps the line nor pays for time it was idle.
            live = [self._pass[t] for t, qq in self._queues.items() if qq and t != tenant]
            self._pass[tenant] = min(live) if live else self._pass.get(tenant, 0.0)
        elif not q:
            live = [self._pass[t] for t, qq in self._queues.items() if qq and t != tenant]
            if live:
                self._pass[tenant] = max(self._pass.get(tenant, 0.0), min(live))
        q.append(item)
        self._len += 1

    def push_front(self, tenant: str, item: Any) -> None:
        """Return an item to the head of its tenant's FIFO (undo a pop)."""
        q = self._queues.setdefault(tenant, deque())
        self._pass.setdefault(tenant, 0.0)
        q.appendleft(item)
        self._len += 1

    def pop(self) -> Any:
        """Remove and return the next item in weighted-fair order."""
        if self._len == 0:
            raise IndexError("pop from empty FairQueue")
        tenant = min(
            (t for t, q in self._queues.items() if q),
            key=lambda t: (self._pass[t], t),
        )
        self._pass[tenant] += 1.0 / self.weight(tenant)
        self._len -= 1
        return self._queues[tenant].popleft()


@dataclass
class AdmissionController:
    """Bounded intake: global capacity plus per-tenant weighted quotas.

    The per-tenant quota is ``burst x (weight / total weight) x
    max_pending`` (at least 1), with tenants not in the weight table
    counted at weight 1.0 against the weights actually seen so far.  The
    burst factor lets a lone active tenant use more than its long-run
    share; the global cap still bounds the sum.
    """

    max_pending: int = 256
    weights: dict[str, float] | None = None
    burst: float = 2.0

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.burst < 1.0:
            raise ValueError(f"burst must be >= 1.0, got {self.burst}")
        self._known = dict(self.weights or {})

    def _quota(self, tenant: str) -> int:
        self._known.setdefault(tenant, 1.0)
        total = sum(self._known.values())
        share = self._known[tenant] / total if total > 0 else 1.0
        return max(1, int(self.burst * share * self.max_pending))

    def try_admit(self, tenant: str, pending_total: int, pending_tenant: int) -> None:
        """Raise :class:`AdmissionError` if this submission must be refused.

        ``pending_total`` / ``pending_tenant`` count submissions already
        accepted but not yet resolved (queued or in flight).
        """
        if pending_total >= self.max_pending:
            raise AdmissionError(
                "capacity", f"{pending_total}/{self.max_pending} pending")
        quota = self._quota(tenant)
        if pending_tenant >= quota:
            raise AdmissionError(
                "tenant-quota", f"tenant {tenant!r} at {pending_tenant}/{quota}")


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
