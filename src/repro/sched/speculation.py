"""Speculative re-execution and degraded-mode bookkeeping.

The master (real or simulated) tracks every in-flight work unit here.  The
policy is the classic late-binding speculation rule: once enough units have
completed to trust the runtime distribution, any unit whose elapsed time
exceeds ``factor x`` the running quantile (median by default) is a straggler
and may be re-issued to an idle worker.  The first completion wins; the loser
is discarded by unit id, so output never depends on which copy finished.

Runtime quantiles use the P² algorithm (Jain & Chlamtac, CACM 1985): five
markers updated in O(1) per observation, no history arrays, which matters at
simulated 1024-rank scale where millions of unit completions stream through.

Everything is clock-agnostic — callers pass ``now`` explicitly, so the same
tracker runs on ``time.monotonic()`` in the live runtime and on the SimClock
in ``repro.cluster.dispatch``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["P2Quantile", "SpeculationPolicy", "StragglerTracker", "SchedReport"]


class P2Quantile:
    """Online quantile estimate via the P² algorithm (no stored history).

    For fewer than five observations the exact sample quantile is returned
    (linear interpolation on the sorted values); from the fifth observation
    on, the five P² markers take over.
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_increments", "count")

    def __init__(self, q: float = 0.5) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._heights: list[float] = []
        self._positions = [1, 2, 3, 4, 5]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self.count = 0

    def add(self, x: float) -> None:
        self.count += 1
        if len(self._heights) < 5:
            self._heights.append(x)
            if len(self._heights) == 5:
                self._heights.sort()
            return
        h = self._heights
        # Locate the cell containing x and clamp the extreme markers.
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and x >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            self._positions[i] += 1
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Adjust the three interior markers toward their desired positions.
        for i in (1, 2, 3):
            n = self._positions[i]
            d = self._desired[i] - n
            if (d >= 1.0 and self._positions[i + 1] - n > 1) or (
                d <= -1.0 and self._positions[i - 1] - n < -1
            ):
                step = 1 if d >= 1.0 else -1
                cand = self._parabolic(i, step)
                if h[i - 1] < cand < h[i + 1]:
                    h[i] = cand
                else:
                    h[i] = self._linear(i, step)
                self._positions[i] = n + step

    def _parabolic(self, i: int, d: int) -> float:
        h, n = self._heights, self._positions
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: int) -> float:
        h, n = self._heights, self._positions
        return h[i] + d * (h[i + d] - h[i]) / (n[i + d] - n[i])

    def value(self) -> float | None:
        """Current estimate, or ``None`` before any observation."""
        if not self._heights:
            return None
        if len(self._heights) < 5 or self.count < 5:
            ordered = sorted(self._heights)
            if len(ordered) == 1:
                return ordered[0]
            pos = self.q * (len(ordered) - 1)
            lo = int(pos)
            hi = min(lo + 1, len(ordered) - 1)
            frac = pos - lo
            return ordered[lo] * (1.0 - frac) + ordered[hi] * frac
        return self._heights[2]


@dataclass(frozen=True)
class SpeculationPolicy:
    """When to clone a straggling unit.

    A unit becomes a speculation candidate once ``warmup`` units have
    completed (so the quantile is trustworthy), its elapsed time exceeds
    ``factor x`` the running ``quantile`` of completed-unit durations, and it
    has fewer than ``max_copies`` live copies.
    """

    factor: float = 2.0
    quantile: float = 0.5
    warmup: int = 3
    min_elapsed: float = 0.0
    max_copies: int = 2

    def __post_init__(self) -> None:
        if self.factor <= 1.0:
            raise ValueError(f"speculation factor must be > 1.0, got {self.factor}")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {self.quantile}")
        if self.warmup < 1:
            raise ValueError(f"warmup must be >= 1, got {self.warmup}")
        if self.min_elapsed < 0.0:
            raise ValueError(f"min_elapsed must be >= 0, got {self.min_elapsed}")
        if self.max_copies < 2:
            raise ValueError(f"max_copies must be >= 2, got {self.max_copies}")


@dataclass(frozen=True)
class SchedReport:
    """Per-map summary the master broadcasts to every rank after the phase."""

    completed: int = 0
    speculated: int = 0
    wasted: int = 0
    reassigned: int = 0
    lost_ranks: tuple[int, ...] = ()
    median_unit_seconds: float | None = None
    degraded: bool = False


class StragglerTracker:
    """Tracks in-flight units, decides speculation, resolves duplicate wins.

    State machine per unit: *assigned* (one runner) -> *suspected* (elapsed
    beyond the deadline) -> *speculated* (second runner issued) -> *resolved*
    (first completion accepted, later copies discarded) or *reassigned*
    (every runner died before completing; unit re-queued by the caller).
    """

    def __init__(self, policy: SpeculationPolicy | None = None) -> None:
        self.policy = policy
        self.quantile = P2Quantile((policy or SpeculationPolicy()).quantile)
        # unit -> {worker: (hand-out time, medians to its start)} per live copy.
        self._running: dict[int, dict[int, tuple[float, int]]] = {}
        self._done: set[int] = set()
        self._accepted_by: dict[int, int] = {}
        self.completed = 0
        self.speculated = 0
        self.wasted = 0
        self.reassigned = 0
        self.finish_time: float | None = None

    # -- lifecycle ---------------------------------------------------------

    def assign(self, unit: int, worker: int, now: float, chunk: int = 1) -> None:
        """*worker* got (a copy of) *unit* at *now* in a chunk of ``chunk``
        units.  A chunk is reported whole, so each of its units counts as
        started when the last one would, ``chunk - 1`` medians later."""
        copies = self._running.setdefault(unit, {})
        if copies:
            self.speculated += 1
        copies[worker] = (now, chunk - 1)

    def complete(self, unit: int, worker: int, now: float,
                 seconds: float | None = None) -> bool:
        """First completion wins: returns True iff this copy is accepted.
        ``seconds`` (default: since hand-out) feeds the runtime quantile."""
        copies = self._running.get(unit, {})
        started = copies.pop(worker, None)
        if not copies:
            self._running.pop(unit, None)
        if unit in self._done:
            self.wasted += 1
            return False
        self._done.add(unit)
        self._accepted_by[unit] = worker
        self.completed += 1
        if started is not None:
            self.quantile.add(now - started[0] if seconds is None else seconds)
        self.finish_time = now
        return True

    def release_worker(self, worker: int, now: float) -> list[int]:
        """Drop *worker* from every live copy; return units left runnerless.

        Returned units are not done and have no surviving runner — the
        caller must re-queue them.  Units that still have another live copy
        (a speculation survivor) stay in flight.
        """
        orphaned: list[int] = []
        for unit in list(self._running):
            copies = self._running[unit]
            if worker in copies:
                del copies[worker]
                if not copies and unit not in self._done:
                    orphaned.append(unit)
            if not copies:
                self._running.pop(unit, None)
        return orphaned

    def forget(self, unit: int) -> None:
        """Remove *unit* from the done set (its accepted output was lost)."""
        self._done.discard(unit)
        self._accepted_by.pop(unit, None)
        self.completed = len(self._done)

    def accepted_units(self, worker: int) -> list[int]:
        """Units whose accepted output lives on *worker*."""
        return [u for u, w in self._accepted_by.items() if w == worker]

    # -- queries -----------------------------------------------------------

    def is_done(self, unit: int) -> bool:
        return unit in self._done

    def runners(self, unit: int) -> tuple[int, ...]:
        return tuple(self._running.get(unit, {}))

    def median(self) -> float | None:
        return self.quantile.value()

    def _deadline(self) -> float | None:
        """Elapsed time past which a unit is a straggler; None until trusted."""
        policy = self.policy
        if policy is None or self.completed < policy.warmup:
            return None
        med = self.quantile.value()
        if med is None:
            return None
        return max(policy.factor * med, policy.min_elapsed)

    def _clonable(self, exclude_worker: int | None = None):
        """``(unit, earliest estimated start)`` of in-flight units that may
        get a copy (see :meth:`assign`)."""
        median = self.quantile.value()
        for unit, copies in self._running.items():
            if unit in self._done or not copies:
                continue
            if len(copies) >= self.policy.max_copies:
                continue
            if exclude_worker is not None and exclude_worker in copies:
                continue
            yield unit, min(t + i * median for t, i in copies.values())

    def candidate(self, now: float, exclude_worker: int | None = None) -> int | None:
        """Most-overdue straggler eligible for a speculative copy, if any."""
        best_elapsed = self._deadline()
        if best_elapsed is None:
            return None
        best: int | None = None
        for unit, started in self._clonable(exclude_worker):
            if now - started > best_elapsed:
                best = unit
                best_elapsed = now - started
        return best

    def next_due(self) -> float | None:
        """The instant after which an in-flight unit is a :meth:`candidate`
        (strictly after: at exactly this time it is not one yet).

        ``None`` when no unit can (speculation off, quantile not yet
        trusted, or every in-flight unit already has its copies): only a
        completion can change that, never the clock.
        """
        deadline = self._deadline()
        if deadline is None:
            return None
        return min((started + deadline for _unit, started in self._clonable()),
                   default=None)

    def report(
        self, lost_ranks: tuple[int, ...] = (), degraded: bool = False
    ) -> SchedReport:
        return SchedReport(
            completed=self.completed,
            speculated=self.speculated,
            wasted=self.wasted,
            reassigned=self.reassigned,
            lost_ranks=tuple(sorted(lost_ranks)),
            median_unit_seconds=self.quantile.value(),
            degraded=degraded or bool(lost_ranks),
        )
