"""Deterministic fault schedules for the in-process MPI runtime.

The paper concedes that the MPI execution model "lacks fault-tolerance"
(§II.A): one dead rank kills the whole job.  A :class:`FaultPlan` makes that
failure mode *injectable* and *reproducible* so the supervised runtime
(:func:`repro.mpi.runtime.run_supervised`) has something real to survive.

Events are triggered by per-rank **operation counters**, not wall clock:

- :class:`CrashRank` — the rank raises :class:`~repro.mpi.exceptions.RankFailure`
  at its ``at_op``-th MPI call (and at every call after that: a crashed rank
  stays crashed for the rest of the attempt);
- :class:`StallRank` — the rank sleeps before its ``at_op``-th call (a slow
  rank / transient hiccup);
- :class:`DropMessage` — the rank's ``nth_send``-th posted message is
  silently discarded (the receiver eventually times out with
  :class:`~repro.mpi.exceptions.DeadlockError`);
- :class:`DuplicateMessage` — the message is delivered twice;
- :class:`DelayMessage` — delivery is withheld for ``seconds``.

Counting by op index makes a plan's *event trace* deterministic for a given
program: the same seed replayed over the same run fires the same events.
Each event fires **once per plan**, so a plan carried across supervised
retry attempts models a transient fault — attempt 1 observes the failure,
the relaunch runs clean.  Use :meth:`FaultPlan.reset` to re-arm a plan.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Iterable, Union

__all__ = [
    "CrashRank",
    "StallRank",
    "DropMessage",
    "DuplicateMessage",
    "DelayMessage",
    "FaultPlan",
]


@dataclass(frozen=True)
class CrashRank:
    """Rank dies at its ``at_op``-th MPI operation (1-based)."""

    rank: int
    at_op: int


@dataclass(frozen=True)
class StallRank:
    """Rank sleeps ``seconds`` before its ``at_op``-th MPI operation."""

    rank: int
    at_op: int
    seconds: float


@dataclass(frozen=True)
class DropMessage:
    """The ``nth_send``-th message posted by ``rank`` is discarded (1-based)."""

    rank: int
    nth_send: int


@dataclass(frozen=True)
class DuplicateMessage:
    """The ``nth_send``-th message posted by ``rank`` is delivered twice."""

    rank: int
    nth_send: int


@dataclass(frozen=True)
class DelayMessage:
    """The ``nth_send``-th message posted by ``rank`` is delayed ``seconds``."""

    rank: int
    nth_send: int
    seconds: float


FaultEvent = Union[CrashRank, StallRank, DropMessage, DuplicateMessage, DelayMessage]


class FaultPlan:
    """A deterministic, thread-safe schedule of fault events.

    The transport's fault gate (:mod:`repro.mpi.transport`) consults the
    plan from every rank's MPI calls; fired events are recorded into a
    trace retrievable with :meth:`trace` (sorted, so it is independent of
    thread interleaving).
    """

    def __init__(self, events: Iterable[FaultEvent] = (), seed: int | None = None) -> None:
        self.seed = seed
        self.events: tuple[FaultEvent, ...] = tuple(events)
        self._lock = threading.Lock()
        self._op_events: dict[tuple[int, int], list[FaultEvent]] = {}
        self._send_events: dict[tuple[int, int], FaultEvent] = {}
        self._fired: list[tuple] = []
        for ev in self.events:
            if isinstance(ev, (CrashRank, StallRank)):
                self._op_events.setdefault((ev.rank, ev.at_op), []).append(ev)
            elif isinstance(ev, (DropMessage, DuplicateMessage, DelayMessage)):
                key = (ev.rank, ev.nth_send)
                if key in self._send_events:
                    raise ValueError(f"duplicate message event for send {key}")
                self._send_events[key] = ev
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown fault event {ev!r}")

    # ------------------------------------------------------------ construction

    @classmethod
    def from_seed(
        cls,
        seed: int,
        nprocs: int,
        *,
        crashes: int = 1,
        stalls: int = 0,
        drops: int = 0,
        duplicates: int = 0,
        delays: int = 0,
        op_window: tuple[int, int] = (5, 80),
        max_seconds: float = 0.02,
    ) -> "FaultPlan":
        """Generate a reproducible mixed schedule from one integer seed.

        Ops/sends are drawn uniformly from ``op_window``; the same
        ``(seed, nprocs, counts)`` always produces the same plan.
        """
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        lo, hi = op_window
        if not (1 <= lo <= hi):
            raise ValueError(f"invalid op_window {op_window}")
        rng = random.Random(seed)
        events: list[FaultEvent] = []
        for _ in range(crashes):
            events.append(CrashRank(rng.randrange(nprocs), rng.randint(lo, hi)))
        for _ in range(stalls):
            events.append(
                StallRank(rng.randrange(nprocs), rng.randint(lo, hi), rng.uniform(0, max_seconds))
            )
        used: set[tuple[int, int]] = set()

        def fresh_send() -> tuple[int, int]:
            while True:
                key = (rng.randrange(nprocs), rng.randint(lo, hi))
                if key not in used:
                    used.add(key)
                    return key

        for _ in range(drops):
            events.append(DropMessage(*fresh_send()))
        for _ in range(duplicates):
            events.append(DuplicateMessage(*fresh_send()))
        for _ in range(delays):
            events.append(DelayMessage(*fresh_send(), rng.uniform(0, max_seconds)))
        return cls(events, seed=seed)

    @classmethod
    def parse(cls, spec: str, nprocs: int) -> "FaultPlan":
        """Parse a CLI fault spec into a plan.

        Two forms, tokens comma-separated:

        - explicit events: ``crash=RANK@OP``, ``stall=RANK@OP:SECS``,
          ``drop=RANK@N``, ``dup=RANK@N``, ``delay=RANK@N:SECS``;
        - seeded: ``seed=S[,crashes=N][,stalls=N][,drops=N][,dups=N][,delays=N]``.
        """
        spec = spec.strip()
        if not spec:
            raise ValueError("empty fault spec")
        tokens = [t.strip() for t in spec.split(",") if t.strip()]
        events: list[FaultEvent] = []
        seeded: dict[str, int] = {}

        def rank_at(arg: str) -> tuple[int, int]:
            rank_s, at_s = arg.split("@", 1)
            return int(rank_s), int(at_s)

        for tok in tokens:
            if "=" not in tok:
                raise ValueError(f"bad fault token {tok!r} (expected key=value)")
            key, _, arg = tok.partition("=")
            key = key.strip()
            if key in ("seed", "crashes", "stalls", "drops", "dups", "delays"):
                seeded[key] = int(arg)
            elif key == "crash":
                events.append(CrashRank(*rank_at(arg)))
            elif key == "drop":
                events.append(DropMessage(*rank_at(arg)))
            elif key == "dup":
                events.append(DuplicateMessage(*rank_at(arg)))
            elif key in ("stall", "delay"):
                head, _, secs = arg.partition(":")
                if not secs:
                    raise ValueError(f"{key} needs RANK@N:SECONDS, got {tok!r}")
                rank, at = rank_at(head)
                if key == "stall":
                    events.append(StallRank(rank, at, float(secs)))
                else:
                    events.append(DelayMessage(rank, at, float(secs)))
            else:
                raise ValueError(f"unknown fault token {tok!r}")
        if events and seeded:
            raise ValueError("fault spec mixes explicit events with seed= form")
        if seeded:
            if "seed" not in seeded:
                raise ValueError("seeded fault spec needs seed=")
            return cls.from_seed(
                seeded["seed"],
                nprocs,
                crashes=seeded.get("crashes", 1),
                stalls=seeded.get("stalls", 0),
                drops=seeded.get("drops", 0),
                duplicates=seeded.get("dups", 0),
                delays=seeded.get("delays", 0),
            )
        plan = cls(events)
        for ev in plan.events:
            if not (0 <= ev.rank < nprocs):
                raise ValueError(f"fault event {ev} targets rank outside 0..{nprocs - 1}")
        return plan

    # ---------------------------------------------------------- runtime hooks

    def op_event(self, rank: int, op_index: int) -> list[FaultEvent]:
        """Events fired by ``rank``'s ``op_index``-th MPI call (each fires once)."""
        with self._lock:
            events = self._op_events.pop((rank, op_index), [])
            for ev in events:
                kind = "crash" if isinstance(ev, CrashRank) else "stall"
                self._fired.append((kind, rank, op_index))
            return events

    def send_event(self, rank: int, send_index: int) -> FaultEvent | None:
        """The event (if any) attached to ``rank``'s ``send_index``-th post."""
        with self._lock:
            ev = self._send_events.pop((rank, send_index), None)
            if ev is not None:
                kind = {
                    DropMessage: "drop",
                    DuplicateMessage: "duplicate",
                    DelayMessage: "delay",
                }[type(ev)]
                self._fired.append((kind, rank, send_index))
            return ev

    def absorb_fired(self, entries: Iterable[tuple]) -> None:
        """Mark ``entries`` (trace tuples from a forked copy) as consumed.

        The process transport hands each rank a fork-copied plan; events the
        child fired are reported back in its exit envelope and absorbed here
        so the parent's plan keeps the fire-once-per-plan contract (and the
        combined :meth:`trace`) across supervised retry attempts.
        """
        with self._lock:
            for entry in entries:
                kind, rank, idx = entry
                if kind in ("crash", "stall"):
                    events = self._op_events.get((rank, idx))
                    if events is not None:
                        # Pop only the matching event kind; a crash and a
                        # stall can share one (rank, op) key.
                        cls = CrashRank if kind == "crash" else StallRank
                        events[:] = [ev for ev in events if not isinstance(ev, cls)]
                        if not events:
                            del self._op_events[(rank, idx)]
                else:
                    self._send_events.pop((rank, idx), None)
                self._fired.append((kind, rank, idx))

    def fired_count(self) -> int:
        """Number of trace entries so far (children snapshot this at start)."""
        with self._lock:
            return len(self._fired)

    def fired_since(self, base: int) -> list[tuple]:
        """Trace entries appended after :meth:`fired_count` returned ``base``."""
        with self._lock:
            return list(self._fired[base:])

    # -------------------------------------------------------------- inspection

    def trace(self) -> tuple[tuple, ...]:
        """Fired events as a sorted tuple — deterministic across interleavings."""
        with self._lock:
            return tuple(sorted(self._fired))

    @property
    def pending(self) -> int:
        """Events not yet fired."""
        with self._lock:
            return len(self._op_events) + len(self._send_events)

    def reset(self) -> None:
        """Re-arm every event and clear the trace (for repeat experiments)."""
        fresh = FaultPlan(self.events, seed=self.seed)
        with self._lock:
            self._op_events = fresh._op_events
            self._send_events = fresh._send_events
            self._fired = []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan(events={len(self.events)}, seed={self.seed}, pending={self.pending})"
