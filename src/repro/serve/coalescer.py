"""Submission coalescing: turn a trickle of queries into query blocks.

The always-on service accepts queries one at a time, but the MR-MPI BLAST
pipeline amortises its fixed costs (the job broadcast, master/worker
dispatch with the map output riding its completions to rank 0) over a
whole *query block*.  The coalescer is the pure state machine between the two:
submissions wait in one FIFO, in arrival order, and are flushed as a
:class:`QueryBatch` when

- **size** triggers — enough submissions are pending to fill a batch,
- **deadline** triggers — the oldest pending submission has waited
  ``max_delay`` (its flush time is ``submitted_at + max_delay``), or
- **idle** triggers — the caller reports that no job is in flight.  Waiting
  can only buy a bigger batch while the ranks are busy with the previous
  one; holding a query back from idle ranks is pure latency.

Every method that forms batches takes ``now`` explicitly; the coalescer
never reads a wall clock and never sleeps, which is what lets the unit suite drive it on a
deterministic tick clock.

``max_batch`` only caps a batch: the idle trigger already sizes batches
to the load, because queries gather into one only while a job runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.bio.seq import SeqRecord

__all__ = ["Submission", "QueryBatch", "Coalescer"]


@dataclass(frozen=True)
class Submission:
    """One query waiting in (or moving through) the service.

    ``submitted_at`` is its arrival time on the service clock; arrivals
    are stamped in order, so they never decrease along the queue.
    """

    seq: int
    query: SeqRecord
    submitted_at: float = 0.0


@dataclass(frozen=True)
class QueryBatch:
    """A flushed query block, ready to dispatch as one MapReduce job."""

    batch_id: int
    submissions: tuple[Submission, ...]
    formed_at: float
    #: why the flush happened: "size", "deadline", "idle" or "forced"
    reason: str = "size"

    def __len__(self) -> int:
        return len(self.submissions)


class Coalescer:
    """Pure batching state machine over one FIFO of submissions.

    ``add`` and ``poll`` never block and never read a clock — ``poll``'s
    caller supplies ``now``.  ``max_delay`` bounds how long a submission may wait
    for company *while the ranks are busy*; an idle service never waits
    (see :meth:`poll`).  Batches take submissions in arrival order.  Two
    submissions carrying the same query id are never placed in the same
    batch: the mapper would search the duplicated record twice and collate
    would merge the duplicate hits under one key, breaking per-query byte
    parity with a standalone run.
    """

    def __init__(self, max_batch: int = 8, max_delay: float = 0.05) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        self.max_batch = max_batch
        self.max_delay = max_delay
        self._queue: deque[Submission] = deque()
        self._next_batch_id = 0

    @property
    def pending(self) -> int:
        """Number of submissions waiting to be batched."""
        return len(self._queue)

    def add(self, submission: Submission) -> None:
        """Enqueue one submission."""
        self._queue.append(submission)

    def next_flush_at(self) -> float | None:
        """Earliest pending flush time, or None when nothing is pending.

        The queue stays in arrival order (a deferred duplicate returns to
        the head, ahead of every later arrival), so the head is the oldest.
        """
        if not self._queue:
            return None
        return self._queue[0].submitted_at + self.max_delay

    def _form_batch(self, now: float, reason: str) -> QueryBatch:
        picked: list[Submission] = []
        seen_ids: set[str] = set()
        deferred: list[Submission] = []
        while self._queue and len(picked) < self.max_batch:
            sub = self._queue.popleft()
            if sub.query.id in seen_ids:
                # Same query id twice: defer the later copy to the next
                # batch (parity rule — see the class docstring).
                deferred.append(sub)
                continue
            seen_ids.add(sub.query.id)
            picked.append(sub)
        self._queue.extendleft(reversed(deferred))
        batch = QueryBatch(
            batch_id=self._next_batch_id,
            submissions=tuple(picked),
            formed_at=now,
            reason=reason,
        )
        self._next_batch_id += 1
        return batch

    def poll(self, now: float, idle: bool = False) -> list[QueryBatch]:
        """Flush every batch that is due at ``now`` (possibly none).

        Size triggers fire first (a full batch never waits on a deadline);
        then one deadline batch is formed if the oldest flush time has
        passed — partially filled, carrying everything pending up to
        ``max_batch``.  With ``idle`` (no job in flight) and neither
        trigger fired, whatever is pending goes out as one batch now: that
        batch makes the ranks busy, so the rest waits behind it as usual.
        """
        batches: list[QueryBatch] = []
        while self.pending >= self.max_batch:
            batch = self._form_batch(now, "size")
            if not batch.submissions:  # pragma: no cover - defensive
                break
            batches.append(batch)
        while self._queue and self.next_flush_at() <= now:
            batches.append(self._form_batch(now, "deadline"))
        if idle and self.pending and not batches:
            batches.append(self._form_batch(now, "idle"))
        return batches

    def flush(self, now: float) -> list[QueryBatch]:
        """Force everything pending out, regardless of deadlines."""
        batches: list[QueryBatch] = []
        while self.pending:
            batches.append(self._form_batch(now, "forced"))
        return batches

