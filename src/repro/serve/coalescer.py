"""Submission coalescing: turn a trickle of queries into query blocks.

The always-on service accepts queries one at a time, but the MR-MPI BLAST
pipeline amortises its fixed costs (the job broadcast, master/worker
dispatch, the gather of the map output to rank 0) over a whole *query
block*.  The coalescer is the pure state machine between the two:
submissions accumulate per tenant and are flushed as a :class:`QueryBatch`
when

- **size** triggers — enough submissions are pending to fill a batch,
- **deadline** triggers — the oldest pending submission's flush time
  (``min(submission deadline, arrival + max_delay)``) has passed, or
- **idle** triggers — the caller reports that no job is in flight.  Waiting
  can only buy a bigger batch while the ranks are busy with the previous
  one; holding a query back from idle ranks is pure latency.

Every method takes ``now`` explicitly; the coalescer never reads a wall
clock and never sleeps, which is what lets the unit suite drive it on a
:class:`~repro.obs.trace.TickClock` deterministically.

Batch sizing is advised by the α/β machine model measured by the shuffle
benchmark (``BENCH_shuffle.json``): a batch pays roughly
``message rounds x α x nprocs`` of latency no matter how many queries it
carries, so :func:`advise_batch_size` picks the smallest batch for which
that fixed cost stays below a target fraction of the useful per-query work.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.bio.seq import SeqRecord
from repro.serve.admission import FairQueue

__all__ = [
    "Submission",
    "QueryBatch",
    "Coalescer",
    "load_machine_model",
    "advise_batch_size",
]

#: Sequential message rounds a service job pays whatever its size, counted
#: off a traced one-query job on 3 ranks: the job broadcast, a worker's
#: first request and its assignment, the last completion and the reply
#: that retires the workers, and the map output's gather to rank 0, which
#: reduces alone.  No collective runs inside a job.
JOB_MESSAGE_ROUNDS = 6


@dataclass(frozen=True)
class Submission:
    """One query waiting in (or moving through) the service.

    ``deadline`` is an *absolute* time on the service clock by which the
    submission must be flushed into a batch (not completed); ``None`` means
    the coalescer's ``max_delay`` alone bounds its wait (behind a running
    job: an idle service does not make it wait at all).
    """

    seq: int
    query: SeqRecord
    tenant: str = "default"
    submitted_at: float = 0.0
    deadline: float | None = None

    def flush_at(self, max_delay: float) -> float:
        """Latest time this submission may sit unbatched."""
        latest = self.submitted_at + max_delay
        if self.deadline is not None:
            latest = min(latest, self.deadline)
        return latest


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

    @property
    def query_ids(self) -> tuple[str, ...]:
        """Query record ids in batch order."""
        return tuple(s.query.id for s in self.submissions)

    @property
    def queries(self) -> list[SeqRecord]:
        """The batch's query block (records in batch order)."""
        return [s.query for s in self.submissions]


class Coalescer:
    """Pure batching state machine over a weighted-fair tenant queue.

    ``add`` and ``poll`` never block and never read a clock — the caller
    supplies ``now``.  ``max_delay`` bounds how long a submission may wait
    for company *while the ranks are busy*; an idle service never waits
    (see :meth:`poll`).  Batches pop submissions in stride-scheduled fair
    order (see :class:`~repro.serve.admission.FairQueue`), so a saturating
    tenant cannot starve a light one.  Two submissions carrying the same
    query id are never placed in the same batch: the mapper would search
    the duplicated record twice and collate would merge the duplicate hits
    under one key, breaking per-query byte parity with a standalone run.
    """

    def __init__(
        self,
        max_batch: int = 8,
        max_delay: float = 0.05,
        weights: dict[str, float] | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        self.max_batch = max_batch
        self.max_delay = max_delay
        self._queue = FairQueue(weights)
        self._flush_at: dict[int, float] = {}
        self._next_batch_id = 0
        self.batches_formed = 0
        self.submissions_seen = 0

    @property
    def pending(self) -> int:
        """Number of submissions waiting to be batched."""
        return len(self._queue)

    def add(self, submission: Submission, now: float) -> None:
        """Enqueue one submission (``now`` only feeds bookkeeping)."""
        self._queue.push(submission.tenant, submission)
        self._flush_at[submission.seq] = submission.flush_at(self.max_delay)
        self.submissions_seen += 1

    def next_flush_at(self) -> float | None:
        """Earliest pending flush time, or None when nothing is pending."""
        if not self._flush_at:
            return None
        return min(self._flush_at.values())

    def _form_batch(self, now: float, reason: str) -> QueryBatch:
        picked: list[Submission] = []
        seen_ids: set[str] = set()
        deferred: list[tuple[str, Submission]] = []
        while self._queue and len(picked) < self.max_batch:
            sub = self._queue.pop()
            if sub.query.id in seen_ids:
                # Same query id twice: defer the later copy to the next
                # batch (parity rule — see the class docstring).
                deferred.append((sub.tenant, sub))
                continue
            seen_ids.add(sub.query.id)
            picked.append(sub)
            del self._flush_at[sub.seq]
        for tenant, sub in reversed(deferred):
            self._queue.push_front(tenant, sub)
        batch = QueryBatch(
            batch_id=self._next_batch_id,
            submissions=tuple(picked),
            formed_at=now,
            reason=reason,
        )
        self._next_batch_id += 1
        self.batches_formed += 1
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
        while self.pending:
            due = self.next_flush_at()
            if due is None or due > now:
                break
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


def load_machine_model(
    path: str, backend: str = "thread", arena: bool = True
) -> dict[str, float]:
    """Read the α/β point-to-point model the shuffle bench fitted.

    Returns ``{"alpha_s": latency per message in seconds, "bandwidth_bytes_s":
    sustained bandwidth}`` for the given transport.  The process backend has
    two entries — with and without the shared-memory arena — matching how
    the bench measured it.
    """
    with open(path) as fh:
        data = json.load(fh)
    if backend == "thread":
        key = "thread"
    elif backend == "process":
        key = "process+arena" if arena else "process"
    else:
        raise ValueError(f"unknown backend {backend!r}")
    model = data["machine_model"][key]
    return {
        "alpha_s": float(model["alpha_us"]) * 1e-6,
        "bandwidth_bytes_s": float(model["bandwidth_mib_s"]) * 1024 * 1024,
    }


def advise_batch_size(
    model: dict[str, float],
    nprocs: int,
    per_query_seconds: float,
    message_rounds: int = JOB_MESSAGE_ROUNDS,
    overhead_fraction: float = 0.1,
    max_batch: int = 64,
) -> int:
    """Smallest batch that keeps dispatch overhead under the target fraction.

    A batch pays a fixed latency cost of roughly ``message_rounds x alpha x
    nprocs`` (rank 0 handles a message of every worker in each round)
    regardless of how many queries it carries, while useful work scales
    with the batch.
    The advised size is the smallest ``b`` with ``fixed <=
    overhead_fraction x b x per_query_seconds``, clamped to
    ``[1, max_batch]`` — bigger batches only add queueing latency.
    """
    if nprocs < 1:
        raise ValueError(f"nprocs must be >= 1, got {nprocs}")
    if per_query_seconds <= 0 or overhead_fraction <= 0:
        return max_batch
    fixed = message_rounds * model["alpha_s"] * nprocs
    advised = math.ceil(fixed / (overhead_fraction * per_query_seconds))
    return max(1, min(advised, max_batch))
