"""The thread backend: every rank is a thread of one process.

One :class:`Network` is shared by all ranks of a job and holds every
rank's mailbox, so delivery is an append to the destination's
:class:`~repro.mpi.transport.Mailbox` and an abort wakes every rank
directly.  A send snapshots each of the payload's buffers once and the
receiver gets the payload decoded over those private bytes, so a sender
may reuse its buffers at once, as on the process backend.  Matching,
contexts, the codec, fault injection and telemetry are the shared message
layer of :mod:`repro.mpi.transport`; ranks are started by
:class:`~repro.mpi.runtime.SpmdJob`.
"""

from __future__ import annotations

import time

from repro.mpi.faultplan import FaultPlan
from repro.mpi.transport import Mailbox, Message, TransportEndpoint, snapshot
from repro.obs.trace import NULL_TRACER

__all__ = ["Network", "Message"]


class Network(TransportEndpoint):
    """Shared state of one thread-backend job: every rank's mailbox.

    Threads share one address space, so a payload's buffers live in the
    snapshot the send takes and there is no arena here.
    """

    def __init__(
        self,
        nprocs: int,
        op_timeout: float | None = None,
        fault_plan: FaultPlan | None = None,
        trace=None,
    ) -> None:
        super().__init__(
            nprocs, op_timeout, fault_plan,
            tracers=([trace.tracer(rank) for rank in range(nprocs)]
                     if trace is not None else [NULL_TRACER] * nprocs),
            mailboxes=[Mailbox() for _ in range(nprocs)],
            heartbeats=[time.monotonic()] * nprocs,
            op_counts=[0] * nprocs,
            dead=[0] * nprocs,
        )

    def _deliver(self, msg: Message, wire) -> None:
        msg.payload = snapshot(wire)
        self._mailboxes[msg.dst].put(msg)
