"""Communicator: point-to-point + collectives over a transport endpoint.

Collectives use textbook algorithms (binomial-tree bcast/reduce,
dissemination barrier, linear gather) implemented *on top of* the
point-to-point layer, exactly as a real MPI library structures them.  All
collective traffic runs with negative tags, which are reserved: user
point-to-point tags must be ``>= 0``, so collectives and user traffic can
never match each other even inside the same context.

Payloads cross under the transport's one contract (see
:mod:`repro.mpi.transport`): a received payload is a read-only-array copy
of the payload as it was at the send, so a sender may reuse its buffers
as soon as a send returns.  A rank's own share of ``gather`` and
``alltoall`` is not a message and comes back as the object it passed; the
running value of ``reduce`` and ``scan`` starts as such a copy, so a
result never aliases the caller's buffer.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.mpi.exceptions import MPIError
from repro.mpi.ops import ANY_SOURCE, ANY_TAG, SUM, Op, Status
from repro.mpi.transport import Message, TransportEndpoint, encode, snapshot

__all__ = ["Comm", "Request"]


def _traced_collective(name: str) -> Callable:
    """Wrap a primitive collective in a ``mpi.<name>`` span.

    Only primitives are wrapped (composites like ``allreduce`` reuse them,
    so wrapping both would double-count).  With tracing off the wrapper
    costs one attribute check.
    """

    def deco(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            trc = self._tracer
            if not trc.enabled:
                return fn(self, *args, **kwargs)
            sid = trc.begin(f"mpi.{name}", cat="mpi")
            try:
                return fn(self, *args, **kwargs)
            finally:
                trc.end(sid)

        return wrapper

    return deco

# Reserved (negative) tags for collective plumbing.
_TAG_BCAST = -2
_TAG_REDUCE = -3
_TAG_BARRIER = -4
_TAG_GATHER = -5
_TAG_ALLTOALL = -7
_TAG_SCAN = -8


def _payload_count(obj: Any) -> int:
    if isinstance(obj, np.ndarray):
        return int(obj.size)
    if isinstance(obj, (bytes, bytearray, str)):
        return len(obj)
    return 1


class Request:
    """Handle for a non-blocking operation (mpi4py-style ``wait``)."""

    def __init__(
        self,
        comm: "Comm",
        kind: str,
        *,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        payload: Any = None,
    ) -> None:
        self._comm = comm
        self._kind = kind  # "send" (already completed) or "recv"
        self._source = source
        self._tag = tag
        self._payload = payload
        self._done = kind == "send"

    def wait(self, status: Optional[Status] = None) -> Any:
        """Block until completion; for receives, return the payload."""
        if self._done:
            return self._payload
        msg = self._comm._match(source=self._source, tag=self._tag)
        self._done = True
        self._payload = msg.payload
        self._fill_status(status, msg)
        return self._payload

    @staticmethod
    def _fill_status(status: Optional[Status], msg: Message) -> None:
        if status is not None:
            status.source = msg.src
            status.tag = msg.tag
            status.count = _payload_count(msg.payload)


class Comm:
    """An MPI communicator bound to one rank of an SPMD job.

    Unlike mpi4py (where one ``Comm`` object is shared), every rank holds its
    own ``Comm`` carrying its rank id — the natural shape for a runtime where
    ranks are threads of one process.
    """

    def __init__(self, network: TransportEndpoint, rank: int, group: Sequence[int], context: int = 0):
        self._network = network
        self._group = list(group)  # comm rank -> global (network) rank
        self._context = context
        if rank < 0 or rank >= len(self._group):
            raise MPIError(f"rank {rank} outside group of size {len(self._group)}")
        self._rank = rank
        self._global_rank = self._group[rank]
        self._tracer = network.tracer_for(self._global_rank)

    # -------------------------------------------------------------- properties

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return len(self._group)

    def Get_rank(self) -> int:
        return self._rank

    def Get_size(self) -> int:
        return self.size

    @property
    def network(self) -> TransportEndpoint:
        return self._network

    @property
    def group(self) -> tuple[int, ...]:
        """Comm-local rank -> global (network) rank mapping."""
        return tuple(self._group)

    @property
    def global_rank(self) -> int:
        """This rank's global (network) rank."""
        return self._global_rank

    @property
    def tracer(self):
        """This rank's tracer (the shared null tracer when tracing is off)."""
        return self._tracer

    # ------------------------------------------------------------ point-to-point

    def _check_peer(self, peer: int) -> int:
        if not (0 <= peer < self.size):
            raise MPIError(f"peer rank {peer} outside communicator of size {self.size}")
        return self._group[peer]

    def _post(self, obj: Any, dest: int, tag: int) -> None:
        # ``src`` is the communicator-local rank (receivers index gathers by
        # it); the *global* rank travels separately so fault injection and
        # heartbeats account to the right physical rank on sub-communicators.
        self._network.post(
            Message(
                src=self._rank,
                dst=self._check_peer(dest),
                tag=tag,
                context=self._context,
                payload=obj,
            ),
            acting=self._global_rank,
        )

    def _match(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        block: bool = True,
        timeout: float | None = None,
    ) -> Optional[Message]:
        return self._network.match(
            dst=self._global_rank,
            context=self._context,
            source=source,
            tag=tag,
            timeout=timeout,
            block=block,
        )

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Buffered (eager) send of a Python object."""
        if tag < 0:
            raise MPIError(f"user tags must be >= 0, got {tag}")
        self._post(obj, dest, tag)

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Any:
        """Blocking receive; returns the received object."""
        msg = self._match(source=source, tag=tag)
        Request._fill_status(status, msg)
        return msg.payload

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send (eager: completes immediately)."""
        self.send(obj, dest, tag)
        return Request(self, "send", payload=None)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; complete it with ``wait``."""
        return Request(self, "recv", source=source, tag=tag)

    # -------------------------------------------------- numpy buffer variants

    def Send(self, buf: np.ndarray, dest: int, tag: int = 0) -> None:
        """Send a numpy array (contents copied at send time)."""
        if tag < 0:
            raise MPIError(f"user tags must be >= 0, got {tag}")
        self._post(np.ascontiguousarray(buf), dest, tag)

    def Recv(
        self,
        buf: np.ndarray,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> None:
        """Receive into a pre-allocated numpy array (in place)."""
        msg = self._match(source=source, tag=tag)
        data = np.asarray(msg.payload)
        if data.size != buf.size:
            raise MPIError(f"Recv buffer size {buf.size} != message size {data.size}")
        flat = buf.reshape(-1)
        flat[:] = data.reshape(-1)
        Request._fill_status(status, msg)

    # -------------------------------------------------------------- collectives

    @_traced_collective("barrier")
    def barrier(self) -> None:
        """Dissemination barrier: ceil(log2(P)) rounds of pairwise messages."""
        size, rank = self.size, self._rank
        k = 0
        while (1 << k) < size:
            dist = 1 << k
            self._post(None, (rank + dist) % size, _TAG_BARRIER - k)
            self._match(source=(rank - dist) % size, tag=_TAG_BARRIER - k)
            k += 1

    Barrier = barrier

    @_traced_collective("bcast")
    def bcast(self, obj: Any = None, root: int = 0) -> Any:
        """Binomial-tree broadcast; returns the broadcast object on all ranks."""
        size, rank = self.size, self._rank
        vrank = (rank - root) % size
        value = obj
        mask = 1
        while mask < size:
            if vrank & mask:
                src = ((vrank - mask) + root) % size
                value = self._match(source=src, tag=_TAG_BCAST).payload
                break
            mask <<= 1
        # Forward to children in decreasing mask order.
        mask >>= 1
        while mask > 0:
            child = vrank + mask
            if child < size:
                self._post(value, (child + root) % size, _TAG_BCAST)
            mask >>= 1
        return value

    def Bcast(self, buf: np.ndarray, root: int = 0) -> None:
        """In-place broadcast of a numpy array (the SOM codebook path)."""
        out = self.bcast(buf if self._rank == root else None, root=root)
        if self._rank != root:
            buf.reshape(-1)[:] = np.asarray(out).reshape(-1)

    @_traced_collective("reduce")
    def reduce(self, sendobj: Any, op: Op = SUM, root: int = 0) -> Any:
        """Binomial-tree reduction; returns the result on ``root`` else None."""
        size, rank = self.size, self._rank
        vrank = (rank - root) % size
        value = snapshot(encode(sendobj))
        mask = 1
        while mask < size:
            if vrank & mask:
                dst = ((vrank - mask) + root) % size
                self._post(value, dst, _TAG_REDUCE)
                break
            partner = vrank | mask
            if partner < size:
                other = self._match(source=(partner + root) % size, tag=_TAG_REDUCE).payload
                # ``value`` covers lower ranks than ``other``: keep rank order.
                value = op(value, other)
            mask <<= 1
        return value if rank == root else None

    def allreduce(self, sendobj: Any, op: Op = SUM) -> Any:
        """Reduce to rank 0 then broadcast (the classic composition)."""
        return self.bcast(self.reduce(sendobj, op=op, root=0), root=0)

    def Reduce(
        self,
        sendbuf: np.ndarray,
        recvbuf: Optional[np.ndarray],
        op: Op = SUM,
        root: int = 0,
    ) -> None:
        """Element-wise numpy reduction into ``recvbuf`` on the root.

        This is the direct-MPI call the paper's SOM uses to combine the
        per-rank numerator/denominator accumulators (Fig. 2).
        """
        result = self.reduce(np.ascontiguousarray(sendbuf), op=op, root=root)
        if self._rank == root:
            if recvbuf is None:
                raise MPIError("root must supply recvbuf to Reduce")
            recvbuf.reshape(-1)[:] = np.asarray(result).reshape(-1)

    @_traced_collective("gather")
    def gather(self, sendobj: Any, root: int = 0) -> Optional[list]:
        """Gather one object per rank into a rank-ordered list on root."""
        if self._rank != root:
            self._post(sendobj, root, _TAG_GATHER)
            return None
        out: list[Any] = [None] * self.size
        out[root] = sendobj
        for _ in range(self.size - 1):
            msg = self._match(source=ANY_SOURCE, tag=_TAG_GATHER)
            # msg.src carries the sender's communicator-local rank (senders
            # stamp their own rank within this context), so it indexes
            # ``out`` directly — using the network rank here would break
            # gathers on nested sub-communicators.
            out[msg.src] = msg.payload
        return out

    def allgather(self, sendobj: Any) -> list:
        """Gather to rank 0 then broadcast the full list."""
        return self.bcast(self.gather(sendobj, root=0), root=0)

    @_traced_collective("alltoall")
    def alltoall(self, sendobjs: Sequence[Any]) -> list:
        """Personalised all-to-all: item ``i`` of my list goes to rank ``i``.

        On an arena-backed transport the exchange runs the classic
        pairwise XOR-peer schedule: round ``r`` pairs each rank with
        ``rank ^ r`` (a paired send and receive), so at most one outbound
        payload per rank is in flight at a time and peak arena residency
        per round is one slot, not ``P-1`` — that is what lets a ring sized
        well below the full shuffle volume keep a 100% hit rate.  Both
        schedules make
        exactly ``size-1`` posts and ``size-1`` matches per rank, so
        FaultPlan op/send counters (and therefore seeded fault traces)
        are identical across backends.
        """
        if len(sendobjs) != self.size:
            raise MPIError(f"alltoall needs {self.size} items, got {len(sendobjs)}")
        size, rank = self.size, self._rank
        out: list[Any] = [None] * size
        out[rank] = sendobjs[rank]
        if self._network.arena_enabled:
            pow2 = 1
            while pow2 < size:
                pow2 <<= 1
            for r in range(1, pow2):
                peer = rank ^ r
                if peer < size:
                    self._post(sendobjs[peer], peer, _TAG_ALLTOALL)
                    out[peer] = self._match(
                        source=peer, tag=_TAG_ALLTOALL).payload
            return out
        for peer in range(size):
            if peer != rank:
                self._post(sendobjs[peer], peer, _TAG_ALLTOALL)
        for _ in range(size - 1):
            msg = self._match(source=ANY_SOURCE, tag=_TAG_ALLTOALL)
            out[msg.src] = msg.payload  # comm-local sender rank
        return out

    @_traced_collective("scan")
    def scan(self, sendobj: Any, op: Op = SUM) -> Any:
        """Inclusive prefix reduction in rank order (linear chain)."""
        value = snapshot(encode(sendobj))
        if self._rank > 0:
            prev = self._match(source=self._rank - 1, tag=_TAG_SCAN).payload
            value = op(prev, value)
        if self._rank < self.size - 1:
            self._post(value, self._rank + 1, _TAG_SCAN)
        return value

    # ------------------------------------------------------------ communicator ops

    def split(self, color: int, key: int = 0) -> Optional["Comm"]:
        """MPI_Comm_split: group ranks by ``color``, order by ``(key, rank)``.

        Ranks passing ``color=None`` (MPI_UNDEFINED) get ``None`` back.
        """
        triples = self.allgather((color, key, self._rank))
        if color is None:
            return None
        members = sorted(
            (k, r) for (c, k, r) in triples if c == color
        )  # (key, old rank) pairs
        group_global = [self._group[r] for (_k, r) in members]
        my_new_rank = next(i for i, (_k, r) in enumerate(members) if r == self._rank)
        ctx = self._network.allocate_context(("split", self._context, color, tuple(group_global)))
        return Comm(self._network, my_new_rank, group_global, context=ctx)

    def dup(self) -> "Comm":
        """Duplicate this communicator with an isolated context.

        ``dup`` is collective; every member increments the same per-comm
        counter, so all agree on the context key without extra messages.
        """
        self._dup_count = getattr(self, "_dup_count", 0) + 1
        ctx = self._network.allocate_context(
            ("dup", self._context, self._dup_count, tuple(self._group))
        )
        return Comm(self._network, self._rank, self._group, context=ctx)

    def shrink(self, dead: Sequence[int]) -> "Comm":
        """Drop ``dead`` comm-local ranks; return the survivors' communicator.

        Degraded-mode analogue of ULFM's ``MPI_Comm_shrink``, but
        *non-collective by construction*: every survivor already knows the
        same dead set (the master broadcast it / the transport's dead flags
        named it), so all survivors derive the same group and context key
        without an extra round of messages — which matters because the dead
        ranks can no longer participate in a collective.

        The caller must be a survivor.  Ranks are renumbered densely in
        the old order.
        """
        dead_set = set(dead)
        if self._rank in dead_set:
            raise MPIError(
                f"rank {self._rank} cannot shrink a communicator it was "
                f"dropped from")
        group_global = [g for i, g in enumerate(self._group) if i not in dead_set]
        if not group_global:
            raise MPIError("shrink would leave an empty communicator")
        my_new_rank = group_global.index(self._global_rank)
        ctx = self._network.allocate_context(
            ("shrink", self._context, tuple(group_global))
        )
        return Comm(self._network, my_new_rank, group_global, context=ctx)
