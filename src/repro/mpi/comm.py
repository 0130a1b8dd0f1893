"""Communicator: point-to-point + collectives over the in-process network.

Collectives use textbook algorithms (binomial-tree bcast/reduce,
dissemination barrier, linear gather/scatter) implemented *on top of* the
point-to-point layer, exactly as a real MPI library structures them.  All
collective traffic runs with negative tags, which are reserved: user
point-to-point tags must be ``>= 0``, so collectives and user traffic can
never match each other even inside the same context.
"""

from __future__ import annotations

import copy
import functools
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.mpi.exceptions import MPIError
from repro.mpi.network import Message, Network
from repro.mpi.ops import ANY_SOURCE, ANY_TAG, SUM, Op, Status

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
_TAG_SCATTER = -6
_TAG_ALLTOALL = -7
_TAG_SCAN = -8


def _isolate(obj: Any) -> Any:
    """Copy a payload so sender/receiver can never alias mutable state.

    Immutable builtins pass through untouched; numpy arrays are copied
    cheaply; everything else takes the deepcopy path (mirrors the pickle
    round-trip a real MPI send implies).
    """
    if obj is None or isinstance(obj, (int, float, bool, str, bytes, frozenset)):
        return obj
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, tuple) and all(
        o is None or isinstance(o, (int, float, bool, str, bytes)) for o in obj
    ):
        return obj
    return copy.deepcopy(obj)


def _wire(obj: Any) -> Any:
    """Isolation with a buffer-protocol fast path for array payloads.

    MPI buffer semantics put the aliasing burden on the *caller*: a buffer
    handed to a send must not be mutated until the operation completes.
    Under that contract a bare ndarray — or a container of ndarrays, the
    columnar page wire format — needs no defensive copy at all: the thread
    transport passes a read-only *view* (receivers can read, nobody can
    write), and the process transport serialises straight out of the
    caller's buffer into the shared arena.  Collectives double as
    synchronisation fences, so the SOM epoch loop and the shuffle pipeline
    satisfy the contract naturally.

    One extra nesting level is honoured — a sequence whose items are
    ``None``, arrays, or sequences of arrays, which is exactly what
    allgather's internal bcast-of-a-gathered-list and the paged columnar
    gather produce — so those stay no-copy (and arena-frameable) too.

    Everything else keeps the conservative :func:`_isolate` deep copy.
    """
    if isinstance(obj, np.ndarray):
        view = obj.view()
        view.setflags(write=False)
        return view
    if isinstance(obj, (tuple, list)) and obj:
        if all(isinstance(a, np.ndarray) for a in obj):
            # A fresh container (so receivers can't reorder the sender's
            # list) holding frozen views.
            frozen = []
            for a in obj:
                view = a.view()
                view.setflags(write=False)
                frozen.append(view)
            return tuple(frozen) if isinstance(obj, tuple) else frozen
        if all(
            o is None
            or isinstance(o, np.ndarray)
            or (isinstance(o, (tuple, list)) and o
                and all(isinstance(a, np.ndarray) for a in o))
            for o in obj
        ):
            nested = [None if o is None else _wire(o) for o in obj]
            return tuple(nested) if isinstance(obj, tuple) else nested
    return _isolate(obj)


def _payload_count(obj: Any) -> int:
    if isinstance(obj, np.ndarray):
        return int(obj.size)
    if isinstance(obj, (bytes, bytearray, str)):
        return len(obj)
    return 1


class Request:
    """Handle for a non-blocking operation (mpi4py-style ``wait``/``test``)."""

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

    def test(self, status: Optional[Status] = None) -> tuple[bool, Any]:
        """Poll for completion: ``(flag, payload-or-None)``."""
        if self._done:
            return True, self._payload
        msg = self._comm._match(source=self._source, tag=self._tag, block=False)
        if msg is None:
            return False, None
        self._done = True
        self._payload = msg.payload
        self._fill_status(status, msg)
        return True, self._payload

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

    def __init__(self, network: Network, rank: int, group: Sequence[int], context: int = 0):
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
    def network(self) -> Network:
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
                payload=_wire(obj),
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
        """Non-blocking receive; complete it with ``wait``/``test``."""
        return Request(self, "recv", source=source, tag=tag)

    def sendrecv(
        self,
        sendobj: Any,
        dest: int,
        sendtag: int = 0,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Any:
        """Combined send+receive (deadlock-free thanks to eager sends)."""
        self.send(sendobj, dest, sendtag)
        return self.recv(source=source, tag=recvtag, status=status)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        """Block until a matching message is available; do not consume it."""
        # Eager implementation: poll via the network with tiny sleeps is not
        # needed — match-and-repost would reorder, so use network.probe with
        # a condition-wait loop via match(block=False).
        import time

        deadline = self._network.op_timeout
        waited = 0.0
        while True:
            msg = self._network.probe(self._global_rank, self._context, source, tag)
            if msg is not None:
                st = Status(source=msg.src, tag=msg.tag, count=_payload_count(msg.payload))
                return st
            time.sleep(0.0005)
            waited += 0.0005
            if waited > deadline:
                from repro.mpi.exceptions import DeadlockError

                raise DeadlockError(f"probe timed out on rank {self._rank}")

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Non-blocking probe."""
        return self._network.probe(self._global_rank, self._context, source, tag) is not None

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
        value = _isolate(sendobj)
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

    def Allreduce(self, sendbuf: np.ndarray, recvbuf: np.ndarray, op: Op = SUM) -> None:
        result = self.allreduce(np.ascontiguousarray(sendbuf), op=op)
        recvbuf.reshape(-1)[:] = np.asarray(result).reshape(-1)

    @_traced_collective("gather")
    def gather(self, sendobj: Any, root: int = 0) -> Optional[list]:
        """Gather one object per rank into a rank-ordered list on root."""
        if self._rank != root:
            self._post(sendobj, root, _TAG_GATHER)
            return None
        out: list[Any] = [None] * self.size
        out[root] = _wire(sendobj)
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

    @_traced_collective("scatter")
    def scatter(self, sendobjs: Optional[Sequence[Any]] = None, root: int = 0) -> Any:
        """Scatter a rank-ordered sequence from root; returns this rank's item."""
        if self._rank == root:
            if sendobjs is None or len(sendobjs) != self.size:
                raise MPIError(
                    f"scatter needs exactly {self.size} items on root, got "
                    f"{None if sendobjs is None else len(sendobjs)}"
                )
            for peer in range(self.size):
                if peer != root:
                    self._post(sendobjs[peer], peer, _TAG_SCATTER)
            return _wire(sendobjs[root])
        return self._match(source=root, tag=_TAG_SCATTER).payload

    @_traced_collective("alltoall")
    def alltoall(self, sendobjs: Sequence[Any]) -> list:
        """Personalised all-to-all: item ``i`` of my list goes to rank ``i``.

        On an arena-backed transport the exchange runs the classic
        pairwise XOR-peer schedule: round ``r`` pairs each rank with
        ``rank ^ r`` (sendrecv), so at most one outbound payload per rank
        is in flight at a time and peak arena residency per round is one
        slot, not ``P-1`` — that is what lets a ring sized well below the
        full shuffle volume keep a 100% hit rate.  Both schedules make
        exactly ``size-1`` posts and ``size-1`` matches per rank, so
        FaultPlan op/send counters (and therefore seeded fault traces)
        are identical across backends.
        """
        if len(sendobjs) != self.size:
            raise MPIError(f"alltoall needs {self.size} items, got {len(sendobjs)}")
        size, rank = self.size, self._rank
        out: list[Any] = [None] * size
        out[rank] = _wire(sendobjs[rank])
        if getattr(self._network, "arena_enabled", False):
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
        value = _isolate(sendobj)
        if self._rank > 0:
            prev = self._match(source=self._rank - 1, tag=_TAG_SCAN).payload
            value = op(prev, value)
        if self._rank < self.size - 1:
            self._post(value, self._rank + 1, _TAG_SCAN)
        return value

    @_traced_collective("exscan")
    def exscan(self, sendobj: Any, op: Op = SUM) -> Any:
        """Exclusive prefix reduction; undefined (None) on rank 0."""
        value = _isolate(sendobj)
        prev = None
        if self._rank > 0:
            prev = self._match(source=self._rank - 1, tag=_TAG_SCAN).payload
        if self._rank < self.size - 1:
            nxt = value if prev is None else op(prev, value)
            self._post(nxt, self._rank + 1, _TAG_SCAN)
        return prev

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
