"""Array payloads under the one codec: a send copies each buffer once.

``Comm`` used to freeze array payloads into read-only *views* of the
sender's buffer on the thread backend and deep-copy everything else.  Both
transports now run one codec (:mod:`repro.mpi.transport`): a payload is one
protocol-5 pickle whose array buffers a send copies exactly once (a thread
snapshot, or an inline frame / shm block across processes),
and receivers decode it over read-only views of that copy, so a sender may
reuse its buffer as soon as the send returns — MPI buffer semantics.
"""

import numpy as np
import pytest

from repro.mpi import run_spmd
from repro.mpi.runtime import BACKENDS
from repro.mpi.transport import encode, snapshot


class TestWireUnit:
    def test_ndarray_becomes_frozen_view(self):
        a = np.arange(16.0)
        data, raws = encode(a)
        assert len(raws) == 1 and np.shares_memory(a, np.frombuffer(raws[0]))
        w = snapshot((data, raws))
        np.testing.assert_array_equal(w, a)
        assert not np.shares_memory(a, w)
        assert not w.flags.writeable
        assert a.flags.writeable  # the original is untouched

    def test_tuple_of_ndarrays_freezes_each(self):
        t = (np.arange(4), np.zeros(3))
        w = snapshot(encode(t))
        assert isinstance(w, tuple)
        assert all(np.array_equal(a, b) for a, b in zip(t, w))
        assert not any(np.shares_memory(a, b) for a, b in zip(t, w))
        assert all(not b.flags.writeable for b in w)

    def test_other_payloads_still_deep_copy(self):
        obj = {"nested": [1, 2]}
        w = snapshot(encode(obj))
        assert w == obj and w is not obj
        assert w["nested"] is not obj["nested"]
        mixed = (np.arange(3), "not an array")
        w = snapshot(encode(mixed))
        assert w is not mixed and w[1] == "not an array"
        assert not np.shares_memory(w[0], mixed[0]) and not w[0].flags.writeable

    def test_isolate_still_copies_arrays(self):
        a = np.arange(8)
        assert not np.shares_memory(a, snapshot(encode(a)))


class TestGatherNoCopy:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_received_arrays_read_only_on_both_backends(self, backend):
        def prog(comm):
            gathered = comm.allgather(np.full(32, float(comm.rank)))
            return [bool(a.flags.writeable) for a in gathered]

        results = run_spmd(2, prog, backend=backend, op_timeout=30.0)
        # Every array that crossed the transport is frozen.  Rank 0 roots
        # the gather, so its own contribution is the array it passed.
        assert results == [[True, False], [False, False]]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_gather_values_identical_across_backends(self, backend):
        def prog(comm):
            gathered = comm.gather(np.arange(8.0) * comm.rank, root=1)
            if comm.rank == 1:
                return np.concatenate(gathered).tolist()
            return None

        results = run_spmd(3, prog, backend=backend, op_timeout=30.0)
        want = np.concatenate([np.arange(8.0) * r for r in range(3)]).tolist()
        assert results[1] == want
