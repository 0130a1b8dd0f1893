"""Runtime and network edge cases: aborts, requests, contexts, misc."""

import numpy as np
import pytest

from repro.mpi import AbortError, Comm, MPIError, Network, run_spmd
from repro.mpi.network import Message
from repro.mpi.runtime import SpmdJob


class TestNetwork:
    def test_post_to_invalid_rank(self):
        net = Network(2)
        with pytest.raises(MPIError, match="invalid destination"):
            net.post(Message(src=0, dst=5, tag=0, context=0, payload=None))

    def test_post_after_abort_raises(self):
        net = Network(2)
        net.abort(RuntimeError("x"))
        with pytest.raises(AbortError):
            net.post(Message(src=0, dst=1, tag=0, context=0, payload=None))

    def test_nonblocking_match_returns_none(self):
        net = Network(1)
        assert net.match(0, context=0, block=False) is None

    def test_context_allocation_stable(self):
        net = Network(2)
        a = net.allocate_context(("split", 0, 1, (0, 1)))
        b = net.allocate_context(("split", 0, 1, (0, 1)))
        c = net.allocate_context(("split", 0, 2, (0, 1)))
        assert a == b != c

    def test_invalid_nprocs(self):
        with pytest.raises(MPIError):
            Network(0)


class TestCommEdges:
    def test_comm_rank_bounds(self):
        net = Network(2)
        with pytest.raises(MPIError):
            Comm(net, 5, [0, 1])

    def test_sizes_and_accessors(self):
        def main(comm):
            return (comm.Get_rank(), comm.Get_size(), comm.rank, comm.size)

        results = run_spmd(3, main)
        assert results == [(r, 3, r, 3) for r in range(3)]

    def test_send_to_self(self):
        def main(comm):
            comm.send("loop", dest=comm.rank, tag=3)
            return comm.recv(source=comm.rank, tag=3)

        assert run_spmd(2, main) == ["loop", "loop"]

    def test_reduce_on_single_rank(self):
        def main(comm):
            return (comm.reduce(41), comm.allreduce(41), comm.bcast(41))

        assert run_spmd(1, main) == [(41, 41, 41)]

    def test_repeated_dup_contexts_isolated(self):
        def main(comm):
            d1 = comm.dup()
            d2 = comm.dup()
            if comm.rank == 0:
                d2.send("second", dest=1, tag=0)
                d1.send("first", dest=1, tag=0)
                return None
            # Receiving on d1 must not pick up d2's message.
            return (d1.recv(source=0, tag=0), d2.recv(source=0, tag=0))

        assert run_spmd(2, main)[1] == ("first", "second")

    def test_numpy_scalar_reduction_types(self):
        def main(comm):
            v = np.float32(comm.rank)
            total = comm.allreduce(v)
            return float(total)

        assert run_spmd(4, main) == [6.0] * 4


class TestSpmdJob:
    def test_per_rank_args_via_closure(self):
        def main(comm, base, scale=1):
            return base + comm.rank * scale

        results = run_spmd(3, main, 100, scale=10)
        assert results == [100, 110, 120]

    def test_job_handle_runs_once(self):
        job = SpmdJob(2, lambda comm: comm.rank)
        assert job.run() == [0, 1]

    def test_zero_ranks_rejected(self):
        with pytest.raises(MPIError):
            SpmdJob(0, lambda comm: None)

    def test_error_in_every_rank_reports_first_real_error(self):
        def main(comm):
            raise KeyError(f"rank{comm.rank}")

        with pytest.raises(KeyError):
            run_spmd(3, main)
