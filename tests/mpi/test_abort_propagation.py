"""One rank raising inside a collective must wake every peer with AbortError.

The failure mode being guarded against is a *hang*: an exception on one rank
while its peers sit blocked in a binomial tree or dissemination barrier.
MPI_Abort semantics require the whole job to come down promptly — peers get
:class:`AbortError`, the caller gets the original exception, nobody waits
for the op timeout.
"""

import pytest

from repro.mpi import AbortError
from repro.mpi.runtime import BACKENDS, SpmdJob

NPROCS = 4

pytestmark = pytest.mark.parametrize("backend", BACKENDS)


class Boom(RuntimeError):
    pass


COLLECTIVES = {
    "barrier": lambda comm: comm.barrier(),
    "bcast": lambda comm: comm.bcast("x" if comm.rank == 0 else None, root=0),
    "reduce": lambda comm: comm.reduce(comm.rank, root=0),
    "allreduce": lambda comm: comm.allreduce(comm.rank),
    "gather": lambda comm: comm.gather(comm.rank, root=0),
    "allgather": lambda comm: comm.allgather(comm.rank),
    "alltoall": lambda comm: comm.alltoall([comm.rank] * comm.size),
}


@pytest.mark.parametrize("failing_rank", [0, 2, NPROCS - 1])
@pytest.mark.parametrize("name", sorted(COLLECTIVES))
def test_exception_in_collective_wakes_all_peers(name, failing_rank, backend):
    op = COLLECTIVES[name]

    def prog(comm):
        comm.barrier()  # everyone reaches the collective together
        if comm.rank == failing_rank:
            raise Boom(f"rank {comm.rank} dies in {name}")
        return op(comm)

    # A generous op_timeout proves peers are *woken*, not timed out: were the
    # abort lost, the job would burn the full budget and fail differently.
    job = SpmdJob(NPROCS, prog, op_timeout=30.0, backend=backend)
    with pytest.raises(Boom):
        job.run(join_timeout=10.0)
    for rank, err in enumerate(job.errors):
        if rank == failing_rank:
            assert isinstance(err, Boom)
        else:
            assert err is None or isinstance(err, AbortError)


def test_exception_before_any_collective_still_aborts_peers(backend):
    def prog(comm):
        if comm.rank == 1:
            raise Boom("early death")
        # Peers head into a collective that can never complete without rank 1.
        return comm.allreduce(comm.rank)

    job = SpmdJob(NPROCS, prog, op_timeout=30.0, backend=backend)
    with pytest.raises(Boom):
        job.run(join_timeout=10.0)
    assert any(isinstance(e, AbortError) for e in job.errors)


def test_nested_collectives_abort_cleanly(backend):
    """A failure several collectives deep must not strand earlier state."""

    def prog(comm):
        for i in range(5):
            comm.allreduce(i)
            comm.barrier()
        if comm.rank == 3:
            raise Boom("late death")
        comm.bcast(None, root=0)
        comm.barrier()
        return "done"

    job = SpmdJob(NPROCS, prog, op_timeout=30.0, backend=backend)
    with pytest.raises(Boom):
        job.run(join_timeout=10.0)
