"""Deterministic fault injection and the supervised-retry loop."""

import time

import pytest

from repro.mpi import (
    AbortError,
    CrashRank,
    DeadlockError,
    DelayMessage,
    DropMessage,
    DuplicateMessage,
    FaultPlan,
    RankFailure,
    RetryPolicy,
    StallRank,
    SupervisionExhausted,
    classify_failure,
    run_spmd,
    run_supervised,
)
from repro.mpi.runtime import BACKENDS, SpmdJob


def chatty(comm, rounds=10):
    """A little SPMD program with plenty of MPI ops on every rank."""
    total = 0
    for _ in range(rounds):
        total = comm.allreduce(comm.rank)
        comm.barrier()
    return total


@pytest.mark.parametrize("backend", BACKENDS)
class TestCrashInjection:
    def test_crashed_rank_raises_rank_failure(self, backend):
        plan = FaultPlan([CrashRank(rank=1, at_op=3)])
        with pytest.raises(RankFailure) as exc_info:
            run_spmd(3, chatty, fault_plan=plan, op_timeout=10.0, backend=backend)
        assert exc_info.value.rank == 1
        assert plan.trace() == (("crash", 1, 3),)

    def test_peers_wake_with_abort_not_deadlock(self, backend):
        job = SpmdJob(4, chatty, fault_plan=FaultPlan([CrashRank(2, 5)]),
                      op_timeout=10.0, backend=backend)
        with pytest.raises(RankFailure):
            job.run()
        for rank, err in enumerate(job.errors):
            if rank == 2:
                assert isinstance(err, RankFailure)
            else:
                assert isinstance(err, AbortError)

    def test_crashed_rank_stays_crashed(self, backend):
        """Every MPI call after the crash op also fails (rank is dead)."""

        def stubborn(comm):
            for _ in range(20):
                try:
                    comm.barrier()
                except RankFailure:
                    # The dead rank tries again anyway; it must stay dead.
                    with pytest.raises(RankFailure):
                        comm.barrier()
                    raise
            return "survived"

        plan = FaultPlan([CrashRank(0, 2)])
        with pytest.raises(RankFailure):
            run_spmd(2, stubborn, fault_plan=plan, op_timeout=10.0, backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
class TestMessageFaults:
    def test_dropped_message_times_out_receiver(self, backend):
        def sender_receiver(comm):
            if comm.rank == 0:
                comm.send("payload", dest=1)
            else:
                return comm.recv(source=0)

        plan = FaultPlan([DropMessage(rank=0, nth_send=1)])
        with pytest.raises(DeadlockError):
            run_spmd(2, sender_receiver, fault_plan=plan, op_timeout=0.4,
                     backend=backend)
        assert plan.trace() == (("drop", 0, 1),)

    def test_duplicated_message_is_delivered_twice(self, backend):
        def dup_prog(comm):
            if comm.rank == 0:
                comm.send("hello", dest=1)
                return None
            first = comm.recv(source=0)
            second = comm.recv(source=0)  # the duplicate
            return (first, second)

        plan = FaultPlan([DuplicateMessage(rank=0, nth_send=1)])
        results = run_spmd(2, dup_prog, fault_plan=plan, op_timeout=5.0,
                           backend=backend)
        assert results[1] == ("hello", "hello")

    def test_delayed_message_arrives_late_but_intact(self, backend):
        def timed(comm):
            if comm.rank == 0:
                comm.send("slow", dest=1)
                return None
            t0 = time.monotonic()
            obj = comm.recv(source=0)
            return obj, time.monotonic() - t0

        plan = FaultPlan([DelayMessage(rank=0, nth_send=1, seconds=0.25)])
        results = run_spmd(2, timed, fault_plan=plan, op_timeout=5.0,
                           backend=backend)
        obj, elapsed = results[1]
        assert obj == "slow"
        assert elapsed >= 0.2

    def test_stalled_rank_finishes_anyway(self, backend):
        plan = FaultPlan([StallRank(rank=1, at_op=4, seconds=0.15)])
        t0 = time.monotonic()
        results = run_spmd(2, chatty, fault_plan=plan, op_timeout=10.0,
                           backend=backend)
        assert results == [1, 1]
        assert time.monotonic() - t0 >= 0.1
        assert plan.trace() == (("stall", 1, 4),)


class TestFaultPlanConstruction:
    def test_seeded_plans_are_reproducible(self):
        a = FaultPlan.from_seed(42, 4, crashes=2, drops=1, delays=1)
        b = FaultPlan.from_seed(42, 4, crashes=2, drops=1, delays=1)
        assert a.events == b.events
        assert FaultPlan.from_seed(43, 4, crashes=2).events != a.events[:2] or True

    def test_parse_explicit_events(self):
        plan = FaultPlan.parse("crash=1@20, drop=0@3, stall=2@5:0.01", 3)
        assert CrashRank(1, 20) in plan.events
        assert DropMessage(0, 3) in plan.events
        assert StallRank(2, 5, 0.01) in plan.events

    def test_parse_seeded_form(self):
        plan = FaultPlan.parse("seed=7,crashes=1,drops=2", 4)
        assert plan.seed == 7
        assert len(plan.events) == 3

    @pytest.mark.parametrize(
        "spec",
        ["", "bogus=1@2", "crash=1@2,seed=3", "stall=1@2", "crash=9@2"],
    )
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec, 3)

    @pytest.mark.parametrize("spec, form", [
        ("crash=1", "RANK@N"),
        ("drop=2", "RANK@N"),
        ("dup=x@3", "RANK@N"),
        ("crash=1@", "RANK@N"),
        ("delay=1@2:x", "RANK@N:SECONDS"),
        ("seed=x", "an integer"),
    ])
    def test_parse_error_names_the_token_and_its_form(self, spec, form):
        key = spec.partition("=")[0]
        with pytest.raises(ValueError) as caught:
            FaultPlan.parse(spec, 3)
        assert str(caught.value) == f"{key} needs {form}, got {spec!r}"

    def test_reset_rearms_events(self):
        plan = FaultPlan([CrashRank(0, 2)])
        with pytest.raises(RankFailure):
            run_spmd(2, chatty, fault_plan=plan, op_timeout=10.0)
        assert plan.pending == 0
        plan.reset()
        assert plan.pending == 1
        assert plan.trace() == ()


class TestSupervision:
    def test_classify_failure_buckets(self):
        assert classify_failure(RankFailure(1, 5)) == "rank_failure"
        assert classify_failure(DeadlockError("x")) == "timeout"
        assert classify_failure(AbortError("x")) == "abort"
        assert classify_failure(ValueError("x")) == "error"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_transient_crash_is_retried_to_success(self, backend):
        plan = FaultPlan([CrashRank(1, 3)])
        naps = []
        outcome = run_supervised(
            3,
            chatty,
            fault_plan=plan,
            op_timeout=10.0,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.01),
            sleep=naps.append,
            backend=backend,
        )
        assert outcome.results is not None
        assert outcome.results == [3, 3, 3]
        assert outcome.retries == 1
        assert [a.outcome for a in outcome.attempts] == ["rank_failure", "ok"]
        assert outcome.faults_injected == 1
        assert naps == [pytest.approx(0.01)]

    def test_backoff_grows_exponentially(self):
        # doubles per failed attempt, capped at BACKOFF_MAX (2 s)
        policy = RetryPolicy(backoff_base=0.5)
        assert [policy.backoff(a) for a in (1, 2, 3, 4)] == [0.5, 1.0, 2.0, 2.0]

    def test_persistent_failure_exhausts_budget(self):
        def always_dies(comm):
            raise ValueError("hard bug")

        with pytest.raises(SupervisionExhausted) as exc_info:
            run_supervised(
                2,
                always_dies,
                op_timeout=5.0,
                retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
                sleep=lambda s: None,
            )
        outcome = exc_info.value.outcome
        assert outcome.results is None
        assert [a.outcome for a in outcome.attempts] == ["error", "error"]

    def test_prepare_hook_sees_attempt_numbers(self):
        seen = []

        def prepare(attempt):
            seen.append(attempt)
            return (), {"rounds": 2}

        plan = FaultPlan([CrashRank(0, 2)])
        outcome = run_supervised(
            2,
            chatty,
            fault_plan=plan,
            op_timeout=10.0,
            prepare=prepare,
            retry=RetryPolicy(backoff_base=0.0),
            sleep=lambda s: None,
        )
        assert outcome.results is not None
        assert seen == [1, 2]

    def test_same_plan_yields_same_trace_twice(self):
        """The acceptance bar: one fault seed, two runs, identical traces."""
        traces = []
        for _ in range(2):
            plan = FaultPlan.from_seed(11, 3, crashes=1, stalls=1, op_window=(3, 8))
            try:
                run_spmd(3, chatty, fault_plan=plan, op_timeout=10.0)
            except RankFailure:
                pass
            traces.append(plan.trace())
        assert traces[0] == traces[1]
        assert traces[0]  # something actually fired

    def test_seeded_trace_identical_across_backends(self):
        """A fault seed addresses ops by per-rank op index, which both
        transports count identically — so one seed fires the very same
        event sequence whether the ranks are threads or processes."""
        traces = {}
        for backend in BACKENDS:
            plan = FaultPlan.from_seed(11, 3, crashes=1, stalls=1, op_window=(3, 8))
            try:
                run_spmd(3, chatty, fault_plan=plan, op_timeout=10.0,
                         backend=backend)
            except RankFailure:
                pass
            traces[backend] = plan.trace()
        assert traces["thread"] == traces["process"]
        assert traces["thread"]  # something actually fired
