"""Coalescer state machine on virtual time: no clocks, no sleeps.

Every ``now`` below is an explicit number (ticks from a TickClock where a
monotonic source is wanted); the coalescer itself never reads wall time, so
these tests are exact and instantaneous.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio.seq import SeqRecord
from repro.obs.trace import TickClock
from repro.serve.coalescer import (
    JOB_MESSAGE_ROUNDS,
    Coalescer,
    Submission,
    advise_batch_size,
    load_machine_model,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def rec(i):
    return SeqRecord(id=f"q{i}", seq="ACGT" * 25)


def sub(seq, *, tenant="default", at=0.0, deadline=None, qid=None):
    return Submission(
        seq=seq,
        query=SeqRecord(id=qid or f"q{seq}", seq="ACGT" * 25),
        tenant=tenant,
        submitted_at=at,
        deadline=deadline,
    )


class TestSizeFlush:
    def test_full_batch_flushes_immediately(self):
        co = Coalescer(max_batch=3, max_delay=100.0)
        for i in range(3):
            co.add(sub(i, at=0.0), now=0.0)
        batches = co.poll(now=0.0)
        assert len(batches) == 1
        assert batches[0].reason == "size"
        assert batches[0].query_ids == ("q0", "q1", "q2")
        assert co.pending == 0

    def test_partial_batch_waits(self):
        co = Coalescer(max_batch=3, max_delay=100.0)
        co.add(sub(0, at=0.0), now=0.0)
        co.add(sub(1, at=0.0), now=0.0)
        assert co.poll(now=50.0) == []
        assert co.pending == 2

    def test_overfull_queue_yields_multiple_batches(self):
        co = Coalescer(max_batch=2, max_delay=100.0)
        for i in range(5):
            co.add(sub(i, at=0.0), now=0.0)
        batches = co.poll(now=0.0)
        assert [len(b) for b in batches] == [2, 2]  # remainder keeps waiting
        assert co.pending == 1


class TestDeadlineFlush:
    def test_max_delay_bounds_the_wait(self):
        co = Coalescer(max_batch=10, max_delay=5.0)
        co.add(sub(0, at=1.0), now=1.0)
        assert co.next_flush_at() == 6.0
        assert co.poll(now=5.9) == []
        batches = co.poll(now=6.0)
        assert len(batches) == 1 and batches[0].reason == "deadline"

    def test_submission_deadline_beats_max_delay(self):
        co = Coalescer(max_batch=10, max_delay=50.0)
        co.add(sub(0, at=0.0, deadline=3.0), now=0.0)
        assert co.next_flush_at() == 3.0
        assert co.poll(now=2.0) == []
        assert len(co.poll(now=3.0)) == 1

    def test_deadline_batch_carries_everything_pending(self):
        co = Coalescer(max_batch=10, max_delay=5.0)
        co.add(sub(0, at=0.0), now=0.0)
        co.add(sub(1, at=4.0), now=4.0)  # not yet due on its own
        batches = co.poll(now=5.0)
        assert len(batches) == 1
        assert batches[0].query_ids == ("q0", "q1")

    def test_tickclock_driven_sequence(self):
        clock = TickClock()  # 0, 1, 2, ...
        co = Coalescer(max_batch=10, max_delay=2.0)
        co.add(sub(0, at=clock()), now=0.0)       # t=0, due at 2
        assert co.poll(now=clock()) == []         # t=1
        assert len(co.poll(now=clock())) == 1     # t=2

    def test_flush_forces_everything_out(self):
        co = Coalescer(max_batch=10, max_delay=1000.0)
        co.add(sub(0, at=0.0), now=0.0)
        co.add(sub(1, at=0.0), now=0.0)
        batches = co.flush(now=0.5)
        assert len(batches) == 1 and batches[0].reason == "forced"
        assert co.pending == 0 and co.next_flush_at() is None


class TestIdleFlush:
    """``poll(now, idle=True)``: no job in flight, so nothing is worth waiting for."""

    def test_idle_and_pending_is_one_batch_now(self):
        clock = TickClock()
        co = Coalescer(max_batch=4, max_delay=100.0)
        co.add(sub(0, at=clock()), now=0.0)
        co.add(sub(1, at=0.0), now=0.0)
        (batch,) = co.poll(now=clock(), idle=True)  # t=1, deadline is t=100
        assert batch.reason == "idle" and batch.formed_at == 1.0
        assert batch.query_ids == ("q0", "q1")
        assert co.pending == 0 and co.next_flush_at() is None
        assert co.poll(now=clock(), idle=True) == []  # nothing pending: nothing to do

    def test_busy_waits_for_size_or_deadline(self):
        clock = TickClock()
        co = Coalescer(max_batch=3, max_delay=5.0)
        co.add(sub(0, at=clock()), now=0.0)            # t=0, due at 5
        assert co.poll(now=clock(), idle=False) == []  # t=1
        assert co.poll(now=clock()) == []              # t=2: busy is the default
        co.add(sub(1, at=2.0), now=2.0)
        co.add(sub(2, at=2.0), now=2.0)
        (batch,) = co.poll(now=clock(), idle=False)    # t=3: full
        assert batch.reason == "size"
        co.add(sub(3, at=3.0), now=3.0)                # due at 8
        assert co.poll(now=7.9, idle=False) == []
        (batch,) = co.poll(now=8.0, idle=False)
        assert batch.reason == "deadline"

    def test_one_idle_batch_then_the_rest_waits_behind_it(self):
        co = Coalescer(max_batch=4, max_delay=100.0)
        for i in range(6):
            co.add(sub(i), now=0.0)
        # A burst on an idle service: size fires, the remainder is not also
        # flushed as "idle" (the size batch has just made the ranks busy).
        batches = co.poll(now=0.0, idle=True)
        assert [(len(b), b.reason) for b in batches] == [(4, "size")]
        assert co.pending == 2
        (tail,) = co.poll(now=1.0, idle=True)  # that job is done: ranks idle again
        assert (len(tail), tail.reason) == (2, "idle")

    def test_a_due_deadline_still_reports_deadline(self):
        co = Coalescer(max_batch=4, max_delay=5.0)
        co.add(sub(0, at=0.0, deadline=2.0), now=0.0)
        (batch,) = co.poll(now=2.0, idle=True)
        assert batch.reason == "deadline"

    def test_idle_batches_keep_fair_order_and_id_deferral(self):
        def filled():
            co = Coalescer(max_batch=4, max_delay=100.0,
                           weights={"heavy": 3.0, "light": 1.0})
            for i in range(6):
                co.add(sub(i, tenant="heavy", qid="dup" if i < 2 else None), now=0.0)
            for i in range(6, 9):
                co.add(sub(i, tenant="light"), now=0.0)
            return co

        idle, forced = filled(), filled().flush(now=0.0)
        got = []
        while idle.pending:
            got += idle.poll(now=0.0, idle=True)
        assert [b.reason for b in got] == ["size", "size", "idle"]
        assert [b.submissions for b in got] == [b.submissions for b in forced]
        first = forced[0]
        assert first.query_ids.count("dup") == 1  # the second copy was deferred
        assert [s.tenant for s in first.submissions].count("heavy") == 3  # 3:1 stride


class TestFairness:
    def test_weighted_pop_order_across_tenants(self):
        co = Coalescer(max_batch=8, max_delay=100.0, weights={"heavy": 3.0, "light": 1.0})
        n = 0
        for _ in range(8):
            co.add(sub(n, tenant="heavy"), now=0.0)
            n += 1
        for _ in range(8):
            co.add(sub(n, tenant="light"), now=0.0)
            n += 1
        (batch,) = co.poll(now=0.0)[:1]
        tenants = [s.tenant for s in batch.submissions]
        assert tenants.count("heavy") == 6  # 3:1 stride over 8 pops
        assert tenants.count("light") == 2

    def test_saturating_tenant_cannot_starve_light_one(self):
        co = Coalescer(max_batch=4, max_delay=100.0)
        n = 0
        for _ in range(40):
            co.add(sub(n, tenant="noisy"), now=0.0)
            n += 1
        co.add(sub(n, tenant="quiet"), now=0.0)
        first = co.poll(now=0.0)[0]
        assert any(s.tenant == "quiet" for s in first.submissions)


class TestDuplicateQueryIds:
    def test_same_id_never_shares_a_batch(self):
        co = Coalescer(max_batch=4, max_delay=100.0)
        co.add(sub(0, qid="dup"), now=0.0)
        co.add(sub(1, qid="dup"), now=0.0)
        co.add(sub(2, qid="other"), now=0.0)
        batches = co.flush(now=0.0)
        assert len(batches) == 2
        assert batches[0].query_ids == ("dup", "other")
        assert batches[1].query_ids == ("dup",)


class TestCoalescerProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 5), st.sampled_from(["a", "b", "c"])),
            min_size=1, max_size=24),
        max_batch=st.integers(1, 6),
    )
    def test_every_submission_lands_in_exactly_one_batch(self, ops, max_batch):
        co = Coalescer(max_batch=max_batch, max_delay=10.0)
        for seq, (qi, tenant) in enumerate(ops):
            co.add(sub(seq, tenant=tenant, qid=f"q{qi}", at=float(seq)), now=float(seq))
        batches = co.poll(now=float(len(ops))) + co.flush(now=float(len(ops)) + 100.0)
        seen = [s.seq for b in batches for s in b.submissions]
        assert sorted(seen) == list(range(len(ops)))
        for b in batches:
            assert len(b) <= max_batch
            ids = [s.query.id for s in b.submissions]
            assert len(ids) == len(set(ids)), "duplicate query id within a batch"


class TestBatchAdvice:
    def test_reads_the_shuffle_bench_model(self):
        path = os.path.join(REPO_ROOT, "BENCH_shuffle.json")
        thread = load_machine_model(path, backend="thread")
        proc = load_machine_model(path, backend="process")
        bare = load_machine_model(path, backend="process", arena=False)
        assert 0 < thread["alpha_s"] < proc["alpha_s"]
        assert proc["alpha_s"] < bare["alpha_s"]  # arena shaves latency
        with pytest.raises(ValueError):
            load_machine_model(path, backend="carrier-pigeon")

    def test_advice_scales_with_latency_and_clamps(self):
        slow = {"alpha_s": 200e-6, "bandwidth_bytes_s": 1e9}
        fast = {"alpha_s": 10e-6, "bandwidth_bytes_s": 1e10}
        a_slow = advise_batch_size(slow, nprocs=4, per_query_seconds=0.01)
        a_fast = advise_batch_size(fast, nprocs=4, per_query_seconds=0.01)
        assert a_slow >= a_fast >= 1
        assert advise_batch_size(slow, 4, per_query_seconds=1e-9) == 64  # clamp high
        assert advise_batch_size(fast, 1, per_query_seconds=10.0) == 1  # clamp low

    def test_more_ranks_need_bigger_batches(self):
        model = {"alpha_s": 150e-6, "bandwidth_bytes_s": 1e9}
        assert (advise_batch_size(model, 8, 0.005)
                >= advise_batch_size(model, 2, 0.005))

    def test_advice_prices_the_job_message_rounds(self):
        """A job is six message rounds (job broadcast, first request and
        assignment, last completion and retiring reply, gather to rank 0),
        not the eight collectives of the shuffle-and-reduce protocol: the
        advice for a fixed model follows the recount."""
        assert JOB_MESSAGE_ROUNDS == 6
        model = {"alpha_s": 150e-6, "bandwidth_bytes_s": 1e9}
        # fixed = 6 x 150 us x 3 = 2.7 ms against 10 % of 1 ms of work.
        assert advise_batch_size(model, 3, 0.001) == 27
        assert advise_batch_size(model, 3, 0.001, message_rounds=8) == 36
