"""Coalescer state machine on virtual time: no clocks, no sleeps.

Every ``now`` below is an explicit number (ticks from a TickClock where a
monotonic source is wanted); the coalescer itself never reads wall time, so
these tests are exact and instantaneous.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio.seq import SeqRecord
from repro.serve.coalescer import Coalescer, Submission

from oracles.clocks import TickClock


def _ids(batch):
    """Query record ids in batch order."""
    return tuple(s.query.id for s in batch.submissions)


def rec(i):
    return SeqRecord(id=f"q{i}", seq="ACGT" * 25)


def sub(seq, *, at=0.0, qid=None):
    return Submission(
        seq=seq,
        query=SeqRecord(id=qid or f"q{seq}", seq="ACGT" * 25),
        submitted_at=at,
    )


class TestSizeFlush:
    def test_full_batch_flushes_immediately(self):
        co = Coalescer(max_batch=3, max_delay=100.0)
        for i in range(3):
            co.add(sub(i, at=0.0))
        batches = co.poll(now=0.0)
        assert len(batches) == 1
        assert batches[0].reason == "size"
        assert _ids(batches[0]) == ("q0", "q1", "q2")
        assert co.pending == 0

    def test_partial_batch_waits(self):
        co = Coalescer(max_batch=3, max_delay=100.0)
        co.add(sub(0, at=0.0))
        co.add(sub(1, at=0.0))
        assert co.poll(now=50.0) == []
        assert co.pending == 2

    def test_overfull_queue_yields_multiple_batches(self):
        co = Coalescer(max_batch=2, max_delay=100.0)
        for i in range(5):
            co.add(sub(i, at=0.0))
        batches = co.poll(now=0.0)
        assert [len(b) for b in batches] == [2, 2]  # remainder keeps waiting
        assert co.pending == 1


class TestDeadlineFlush:
    def test_max_delay_bounds_the_wait(self):
        co = Coalescer(max_batch=10, max_delay=5.0)
        co.add(sub(0, at=1.0))
        assert co.next_flush_at() == 6.0
        assert co.poll(now=5.9) == []
        batches = co.poll(now=6.0)
        assert len(batches) == 1 and batches[0].reason == "deadline"

    def test_deadline_batch_carries_everything_pending(self):
        co = Coalescer(max_batch=10, max_delay=5.0)
        co.add(sub(0, at=0.0))
        co.add(sub(1, at=4.0))  # not yet due on its own
        batches = co.poll(now=5.0)
        assert len(batches) == 1
        assert _ids(batches[0]) == ("q0", "q1")

    def test_tickclock_driven_sequence(self):
        clock = TickClock()  # 0, 1, 2, ...
        co = Coalescer(max_batch=10, max_delay=2.0)
        co.add(sub(0, at=clock()))       # t=0, due at 2
        assert co.poll(now=clock()) == []         # t=1
        assert len(co.poll(now=clock())) == 1     # t=2

    def test_flush_forces_everything_out(self):
        co = Coalescer(max_batch=10, max_delay=1000.0)
        co.add(sub(0, at=0.0))
        co.add(sub(1, at=0.0))
        batches = co.flush(now=0.5)
        assert len(batches) == 1 and batches[0].reason == "forced"
        assert co.pending == 0 and co.next_flush_at() is None


class TestIdleFlush:
    """``poll(now, idle=True)``: no job in flight, so nothing is worth waiting for."""

    def test_idle_and_pending_is_one_batch_now(self):
        clock = TickClock()
        co = Coalescer(max_batch=4, max_delay=100.0)
        co.add(sub(0, at=clock()))
        co.add(sub(1, at=0.0))
        (batch,) = co.poll(now=clock(), idle=True)  # t=1, deadline is t=100
        assert batch.reason == "idle" and batch.formed_at == 1.0
        assert _ids(batch) == ("q0", "q1")
        assert co.pending == 0 and co.next_flush_at() is None
        assert co.poll(now=clock(), idle=True) == []  # nothing pending: nothing to do

    def test_busy_waits_for_size_or_deadline(self):
        clock = TickClock()
        co = Coalescer(max_batch=3, max_delay=5.0)
        co.add(sub(0, at=clock()))            # t=0, due at 5
        assert co.poll(now=clock(), idle=False) == []  # t=1
        assert co.poll(now=clock()) == []              # t=2: busy is the default
        co.add(sub(1, at=2.0))
        co.add(sub(2, at=2.0))
        (batch,) = co.poll(now=clock(), idle=False)    # t=3: full
        assert batch.reason == "size"
        co.add(sub(3, at=3.0))                # due at 8
        assert co.poll(now=7.9, idle=False) == []
        (batch,) = co.poll(now=8.0, idle=False)
        assert batch.reason == "deadline"

    def test_one_idle_batch_then_the_rest_waits_behind_it(self):
        co = Coalescer(max_batch=4, max_delay=100.0)
        for i in range(6):
            co.add(sub(i))
        # A burst on an idle service: size fires, the remainder is not also
        # flushed as "idle" (the size batch has just made the ranks busy).
        batches = co.poll(now=0.0, idle=True)
        assert [(len(b), b.reason) for b in batches] == [(4, "size")]
        assert co.pending == 2
        (tail,) = co.poll(now=1.0, idle=True)  # that job is done: ranks idle again
        assert (len(tail), tail.reason) == (2, "idle")

    def test_a_due_deadline_still_reports_deadline(self):
        co = Coalescer(max_batch=4, max_delay=2.0)
        co.add(sub(0, at=0.0))
        (batch,) = co.poll(now=2.0, idle=True)
        assert batch.reason == "deadline"

    def test_idle_batches_keep_arrival_order_and_id_deferral(self):
        def filled():
            co = Coalescer(max_batch=4, max_delay=100.0)
            for i in range(9):
                co.add(sub(i, qid="dup" if i < 2 else None))
            return co

        idle, forced = filled(), filled().flush(now=0.0)
        got = []
        while idle.pending:
            got += idle.poll(now=0.0, idle=True)
        assert [b.reason for b in got] == ["size", "size", "idle"]
        assert [b.submissions for b in got] == [b.submissions for b in forced]
        assert [[s.seq for s in b.submissions] for b in forced] == [
            [0, 2, 3, 4], [1, 5, 6, 7], [8]]  # the second "dup" waits one batch


class TestDuplicateQueryIds:
    def test_same_id_never_shares_a_batch(self):
        co = Coalescer(max_batch=4, max_delay=100.0)
        co.add(sub(0, qid="dup"))
        co.add(sub(1, qid="dup"))
        co.add(sub(2, qid="other"))
        batches = co.flush(now=0.0)
        assert len(batches) == 2
        assert _ids(batches[0]) == ("dup", "other")
        assert _ids(batches[1]) == ("dup",)


class TestCoalescerProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        arrivals=st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from([0.0, 0.5, 3.0]),
                      st.sampled_from([None, None, False, True])),
            min_size=1, max_size=24),
        max_batch=st.integers(1, 6),
    )
    def test_every_submission_lands_in_exactly_one_batch(self, arrivals, max_batch):
        """Each arrival is (query id, gap since the last arrival, the poll
        that follows it: none, busy or idle); ids repeat, so duplicates
        defer, and arrivals pile up between polls."""
        co = Coalescer(max_batch=max_batch, max_delay=2.0)
        batches, now = [], 0.0
        for seq, (qi, gap, idle) in enumerate(arrivals):
            now += gap
            co.add(sub(seq, qid=f"q{qi}", at=now))
            if idle is not None:
                batches += co.poll(now=now, idle=idle)
        batches += co.flush(now=now + 100.0)
        seen = [s.seq for b in batches for s in b.submissions]
        assert sorted(seen) == list(range(len(arrivals)))
        for b in batches:
            assert 1 <= len(b) <= max_batch
            ids = [s.query.id for s in b.submissions]
            assert len(ids) == len(set(ids)), "duplicate query id within a batch"
        # Arrival order, except deferred duplicates: a submission that goes
        # out after a later arrival shares its id with a member of the batch
        # that overtook it.
        for i, b in enumerate(batches):
            seqs = [s.seq for s in b.submissions]
            assert seqs == sorted(seqs)
            ids = {s.query.id for s in b.submissions}
            for later in batches[i + 1:]:
                for s in later.submissions:
                    if s.seq < max(seqs):
                        assert s.query.id in ids, (
                            f"submission {s.seq} overtaken without a duplicate id")
