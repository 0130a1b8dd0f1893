"""Paged (out-of-core) aggregate: multi-round exchange correctness."""

import pytest

from repro.mpi import run_spmd
from repro.mrmpi import MapReduce, MapStyle


def _payload(i):
    return (f"key{i % 9}", b"v" * 50 + str(i).encode())


def _run(nprocs, exchange_bytes):
    def main(comm):
        mr = MapReduce(comm)
        mr.map_items(
            list(range(120)), lambda t, item, kv: kv.add(*_payload(item))
        )
        n = mr.aggregate(exchange_bytes=exchange_bytes)
        pairs = sorted((k, v) for k, v in mr.kv)
        keys_here = {k for k, _ in pairs}
        gathered = mr.comm.gather((keys_here, pairs), root=0)
        mr.close()
        return gathered

    return run_spmd(nprocs, main)[0]


@pytest.mark.parametrize("nprocs", [2, 4])
def test_tiny_exchange_budget_matches_single_round(nprocs):
    single = _run(nprocs, exchange_bytes=1 << 24)
    paged = _run(nprocs, exchange_bytes=256)  # forces many rounds
    # Same key placement and same pairs per rank, regardless of rounds.
    assert [keys for keys, _ in single] == [keys for keys, _ in paged]
    assert [pairs for _, pairs in single] == [pairs for _, pairs in paged]


def test_all_values_arrive_exactly_once():
    gathered = _run(3, exchange_bytes=200)
    all_pairs = [p for _keys, pairs in gathered for p in pairs]
    assert len(all_pairs) == 120
    assert len(set(all_pairs)) == 120
    # key disjointness across ranks
    key_sets = [keys for keys, _ in gathered]
    for i in range(len(key_sets)):
        for j in range(i + 1, len(key_sets)):
            assert not (key_sets[i] & key_sets[j])


def test_invalid_budget_rejected():
    def main(comm):
        mr = MapReduce(comm)
        mr.map_items(range(2), lambda i, _, kv: kv.add(str(i), i))
        with pytest.raises(ValueError):
            mr.aggregate(exchange_bytes=0)
        mr.close()
        return True

    assert run_spmd(1, main) == [True]


def test_uneven_rank_workloads_synchronize_rounds():
    """Ranks with very different KV volumes must still agree on rounds."""

    def main(comm):
        mr = MapReduce(comm)

        def mapper(itask, item, kv):
            # Rank executing task 0 emits 100 pairs; others emit 1.
            n = 100 if item == 0 else 1
            for i in range(n):
                kv.add(f"k{i % 5}", item * 1000 + i)

        mr.map_items([0, 1, 2], mapper, mapstyle=MapStyle.CHUNK)  # one task a rank
        total = mr.aggregate(exchange_bytes=128)
        grand = mr.comm.allreduce(len(mr.kv))
        mr.close()
        return (total, grand)

    results = run_spmd(3, main)
    assert all(r[1] == 102 for r in results)
