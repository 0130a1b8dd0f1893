"""The MapReduce driver: map styles, collate, reduce, gather."""

import collections

import numpy as np
import pytest

from repro.mpi import run_spmd
from repro.mrmpi import MapReduce, MapStyle, RecordSchema

WORDS = (
    "the quick brown fox jumps over the lazy dog the fox is quick and the dog is lazy"
).split()


def wordcount(comm, mapstyle, memsize=1 << 22):
    """Classic wordcount: one task per word chunk."""
    chunks = [WORDS[i : i + 3] for i in range(0, len(WORDS), 3)]
    mr = MapReduce(comm, mapstyle=mapstyle, memsize=memsize)

    def mapper(itask, chunk, kv):
        for word in chunk:
            kv.add(word, 1)

    def reducer(key, values, kv):
        kv.add(key, sum(values))

    mr.map_items(chunks, mapper)
    nunique = mr.collate()
    mr.reduce(reducer)
    counts = dict(mr.kv)
    total = mr.comm.gather(counts, root=0)
    mr.close()
    if comm.rank == 0:
        merged = {}
        for d in total:
            assert not (set(d) & set(merged)), "collate left a key on two ranks"
            merged.update(d)
        return merged, nunique
    return None, nunique


@pytest.mark.parametrize("mapstyle", [MapStyle.CHUNK, MapStyle.MASTER_WORKER])
@pytest.mark.parametrize("nprocs", [1, 2, 4, 5])
def test_wordcount_all_styles_and_sizes(mapstyle, nprocs):
    results = run_spmd(nprocs, wordcount, mapstyle)
    merged, nunique = results[0]
    expected = collections.Counter(WORDS)
    assert merged == dict(expected)
    assert nunique == len(expected)


def test_out_of_core_wordcount_matches_in_memory(tmp_path):
    """A tiny memsize forces paging everywhere; results must be identical."""

    def main(comm):
        chunks = [WORDS[i : i + 2] for i in range(0, len(WORDS), 2)]
        mr = MapReduce(comm, memsize=256, spool_dir=str(tmp_path))

        def mapper(itask, chunk, kv):
            for word in chunk:
                kv.add(word, 1)

        mr.map_items(chunks, mapper)
        spilled = mr.kv is not None and mr.kv.out_of_core
        mr.collate()
        mr.reduce(lambda k, vs, kv: kv.add(k, sum(vs)))
        counts = dict(mr.kv)
        all_counts = mr.comm.gather(counts, root=0)
        any_spilled = mr.comm.allreduce(spilled, op=__import__("repro.mpi", fromlist=["LOR"]).LOR)
        mr.close()
        return (all_counts, any_spilled)

    results = run_spmd(3, main)
    merged = {}
    for d in results[0][0]:
        merged.update(d)
    assert merged == dict(collections.Counter(WORDS))


def test_master_worker_master_does_no_map_work():
    def main(comm):
        mr = MapReduce(comm, mapstyle=MapStyle.MASTER_WORKER)
        ran_on = []

        def mapper(itask, item, kv):
            ran_on.append(itask)
            kv.add("rank", comm.rank)

        mr.map_items(list(range(20)), mapper)
        local = sorted(ran_on)
        mr.close()
        return local

    results = run_spmd(4, main)
    assert results[0] == []  # master maps nothing
    all_tasks = sorted(t for r in results[1:] for t in r)
    assert all_tasks == list(range(20))


def test_master_worker_single_rank_runs_everything():
    def main(comm):
        mr = MapReduce(comm, mapstyle=MapStyle.MASTER_WORKER)
        seen = []
        mr.map_items(list(range(7)), lambda i, item, kv: seen.append(i))
        mr.close()
        return seen

    assert sorted(run_spmd(1, main)[0]) == list(range(7))


def test_master_worker_with_fewer_units_than_workers():
    """Workers whose first chunk is empty are parked from the start; the
    master still waits out their requests (in flight, not yet delivered)
    instead of timing out at once with nothing running."""

    def main(comm):
        mr = MapReduce(comm, mapstyle=MapStyle.MASTER_WORKER)
        counts = [mr.map_items(list(range(n)), lambda i, item, kv: kv.add(item, item))
                  for n in (1, 2, 1, 3)]
        mr.close()
        return counts

    results = run_spmd(5, main)
    assert [sum(col) for col in zip(*results)] == [1, 2, 1, 3]


@pytest.mark.parametrize("style", [MapStyle.CHUNK])
def test_static_styles_cover_all_tasks_exactly_once(style):
    def main(comm):
        mr = MapReduce(comm, mapstyle=style)
        seen = []
        mr.map_items(list(range(23)), lambda i, item, kv: seen.append(i))
        mr.close()
        return seen

    results = run_spmd(4, main)
    all_tasks = sorted(t for r in results for t in r)
    assert all_tasks == list(range(23))
    # chunk style assigns contiguous blocks
    for r in results:
        assert r == sorted(r)
        if len(r) > 1:
            assert r[-1] - r[0] == len(r) - 1


def test_map_int_variant():
    def main(comm):
        mr = MapReduce(comm)
        mr.map_items(range(10), lambda i, item, kv: kv.add(item % 2, item))
        n = mr.collate()
        mr.reduce(lambda k, vs, kv: kv.add(k, sorted(vs)))
        out = dict(mr.kv)
        gathered = mr.comm.gather(out, root=0)
        mr.close()
        return (n, gathered)

    n, gathered = run_spmd(3, main)[0]
    assert n == 2
    merged = {}
    for d in gathered:
        merged.update(d)
    assert merged == {0: [0, 2, 4, 6, 8], 1: [1, 3, 5, 7, 9]}


def test_collate_key_locality_and_determinism():
    """Every key ends up on exactly one rank, at the stable-hash location."""

    def main(comm):
        mr = MapReduce(comm)
        mr.map_items(list(range(50)), lambda i, item, kv: kv.add(f"key{item % 10}", item))
        mr.collate()
        local_keys = [k for k, _ in mr.kmv]
        gathered = mr.comm.gather(local_keys, root=0)
        mr.close()
        return gathered

    from oracles.fnv_hash import stable_hash

    gathered = run_spmd(4, main)[0]
    seen = {}
    for rank, keys in enumerate(gathered):
        for k in keys:
            assert k not in seen, f"key {k} on ranks {seen[k]} and {rank}"
            seen[k] = rank
            assert stable_hash(k) % 4 == rank
    assert set(seen) == {f"key{i}" for i in range(10)}


def test_gather_concentrates_pairs():
    def main(comm):
        mr = MapReduce(comm)
        mr.map_items(list(range(12)), lambda i, item, kv: kv.add(item, item), mapstyle=MapStyle.CHUNK)
        n_local = mr.gather(2)
        counts = mr.comm.gather(n_local, root=0)
        mr.close()
        return counts

    counts = run_spmd(4, main)[0]
    assert counts[2] == 0 and counts[3] == 0
    assert counts[0] + counts[1] == 12


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("columnar", [False, True], ids=["object", "columnar"])
def test_gather_pages_arrive_whole_and_in_sender_order(columnar, backend):
    """Many-page streams, a one-page stream and an empty one, gathered twice
    in a row with nothing between: each stream ends with its last page, and
    the second gather cannot take the first one's messages.  "object" pairs
    are untyped (``schema=None``), "columnar" ones an int64 schema."""
    schema = RecordSchema(key_dtype=np.dtype("<i8"), value_dtype=np.dtype("<i8"),
                          key_kind="int") if columnar else None
    sizes = {0: 3, 1: 40, 2: 1, 3: 0}

    def main(comm):
        mr = MapReduce(comm, schema=schema)
        out = []
        for round_ in range(2):
            mr.map_items(range(comm.size), lambda i, item, kv: [
                kv.add(i * 100 + j, round_) for j in range(sizes[i])],
                mapstyle=MapStyle.CHUNK)
            mr.gather(1, exchange_bytes=64)
            out.append([(int(k), int(v)) for k, v in mr.kv] if comm.rank == 0 else None)
        mr.close()
        return out

    rounds = run_spmd(4, main, backend=backend)[0]
    for round_, got in enumerate(rounds):
        assert got == [(r * 100 + j, round_) for r in range(4) for j in range(sizes[r])]


def test_gather_invalid_nranks():
    def main(comm):
        mr = MapReduce(comm)
        mr.map_items(range(1), lambda i, item, kv: kv.add(0, 0))
        with pytest.raises(ValueError):
            mr.gather(0)
        mr.close()
        return True

    assert run_spmd(1, main) == [True]


def test_reduce_without_collate_raises():
    def main(comm):
        mr = MapReduce(comm)
        mr.map_items(range(2), lambda i, item, kv: kv.add(i, i))
        with pytest.raises(RuntimeError, match="KeyMultiValue"):
            mr.reduce(lambda k, vs, kv: None)
        mr.close()
        return True

    assert run_spmd(1, main) == [True]


def test_timers_populated():
    def main(comm):
        mr = MapReduce(comm)
        mr.map_items(range(4), lambda i, item, kv: kv.add(i, i))
        mr.collate()
        mr.reduce(lambda k, vs, kv: kv.add(k, len(vs)))
        phases = set(mr.timers)
        mr.close()
        return phases

    phases = run_spmd(2, main)[0]
    assert {"map", "aggregate", "convert", "reduce"} <= phases
