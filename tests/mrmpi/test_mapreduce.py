"""The MapReduce driver: map styles, collate, reduce, maps that end on rank 0."""

import collections

import numpy as np
import pytest

from repro.mpi import run_spmd
from repro.mpi.shm import SHM_MIN_BYTES
from repro.mrmpi import MapReduce, MapStyle, RecordSchema
from repro.mrmpi.columnar import ColumnarKeyValue
from repro.mrmpi.schema import UNTYPED

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
        counts = [mr.map_items(list(range(n)), lambda i, item, kv: kv.add(str(item), item))
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
        mr.map_items(range(10), lambda i, item, kv: kv.add(str(item % 2), item))
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
    assert merged == {"0": [0, 2, 4, 6, 8], "1": [1, 3, 5, 7, 9]}


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
    """A ``to_root`` master/worker map ends with every pair on rank 0."""
    def main(comm):
        mr = MapReduce(comm)
        n_local = mr.map_items(list(range(12)), lambda i, item, kv: kv.add(str(item), item),
                               to_root=True)
        counts = mr.comm.gather(n_local, root=0)
        pairs = sorted((int(k), v) for k, v in mr.kv) if comm.rank == 0 else None
        mr.close()
        return counts, pairs

    counts, pairs = run_spmd(4, main)[0]
    assert counts == [12, 0, 0, 0]
    assert pairs == [(i, i) for i in range(12)]


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("columnar", [False, True], ids=["object", "columnar"])
def test_gather_pages_arrive_whole_and_in_sender_order(columnar, backend):
    """Units of many pairs, of one pair and of none, mapped to rank 0 twice
    in a row with nothing between: every unit's rows arrive once, whole and
    in emission order, each worker's in the order it ran them and the
    workers in rank order; the second map cannot take the first one's
    messages.  The 3000-pair units outgrow the 32 KiB inline frame, so on
    the process backend pages cross in shared memory too.  "object" pairs
    are untyped (``schema=None``), "columnar" ones an 'S8' key, int64 value
    schema."""
    schema = RecordSchema(key_dtype="S8", value_dtype=np.dtype("<i8")) if columnar else None
    sizes = [3, 3000, 1, 0, 40, 3000, 0, 7]
    probe = ColumnarKeyValue(UNTYPED if schema is None else schema)
    for j in range(3000):
        probe.add(str(j), 1)
    assert probe.nbytes > SHM_MIN_BYTES

    def main(comm):
        mr = MapReduce(comm, schema=schema)
        out = []
        for round_ in range(2):
            ran = []

            def mapper(i, item, kv):
                ran.append(i)
                for j in range(sizes[i]):
                    kv.add(str(i * 10_000 + j), round_)

            mr.map_items(range(len(sizes)), mapper, to_root=True)
            got = [(int(k), int(v)) for k, v in mr.kv] if comm.rank == 0 else None
            out.append((got, comm.gather(ran, root=0)))
        mr.close()
        return out

    for round_, (got, ran) in enumerate(run_spmd(4, main, backend=backend)[0]):
        assert ran[0] == [] and sorted(sum(ran, [])) == list(range(len(sizes)))
        assert got == [(i * 10_000 + j, round_) for units in ran
                       for i in units for j in range(sizes[i])]


def test_reduce_without_collate_raises():
    def main(comm):
        mr = MapReduce(comm)
        mr.map_items(range(2), lambda i, item, kv: kv.add(str(i), i))
        with pytest.raises(RuntimeError, match="KeyMultiValue"):
            mr.reduce(lambda k, vs, kv: None)
        mr.close()
        return True

    assert run_spmd(1, main) == [True]


def test_timers_populated():
    def main(comm):
        mr = MapReduce(comm)
        mr.map_items(range(4), lambda i, item, kv: kv.add(str(i), i))
        mr.collate()
        mr.reduce(lambda k, vs, kv: kv.add(k, len(vs)))
        phases = set(mr.timers)
        mr.close()
        return phases

    phases = run_spmd(2, main)[0]
    assert {"map", "aggregate", "convert", "reduce"} <= phases
