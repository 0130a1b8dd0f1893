"""Property-based tests for the MapReduce-MPI stores, hashing, key ordering
and the shuffle's invariants."""

from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import run_spmd
from repro.mrmpi import MapReduce, MapStyle, RecordSchema, mapreduce
from repro.mrmpi.columnar import _RADIX_MIN, ColumnarKeyValue, convert_columnar, key_order
from repro.mrmpi.schema import RAGGED_BYTES, UNTYPED
from repro.mrmpi.hashing import hash_key_column

from oracles.fnv_hash import stable_hash


def _no_trailing_nul(key):
    return not key.endswith("\x00")


def _fill_to_8_bytes(chars):
    """The longest prefix of ``chars`` within 8 UTF-8 bytes, padded with
    ``x`` to exactly 8: the widest key an 8-byte radix code holds."""
    key = ""
    for c in chars:
        if len((key + c).encode()) > 8:
            break
        key += c
    return key + "x" * (8 - len(key.encode()))


# Keys: multi-byte UTF-8, interior NULs, the empty key and keys of exactly
# 8 bytes (one- to four-byte characters mixed).
_eight_byte_keys = st.lists(st.sampled_from(["a", "\x00", "é", "€", "𝄞"]), max_size=8).map(
    _fill_to_8_bytes)
keys = st.one_of(st.text(max_size=20), st.just(""), _eight_byte_keys).filter(_no_trailing_nul)
values = st.one_of(st.binary(max_size=40), st.integers(), st.text(max_size=20))
_not_str = st.one_of(st.none(), st.binary(max_size=4), st.integers(), st.booleans(),
                     st.floats(allow_nan=False), st.tuples(st.text(max_size=3), st.integers()))


@given(st.lists(st.tuples(keys, values), max_size=60))
@settings(max_examples=60, deadline=None)
def test_out_of_core_kv_iterates_identically(pairs):
    """An untyped KV store paging to disk yields exactly the in-memory
    sequence, which is exactly what was emitted."""
    big = ColumnarKeyValue(UNTYPED, pagesize=1 << 24)
    small = ColumnarKeyValue(UNTYPED, pagesize=64)  # spill after nearly every add
    for k, v in pairs:
        big.add(k, v)
    for k, v in pairs:
        small.add(k, v)
    assert list(big) == list(small) == pairs
    assert len(big) == len(small) == len(pairs)
    small.close()


@given(st.lists(st.tuples(keys, values), max_size=60))
@settings(max_examples=60, deadline=None)
def test_convert_groups_every_value_exactly_once(pairs):
    kv = ColumnarKeyValue(UNTYPED, pagesize=128)  # force the out-of-core convert path
    for k, v in pairs:
        kv.add(k, v)
    kmv = convert_columnar(kv, pagesize=128)
    regrouped: dict[str, list] = {}
    for key, vals in kmv:
        assert key not in regrouped, "key emitted twice"
        regrouped[key] = list(vals)
    expected: dict[str, list] = {}
    for k, v in pairs:
        expected.setdefault(k, []).append(v)
    assert regrouped == expected
    kmv.close()


def _placed_keys(comm, ks, schema):
    """The keys ``aggregate`` leaves on this rank, every rank emitting all."""
    mr = MapReduce(comm, mapstyle=MapStyle.CHUNK, schema=schema)
    try:
        mr.map_items(range(comm.size), lambda i, _, kv: kv.add_batch(ks, [b""] * len(ks)))
        mr.aggregate()
        return {k for k, _ in mr.kv}
    finally:
        mr.close()


@given(st.lists(keys, min_size=1, max_size=40), st.integers(1, 4), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_str_keys_hash_and_place_like_the_scalar_oracle(ks, nprocs, pad):
    """A typed 'S<w>' column and the untyped one hash every key to its
    scalar ``stable_hash``, decode it back, and ``aggregate`` puts it on
    rank ``stable_hash % nprocs``."""
    width = max(len(k.encode()) for k in ks) + pad
    for schema in (RecordSchema(f"S{max(width, 1)}", RAGGED_BYTES), UNTYPED):
        column = schema.encode_keys(ks)
        assert hash_key_column(column).tolist() == [stable_hash(k) for k in ks]
        assert schema.decode_keys(column) == ks
        ranks = run_spmd(nprocs, _placed_keys, ks, schema, backend="thread")
        assert {k: r for r, here in enumerate(ranks) for k in here} == {
            k: stable_hash(k) % nprocs for k in ks}


@given(_not_str, keys, st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_unstorable_keys_fail_at_emit(bad, key, nuls):
    """A key that is not a str raises ``TypeError`` naming its type, a str
    ending in NUL raises ``ValueError``, on both schemas, and nothing is
    staged."""
    for schema in (RecordSchema("S32", RAGGED_BYTES), UNTYPED):
        kv = ColumnarKeyValue(schema)
        with pytest.raises(TypeError, match=f"'{type(bad).__name__}'"):
            kv.add(bad, b"")
        with pytest.raises(ValueError, match="trailing NUL"):
            kv.add(key + "\x00" * nuls, b"")
        assert len(kv) == 0


@given(keys)
@settings(max_examples=200, deadline=None)
def test_stable_hash_nonnegative_and_deterministic(k):
    h1 = stable_hash(k)
    h2 = stable_hash(k)
    assert h1 == h2
    assert 0 <= h1 < 2**64


@given(st.lists(keys, min_size=1, max_size=50), st.integers(2, 16))
@settings(max_examples=60, deadline=None)
def test_hash_partitioning_is_a_function_of_key_only(ks, nprocs):
    """Same key -> same destination rank, whatever order it is seen in."""
    first_pass = {k: stable_hash(k) % nprocs for k in ks}
    second_pass = {k: stable_hash(k) % nprocs for k in reversed(ks)}
    assert first_pass == second_pass


# --------------------------------------------------------------------------
# The key-ordering helper: whatever path dtype and length select, the result
# is the stable comparison sort's permutation.
# --------------------------------------------------------------------------

_sizes = st.sampled_from(
    [0, 1, 2, 9, _RADIX_MIN - 1, _RADIX_MIN, _RADIX_MIN + 1, 3 * _RADIX_MIN]
)
_seeds = st.integers(0, 2**32 - 1)


def _bytes_keys(rng, n, width):
    # A tiny alphabet with NULs: short keys, embedded and trailing NULs, ties.
    alphabet = np.frombuffer(b"\x00\x00ab\xff", dtype=np.uint8)
    mat = alphabet[rng.integers(len(alphabet), size=(n, width))]
    return np.ascontiguousarray(mat).view(f"S{width}").ravel()


def _int_keys(rng, n):
    info = np.iinfo(np.int64)
    pool = np.array(
        [info.min, info.min + 1, -(2**32), -1, 0, 1, 2**32, info.max - 1, info.max]
    )
    wide = rng.integers(info.min, info.max, size=n, endpoint=True)
    return np.where(rng.random(n) < 0.5, pool[rng.integers(len(pool), size=n)], wide)


def _float_keys(rng, n):
    pool = np.array([-np.inf, -1.5, -0.0, 0.0, 1e-300, 2.0, np.inf, np.nan])
    return np.where(rng.random(n) < 0.5, pool[rng.integers(len(pool), size=n)],
                    rng.standard_normal(n))


def _assert_stable_order(keys):
    expected = np.argsort(keys, kind="stable")
    assert np.array_equal(key_order(keys), expected)
    # The merge variant is handed what it is promised: sorted runs.
    cuts = sorted({0, len(keys) // 3, len(keys) // 2, len(keys)})
    runs = np.concatenate(
        [np.sort(keys[lo:hi], kind="stable") for lo, hi in zip(cuts[:-1], cuts[1:])]
        or [keys]
    )
    assert np.array_equal(key_order(runs, runs=True), np.argsort(runs, kind="stable"))


@given(_seeds, _sizes, st.integers(1, 8))
@settings(max_examples=80, deadline=None)
def test_key_order_coded_bytes_keys(seed, n, width):
    _assert_stable_order(_bytes_keys(np.random.default_rng(seed), n, width))


@given(_seeds, _sizes, st.sampled_from([9, 12, 64]))
@settings(max_examples=30, deadline=None)
def test_key_order_wide_bytes_keys_fall_back(seed, n, width):
    _assert_stable_order(_bytes_keys(np.random.default_rng(seed), n, width))


@given(_seeds, _sizes)
@settings(max_examples=60, deadline=None)
def test_key_order_int64_keys(seed, n):
    _assert_stable_order(_int_keys(np.random.default_rng(seed), n))


@given(_seeds, _sizes)
@settings(max_examples=30, deadline=None)
def test_key_order_float_keys_fall_back(seed, n):
    _assert_stable_order(_float_keys(np.random.default_rng(seed), n))


def test_key_order_constant_column_is_identity():
    keys = np.full(2 * _RADIX_MIN, b"same", dtype="S8")
    assert np.array_equal(key_order(keys), np.arange(len(keys)))


# --------------------------------------------------------------------------
# Shuffle invariants of the sort-once pipeline, over ranks x exchange rounds
# x in-core/spill x transport backend x the shapes a bucketed receiver can
# get wrong.  Every shape runs inside one job per test, with the
# bucket target shrunk so a few thousand rows fill a dozen buckets.
# --------------------------------------------------------------------------

_ROW = np.dtype([("rank", "<i8"), ("task", "<i8"), ("seq", "<i8")])
_SUB = np.dtype([("rank", "<i8"), ("ts", "<i8", (2,))])
# A float row with a subarray field, laid out like a batch-SOM class-sum
# block: (rank, num[dim], denom) under a unit-index key.
_ACC = np.dtype([("rank", "<i8"), ("num", "<f8", (8,)), ("denom", "<f8")])
_NKEYS = 37
_PER_TASK = 1500  # two tasks per rank: single-round batches take the radix path
_BUCKET_BYTES = 8 << 10


def _uniform(rng):
    return rng.integers(_NKEYS, size=_PER_TASK)


def _hot(rng):
    """One key holding ten times the rows a bucket is meant to."""
    return np.where(rng.random(_PER_TASK) < 0.9, 5, rng.integers(_NKEYS, size=_PER_TASK))


def _str_key(k):
    return "k%03d" % k


def _rows(rank, itask, dtype=_ROW):
    rows = np.zeros(_PER_TASK, dtype=dtype)
    rows["rank"] = rank
    if dtype is _SUB:
        rows["ts"][:, 0], rows["ts"][:, 1] = itask, np.arange(_PER_TASK)
    else:
        rows["task"], rows["seq"] = itask, np.arange(_PER_TASK)
    return rows


def _acc_rows(rank, itask):
    """(rank, task, seq) in the first two ``num`` cells; every other float
    is a function of them, checked on the way out by :func:`_acc_decode`."""
    rows = np.zeros(_PER_TASK, dtype=_ACC)
    seq = np.arange(_PER_TASK)
    rows["rank"] = rank
    rows["num"] = (itask + seq / 7.0)[:, None] * np.arange(8)
    rows["num"][:, 0], rows["num"][:, 1] = itask, seq
    rows["denom"] = seq / 3.0
    return rows


def _acc_decode(v):
    task, seq = int(v["num"][0]), int(v["num"][1])
    assert np.array_equal(v["num"][2:], (task + seq / 7.0) * np.arange(2, 8))
    assert v["denom"] == seq / 3.0
    return (int(v["rank"]), task, seq)


def _ragged(rank, itask):
    """(rank, task, seq) as int64 bytes, padded by 0-2 words: ragged rows."""
    return [np.array([rank, itask, seq] + [0] * (seq % 3), dtype="<i8").tobytes()
            for seq in range(_PER_TASK)]


def _row_tuple(v):
    return tuple(int(x) for x in v)


class _Shape(NamedTuple):
    """One dataset: how a task's key ids are drawn, what they and their
    (rank, task, seq) values look like under its schema, who emits."""

    ids: Callable = _uniform
    schema: RecordSchema = RecordSchema("S6", _ROW)
    key_of: Callable = _str_key
    rows_of: Callable = _rows
    decode: Callable = _row_tuple
    emits: Callable = lambda rank, size: True
    #: sort key of the order keys leave convert in
    order: Callable = lambda key: key


_SHAPES = {
    "base": _Shape(),
    "hot": _Shape(ids=_hot),
    "const": _Shape(ids=lambda rng: np.full(_PER_TASK, 7)),
    "few": _Shape(ids=lambda rng: rng.integers(3, size=_PER_TASK)),  # fewer than buckets
    "silent": _Shape(emits=lambda rank, size: rank != size - 1),
    "wide": _Shape(schema=RecordSchema("S64", _SUB),
                   key_of=lambda k: "query/%03d/" % k + "x" * 40,
                   rows_of=lambda rank, itask: _rows(rank, itask, _SUB),
                   decode=lambda v: (int(v["rank"]), int(v["ts"][0]), int(v["ts"][1]))),
    "accum": _Shape(schema=RecordSchema("S4", _ACC), rows_of=_acc_rows, decode=_acc_decode),
    "ragged": _Shape(schema=RecordSchema("S16", RAGGED_BYTES),
                     key_of=lambda k: str((k - _NKEYS // 2) * (1 << 40)), rows_of=_ragged,
                     decode=lambda v: tuple(np.frombuffer(v, dtype="<i8")[:3].tolist())),
    # No schema: keys of every width up to 12 bytes (interior NULs, multi-
    # byte UTF-8) and tuple values, emitted one scalar add at a time.
    "untyped": _Shape(schema=None,
                      key_of=lambda k: ("q\x00%d" % k, "k%03d" % k, "é" * (k % 5) + str(k))[k % 3],
                      rows_of=lambda rank, itask: [(rank, itask, seq) for seq in range(_PER_TASK)],
                      decode=lambda v: v),
}


def _task_ids(seed, shape, itask):
    return _SHAPES[shape].ids(np.random.default_rng([seed, itask]))


def _buckets_hold(kv):
    """Every piece a sorted run; a key in exactly one bucket; buckets ascend."""
    spans = []
    for bucket in kv._buckets:
        keys = [k for karr, _ in bucket for k in karr.tolist()]
        if not all(np.all(karr[:-1] <= karr[1:]) for karr, _ in bucket):
            return False
        if keys:
            spans.append((min(keys), max(keys)))
    return all(hi < lo for (_, hi), (lo, _) in zip(spans[:-1], spans[1:]))


def _shuffle_rank(comm, memsize, exchange_bytes, spool, seed):
    return {shape: _shuffle_shape(comm, shape, memsize, exchange_bytes, spool, seed)
            for shape in _SHAPES}


def _shuffle_shape(comm, shape, memsize, exchange_bytes, spool, seed):
    _, schema, key_of, rows_of, decode, emits, _ = _SHAPES[shape]
    mr = MapReduce(comm, memsize=memsize, mapstyle=MapStyle.CHUNK,
                   schema=schema, spool_dir=spool)

    def mapper(itask, kv):
        if not emits(comm.rank, comm.size):
            return
        keys = [key_of(k) for k in _task_ids(seed, shape, itask).tolist()]
        if schema is None:
            for key, row in zip(keys, rows_of(comm.rank, itask)):
                kv.add(key, row)
        else:
            kv.add_batch(keys, rows_of(comm.rank, itask))

    wire_sorted = []
    wire_bytes = [0]  # nbytes of the wire arrays bound for other ranks
    alltoall = mr.comm.alltoall

    def spy(outgoing):
        for dest, arrays in enumerate(outgoing):
            if arrays is not None:
                wire_sorted.append(bool(np.all(arrays[0][:-1] <= arrays[0][1:])))
                if dest != mr.comm.rank:
                    wire_bytes[0] += sum(a.nbytes for a in arrays)
        return alltoall(outgoing)

    mr.comm.alltoall = spy
    groups = []

    def reducer(key, values, kv):
        groups.append((key, len(values), [decode(v) for v in values]))

    try:
        mr.map_items(range(2 * comm.size), lambda i, _, kv: mapper(i, kv))
        mr.aggregate(exchange_bytes=exchange_bytes)
        spilled = mr.kv.out_of_core
        nbuckets = len(mr.kv._buckets)
        buckets_hold = _buckets_hold(mr.kv)
        mr.convert()
        mr.reduce(reducer)
        moved = {"pairs_moved": int(mr.metrics.value("mr.aggregate_pairs")),
                 "bytes_moved": int(mr.metrics.value("mr.aggregate_bytes"))}
    finally:
        mr.close()
    return groups, wire_sorted, spilled, nbuckets, buckets_hold, moved, wire_bytes[0]


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("memsize", [1 << 26, 1 << 14], ids=["incore", "spill"])
@pytest.mark.parametrize("exchange_bytes", [None, 1 << 12], ids=["1round", "rounds"])
@pytest.mark.parametrize("nprocs", [1, 2, 3])
def test_shuffle_invariants(nprocs, exchange_bytes, memsize, backend, tmp_path, monkeypatch):
    monkeypatch.setattr(mapreduce, "_BUCKET_BYTES", _BUCKET_BYTES)  # forked ranks inherit it
    seed = 5 * nprocs + (exchange_bytes or 0) + memsize
    args = (memsize, exchange_bytes, str(tmp_path), seed)
    ranks = run_spmd(nprocs, _shuffle_rank, *args, backend=backend)
    for shape in _SHAPES:
        _check_shape(shape, nprocs, exchange_bytes, memsize, seed,
                     [out[shape] for out in ranks])


def _check_shape(shape, nprocs, exchange_bytes, memsize, seed, ranks):
    _, schema, key_of, _, _, emits, order = _SHAPES[shape]
    id_of = {key_of(k): k for k in range(_NKEYS)}
    emitted = [(src, t, _task_ids(seed, shape, t))
               for src in range(nprocs) if emits(src, nprocs)
               for t in range(2 * src, 2 * src + 2)]
    multiplicity = np.bincount(
        np.concatenate([ids for *_, ids in emitted] or [np.empty(0, dtype=np.int64)]),
        minlength=_NKEYS)
    # Only pairs that change rank are moved, however many rounds carry them,
    # and their bytes are exactly the wire arrays that leave the rank; fixed
    # -width rows are their own bytes (a ragged run adds its offsets).
    dest = np.array([stable_hash(key_of(k)) % nprocs for k in range(_NKEYS)])
    pairs_moved = sum(int(np.count_nonzero(dest[ids] != src)) for src, _, ids in emitted)
    assert sum(out[5]["pairs_moved"] for out in ranks) == pairs_moved, shape
    assert [out[5]["bytes_moved"] for out in ranks] == [out[6] for out in ranks], shape
    if schema is not None and not schema.ragged_values:
        row_bytes = schema.key_dtype.itemsize + schema.value_dtype.itemsize
        assert sum(out[5]["bytes_moved"] for out in ranks) == pairs_moved * row_bytes, shape

    seen = {}
    for groups, wire_sorted, spilled, nbuckets, buckets_hold, *_ in ranks:
        assert all(wire_sorted)  # every wire slice is a sorted run
        if shape == "base":
            assert wire_sorted
            assert spilled == (memsize < 1 << 20)
            assert nbuckets > 1  # the shapes below meet more than one bucket
        assert buckets_hold, shape
        keys = [k for k, _, _ in groups]
        assert keys == sorted(keys, key=order)  # keys leave convert in column order
        for key, nvalues, rows in groups:
            assert key not in seen, "key reduced on two ranks"
            seen[key] = rows
            # Goodrich's bounded reducer input: exactly the key's multiplicity.
            assert nvalues == len(rows) == multiplicity[id_of[key]]
            # Emission order: one source's values keep the order it emitted.
            for src in range(nprocs):
                mine = [r for r in rows if r[0] == src]
                assert mine == sorted(mine)
    assert len(seen) == np.count_nonzero(multiplicity)

    # The serial oracle: every emitted (source, task, seq), grouped by key
    # in emission order.
    oracle = {}
    for src, t, ids in emitted:
        for seq, k in enumerate(ids.tolist()):
            oracle.setdefault(key_of(k), []).append((src, t, seq))
    assert seen.keys() == oracle.keys()
    for key, rows in seen.items():
        assert sorted(rows) == oracle[key]
        if exchange_bytes is None and memsize >= 1 << 20:
            # One round: sources arrive in rank order, value for value.
            assert rows == oracle[key]


def _binomial_sum(parts):
    """Sum in the pairwise order of ``Comm.reduce``'s binomial tree."""
    vals = list(parts)
    mask = 1
    while mask < len(vals):
        for i in range(0, len(vals) - mask, mask << 1):
            vals[i] = vals[i] + vals[i + mask]
        mask <<= 1
    return vals[0]


def _som_reduce_both_ways(comm, data, codebook, spool):
    """One rank's Eq. 5 accumulators, totalled on rank 0 by the direct
    ``MPI_Reduce`` and by a collate/reduce through MR-MPI whose per-rank
    output ``comm.gather`` collects."""
    from repro.som.batch import accumulate_classes

    k, dim = codebook.shape
    sums, counts = np.zeros((k, dim)), np.zeros(k)
    accumulate_classes(np.array_split(data, comm.size)[comm.rank], codebook, sums, counts)
    direct = comm.reduce(np.concatenate([sums.ravel(), counts]), root=0)

    value_dtype = np.dtype([("rank", "<i8"), ("num", "<f8", (dim,)), ("denom", "<f8")])
    mr = MapReduce(comm, mapstyle=MapStyle.CHUNK, spool_dir=spool,
                   schema=RecordSchema("S4", value_dtype))
    rows = np.empty(k, dtype=value_dtype)
    rows["rank"], rows["num"], rows["denom"] = comm.rank, sums, counts
    try:
        mr.map_items(range(comm.size), lambda itask, _, kv: kv.add_batch(np.arange(k).astype("S4"), rows))
        mr.collate()
        moved = int(mr.metrics.value("mr.aggregate_pairs"))

        def reducer(unit, values, kv):
            ordered = sorted(values, key=lambda r: int(r["rank"]))
            kv.add(unit, (comm.rank, _binomial_sum([r["num"] for r in ordered]),
                          _binomial_sum([r["denom"] for r in ordered])))

        mr.reduce(reducer)
        num, denom = np.zeros((k, dim)), np.zeros(k)
        for batches in comm.gather(list(mr.kv.iter_batches()), root=0) or []:
            for units, totals in batches:
                units = units.astype(np.int64)
                num[units], denom[units] = totals["num"], totals["denom"]
    finally:
        mr.close()
    return direct, np.concatenate([num.ravel(), denom]), moved


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_mrsom_mrmpi_reduce_is_bit_identical_through_buckets(backend, tmp_path, monkeypatch):
    """The Eq. 5 accumulators routed through the columnar plane, cut into
    several buckets per rank, still replay the direct MPI_Reduce bit for bit."""
    from repro.som.codebook import SOMGrid, init_codebook

    monkeypatch.setattr(mapreduce, "_BUCKET_BYTES", 1 << 10)  # forked ranks inherit it
    rng = np.random.default_rng(3)
    data = rng.random((240, 8))
    codebook = init_codebook(SOMGrid(6, 5), data, seed_or_rng=rng)
    ranks = run_spmd(3, _som_reduce_both_ways, data, codebook, str(tmp_path), backend=backend)
    direct, shuffled, _ = ranks[0]
    np.testing.assert_array_equal(shuffled, direct)
    assert sum(moved for *_, moved in ranks) > 0
