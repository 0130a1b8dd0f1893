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
from repro.mrmpi.hashing import canonical_key, hash_key_column, key_bytes, stable_hash

# Canonical key values: bytes, str, int, float, bool and shallow tuples.
_scalar_keys = st.one_of(
    st.binary(max_size=20),
    st.text(max_size=20),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
)
keys = st.one_of(_scalar_keys, st.tuples(_scalar_keys, _scalar_keys))
values = st.one_of(st.binary(max_size=40), st.integers(), st.text(max_size=20))


def _exact(pairs):
    """Pairs with keys as their encodings: ``True`` and ``1`` differ."""
    return [(key_bytes(k), v) for k, v in pairs]


@given(st.lists(st.tuples(keys, values), max_size=60))
@settings(max_examples=60, deadline=None)
def test_out_of_core_kv_iterates_identically(pairs):
    """An untyped KV store paging to disk yields exactly the in-memory
    sequence, which is exactly what was emitted."""
    big = ColumnarKeyValue(UNTYPED, pagesize=1 << 24)
    small = ColumnarKeyValue(UNTYPED, pagesize=64)  # spill after nearly every add
    big.add_multi(pairs)
    small.add_multi(pairs)
    assert _exact(big) == _exact(small) == _exact(pairs)
    assert len(big) == len(small) == len(pairs)
    small.close()


@given(st.lists(st.tuples(keys, values), max_size=60))
@settings(max_examples=60, deadline=None)
def test_convert_groups_every_value_exactly_once(pairs):
    kv = ColumnarKeyValue(UNTYPED, pagesize=128)  # force the out-of-core convert path
    kv.add_multi(pairs)
    kmv = convert_columnar(kv, pagesize=128)
    regrouped: dict[bytes, list] = {}
    for key, vals in kmv:
        kb = key_bytes(key)
        assert kb not in regrouped, "key emitted twice"
        regrouped[kb] = list(vals)
    expected: dict[bytes, list] = {}
    for k, v in pairs:
        expected.setdefault(key_bytes(k), []).append(v)
    assert regrouped == expected
    kmv.close()


@given(st.lists(keys, max_size=50))
@settings(max_examples=200, deadline=None)
def test_canonical_key_column_hashes_and_decodes_like_the_keys(ks):
    """The untyped key column: hashed element-wise equal to ``stable_hash``
    (so every key lands where its scalar hash says), decoded to the keys."""
    column = UNTYPED.encode_keys(ks)
    assert hash_key_column(column, "canonical").tolist() == [stable_hash(k) for k in ks]
    assert [key_bytes(k) for k in UNTYPED.decode_keys(column)] == [key_bytes(k) for k in ks]


@given(keys, keys)
@settings(max_examples=200, deadline=None)
def test_key_encoding_injective_within_and_across_types(a, b):
    """Different canonical keys must never share an encoding (hash inputs)."""
    if key_bytes(a) == key_bytes(b):
        # Only permissible when the keys are interchangeable as dict keys
        # of the same encoded class (e.g. equal tuples).
        assert type(a) is type(b) or (
            isinstance(a, (int, bool)) and isinstance(b, (int, bool))
        )
        if not isinstance(a, tuple):
            assert a == b or (a != a)  # NaN never reaches here (filtered)


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
    first_pass = {key_bytes(k): stable_hash(k) % nprocs for k in ks}
    second_pass = {key_bytes(k): stable_hash(k) % nprocs for k in reversed(ks)}
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
    schema: RecordSchema = RecordSchema("S6", _ROW, key_kind="str")
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
    "wide": _Shape(schema=RecordSchema("S64", _SUB, key_kind="str"),
                   key_of=lambda k: "query/%03d/" % k + "x" * 40,
                   rows_of=lambda rank, itask: _rows(rank, itask, _SUB),
                   decode=lambda v: (int(v["rank"]), int(v["ts"][0]), int(v["ts"][1]))),
    "int": _Shape(schema=RecordSchema(np.int64, RAGGED_BYTES),
                  key_of=lambda k: (k - _NKEYS // 2) * (1 << 40), rows_of=_ragged,
                  decode=lambda v: tuple(np.frombuffer(v, dtype="<i8")[:3].tolist()),
                  order=int),
    # No schema: mixed keys (a tuple with NULs, str, float) and tuple
    # values, emitted one scalar add at a time.
    "untyped": _Shape(schema=None,
                      key_of=lambda k: ((b"q\x00", k), "k%03d" % k, k * 1.5)[k % 3],
                      rows_of=lambda rank, itask: [(rank, itask, seq) for seq in range(_PER_TASK)],
                      decode=lambda v: v, order=canonical_key),
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
        mr.map(2 * comm.size, mapper)
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


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_mrsom_mrmpi_reduce_is_bit_identical_through_buckets(backend, tmp_path, monkeypatch):
    """The Eq. 5 accumulators routed through the columnar plane, cut into
    several buckets per rank, still replay the direct MPI_Reduce bit for bit."""
    from repro.core.mrsom.driver import MrSomConfig, mrsom_spmd
    from repro.core.mrsom.mmap_input import write_matrix_file
    from repro.som.codebook import SOMGrid

    monkeypatch.setattr(mapreduce, "_BUCKET_BYTES", 1 << 10)
    path = write_matrix_file(tmp_path / "v.mat", np.random.default_rng(3).random((240, 8)))
    kwargs = dict(matrix_path=str(path), grid=SOMGrid(6, 5), epochs=3, block_rows=40,
                  mapstyle=MapStyle.CHUNK, backend=backend)
    direct = mrsom_spmd(3, MrSomConfig(**kwargs))
    mrmpi = mrsom_spmd(3, MrSomConfig(**kwargs, reduce_mode="mrmpi"))
    np.testing.assert_array_equal(mrmpi[0].codebook, direct[0].codebook)
    assert mrmpi[0].shuffle_pairs_moved > 0
