"""Property-based tests for the MapReduce-MPI stores, hashing, key ordering
and the shuffle's invariants."""

from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import run_spmd
from repro.mrmpi import MapReduce, MapStyle, RecordSchema, mapreduce
from repro.mrmpi.columnar import _RADIX_MIN, key_order
from repro.mrmpi.schema import RAGGED_BYTES
from repro.mrmpi.hashing import key_bytes, stable_hash
from repro.mrmpi.keyvalue import KeyValue
from repro.mrmpi.keymultivalue import convert_kv_to_kmv

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


@given(st.lists(st.tuples(keys, values), max_size=60))
@settings(max_examples=60, deadline=None)
def test_out_of_core_kv_iterates_identically(pairs):
    """A KV store paging to disk yields exactly the in-memory sequence."""
    big = KeyValue(pagesize=1 << 24)
    small = KeyValue(pagesize=64)  # spill after nearly every add
    big.add_multi(pairs)
    small.add_multi(pairs)
    assert list(big) == list(small)
    assert len(big) == len(small) == len(pairs)


@given(st.lists(st.tuples(keys, values), max_size=60), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_convert_groups_every_value_exactly_once(pairs, nbuckets):
    kv = KeyValue(pagesize=128)  # force the out-of-core convert path
    kv.add_multi(pairs)
    kmv = convert_kv_to_kmv(kv, pagesize=128, nbuckets=nbuckets)
    regrouped: dict[bytes, list] = {}
    for key, vals in kmv:
        kb = key_bytes(key)
        assert kb not in regrouped, "key emitted twice"
        regrouped[kb] = list(vals)
    expected: dict[bytes, list] = {}
    for k, v in pairs:
        expected.setdefault(key_bytes(k), []).append(v)
    assert regrouped == expected


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
# get wrong.  Every shape runs inside one job per plane and test, with the
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
    (rank, task, seq) values look like on the columnar plane, who emits."""

    ids: Callable = _uniform
    schema: RecordSchema = RecordSchema("S6", _ROW, key_kind="str")
    key_of: Callable = _str_key
    rows_of: Callable = _rows
    decode: Callable = _row_tuple
    emits: Callable = lambda rank, size: True


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
                  decode=lambda v: tuple(np.frombuffer(v, dtype="<i8")[:3].tolist())),
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


def _shuffle_rank(comm, columnar, memsize, exchange_bytes, spool, seed):
    return {shape: _shuffle_shape(comm, shape, columnar, memsize, exchange_bytes, spool, seed)
            for shape in _SHAPES}


def _shuffle_shape(comm, shape, columnar, memsize, exchange_bytes, spool, seed):
    _, schema, key_of, rows_of, decode, emits = _SHAPES[shape]
    mr = MapReduce(comm, memsize=memsize, mapstyle=MapStyle.CHUNK,
                   schema=schema if columnar else None, spool_dir=spool)

    def mapper(itask, kv):
        if not emits(comm.rank, comm.size):
            return
        keys = [key_of(k) for k in _task_ids(seed, shape, itask).tolist()]
        if columnar:
            kv.add_batch(keys, rows_of(comm.rank, itask))
        else:
            for seq, key in enumerate(keys):
                kv.add(key, (comm.rank, itask, seq))

    wire_sorted = []
    alltoall = mr.comm.alltoall

    def spy(outgoing):
        for arrays in outgoing:
            if arrays is not None and columnar:
                wire_sorted.append(bool(np.all(arrays[0][:-1] <= arrays[0][1:])))
        return alltoall(outgoing)

    mr.comm.alltoall = spy
    groups = []

    def reducer(key, values, kv):
        rows = [decode(v) if columnar else v for v in values]
        groups.append((key, len(values), rows))

    try:
        mr.map(2 * comm.size, mapper)
        mr.aggregate(exchange_bytes=exchange_bytes)
        spilled = bool(getattr(mr.kv, "out_of_core", False))
        nbuckets = len(mr.kv._buckets) if columnar else 0
        buckets_hold = _buckets_hold(mr.kv) if columnar else True
        mr.convert()
        mr.reduce(reducer, out_schema=None)
        moved = mr.stats.get("aggregate", {"pairs_moved": 0, "bytes_moved": 0})
    finally:
        mr.close()
    return groups, wire_sorted, spilled, nbuckets, buckets_hold, moved


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("memsize", [1 << 26, 1 << 14], ids=["incore", "spill"])
@pytest.mark.parametrize("exchange_bytes", [None, 1 << 12], ids=["1round", "rounds"])
@pytest.mark.parametrize("nprocs", [1, 2, 3])
def test_shuffle_invariants(nprocs, exchange_bytes, memsize, backend, tmp_path, monkeypatch):
    monkeypatch.setattr(mapreduce, "_BUCKET_BYTES", _BUCKET_BYTES)  # forked ranks inherit it
    seed = 5 * nprocs + (exchange_bytes or 0) + memsize
    args = (memsize, exchange_bytes, str(tmp_path), seed)
    columnar = run_spmd(nprocs, _shuffle_rank, True, *args, backend=backend)
    objects = run_spmd(nprocs, _shuffle_rank, False, *args, backend=backend)
    for shape in _SHAPES:
        _check_shape(shape, nprocs, exchange_bytes, memsize, seed,
                     [out[shape] for out in columnar], [out[shape] for out in objects])


def _check_shape(shape, nprocs, exchange_bytes, memsize, seed, columnar, objects):
    _, schema, key_of, _, _, emits = _SHAPES[shape]
    id_of = {key_of(k): k for k in range(_NKEYS)}
    emitted = [(src, _task_ids(seed, shape, t))
               for src in range(nprocs) if emits(src, nprocs)
               for t in range(2 * src, 2 * src + 2)]
    multiplicity = np.bincount(
        np.concatenate([ids for _, ids in emitted] or [np.empty(0, dtype=np.int64)]),
        minlength=_NKEYS)
    # Only pairs that change rank are moved, however many rounds carry them;
    # fixed-width rows are their own bytes (a ragged run adds its offsets).
    dest = np.array([stable_hash(key_of(k)) % nprocs for k in range(_NKEYS)])
    pairs_moved = sum(int(np.count_nonzero(dest[ids] != src)) for src, ids in emitted)
    assert sum(out[5]["pairs_moved"] for out in columnar) == pairs_moved, shape
    if not schema.ragged_values:
        row_bytes = schema.key_dtype.itemsize + schema.value_dtype.itemsize
        assert sum(out[5]["bytes_moved"] for out in columnar) == pairs_moved * row_bytes, shape

    seen = {}
    for groups, wire_sorted, spilled, nbuckets, buckets_hold, _ in columnar:
        assert all(wire_sorted)  # every wire slice is a sorted run
        if shape == "base":
            assert wire_sorted
            assert spilled == (memsize < 1 << 20)
            assert nbuckets > 1  # the shapes below meet more than one bucket
        assert buckets_hold, shape
        keys = [k for k, _, _ in groups]
        if schema.key_kind == "str":
            assert keys == sorted(keys)  # keys leave convert in column order
        else:
            assert keys == sorted(keys, key=int)
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

    oracle = {k: rows for groups, *_ in objects for k, _, rows in groups}
    assert seen.keys() == oracle.keys()
    for key, rows in seen.items():
        assert sorted(rows) == sorted(oracle[key])
        if exchange_bytes is None and memsize >= 1 << 20:
            # One round on both planes: same arrival order, value for value.
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
