"""The ``values`` a columnar reducer receives: a read-only view, not a list.

Contract: it behaves like the list it replaces (``len``, index, slice,
iteration, ``sorted``, equality) for every schema shape, decodes nothing it
is not asked for, and stays valid for as long as the reducer holds it: it
may not alias a page buffer that gets reused.  The MapReduce-level tests
run on both transports.
"""

import numpy as np
import pytest

from repro.blast.hsp import HSP
from repro.core.mrblast.hspcodec import hsp_schema
from repro.mpi import run_spmd
from repro.mrmpi import MapReduce, MapStyle, RAGGED_BYTES, RecordSchema
from repro.mrmpi.columnar import ColumnarKeyValue, ValuesView, convert_columnar

ROW = np.dtype([("score", "<i8"), ("pos", "<i8"), ("bit", "<f8")])
NKEYS, NROWS = 23, 2400  # in core, every wire slice is past the transport's 32 KiB bulk cut


def _hsp(i):
    return HSP(query_id=f"q{i % NKEYS:02d}", subject_id=f"s{i}", score=i, bit_score=i / 2,
               evalue=10.0 ** -(i % 7), q_start=i, q_end=i + 30, s_start=2 * i,
               s_end=2 * i + 30, identities=29, align_len=30)


def _hookless_values(i):
    row = np.zeros((), dtype=ROW)
    row["score"], row["pos"], row["bit"] = i % 11, i, i / 4
    return row[()]


#: shape -> (schema, value for row i, decoded value -> comparable object)
SHAPES = {
    "hookless": (
        RecordSchema("S8", ROW), _hookless_values,
        lambda v: (int(v["score"]), int(v["pos"]), float(v["bit"]))),
    "hsp": (hsp_schema(16), _hsp, lambda v: v),
    "ragged": (
        RecordSchema("S8", RAGGED_BYTES),
        lambda i: b"payload-%d" % i * (i % 5), lambda v: v),
}


def _pairs(make):
    return [(f"q{i % NKEYS:02d}", make(i)) for i in range(NROWS)]


def _expected(shape):
    _schema, make, plain = SHAPES[shape]
    groups: dict[str, list] = {}
    for key, value in _pairs(make):
        groups.setdefault(key, []).append(plain(value))
    return groups


def _kmv(shape, pagesize, spool_dir):
    schema, make, _plain = SHAPES[shape]
    kv = ColumnarKeyValue(schema, pagesize=pagesize, spool_dir=spool_dir)
    pairs = _pairs(make)
    for lo in range(0, NROWS, 50):
        chunk = pairs[lo : lo + 50]
        values = [v for _, v in chunk]
        if shape == "hookless":
            values = np.array(values, dtype=ROW)
        kv.add_batch([k for k, _ in chunk], values)
    kmv = convert_columnar(kv, pagesize=pagesize, spool_dir=spool_dir)
    kv.close()
    return kmv


@pytest.mark.parametrize("shape", SHAPES)
def test_view_behaves_like_the_list_it_replaces(shape, tmp_path):
    plain = SHAPES[shape][2]
    kmv = _kmv(shape, 1 << 22, str(tmp_path))
    expected = _expected(shape)
    assert [k for k, _ in kmv] == sorted(expected)
    for key, values in kmv:
        want = expected[key]
        assert isinstance(values, ValuesView)
        assert len(values) == len(want)
        assert [plain(v) for v in values] == want  # iteration, emission order
        assert plain(values[0]) == want[0] and plain(values[-1]) == want[-1]
        assert [plain(v) for v in values[1:6:2]] == want[1:6:2]
        assert isinstance(values[:2], list)
        with pytest.raises(IndexError):
            values[len(want)]
        with pytest.raises(IndexError):
            values[-len(want) - 1]
        assert sorted(map(plain, values), key=repr) == sorted(want, key=repr)
        # Equality with the old object, both ways round, and with itself.
        as_list = list(values)
        assert values == as_list and as_list == values and values == values
        assert values != as_list[:-1] and values != as_list + as_list[:1]
        assert not (values == "not a sequence of rows")
        with pytest.raises(TypeError):
            hash(values)
    kmv.close()


def test_nothing_is_decoded_that_the_reducer_does_not_touch(tmp_path):
    decoded = []
    base = hsp_schema(16)
    schema = RecordSchema(base.key_dtype, base.value_dtype,
                          encode_values=base.encode_values,
                          decode_value=lambda row: decoded.append(1) or base.decode_value(row))
    kv = ColumnarKeyValue(schema)
    pairs = _pairs(_hsp)
    kv.add_batch([k for k, _ in pairs], [v for _, v in pairs])
    kmv = convert_columnar(kv, pagesize=1 << 22)
    total = sum(len(values) for _key, values in kmv)
    assert total == NROWS and decoded == []
    first = next(iter(kmv))[1]
    first[3]
    assert len(decoded) == 1
    kv.close()
    kmv.close()


@pytest.mark.parametrize("shape", SHAPES)
def test_kept_views_survive_later_pages_and_close(shape, tmp_path):
    plain = SHAPES[shape][2]
    kmv = _kmv(shape, 2048, str(tmp_path))  # KMV pages spill: every page is re-read
    assert kmv.spilled_pages > 1
    kept = list(kmv)  # every page has been loaded and dropped by now
    kmv.close()  # and the spool file is gone
    assert {k: [plain(v) for v in vs] for k, vs in kept} == _expected(shape)


def _keeping_rank(comm, shape, memsize, spool):
    schema, make, plain = SHAPES[shape]
    mr = MapReduce(comm, memsize=memsize, mapstyle=MapStyle.CHUNK,
                   schema=schema, spool_dir=spool)
    pairs = _pairs(make)

    def mapper(itask, kv):
        # Only the last rank emits, so in core every rank receives exactly one
        # run and groups it as it stands: rank 0's views sit directly on the
        # arrays the transport delivered (a shm block, on that backend).
        if comm.rank != comm.size - 1:
            return
        mine = pairs[itask % 2 :: 2]
        values = [v for _, v in mine]
        if shape == "hookless":
            values = np.array(values, dtype=ROW)
        kv.add_batch([k for k, _ in mine], values)

    kept = []
    mr.map_items(range(2 * comm.size), lambda i, _, kv: mapper(i, kv))
    mr.collate()
    mr.reduce(lambda key, values, kv: kept.append((key, values)), out_schema=None)
    # A second job through the same communicator: the transport sends again
    # and new pages are spilled and read back.
    mr.map_items(range(2 * comm.size), lambda i, _, kv: mapper(i, kv))
    mr.collate()
    mr.reduce(lambda key, values, kv: None, out_schema=None)
    mr.close()
    return [(key, [plain(v) for v in values]) for key, values in kept]


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("memsize", [1 << 24, 4096], ids=["incore", "spill"])
@pytest.mark.parametrize("shape", SHAPES)
def test_reducer_may_keep_values_past_its_call(shape, memsize, backend, tmp_path):
    out = run_spmd(2, _keeping_rank, shape, memsize, str(tmp_path), backend=backend)
    got = {key: rows for rank_out in out for key, rows in rank_out}
    expected = _expected(shape)
    assert got.keys() == expected.keys()
    for key, rows in got.items():
        # Two interleaved tasks: compare as multisets per key.
        assert sorted(rows, key=repr) == sorted(expected[key], key=repr)
