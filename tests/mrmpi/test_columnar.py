"""The columnar KV data plane: schema, vectorized hashing, typed stores,
external sorts and sort-based grouping.

The contract under test throughout: every columnar operation must agree
with plain ``sorted``/dict grouping and the scalar ``stable_hash`` — the
columns are a representation, never a different semantics.
"""

import glob

import numpy as np
import pytest

from repro.mrmpi.columnar import (
    ColumnarKeyMultiValue,
    ColumnarKeyValue,
    _v_to_arrays,
    convert_columnar,
    iter_sorted_batches,
    sort_kmv_columnar,
)
from repro.mrmpi.hashing import hash_key_column
from repro.mrmpi.schema import RAGGED_BYTES, RecordSchema

from oracles.fnv_hash import stable_hash

INT_SCHEMA = RecordSchema(key_dtype="S12", value_dtype=np.dtype("<i8"))


def ragged_schema(key_dtype="S12"):
    return RecordSchema(key_dtype=key_dtype, value_dtype=RAGGED_BYTES)


# --------------------------------------------------------------------------
# Vectorized hashing: must agree with the scalar stable hash bit for bit,
# or a key's rank would depend on the schema that carries it.
# --------------------------------------------------------------------------


class TestHashKeyColumn:
    def test_str_keys_match_scalar_hash(self):
        keys = ["", "a", "key7", "x" * 11, "Ünïcode", "the quick"]
        col = np.array([k.encode("utf-8") for k in keys], dtype="S20")
        hashed = hash_key_column(col)
        for k, h in zip(keys, hashed):
            assert int(h) == stable_hash(k), k

    def test_varied_widths_in_one_column(self):
        # the masked per-byte sweep must stop at each key's own length
        keys = ["a", "ab", "abc", "abcd", "abcde"]
        col = np.array([k.encode() for k in keys], dtype="S5")
        hashed = hash_key_column(col)
        assert len(set(int(h) for h in hashed)) == len(keys)
        for k, h in zip(keys, hashed):
            assert int(h) == stable_hash(k)


# --------------------------------------------------------------------------
# Schema validation
# --------------------------------------------------------------------------


class TestRecordSchema:
    def test_rejects_object_key_dtype(self):
        with pytest.raises((ValueError, TypeError)):
            RecordSchema(key_dtype=np.dtype(object), value_dtype=np.dtype("<i8"))

    def test_str_kind_requires_bytes_column(self):
        with pytest.raises(ValueError):
            RecordSchema(key_dtype="<i8", value_dtype=np.dtype("<i8"))
        with pytest.raises(ValueError, match="key_kind"):
            RecordSchema(key_dtype="S8", value_dtype=np.dtype("<i8"), key_kind="int")

    def test_rejects_oversized_key(self):
        with pytest.raises(ValueError, match="wider"):
            INT_SCHEMA.encode_keys(["x" * 13])

    def test_rejects_trailing_nul_key(self):
        with pytest.raises(ValueError):
            INT_SCHEMA.encode_keys(["ok\x00"])

    def test_bytes_columns_of_another_width(self):
        """An 'S' key column narrower than the schema is widened; a wider
        one is stored when every key fits, else raises the width error."""
        narrow = np.array([b"a", b"bc"], dtype="S2")
        assert INT_SCHEMA.encode_keys(narrow).dtype == np.dtype("S12")
        assert INT_SCHEMA.decode_keys(INT_SCHEMA.encode_keys(narrow)) == ["a", "bc"]
        fits = np.array([b"a", b"x" * 12], dtype="S20")
        assert INT_SCHEMA.decode_keys(INT_SCHEMA.encode_keys(fits)) == ["a", "x" * 12]
        with pytest.raises(ValueError, match="wider"):
            INT_SCHEMA.encode_keys(np.array([b"x" * 13], dtype="S20"))
        kv = ColumnarKeyValue(RecordSchema("S8", np.dtype("<i8")))
        kv.add_batch(np.array([b"k1", b"k2"], dtype="S2"), [1, 2])
        kv.add_batch(np.array([b"k333"], dtype="S10"), [3])
        with pytest.raises(ValueError, match="wider"):
            kv.add_batch(np.array([b"k123456789"], dtype="S10"), [4])
        assert list(kv) == [("k1", 1), ("k2", 2), ("k333", 3)]
        kv.close()


# --------------------------------------------------------------------------
# ColumnarKeyValue: round trips, batches, wire format, spilling
# --------------------------------------------------------------------------


class TestColumnarKeyValue:
    def test_scalar_and_batch_adds_round_trip(self):
        kv = ColumnarKeyValue(INT_SCHEMA)
        kv.add("one", 1)
        kv.add_batch(["two", "three"], [2, 3])
        kv.add("four", 4)
        assert len(kv) == 4
        assert list(kv) == [("one", 1), ("two", 2), ("three", 3), ("four", 4)]
        kv.close()

    def test_ragged_values_round_trip(self):
        kv = ColumnarKeyValue(ragged_schema())
        payloads = [b"", b"x", b"hello world", b"\x00\x01\x02"]
        for i, p in enumerate(payloads):
            kv.add(f"k{i}", p)
        assert [v for _, v in kv] == payloads
        kv.close()

    def test_scalar_add_encodes_ragged_values_through_the_hook(self):
        """A typed schema with ragged values and an ``encode_values`` hook:
        ``add`` stores what ``add_batch`` stores, even for a value with no
        ``len`` of its own (it used to size the value before encoding it)."""
        import pickle

        schema = RecordSchema("S4", RAGGED_BYTES,
                              encode_values=lambda vs: [pickle.dumps(v) for v in vs],
                              decode_value=lambda row: pickle.loads(bytes(row)))
        one, batch = ColumnarKeyValue(schema), ColumnarKeyValue(schema)
        for key, value in [("3", 7), ("4", "x"), ("5", None)]:
            one.add(key, value)
        batch.add_batch(["3", "4", "5"], [7, "x", None])
        assert list(one) == list(batch) == [("3", 7), ("4", "x"), ("5", None)]
        assert one.nbytes == batch.nbytes
        for (k1, v1), (k2, v2) in zip(one.iter_batches(), batch.iter_batches()):
            np.testing.assert_array_equal(k1, k2)
            for a, b in zip(_v_to_arrays(v1), _v_to_arrays(v2)):
                np.testing.assert_array_equal(a, b)
        one.close()
        batch.close()

    def test_wire_round_trip(self):
        src = ColumnarKeyValue(INT_SCHEMA)
        src.add_batch(["a", "b", "c"], [1, 2, 3])
        (karr, vcol) = next(iter(src.iter_batches()))
        dst = ColumnarKeyValue(INT_SCHEMA)
        n = dst.add_wire((karr,) + _v_to_arrays(vcol))
        assert n == 3
        assert list(dst) == list(src)
        src.close()
        dst.close()

    def test_spills_and_survives(self, tmp_path):
        kv = ColumnarKeyValue(INT_SCHEMA, pagesize=256, spool_dir=str(tmp_path))
        expected = [(f"k{i:04d}", i) for i in range(500)]
        for lo in range(0, 500, 50):
            chunk = expected[lo : lo + 50]
            kv.add_batch([k for k, _ in chunk], [v for _, v in chunk])
        assert kv.out_of_core
        assert kv.spilled_pages > 1
        assert list(kv) == expected
        kv.close()
        assert glob.glob(str(tmp_path / "*")) == []

    def test_exact_byte_accounting(self):
        kv = ColumnarKeyValue(INT_SCHEMA)
        kv.add_batch(["aa", "bb"], [1, 2])
        # 2 S12 keys + 2 int64 values, no estimates involved
        assert kv.nbytes == 2 * 12 + 2 * 8
        kv.close()


# --------------------------------------------------------------------------
# Sorted iteration: the external merge sort behind convert
# --------------------------------------------------------------------------


class TestSortedBatches:
    @pytest.mark.parametrize("pagesize", [1 << 20, 256])
    def test_sorted_and_stable(self, pagesize, tmp_path):
        kv = ColumnarKeyValue(INT_SCHEMA, pagesize=pagesize, spool_dir=str(tmp_path))
        rng = np.random.default_rng(11)
        keys = [f"k{rng.integers(40):02d}" for _ in range(600)]
        kv.add_batch(keys, list(range(600)))
        if pagesize == 256:
            assert kv.out_of_core

        out = []
        for karr, vcol in iter_sorted_batches(kv):
            for key, value in zip(INT_SCHEMA.decode_keys(karr), vcol):
                out.append((key, int(value)))
        # stable: ties keep emission order, exactly like sorted() on pairs
        assert out == sorted(zip(keys, range(600)), key=lambda p: p[0])
        kv.close()


# --------------------------------------------------------------------------
# convert: sort-based grouping must build the same groups as dict grouping
# --------------------------------------------------------------------------


class TestConvertColumnar:
    @pytest.mark.parametrize("pagesize", [1 << 20, 256])
    def test_groups_match_dict_grouping(self, pagesize, tmp_path):
        kv = ColumnarKeyValue(INT_SCHEMA, pagesize=pagesize, spool_dir=str(tmp_path))
        rng = np.random.default_rng(5)
        pairs = [(f"g{rng.integers(25):02d}", i) for i in range(700)]
        kv.add_batch([k for k, _ in pairs], [v for _, v in pairs])

        expected: dict[str, list[int]] = {}
        for k, v in pairs:
            expected.setdefault(k, []).append(v)

        kmv = convert_columnar(kv, pagesize=pagesize, spool_dir=str(tmp_path))
        got = {k: [int(v) for v in vs] for k, vs in kmv}
        assert got == expected
        # sort-based convert emits keys in sorted order
        assert [k for k, _ in kmv] == sorted(expected)
        assert sum(len(vs) for _, vs in kmv) == 700
        kv.close()
        kmv.close()
        assert glob.glob(str(tmp_path / "*")) == []

    def test_group_split_across_pages(self, tmp_path):
        # one huge key dominating several spill pages must still come out
        # as a single group
        kv = ColumnarKeyValue(INT_SCHEMA, pagesize=128, spool_dir=str(tmp_path))
        kv.add_batch(["big"] * 300 + ["tiny"], list(range(301)))
        kmv = convert_columnar(kv, pagesize=128, spool_dir=str(tmp_path))
        got = {k: [int(v) for v in vs] for k, vs in kmv}
        assert got == {"big": list(range(300)), "tiny": [300]}
        kv.close()
        kmv.close()


# --------------------------------------------------------------------------
# KMV sorting
# --------------------------------------------------------------------------


class TestSortKmvColumnar:
    @pytest.mark.parametrize("pagesize", [1 << 20, 200])
    def test_orders_groups_by_key_fn(self, pagesize, tmp_path):
        kv = ColumnarKeyValue(INT_SCHEMA, pagesize=pagesize, spool_dir=str(tmp_path))
        rng = np.random.default_rng(9)
        pairs = [(f"q{rng.integers(30):02d}", i) for i in range(400)]
        kv.add_batch([k for k, _ in pairs], [v for _, v in pairs])
        kmv = convert_columnar(kv, pagesize=pagesize, spool_dir=str(tmp_path))

        by_reverse = sort_kmv_columnar(kmv, key=lambda k: k[::-1])
        got = [(k, [int(v) for v in vs]) for k, vs in by_reverse]
        expected: dict[str, list[int]] = {}
        for k, v in pairs:
            expected.setdefault(k, []).append(v)
        assert got == sorted(expected.items(), key=lambda p: p[0][::-1])
        kv.close()
        kmv.close()
        by_reverse.close()
        assert glob.glob(str(tmp_path / "*")) == []

    def test_non_comparable_rank_raises(self):
        kv = ColumnarKeyValue(INT_SCHEMA)
        kv.add_batch(["a", "b"], [1, 2])
        kmv = convert_columnar(kv, pagesize=1 << 20)
        with pytest.raises(TypeError):
            sort_kmv_columnar(kmv, key=lambda k: object())
        kv.close()
        kmv.close()


class TestColumnarKeyMultiValue:
    def test_group_batch_offsets_must_start_at_zero(self):
        kmv = ColumnarKeyMultiValue(INT_SCHEMA)
        keys = np.array([b"a"], dtype="S12")
        bad = np.array([1, 2], dtype=np.int64)
        with pytest.raises(ValueError):
            kmv.add_group_batch(keys, bad, np.array([7, 8], dtype="<i8"))
        kmv.close()

    def test_ragged_groups_round_trip(self, tmp_path):
        kmv = ColumnarKeyMultiValue(ragged_schema(), pagesize=128, spool_dir=str(tmp_path))
        groups = {f"k{i}": [bytes([i]) * j for j in range(1, 4)] for i in range(40)}
        for k, vs in groups.items():
            kmv.add(k, vs)
        assert kmv.out_of_core
        assert {k: vs for k, vs in kmv} == groups
        assert sum(len(vs) for _, vs in kmv) == sum(len(v) for v in groups.values())
        kmv.close()
        assert glob.glob(str(tmp_path / "*")) == []
