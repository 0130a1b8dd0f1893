"""KeyValue / KeyMultiValue stores and the page spool."""

import numpy as np
import pytest

from repro.mrmpi.hashing import key_bytes, stable_hash
from repro.mrmpi.keymultivalue import KeyMultiValue, convert_kv_to_kmv
from repro.mrmpi.keyvalue import KeyValue
from repro.mrmpi.spool import PageSpool, approx_size


class TestPageSpool:
    def test_roundtrip_pages_in_order(self, tmp_path):
        spool = PageSpool(dir=str(tmp_path))
        spool.write_page([1, 2, 3])
        spool.write_page(["a", "b"])
        assert spool.npages == 2
        assert spool.nrecords == 5
        assert list(spool.iter_pages()) == [[1, 2, 3], ["a", "b"]]
        assert list(spool.iter_records()) == [1, 2, 3, "a", "b"]
        spool.close()

    def test_interleaved_write_read(self, tmp_path):
        spool = PageSpool(dir=str(tmp_path))
        spool.write_page([0])
        assert list(spool.iter_records()) == [0]
        spool.write_page([1])
        assert list(spool.iter_records()) == [0, 1]
        spool.close()

    def test_close_removes_file_and_blocks_use(self, tmp_path):
        import os

        spool = PageSpool(dir=str(tmp_path))
        path = spool.path
        spool.write_page([1])
        spool.close()
        assert not os.path.exists(path)
        with pytest.raises(ValueError):
            spool.write_page([2])

    def test_array_pages_roundtrip_and_keep_the_np_save_layout(self, tmp_path):
        """Structured dtypes with subarray fields, n-d columns and zero-row
        arrays come back bit for bit, mixed with object pages; the bytes on
        disk are what ``np.save`` frames would be (so ``nbytes`` and the row
        offsets ``read_rows`` seeks to are unchanged) and every buffer read
        back owns its memory."""
        import io

        row = np.dtype([("score", "<i8"), ("xyz", "<f4", (3,)), ("tag", "S5")])
        rows = np.zeros(7, dtype=row)
        rows["score"], rows["xyz"], rows["tag"] = np.arange(7), np.arange(21).reshape(7, 3), b"ab"
        pages = [
            (np.array([b"k1", b"k22"] * 3 + [b""], dtype="S8"), rows),
            (np.empty(0, dtype="S8"), np.empty(0, dtype=row)),
            (np.arange(12.0).reshape(4, 3), np.empty((0, 3)), rows[::2]),  # strided in
        ]
        with PageSpool(dir=str(tmp_path)) as spool:
            for i, arrays in enumerate(pages):
                spool.write_page([("object", i)])
                expected = io.BytesIO()
                expected.write(b"\x01" + len(arrays).to_bytes(8, "little"))
                for arr in arrays:
                    np.save(expected, arr)
                before = spool.nbytes
                assert spool.write_arrays(arrays, len(arrays[0])) == len(expected.getvalue())
                assert spool.nbytes - before == len(expected.getvalue())
                spool._file.flush()
                with open(spool.path, "rb") as fh:
                    fh.seek(before)
                    assert fh.read() == expected.getvalue()
            for i, arrays in enumerate(pages):
                assert spool.read_page(2 * i) == [("object", i)]
                back = spool.read_page(2 * i + 1)
                assert len(back) == len(arrays)
                for arr, got in zip(arrays, back):
                    assert got.dtype == arr.dtype and got.shape == arr.shape
                    assert got.tobytes() == arr.tobytes()
                    assert got.base is None  # no read buffer pinned
                assert spool.page_rows(2 * i + 1) == len(arrays[0])
            assert spool.read_rows(1, 1, 2, 5).tobytes() == rows[2:5].tobytes()
            assert spool.read_rows(3, 1, 0, 0).shape == (0,)

    def test_approx_size_scales_with_payload(self):
        assert approx_size(b"x" * 1000) > approx_size(b"x")
        assert approx_size(np.zeros(1000)) > approx_size(np.zeros(10))
        assert approx_size([b"x"] * 100) > approx_size([b"x"])


class TestKeyValue:
    def test_add_and_iterate_in_order(self):
        kv = KeyValue()
        for i in range(10):
            kv.add(f"k{i}", i * i)
        assert len(kv) == 10
        assert list(kv) == [(f"k{i}", i * i) for i in range(10)]
        assert not kv.out_of_core

    def test_spills_when_page_full_and_preserves_order(self, tmp_path):
        kv = KeyValue(pagesize=2048, spool_dir=str(tmp_path))
        pairs = [(f"key{i}", b"v" * 100) for i in range(100)]
        kv.add_multi(pairs)
        assert kv.out_of_core
        assert kv.spilled_pages > 1
        assert list(kv) == pairs

    def test_bad_key_type_rejected_at_add(self):
        kv = KeyValue()
        with pytest.raises(TypeError, match="unsupported key type"):
            kv.add([1, 2], "value")  # lists are not canonical keys

    def test_clear_resets_everything(self, tmp_path):
        kv = KeyValue(pagesize=256, spool_dir=str(tmp_path))
        kv.add_multi([(str(i), b"x" * 64) for i in range(50)])
        kv.clear()
        assert len(kv) == 0
        assert list(kv) == []
        assert not kv.out_of_core

    def test_invalid_pagesize(self):
        with pytest.raises(ValueError):
            KeyValue(pagesize=0)


class TestKeyValidationAtEmit:
    """``add`` accepts what ``key_bytes`` encodes and raises what it raises,
    without paying for the encoding."""

    @pytest.mark.parametrize("key", [
        b"k", "k", 7, 2.5, True, (), ("q", 3), ("q", (1, (b"x", 2.0))),
        np.str_("k"), np.float64(2.5), np.bytes_(b"k"),  # subclasses of the scalar types
    ])
    def test_every_encodable_key_is_accepted(self, key):
        kv = KeyValue()
        kv.add(key, 1)
        assert key_bytes(next(iter(kv))[0]) == key_bytes(key)

    @pytest.mark.parametrize("key", [None, [1], {"a": 1}, ("q", [1]), ("q", (1, None)),
                                     np.int64(3), np.arange(2)])
    def test_bad_keys_fail_at_emit_time_with_the_encoder_s_message(self, key):
        with pytest.raises(TypeError) as encoder:
            key_bytes(key)
        kv = KeyValue()
        with pytest.raises(TypeError) as emit:
            kv.add(key, 1)
        assert str(emit.value) == str(encoder.value)
        assert len(kv) == 0

    def test_scalar_values_still_fill_pages(self):
        """Integer values are sized by table now: the page budget still
        fires where the estimate (48 bytes an int, 49 + len a str) says."""
        kv = KeyValue(pagesize=(49 + 8 + 48) * 10)
        for i in range(25):
            kv.add("k%07d" % i, i)
        assert kv.spilled_pages == 2
        assert [approx_size(v) for v in (0, -1, 2**62, 1.5, True, None)] == [48] * 6
        kv.close()


class TestKeyBytesAndHash:
    def test_distinct_types_do_not_collide(self):
        # '1' as str, int, bytes and float must be four distinct keys
        keys = ["1", 1, b"1", 1.0]
        encodings = {key_bytes(k) for k in keys}
        assert len(encodings) == 4

    def test_tuple_encoding_is_injective_on_structure(self):
        assert key_bytes(("ab", "c")) != key_bytes(("a", "bc"))
        assert key_bytes((1, (2, 3))) != key_bytes((1, 2, 3))

    def test_stable_hash_is_deterministic_and_nonnegative(self):
        assert stable_hash("query_42") == stable_hash("query_42")
        assert stable_hash(b"abc") >= 0
        # Distinct realistic keys spread over buckets.
        buckets = {stable_hash(f"q{i}") % 8 for i in range(100)}
        assert len(buckets) == 8


class TestConvert:
    def test_groups_all_values_per_key(self):
        kv = KeyValue()
        for i in range(30):
            kv.add(f"k{i % 3}", i)
        kmv = convert_kv_to_kmv(kv, pagesize=1 << 20)
        got = {k: vs for k, vs in kmv}
        assert set(got) == {"k0", "k1", "k2"}
        for j in range(3):
            assert got[f"k{j}"] == list(range(j, 30, 3))

    def test_out_of_core_convert_matches_in_memory(self, tmp_path):
        pairs = [(f"k{i % 17}", f"v{i}") for i in range(500)]
        small = KeyValue(pagesize=1024, spool_dir=str(tmp_path))
        small.add_multi(pairs)
        assert small.out_of_core
        big = KeyValue(pagesize=1 << 24)
        big.add_multi(pairs)

        kmv_small = convert_kv_to_kmv(small, pagesize=1024, spool_dir=str(tmp_path), nbuckets=4)
        kmv_big = convert_kv_to_kmv(big, pagesize=1 << 24)
        assert dict(iter(kmv_small)) == dict(iter(kmv_big))

    def test_empty_kv_converts_to_empty_kmv(self):
        kmv = convert_kv_to_kmv(KeyValue(), pagesize=4096)
        assert len(kmv) == 0
        assert list(kmv) == []

    def test_kmv_spills(self, tmp_path):
        kmv = KeyMultiValue(pagesize=512, spool_dir=str(tmp_path))
        for i in range(40):
            kmv.add(f"k{i}", [b"v" * 50])
        assert kmv.out_of_core
        assert [(k, vs) for k, vs in kmv] == [(f"k{i}", [b"v" * 50]) for i in range(40)]
        assert kmv.nvalues == 40
