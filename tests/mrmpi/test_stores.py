"""The untyped KV / KMV stores and the page spool."""

import numpy as np
import pytest

from repro.mrmpi.columnar import ColumnarKeyMultiValue, ColumnarKeyValue, convert_columnar
from repro.mrmpi.schema import UNTYPED, RecordSchema
from repro.mrmpi.spool import PageSpool

from oracles.fnv_hash import stable_hash


def KeyValue(**kwargs):
    """A store of untyped pairs: any str key, any picklable value."""
    return ColumnarKeyValue(UNTYPED, **kwargs)


def _page(*values):
    return (np.array(values, dtype=np.int64),)


class TestPageSpool:
    def test_roundtrip_pages_in_order(self, tmp_path):
        spool = PageSpool(dir=str(tmp_path))
        spool.write_arrays(_page(1, 2, 3), 3)
        spool.write_arrays(_page(4, 5), 2)
        assert spool.npages == 2
        assert [page[0].tolist() for page in spool.iter_pages()] == [[1, 2, 3], [4, 5]]
        spool.close()

    def test_interleaved_write_read(self, tmp_path):
        spool = PageSpool(dir=str(tmp_path))
        spool.write_arrays(_page(0), 1)
        assert [p[0].tolist() for p in spool.iter_pages()] == [[0]]
        spool.write_arrays(_page(1), 1)
        assert [p[0].tolist() for p in spool.iter_pages()] == [[0], [1]]
        spool.close()

    def test_close_removes_file_and_blocks_use(self, tmp_path):
        import os

        spool = PageSpool(dir=str(tmp_path))
        path = spool.path
        spool.write_arrays(_page(1), 1)
        spool.close()
        assert not os.path.exists(path)
        with pytest.raises(ValueError):
            spool.write_arrays(_page(2), 1)

    def test_array_pages_roundtrip_and_keep_the_np_save_layout(self, tmp_path):
        """Structured dtypes with subarray fields, n-d columns and zero-row
        arrays come back bit for bit; the bytes on disk are an array count
        and what ``np.save`` frames would be (so ``nbytes`` and the row
        offsets ``read_rows`` seeks to are exact) and every buffer read
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
            for arrays in pages:
                expected = io.BytesIO()
                expected.write(len(arrays).to_bytes(8, "little"))
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
                back = spool.read_page(i)
                assert len(back) == len(arrays)
                for arr, got in zip(arrays, back):
                    assert got.dtype == arr.dtype and got.shape == arr.shape
                    assert got.tobytes() == arr.tobytes()
                    assert got.base is None  # no read buffer pinned
                assert spool.page_rows(i) == len(arrays[0])
            assert spool.read_rows(0, 1, 2, 5).tobytes() == rows[2:5].tobytes()
            assert spool.read_rows(1, 1, 0, 0).shape == (0,)


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
        for k, v in pairs:
            kv.add(k, v)
        assert kv.out_of_core
        assert kv.spilled_pages > 1
        assert list(kv) == pairs

    def test_bad_key_type_rejected_at_add(self):
        kv = KeyValue()
        with pytest.raises(TypeError, match="unsupported key type"):
            kv.add([1, 2], "value")  # keys are str

    def test_clear_resets_everything(self, tmp_path):
        kv = KeyValue(pagesize=256, spool_dir=str(tmp_path))
        for k, v in [(str(i), b"x" * 64) for i in range(50)]:
            kv.add(k, v)
        kv.clear()
        assert len(kv) == 0
        assert list(kv) == []
        assert not kv.out_of_core

    def test_invalid_pagesize(self):
        with pytest.raises(ValueError):
            KeyValue(pagesize=0)


class TestKeyValidationAtEmit:
    """``add`` takes str keys and rejects anything else when the pair is
    emitted, not when its batch is sealed."""

    @pytest.mark.parametrize("key", ["k", np.str_("k"), "", "Ünï", "a\x00b"])
    def test_every_encodable_key_is_accepted(self, key):
        kv = KeyValue()
        kv.add(key, 1)
        assert next(iter(kv))[0] == key

    @pytest.mark.parametrize("key", [None, [1], {"a": 1}, ("q", [1]), ("q", (1, None)),
                                     np.int64(3), np.arange(2), b"k", 7, 2.5, True,
                                     ("q", 3), np.bytes_(b"k")])
    def test_bad_keys_fail_at_emit_time_with_the_encoder_s_message(self, key):
        for schema in (UNTYPED, RecordSchema("S8", np.dtype("<i8"))):
            kv = ColumnarKeyValue(schema)
            with pytest.raises(TypeError, match=f"unsupported key type '{type(key).__name__}'"):
                kv.add(key, 1)
            with pytest.raises(TypeError, match=f"unsupported key type '{type(key).__name__}'"):
                kv.add_batch([key], [1])
            assert len(kv) == 0

    def test_scalar_values_still_fill_pages(self):
        """Scalar adds are sized by their encoded bytes: 8 for the key (its
        characters), 5 for a small pickled int, so a 130-byte page seals and
        spills every tenth pair."""
        kv = KeyValue(pagesize=(8 + 5) * 10)
        for i in range(25):
            kv.add("k%07d" % i, i)
        assert kv.spilled_pages == 2
        assert list(kv) == [("k%07d" % i, i) for i in range(25)]
        kv.close()


class TestKeyBytesAndHash:
    def test_stable_hash_is_deterministic_and_nonnegative(self):
        assert stable_hash("query_42") == stable_hash("query_42")
        assert stable_hash("abc") >= 0
        # Distinct realistic keys spread over buckets.
        buckets = {stable_hash(f"q{i}") % 8 for i in range(100)}
        assert len(buckets) == 8


class TestConvert:
    def test_groups_all_values_per_key(self):
        kv = KeyValue()
        for i in range(30):
            kv.add(f"k{i % 3}", i)
        kmv = convert_columnar(kv, pagesize=1 << 20)
        got = {k: vs for k, vs in kmv}
        assert set(got) == {"k0", "k1", "k2"}
        for j in range(3):
            assert got[f"k{j}"] == list(range(j, 30, 3))

    def test_out_of_core_convert_matches_in_memory(self, tmp_path):
        pairs = [(f"k{i % 17}", f"v{i}") for i in range(500)]
        small = KeyValue(pagesize=1024, spool_dir=str(tmp_path))
        for k, v in pairs:
            small.add(k, v)
        assert small.out_of_core
        big = KeyValue(pagesize=1 << 24)
        for k, v in pairs:
            big.add(k, v)

        kmv_small = convert_columnar(small, pagesize=1024, spool_dir=str(tmp_path))
        kmv_big = convert_columnar(big, pagesize=1 << 24)
        assert dict(iter(kmv_small)) == dict(iter(kmv_big))

    def test_empty_kv_converts_to_empty_kmv(self):
        kmv = convert_columnar(KeyValue(), pagesize=4096)
        assert len(kmv) == 0
        assert list(kmv) == []

    def test_kmv_spills(self, tmp_path):
        kmv = ColumnarKeyMultiValue(UNTYPED, pagesize=512, spool_dir=str(tmp_path))
        for i in range(40):
            kmv.add(f"k{i}", [b"v" * 50])
        assert kmv.out_of_core
        assert [(k, vs) for k, vs in kmv] == [(f"k{i}", [b"v" * 50]) for i in range(40)]
        assert sum(len(vs) for _, vs in kmv) == 40
