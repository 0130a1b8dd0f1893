"""Columnar KV/KMV stores: typed pages, batch emission, sort-based grouping.

The object stores (:class:`~repro.mrmpi.keyvalue.ObjectKeyValue`) pay
record-at-a-time Python costs on every pair: a ``key_bytes`` validation, a
recursive ``approx_size`` estimate, a tuple append, and pickle on every
spilled page.  The columnar stores replace all of that with a few
contiguous arrays per page, described once by a
:class:`~repro.mrmpi.schema.RecordSchema`:

- a **KV page** is a key column plus a value column (structured rows, or a
  ragged uint8 buffer + offsets);
- a **KMV page** is a unique-key column, a group-offsets column and the
  grouped value rows;
- spill pages are raw array buffers (``PageSpool.write_arrays``, no
  pickle) with *exact* byte accounting;
- grouping is a bounded-memory **sort done once**: ``aggregate`` ships
  key-sorted runs (:func:`sorted_partitions`), the receiving store cuts
  them into **key-range buckets**, and everything downstream only merges
  runs: resident ones a bucket at a time, spilled pages k-way.

Ordering contract (what the parity suites pin): iteration replays spilled
pages first, then live batches, exactly like the object stores; sorts are
stable, so equal keys keep emission order end to end.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.mrmpi.schema import RecordSchema
from repro.mrmpi.spool import PageSpool
from repro.obs.trace import current_tracer

__all__ = [
    "ColumnarKeyValue",
    "ColumnarKeyMultiValue",
    "ValuesView",
    "convert_columnar",
    "key_order",
    "sort_kmv_columnar",
    "sorted_partitions",
]

#: scalar adds are staged in Python lists and sealed into arrays this often
_PENDING_SEAL = 4096

#: below this many keys the radix passes' fixed cost loses to a comparison
#: sort (crossover measured at ~500 rows for 'S8', ~2000 for random int64)
_RADIX_MIN = 2048


# --------------------------------------------------------------------------
# Key ordering: the one place a key column is sorted
# --------------------------------------------------------------------------


def _key_code(keys: np.ndarray) -> np.ndarray | None:
    """Order-preserving ``uint64`` code of a key column, or ``None``.

    'S1'..'S8' bytes are read big-endian (right NUL padding sorts first,
    which is numpy's own 'S' order); signed integers get the sign bit
    flipped.  Wider 'S' columns and floats have no 8-byte code.
    """
    kind = keys.dtype.kind
    if kind == "S" and keys.dtype.itemsize <= 8:
        return keys.astype("S8", copy=False).view(">u8").astype(np.uint64)
    if kind == "i":
        return keys.astype(np.int64, copy=False).view(np.uint64) ^ np.uint64(1 << 63)
    if kind == "u":
        return keys.astype(np.uint64, copy=False)
    return None


def key_order(keys: np.ndarray, runs: bool = False) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``, computed as dtype and length allow.

    Keys with an integer code (:func:`_key_code`) take a stable LSD radix
    over the 16-bit digits that vary in the column (numpy's stable sort of
    16-bit integers *is* a radix sort), or, when the column is known to be
    a concatenation of sorted ``runs``, a timsort over the code, which then
    only merges.  Wide 'S' keys, floats and columns too short for the radix
    to pay take the comparison sort.
    """
    code = _key_code(keys) if len(keys) >= _RADIX_MIN else None
    if code is None:
        return np.argsort(keys, kind="stable")
    if runs:
        return np.argsort(code, kind="stable")
    varying = int(np.bitwise_or.reduce(code ^ code[0]))
    order = None
    for shift in range(0, 64, 16):
        if (varying >> shift) & 0xFFFF:
            digit = (code >> np.uint64(shift)).astype(np.uint16)
            if order is None:
                order = np.argsort(digit, kind="stable")
            else:
                order = np.take(order, np.argsort(np.take(digit, order), kind="stable"))
    return np.arange(len(keys)) if order is None else order


def _group_starts(skeys: np.ndarray) -> np.ndarray:
    """Start row of every run of equal keys in a sorted, non-empty column."""
    code = _key_code(skeys)
    col = skeys if code is None else code
    return np.concatenate(([0], np.flatnonzero(col[1:] != col[:-1]) + 1))


def _run_positions(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of runs ``starts[i] : starts[i] + lengths[i]`` laid end
    to end in the order given, plus the offsets of the runs in that layout."""
    new_off = np.zeros(len(starts) + 1, dtype=np.int64)
    np.cumsum(lengths, out=new_off[1:])
    pos = np.repeat(starts - new_off[:-1], lengths) + np.arange(new_off[-1])
    return pos, new_off


# --------------------------------------------------------------------------
# Value-column helpers: a column is an ndarray (fixed rows) or a
# (uint8 buffer, int64 offsets) pair (ragged bytes rows).
# --------------------------------------------------------------------------


def _raw(col: np.ndarray) -> np.ndarray:
    """A contiguous structured column as the bytes it is, anything else as
    it stands: numpy copies and concatenates structured rows field by
    field, 4-8x slower than their bytes (measured on 32-byte HSP-like rows).
    """
    if col.dtype.names is not None and col.ndim == 1 and col.flags.c_contiguous:
        return col.view(np.uint8)
    return col


def _cat(cols: Sequence[np.ndarray]) -> np.ndarray:
    """``np.concatenate(cols)``, moving structured rows whole."""
    raw = [_raw(c) for c in cols]
    if any(r is c for r, c in zip(raw, cols)):
        return np.concatenate(cols)
    return np.concatenate(raw).view(cols[0].dtype)


def _v_len(col) -> int:
    if isinstance(col, tuple):
        return len(col[1]) - 1
    return len(col)


def _v_nbytes(col) -> int:
    if isinstance(col, tuple):
        return int(col[0].nbytes + col[1].nbytes)
    return int(col.nbytes)


def _v_take(col, idx: np.ndarray):
    if not isinstance(col, tuple):
        # np.take moves whole rows; ``col[idx]`` on a structured dtype copies
        # field by field and is ~7x slower.
        return np.take(col, idx, axis=0)
    buf, offsets = col
    pos, new_off = _run_positions(offsets[:-1][idx], (offsets[1:] - offsets[:-1])[idx])
    return buf[pos], new_off


def _v_slice(col, lo: int, hi: int):
    if not isinstance(col, tuple):
        return col[lo:hi]
    buf, offsets = col
    return buf[offsets[lo] : offsets[hi]], offsets[lo : hi + 1] - offsets[lo]


def _v_concat(cols: Sequence) -> Any:
    if len(cols) == 1:
        return cols[0]
    if not isinstance(cols[0], tuple):
        return _cat(cols)
    bufs = [c[0] for c in cols]
    offs = []
    base = 0
    for _, off in cols:
        offs.append(off[:-1] + base)
        base += int(off[-1])
    offs.append(np.array([base], dtype=np.int64))
    return np.concatenate(bufs), np.concatenate(offs)


def _v_to_arrays(col) -> tuple[np.ndarray, ...]:
    return col if isinstance(col, tuple) else (col,)


def _v_from_arrays(arrays: Sequence[np.ndarray], ragged: bool):
    return (arrays[0], arrays[1]) if ragged else arrays[0]


def _owned(arr: np.ndarray) -> np.ndarray:
    """``arr``, copied unless it already owns its bytes: a stored piece must
    not pin the round, arena slot or page it was cut from."""
    if arr.base is None:
        return arr
    raw = _raw(arr)
    return arr.copy() if raw is arr else raw.copy().view(arr.dtype)


def _v_owned(col):
    if isinstance(col, tuple):
        return _owned(col[0]), _owned(col[1])
    return _owned(col)


def _join(pieces: list[tuple[np.ndarray, Any]]) -> tuple[np.ndarray, Any]:
    """Concatenate (key column, value column) pieces into one batch, emptying
    the list: the batch is then the only copy."""
    if len(pieces) == 1:
        return pieces.pop()
    keys = np.concatenate([k for k, _ in pieces])
    vcol = _v_concat([v for _, v in pieces])
    pieces.clear()
    return keys, vcol


def _merge(pieces: list[tuple[np.ndarray, Any]], runs: bool) -> tuple[np.ndarray, Any]:
    """One key-sorted batch out of ``pieces`` (emptied): a stable merge when
    they are sorted ``runs`` in arrival order, a full stable sort otherwise."""
    if runs and len(pieces) == 1:
        return pieces.pop()
    keys, vcol = _join(pieces)
    order = key_order(keys, runs=runs)
    return np.take(keys, order), _v_take(vcol, order)


def _row_reader(col, schema: RecordSchema) -> Callable[[int], Any]:
    """``row(i)``: the application object for row ``i`` of a value column."""
    if isinstance(col, tuple):
        buf, offsets = col
        return lambda i: buf[offsets[i] : offsets[i + 1]].tobytes()
    decode = schema.decode_value
    if decode is None:
        return col.__getitem__
    return lambda i: decode(col[i])


# --------------------------------------------------------------------------
# ColumnarKeyValue
# --------------------------------------------------------------------------


class ColumnarKeyValue:
    """A pageable multiset of typed (key, value) pairs owned by one rank.

    Emission is batch-first — :meth:`add_batch` appends whole columns — and
    scalar :meth:`add` stages into Python lists sealed into a batch
    periodically, so object-style emitters keep working.  Page occupancy is
    the *exact* sum of array ``nbytes`` (no estimates), and spilled pages
    are raw buffers.

    :attr:`sorted_runs` holds while every batch appended was declared
    key-sorted (``aggregate``'s receive side).  Such a store keeps its
    resident rows in ``nbuckets`` **key-range buckets**: each arriving run
    is cut at fixed splitters (quantiles of the first run) and each piece
    copied into its bucket, so nothing pins the buffer a run arrived in, a
    key lives wholly in one bucket, buckets ascend in key range, and a
    bucket's pieces are sorted runs in arrival order.  It spills each page
    as the merge of its resident runs, so its pages are sorted runs too.
    Any other store is one bucket of batches in emission order.
    """

    def __init__(
        self,
        schema: RecordSchema,
        pagesize: int = 64 * 1024 * 1024,
        spool_dir: str | None = None,
        nbuckets: int = 1,
    ):
        if pagesize <= 0:
            raise ValueError(f"pagesize must be positive, got {pagesize}")
        if nbuckets < 1:
            raise ValueError(f"nbuckets must be >= 1, got {nbuckets}")
        self.schema = schema
        self.pagesize = pagesize
        self._spool_dir = spool_dir
        self._buckets: list[list[tuple[np.ndarray, Any]]] = [[] for _ in range(nbuckets)]
        self._splitters: np.ndarray | None = None
        self._live_bytes = 0
        self._pending_k: list = []
        self._pending_v: list = []
        self._pending_bytes = 0
        self._spool: PageSpool | None = None
        self._nkv = 0
        self.sorted_runs = True

    # ------------------------------------------------------------------ write

    def add(self, key: Any, value: Any) -> None:
        """Emit one pair (staged; sealed into a columnar batch lazily)."""
        self._pending_k.append(key)
        self._pending_v.append(value)
        self._nkv += 1
        # Row-size accounting keeps scalar emitters inside the page budget:
        # without it, a slow trickle of adds would stage thousands of rows
        # past ``pagesize`` before the count-based seal fires.
        self._pending_bytes += self.schema.key_dtype.itemsize + (
            len(value) if self.schema.ragged_values else self.schema.value_dtype.itemsize
        )
        if len(self._pending_k) >= _PENDING_SEAL or self._pending_bytes >= self.pagesize:
            self._seal_pending()

    def add_multi(self, pairs) -> None:
        for k, v in pairs:
            self.add(k, v)

    def add_batch(self, keys, values) -> int:
        """Emit a whole batch of pairs as columns; returns the batch size.

        ``keys``/``values`` may be Python sequences (encoded through the
        schema) or ready-made arrays of the schema's dtypes.
        """
        self._seal_pending()
        karr = self.schema.encode_keys(keys)
        vcol = self.schema.build_values(values)
        n = len(karr)
        if _v_len(vcol) != n:
            raise ValueError(f"batch of {n} keys with {_v_len(vcol)} values")
        if n == 0:
            return 0
        self._append(karr, vcol)
        self._nkv += n
        return n

    def add_wire(self, arrays: Sequence[np.ndarray], sorted_run: bool = False) -> int:
        """Append a batch that arrived as raw wire arrays (no re-encoding);
        ``sorted_run`` is the sender's word that the batch is key-sorted.
        A sorted run is copied out of ``arrays`` piece by piece (the caller
        may release them at once); any other batch is kept by reference."""
        self._seal_pending()
        karr = arrays[0]
        if len(karr) == 0:
            return 0
        vcol = _v_from_arrays(arrays[1:], self.schema.ragged_values)
        if sorted_run and self.sorted_runs:
            self._add_run(karr, vcol)
        else:
            self._append(karr, vcol)
        self._nkv += len(karr)
        return len(karr)

    def _add_run(self, karr: np.ndarray, vcol) -> None:
        """Cut a sorted run at the splitters, one owned piece per bucket."""
        n = len(karr)
        if self._splitters is None:
            nb = len(self._buckets)
            self._splitters = karr[np.arange(1, nb) * n // nb]
        # side="left": a key equal to a splitter goes up, in every run alike.
        cuts = [0, *np.searchsorted(karr, self._splitters, side="left").tolist(), n]
        for bucket, lo, hi in zip(self._buckets, cuts[:-1], cuts[1:]):
            if hi - lo == n:  # not sliced: a run that owns its bytes stays as it is
                bucket.append((_owned(karr), _v_owned(vcol)))
            elif hi > lo:
                bucket.append((_owned(karr[lo:hi]), _v_owned(_v_slice(vcol, lo, hi))))
        self._grew(int(karr.nbytes) + _v_nbytes(vcol))

    def _append(self, karr: np.ndarray, vcol) -> None:
        """Keep an unsorted batch: the store is one emission-order bucket
        from here on (resident runs first, bucket-major)."""
        self.sorted_runs = False
        if len(self._buckets) > 1:
            self._buckets = [[piece for bucket in self._buckets for piece in bucket]]
            self._splitters = None
        self._buckets[0].append((karr, vcol))
        self._grew(int(karr.nbytes) + _v_nbytes(vcol))

    def _grew(self, nbytes: int) -> None:
        self._live_bytes += nbytes
        if self._live_bytes >= self.pagesize:
            self._spill()

    def _seal_pending(self) -> None:
        if not self._pending_k:
            return
        keys, values = self._pending_k, self._pending_v
        self._pending_k, self._pending_v = [], []
        self._pending_bytes = 0
        self._nkv -= len(keys)  # add_batch re-counts them
        self.add_batch(keys, values)

    def _pop_buckets(self) -> Iterator[list[tuple[np.ndarray, Any]]]:
        """Hand over the non-empty resident buckets, ascending, and forget
        them: each yielded list is the only reference to its pieces."""
        buckets = self._buckets[::-1]
        self._buckets = [[] for _ in buckets]
        self._live_bytes = 0
        while buckets:
            pieces = buckets.pop()
            if pieces:
                yield pieces

    def _spill(self) -> None:
        """Write the resident rows as one page: the merge of the resident
        runs (bucket by bucket, ascending) when they are runs, the batches
        in emission order otherwise."""
        if not self._live_bytes:
            return
        if self._spool is None:
            self._spool = PageSpool(dir=self._spool_dir, prefix="ckv")
        if self.sorted_runs:
            parts = [_merge(pieces, runs=True) for pieces in self._pop_buckets()]
        else:
            parts = [piece for pieces in self._pop_buckets() for piece in pieces]
        keys, vcol = _join(parts)
        nbytes = self._spool.write_arrays((keys,) + _v_to_arrays(vcol), len(keys))
        trc = current_tracer()
        if trc.enabled:
            trc.instant("store.spill", cat="spool", kind="ckv",
                        rows=len(keys), bytes=nbytes)

    # ------------------------------------------------------------------- read

    def __len__(self) -> int:
        return self._nkv

    @property
    def nbytes(self) -> int:
        """Exact bytes held (live arrays + spilled page frames)."""
        self._seal_pending()
        return self._live_bytes + (0 if self._spool is None else self._spool.nbytes)

    @property
    def out_of_core(self) -> bool:
        return self._spool is not None and self._spool.npages > 0

    @property
    def spilled_pages(self) -> int:
        return 0 if self._spool is None else self._spool.npages

    def run_counts(self) -> tuple[int, int]:
        """(non-empty resident buckets, resident pieces + spilled pages):
        what a grouping pass over the store has to merge."""
        self._seal_pending()
        pieces = [len(bucket) for bucket in self._buckets if bucket]
        return len(pieces), sum(pieces) + self.spilled_pages

    def iter_batches(self, drain: bool = False) -> Iterator[tuple[np.ndarray, Any]]:
        """Stream (key column, value column) batches: spilled pages, then
        the resident ones in emission order, or bucket-major (ascending key
        ranges, arrival order within one) in a :attr:`sorted_runs` store.

        With ``drain`` resident batches leave the store as they are yielded
        (the consumer's copy is the only one); it must be closed afterwards.
        """
        self._seal_pending()
        if self._spool is not None:
            for arrays in self._spool.iter_pages():
                yield arrays[0], _v_from_arrays(arrays[1:], self.schema.ragged_values)
        if not drain:
            for pieces in self._buckets:
                yield from pieces
            return
        for pieces in self._pop_buckets():
            pieces.reverse()
            while pieces:
                yield pieces.pop()

    def __iter__(self) -> Iterator[tuple[Any, Any]]:
        for karr, vcol in self.iter_batches():
            row = _row_reader(vcol, self.schema)
            for i, key in enumerate(self.schema.decode_keys(karr)):
                yield key, row(i)

    # ------------------------------------------------------------------ admin

    def clear(self) -> None:
        self._buckets = [[] for _ in self._buckets]
        self._splitters = None
        self._live_bytes = 0
        self._pending_k, self._pending_v = [], []
        self._pending_bytes = 0
        self._nkv = 0
        self.sorted_runs = True
        if self._spool is not None:
            self._spool.close()
            self._spool = None

    def close(self) -> None:
        self.clear()

    def __enter__(self) -> "ColumnarKeyValue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColumnarKeyValue(nkv={self._nkv}, pages_spilled={self.spilled_pages}, "
            f"pagesize={self.pagesize})"
        )


# --------------------------------------------------------------------------
# External (spool-aware) merge sort over KV batches
# --------------------------------------------------------------------------


class _RunCursor:
    """One sorted run, buffered a chunk at a time.

    ``chunks`` yields the run as consecutive (sort column, payload) pieces;
    ``cut(payload, lo, hi)`` and ``join(payloads)`` slice and concatenate
    payload records: value rows for a KV run, key groups for a KMV run.
    """

    def __init__(self, chunks, cut: Callable, join: Callable):
        self._chunks = iter(chunks)
        self._cut = cut
        self._join = join
        self._spent = False
        self.ranks: np.ndarray = np.empty(0)
        self.payload: Any = None

    def refill(self) -> bool:
        """Buffer chunks until some key is *complete* in the buffer (a larger
        key follows it, or the run has ended); False once the run is spent.
        """
        while not self._spent and (
            len(self.ranks) == 0 or self.ranks[0] == self.ranks[-1]
        ):
            chunk = next(self._chunks, None)
            if chunk is None:
                self._spent = True
            elif len(self.ranks) == 0:
                self.ranks, self.payload = chunk
            else:
                self.ranks = np.concatenate((self.ranks, chunk[0]))
                self.payload = self._join((self.payload, chunk[1]))
        return len(self.ranks) > 0

    def complete_key(self):
        """The largest buffered key with no records left unread in the run
        (the last one may continue in the next chunk, and emitting it now
        would let a later run's records of that key overtake those)."""
        if self._spent:
            return self.ranks[-1]
        return self.ranks[np.searchsorted(self.ranks, self.ranks[-1], side="left") - 1]

    def take_upto(self, boundary) -> tuple[np.ndarray, Any] | None:
        """Pop the prefix of keys ``<= boundary`` off the buffer."""
        cnt = int(np.searchsorted(self.ranks, boundary, side="right"))
        if cnt == 0:
            return None
        n = len(self.ranks)
        part = (self.ranks[:cnt], self._cut(self.payload, 0, cnt))
        self.ranks = self.ranks[cnt:]
        self.payload = self._cut(self.payload, cnt, n)
        return part


def _merge_steps(cursors: Sequence[_RunCursor]) -> Iterator[list[tuple[np.ndarray, Any]]]:
    """Drive a k-way merge: each step yields, in run order, every run's
    records up to the smallest key that is complete in all buffers, so the
    step's keys are globally final and a stable sort of the concatenation
    finishes the job."""
    while True:
        alive = [c for c in cursors if c.refill()]
        if not alive:
            return
        boundary = min(c.complete_key() for c in alive)
        yield [p for c in alive if (p := c.take_upto(boundary)) is not None]


def _page_rows(spool: PageSpool, ragged: bool, page: int, lo: int, hi: int):
    """Rows ``lo:hi`` of one spilled KV page, without reading the rest."""
    hi = min(hi, spool.page_rows(page))
    keys = spool.read_rows(page, 0, lo, hi)
    if not ragged:
        return keys, spool.read_rows(page, 1, lo, hi)
    offsets = spool.read_rows(page, 2, lo, hi + 1)
    buf = spool.read_rows(page, 1, int(offsets[0]), int(offsets[-1]))
    return keys, (buf, offsets - offsets[0])


def iter_sorted_batches(kv: ColumnarKeyValue) -> Iterator[tuple[np.ndarray, Any]]:
    """Yield the whole KV dataset as key-sorted batches, bounded memory.

    Consumes the store's resident batches (callers close it afterwards).
    In-core each bucket is one batch: its runs merged (a stable merge of
    runs in arrival order), or its batches sorted when the store holds no
    runs; a bucket leaves the store as it is taken up and its pieces die
    in the merge, so the consumer's output grows as the store shrinks.
    Out-of-core they are spilled too and the pages are the
    runs: a :attr:`~ColumnarKeyValue.sorted_runs` store spilled its pages
    sorted and they are merged where they lie, otherwise each page is
    sorted once into a scratch spool.  The k-way merge buffers one chunk
    per run, read out of its page by row range (chunks are sized so all
    buffers together hold about one page; a key group longer than a chunk
    is buffered whole).  Either way every batch holds whole key groups and
    batches ascend.  Stable throughout: equal keys keep original emission
    order.
    """
    kv._seal_pending()
    if not kv.out_of_core:
        for pieces in kv._pop_buckets():
            yield _merge(pieces, runs=kv.sorted_runs)
        return
    kv._spill()  # the resident remainder becomes the last run
    ragged = kv.schema.ragged_values
    bytes_per_row = max(1, kv.nbytes // max(len(kv), 1))
    chunk_rows = max(64, kv.pagesize // kv.spilled_pages // bytes_per_row)
    runs = kv._spool
    scratch = None
    try:
        if not kv.sorted_runs:
            runs = scratch = PageSpool(dir=kv._spool_dir, prefix="sortrun")
            for arrays in kv._spool.iter_pages():
                order = key_order(arrays[0])
                vcol = _v_take(_v_from_arrays(arrays[1:], ragged), order)
                runs.write_arrays((np.take(arrays[0], order),) + _v_to_arrays(vcol), len(order))

        def chunks(page: int) -> Iterator[tuple[np.ndarray, Any]]:
            for lo in range(0, runs.page_rows(page), chunk_rows):
                yield _page_rows(runs, ragged, page, lo, lo + chunk_rows)

        cursors = [_RunCursor(chunks(p), _v_slice, _v_concat) for p in range(runs.npages)]
        for parts in _merge_steps(cursors):
            keys = np.concatenate([k for k, _ in parts])
            order = key_order(keys, runs=True)
            yield np.take(keys, order), _v_take(_v_concat([v for _, v in parts]), order)
    finally:
        if scratch is not None:
            scratch.close()


def sorted_partitions(
    batches: list[tuple[np.ndarray, Any]],
    dest_of: Callable[[np.ndarray], np.ndarray],
    nparts: int,
) -> list[tuple[np.ndarray, ...] | None]:
    """Sort drained batches by key and cut them into ``nparts`` sorted runs.

    Empties ``batches`` (their concatenation is then the only copy, and dies
    with this frame).  ``dest_of`` maps the *distinct* keys to partition
    numbers, so a hash is paid per key, not per pair; whole key groups are
    stable-partitioned by destination and the payload is gathered once.
    Entry ``p`` is partition ``p``'s run in :meth:`ColumnarKeyValue.add_wire`
    form, or ``None`` if empty.
    """
    keys = np.concatenate([k for k, _ in batches])
    vcol = _v_concat([v for _, v in batches])
    batches.clear()
    order = key_order(keys)
    skeys = np.take(keys, order)
    bounds = [0, len(skeys)]
    if nparts > 1:
        starts = _group_starts(skeys)
        dest = dest_of(skeys[starts])
        by_dest = key_order(dest)
        lengths = np.diff(starts, append=len(skeys))[by_dest]
        pos, offsets = _run_positions(starts[by_dest], lengths)
        skeys = np.take(skeys, pos)
        order = np.take(order, pos)
        del pos
        bounds = offsets[np.searchsorted(dest[by_dest], np.arange(nparts + 1))].tolist()
    svals = _v_take(vcol, order)
    return [
        (skeys[lo:hi],) + _v_to_arrays(_v_slice(svals, lo, hi)) if hi > lo else None
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


# --------------------------------------------------------------------------
# ColumnarKeyMultiValue
# --------------------------------------------------------------------------


class ValuesView(SequenceABC):
    """Read-only sequence of one key's values: a window on a page's rows.

    ``len`` is O(1) and a row is decoded (schema ``decode_value`` hook,
    ``bytes`` for ragged columns, the stored row otherwise) only when
    indexed or iterated, so a reducer pays for what it touches.  Compares
    equal to any sequence with the same items; ``list(values)`` is the
    list the KMV used to hand out.  The view keeps its page alive, so it
    stays valid after the iteration that produced it has moved on.
    """

    __slots__ = ("_row", "_rows")

    def __init__(self, row: Callable[[int], Any], lo: int, hi: int):
        self._row = row
        self._rows = range(lo, hi)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        rows = self._rows[i]  # range does the bounds, negatives and slices
        return [self._row(j) for j in rows] if isinstance(i, slice) else self._row(rows)

    def __iter__(self) -> Iterator[Any]:
        return map(self._row, self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (SequenceABC, np.ndarray)) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"ValuesView({list(self)!r})"


class ColumnarKeyMultiValue:
    """Grouped (key, values) pairs as columns.

    A live/spilled **group batch** is ``(unique keys, group offsets, value
    rows)``: values of key ``i`` are rows ``offsets[i]:offsets[i+1]`` of the
    value column, with ``offsets[0] == 0``.  Produced by
    :func:`convert_columnar` in key-sorted order.
    """

    def __init__(
        self,
        schema: RecordSchema,
        pagesize: int = 64 * 1024 * 1024,
        spool_dir: str | None = None,
    ):
        if pagesize <= 0:
            raise ValueError(f"pagesize must be positive, got {pagesize}")
        self.schema = schema
        self.pagesize = pagesize
        self._spool_dir = spool_dir
        self._batches: list[tuple[np.ndarray, np.ndarray, Any]] = []
        self._live_bytes = 0
        self._spool: PageSpool | None = None
        self._nkmv = 0
        self._nvalues = 0

    # ------------------------------------------------------------------ write

    def add_group_batch(self, keys: np.ndarray, offsets: np.ndarray, vcol) -> None:
        """Append a batch of groups (columns already in schema dtypes)."""
        if len(keys) == 0:
            return
        if int(offsets[0]) != 0:
            raise ValueError("group offsets must start at 0")
        self._batches.append((keys, offsets, vcol))
        self._live_bytes += int(keys.nbytes + offsets.nbytes) + _v_nbytes(vcol)
        self._nkmv += len(keys)
        self._nvalues += int(offsets[-1])
        if self._live_bytes >= self.pagesize:
            self._spill()

    def add(self, key: Any, values: list) -> None:
        """Append one group (object-style compatibility shim)."""
        karr = self.schema.encode_keys([key])
        vcol = self.schema.build_values(values)
        offsets = np.array([0, _v_len(vcol)], dtype=np.int64)
        self.add_group_batch(karr, offsets, vcol)

    def _spill(self) -> None:
        if not self._batches:
            return
        if self._spool is None:
            self._spool = PageSpool(dir=self._spool_dir, prefix="ckmv")
        keys, offsets, vcol = _g_join(self._batches)
        nbytes = self._spool.write_arrays(
            (keys, offsets) + _v_to_arrays(vcol), len(keys)
        )
        trc = current_tracer()
        if trc.enabled:
            trc.instant("store.spill", cat="spool", kind="ckmv",
                        rows=len(keys), bytes=nbytes)
        self._batches = []
        self._live_bytes = 0

    # ------------------------------------------------------------------- read

    def __len__(self) -> int:
        return self._nkmv

    @property
    def nvalues(self) -> int:
        return self._nvalues

    @property
    def nbytes(self) -> int:
        """Exact bytes held (live arrays + spilled page frames)."""
        return self._live_bytes + (0 if self._spool is None else self._spool.nbytes)

    @property
    def out_of_core(self) -> bool:
        return self._spool is not None and self._spool.npages > 0

    @property
    def spilled_pages(self) -> int:
        return 0 if self._spool is None else self._spool.npages

    def iter_group_batches(self) -> Iterator[tuple[np.ndarray, np.ndarray, Any]]:
        if self._spool is not None:
            for arrays in self._spool.iter_pages():
                yield (
                    arrays[0],
                    arrays[1],
                    _v_from_arrays(arrays[2:], self.schema.ragged_values),
                )
        yield from self._batches

    def __iter__(self) -> Iterator[tuple[Any, ValuesView]]:
        """(decoded key, :class:`ValuesView` over that key's rows) pairs."""
        for keys, offsets, vcol in self.iter_group_batches():
            row = _row_reader(vcol, self.schema)
            bounds = offsets.tolist()
            for i, key in enumerate(self.schema.decode_keys(keys)):
                yield key, ValuesView(row, bounds[i], bounds[i + 1])

    # ------------------------------------------------------------------ admin

    def clear(self) -> None:
        self._batches = []
        self._live_bytes = 0
        self._nkmv = 0
        self._nvalues = 0
        if self._spool is not None:
            self._spool.close()
            self._spool = None

    def close(self) -> None:
        self.clear()

    def __enter__(self) -> "ColumnarKeyMultiValue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnarKeyMultiValue(nkmv={self._nkmv}, nvalues={self._nvalues})"


def _concat_offsets(offs: Sequence[np.ndarray]) -> np.ndarray:
    out = [np.asarray(offs[0], dtype=np.int64)]
    base = int(offs[0][-1])
    for off in offs[1:]:
        out.append(np.asarray(off[1:], dtype=np.int64) + base)
        base += int(off[-1])
    return np.concatenate(out)


def _take_groups(
    keys: np.ndarray, offsets: np.ndarray, vcol, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, Any]:
    """Select groups ``idx`` (reordering keys and their value runs)."""
    pos, new_off = _run_positions(offsets[:-1][idx], (offsets[1:] - offsets[:-1])[idx])
    return keys[idx], new_off, _v_take(vcol, pos)


# --------------------------------------------------------------------------
# Sort-based convert
# --------------------------------------------------------------------------


def convert_columnar(
    kv: ColumnarKeyValue,
    pagesize: int,
    spool_dir: str | None = None,
) -> ColumnarKeyMultiValue:
    """Group a columnar KV into a columnar KMV via the external sort.

    Consumes ``kv`` (see :func:`iter_sorted_batches`).  Keys come out in
    sorted column order (the object convert emits first-seen order instead
    — callers that need a specific order sort the KMV afterwards, as
    mrblast does).  Within a key, value order is the KV emission order
    (every sort and merge is stable), matching the object path exactly.
    """
    kmv = ColumnarKeyMultiValue(kv.schema, pagesize=pagesize, spool_dir=spool_dir)
    try:
        # Every sorted batch holds whole key groups (a merge step only
        # emits keys that are complete in every run), so none is carried.
        for skeys, svals in iter_sorted_batches(kv):
            starts = _group_starts(skeys)
            offsets = np.append(starts, len(skeys)).astype(np.int64)
            kmv.add_group_batch(skeys[starts], offsets, svals)
    except BaseException:
        kmv.close()
        raise
    return kmv


# --------------------------------------------------------------------------
# KMV sorting (spool-aware)
# --------------------------------------------------------------------------


def _g_cut(groups: tuple, lo: int, hi: int) -> tuple:
    """Groups ``lo:hi`` of a (keys, offsets, value rows) batch."""
    keys, offsets, vcol = groups
    return (
        keys[lo:hi],
        offsets[lo : hi + 1] - offsets[lo],
        _v_slice(vcol, int(offsets[lo]), int(offsets[hi])),
    )


def _g_join(parts: Sequence[tuple]) -> tuple:
    return (
        np.concatenate([p[0] for p in parts]),
        _concat_offsets([p[1] for p in parts]),
        _v_concat([p[2] for p in parts]),
    )


def sort_kmv_columnar(
    kmv: ColumnarKeyMultiValue,
    key: Callable[[Any], Any] | None = None,
) -> ColumnarKeyMultiValue:
    """Return a new KMV with groups ordered by ``key(decoded key)``.

    Keys are unique after convert, so sorting never merges groups — it only
    permutes them.  In-core this is one :func:`key_order`; out-of-core each
    KMV page becomes a rank-sorted run of chunk pages and runs are merged
    by rank with one chunk resident per run (the KV sort's cursor and merge
    loop, over groups instead of rows).  ``key`` is called once per key.
    Stable: two keys mapping to the same rank keep their current relative
    order, which is exactly what ``sorted(kmv, key=...)`` does on the
    object path.
    """
    schema = kmv.schema

    def ranks_of(keys: np.ndarray) -> np.ndarray:
        if key is None:
            return keys
        arr = np.asarray([key(k) for k in schema.decode_keys(keys)])
        if arr.dtype == object:
            raise TypeError(
                "sort key function must map keys to numeric/str ranks for the "
                "columnar KMV sort"
            )
        return arr

    if not kmv.out_of_core:
        out = ColumnarKeyMultiValue(schema, pagesize=kmv.pagesize, spool_dir=kmv._spool_dir)
        batches = list(kmv.iter_group_batches())
        if not batches:
            return out
        keys, offsets, vcol = _g_join(batches)
        order = key_order(ranks_of(keys))
        out.add_group_batch(*_take_groups(keys, offsets, vcol, order))
        return out

    ragged = schema.ragged_values
    nruns = kmv.spilled_pages + len(kmv._batches)
    bytes_per_group = max(1, kmv.nbytes // max(len(kmv), 1))
    chunk_groups = max(16, kmv.pagesize // max(nruns, 1) // bytes_per_group)

    runs = PageSpool(dir=kmv._spool_dir, prefix="kmvsort")
    out = ColumnarKeyMultiValue(schema, pagesize=kmv.pagesize, spool_dir=kmv._spool_dir)

    def chunks(pages: range):
        for page in pages:
            arrays = runs.read_page(page)
            yield arrays[0], (arrays[1], arrays[2], _v_from_arrays(arrays[3:], ragged))

    try:
        cursors: list[_RunCursor] = []
        for keys, offsets, vcol in kmv.iter_group_batches():
            ranks = ranks_of(keys)
            order = key_order(ranks)
            sranks = ranks[order]
            groups = _take_groups(keys, offsets, vcol, order)
            start = runs.npages
            for lo in range(0, len(keys), chunk_groups):
                hi = min(lo + chunk_groups, len(keys))
                ck, co, cv = _g_cut(groups, lo, hi)
                runs.write_arrays((sranks[lo:hi], ck, co) + _v_to_arrays(cv), hi - lo)
            cursors.append(_RunCursor(chunks(range(start, runs.npages)), _g_cut, _g_join))

        for parts in _merge_steps(cursors):
            order = key_order(np.concatenate([r for r, _ in parts]), runs=True)
            out.add_group_batch(*_take_groups(*_g_join([g for _, g in parts]), order))
    except BaseException:
        out.close()
        raise
    finally:
        runs.close()
    return out
