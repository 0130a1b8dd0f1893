"""KeyValue store: the per-rank bag of (key, value) pairs.

Mappers and reducers emit into a ``KeyValue`` with :meth:`add`.  When the
in-memory page grows past ``pagesize`` bytes the page is spilled to disk and
a fresh page starts — MapReduce-MPI's "out-of-core" mode.  Iteration streams
spilled pages first (write order), then the live page, so out-of-core and
in-core runs see pairs in the same order.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.mrmpi.hashing import key_bytes
from repro.mrmpi.spool import PageSpool, approx_size

__all__ = ["ObjectKeyValue", "KeyValue"]

_SCALAR_KEY_TYPES = frozenset((bytes, str, bool, int, float))


def _check_key(key: Any) -> None:
    """Raise what :func:`key_bytes` would for ``key``, without encoding it:
    the canonical types pass by exact type (tuples item by item); anything
    else, a subclass or a bad key, gets the real encoder's verdict."""
    kind = type(key)
    if kind in _SCALAR_KEY_TYPES:
        return
    if kind is tuple:
        for item in key:
            _check_key(item)
    else:
        key_bytes(key)


class ObjectKeyValue:
    """A pageable multiset of (key, value) pairs owned by one rank.

    This is the legacy *object* store — arbitrary Python keys/values, pickle
    spill pages, estimated byte accounting.  The columnar plane
    (:class:`~repro.mrmpi.columnar.ColumnarKeyValue`) supersedes it for
    schema-typed datasets; the object store remains both the fallback for
    untyped data and the parity oracle the columnar tests compare against.
    """

    def __init__(self, pagesize: int = 64 * 1024 * 1024, spool_dir: str | None = None):
        if pagesize <= 0:
            raise ValueError(f"pagesize must be positive, got {pagesize}")
        self.pagesize = pagesize
        self._spool_dir = spool_dir
        self._page: list[tuple[Any, Any]] = []
        self._page_bytes = 0
        self._spool: PageSpool | None = None
        self._nkv = 0

    # ------------------------------------------------------------------ write

    def add(self, key: Any, value: Any) -> None:
        """Emit one pair.  Key must be canonically hashable (see hashing)."""
        _check_key(key)  # validate early: bad key types fail at emit time
        self._page.append((key, value))
        self._page_bytes += approx_size(key) + approx_size(value)
        self._nkv += 1
        if self._page_bytes >= self.pagesize:
            self._spill()

    def add_multi(self, pairs) -> None:
        for k, v in pairs:
            self.add(k, v)

    def _spill(self) -> None:
        if not self._page:
            return
        if self._spool is None:
            self._spool = PageSpool(dir=self._spool_dir, prefix="kv")
        self._spool.write_page(self._page)
        self._page = []
        self._page_bytes = 0

    # ------------------------------------------------------------------- read

    def __len__(self) -> int:
        return self._nkv

    @property
    def out_of_core(self) -> bool:
        """True when at least one page has been spilled to disk."""
        return self._spool is not None and self._spool.npages > 0

    @property
    def spilled_pages(self) -> int:
        return 0 if self._spool is None else self._spool.npages

    def __iter__(self) -> Iterator[tuple[Any, Any]]:
        if self._spool is not None:
            yield from self._spool.iter_records()
        yield from self._page

    # ------------------------------------------------------------------ admin

    def clear(self) -> None:
        self._page = []
        self._page_bytes = 0
        self._nkv = 0
        if self._spool is not None:
            self._spool.close()
            self._spool = None

    def close(self) -> None:
        self.clear()

    def __enter__(self) -> "ObjectKeyValue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ObjectKeyValue(nkv={self._nkv}, pages_spilled={self.spilled_pages}, "
            f"pagesize={self.pagesize})"
        )


#: Historical name, kept so existing mappers/tests keep working unchanged.
KeyValue = ObjectKeyValue
