"""Reduction operators, wildcards and Status for the in-process MPI.

Operators work both element-wise on numpy arrays (capitalised buffer API) and
on scalar Python objects (lowercase object API), mirroring mpi4py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Op",
    "SUM",
    "PROD",
    "MIN",
    "MAX",
    "LAND",
    "LOR",
    "Status",
]

#: Wildcard source for :meth:`Comm.recv` (matches any sender).
ANY_SOURCE = -1
#: Wildcard tag for :meth:`Comm.recv` (matches any tag).
ANY_TAG = -1


@dataclass(frozen=True)
class Op:
    """A reduction operator.

    ``fn`` combines two values (numpy arrays combine element-wise).
    ``commutative`` is informational; all built-ins are commutative and the
    tree reduction preserves rank order for the non-commutative case anyway.
    """

    name: str
    fn: Callable[[Any, Any], Any]
    commutative: bool = True

    def __call__(self, a: Any, b: Any) -> Any:
        return self.fn(a, b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Op({self.name})"


SUM = Op("SUM", lambda a, b: a + b)
PROD = Op("PROD", lambda a, b: a * b)
MIN = Op("MIN", lambda a, b: np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b))
MAX = Op("MAX", lambda a, b: np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b))
LAND = Op("LAND", lambda a, b: np.logical_and(a, b) if isinstance(a, np.ndarray) else bool(a and b))
LOR = Op("LOR", lambda a, b: np.logical_or(a, b) if isinstance(a, np.ndarray) else bool(a or b))


@dataclass
class Status:
    """Receive status: who sent the matched message and with what tag."""

    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    count: int = 0
    _extra: dict = field(default_factory=dict, repr=False)

    def Get_source(self) -> int:
        return self.source

    def Get_tag(self) -> int:
        return self.tag

    def Get_count(self) -> int:
        return self.count
