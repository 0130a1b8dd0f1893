"""Shared utilities: seeded RNG helpers and rank-aware logging."""

from repro.util.rng import derive_rng
from repro.util.log import get_logger, rank_logger

__all__ = [
    "derive_rng",
    "get_logger",
    "rank_logger",
]
