"""Shared utilities: seeded RNG helpers and rank-aware logging."""

from repro.util.rng import derive_rng, spawn_rngs
from repro.util.log import get_logger, rank_logger

__all__ = [
    "derive_rng",
    "spawn_rngs",
    "get_logger",
    "rank_logger",
]
