"""Deterministic random-number-generator plumbing.

Every stochastic component in the repository (workload generators, task-time
models, SOM initialisation) takes an explicit seed or an explicit
``numpy.random.Generator``.  These helpers derive statistically independent
child generators from a parent seed so that, e.g., each MPI rank or each
simulated node gets its own stream while the whole run stays reproducible
from a single integer.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_rng", "as_rng"]


def as_rng(seed_or_rng: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce an int seed, ``None`` or an existing Generator into a Generator.

    Passing an existing generator returns it unchanged (shared state);
    passing an int or ``None`` constructs a fresh ``default_rng``.
    """
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def derive_rng(seed: int, *key: int | str) -> np.random.Generator:
    """Derive an independent generator from ``seed`` and a structured key.

    The key components (ints or strings) are folded into a
    ``numpy.random.SeedSequence`` so that ``derive_rng(s, "node", 3)`` and
    ``derive_rng(s, "node", 4)`` are independent streams and stable across
    runs and platforms.
    """
    entropy: list[int] = [int(seed) & 0xFFFFFFFF]
    for part in key:
        if isinstance(part, str):
            # Stable string -> int folding (FNV-1a, 32-bit).
            h = 2166136261
            for ch in part.encode():
                h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
            entropy.append(h)
        else:
            entropy.append(int(part) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(entropy))


