"""Utility helpers: RNG derivation, logging."""

import logging

import numpy as np
import pytest

from repro.util import derive_rng, get_logger, rank_logger, spawn_rngs
from repro.util.rng import as_rng, choice_without_replacement


class TestRng:
    def test_derive_deterministic(self):
        a = derive_rng(42, "node", 3).random(5)
        b = derive_rng(42, "node", 3).random(5)
        np.testing.assert_array_equal(a, b)

    def test_derive_independent_streams(self):
        a = derive_rng(42, "node", 3).random(5)
        b = derive_rng(42, "node", 4).random(5)
        c = derive_rng(42, "core", 3).random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_spawn_rngs(self):
        rngs = spawn_rngs(7, 4)
        assert len(rngs) == 4
        draws = {float(r.random()) for r in rngs}
        assert len(draws) == 4
        with pytest.raises(ValueError):
            spawn_rngs(7, -1)

    def test_as_rng_passthrough_and_coerce(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen
        assert isinstance(as_rng(5), np.random.Generator)

    def test_choice_without_replacement(self):
        rng = np.random.default_rng(1)
        picked = choice_without_replacement(rng, list("abcdef"), 4)
        assert len(picked) == len(set(picked)) == 4
        with pytest.raises(ValueError):
            choice_without_replacement(rng, [1, 2], 3)


class TestLogging:
    def test_get_logger_namespaced(self):
        log = get_logger("blast.engine")
        assert log.name == "repro.blast.engine"
        assert get_logger("repro.core").name == "repro.core"

    def test_rank_logger_carries_rank(self):
        adapter = rank_logger("core.mrblast", 5)
        assert adapter.extra == {"rank": 5}
        assert isinstance(adapter, logging.LoggerAdapter)
