"""Typed and untyped datasets under memory pressure.

The same aggregate → convert → reduce pipeline, run on untyped pairs
(``schema=None``) and on a typed schema with a memsize tiny enough to force
multi-page spill on every rank, must match the serial oracle, place every
key where its stable hash says, and leave no spill file behind — including
when a rank is crashed mid-run by the fault injector.
"""

import collections
import glob
import os

import numpy as np
import pytest

from repro.mpi import CrashRank, FaultPlan, LOR, RankFailure, run_spmd
from repro.mpi.runtime import SpmdJob
from repro.mrmpi import MapReduce, MapStyle, RecordSchema

from oracles.fnv_hash import stable_hash

NPROCS = 3
TINY = 512  # bytes: pairs spill after a handful of rows

SCHEMA = RecordSchema(key_dtype="S8", value_dtype=np.dtype("<i8"))

_rng = np.random.default_rng(123)
KEYS = [f"k{_rng.integers(37):02d}" for _ in range(900)]  # pair j is (KEYS[j], j)


def _pipeline(comm, schema, spool_dir, memsize=TINY):
    """aggregate → convert → reduce over a deterministic skewed workload."""
    # CHUNK: every rank maps, and per-rank MPI op counts are deterministic
    # (the crash test below injects at a measured op index).
    mr = MapReduce(
        comm, memsize=memsize, spool_dir=spool_dir, schema=schema, mapstyle=MapStyle.CHUNK
    )
    try:
        def mapper(itask, item, kv):
            for j in range(item * 90, item * 90 + 90):
                kv.add(KEYS[j], j)

        mr.map_items(list(range(10)), mapper)
        spilled = mr.kv.out_of_core
        mr.collate()
        mr.reduce(lambda k, vs, kv: kv.add(k, sum(int(v) for v in vs)))
        out = {k: int(v) for k, v in mr.kv}
        per_rank = mr.comm.gather(out, root=0)
        any_spilled = mr.comm.allreduce(spilled, op=LOR)
        return per_rank, any_spilled
    finally:
        mr.close()


class TestPlaneParity:
    @pytest.mark.parametrize("nprocs", [1, 3, 4])
    def test_columnar_matches_object_under_spill(self, nprocs, tmp_path):
        """Untyped ("object") pairs and typed columns both spill and both
        give the serial oracle's per-key sums, each on rank
        ``stable_hash(key) % nprocs``."""
        sums = collections.Counter()
        for j, key in enumerate(KEYS):
            sums[key] += j
        expected = [{k: v for k, v in sums.items() if stable_hash(k) % nprocs == r}
                    for r in range(nprocs)]
        for schema, name in ((None, "obj"), (SCHEMA, "col")):
            spool = tmp_path / name
            os.makedirs(spool)
            per_rank, spilled = run_spmd(nprocs, _pipeline, schema, str(spool))[0]
            assert spilled, "memsize did not force spilling"
            assert per_rank == expected
            assert glob.glob(str(spool / "*")) == []  # nothing left behind

    def test_multi_page_spill_actually_happens(self, tmp_path):
        """The fixture forces *multi*-page spill, not a borderline single page."""

        def probe(comm):
            mr = MapReduce(
                comm,
                memsize=TINY,
                spool_dir=str(tmp_path),
                schema=SCHEMA,
                mapstyle=MapStyle.CHUNK,
            )
            try:
                mr.map_items(
                    list(range(6)),
                    lambda i, item, kv: [kv.add(f"k{j%19:02d}", j) for j in range(200)],
                )
                return mr.kv.spilled_pages
            finally:
                mr.close()

        pages = run_spmd(NPROCS, probe)
        assert all(p > 1 for p in pages)


class TestCrashHygiene:
    """A rank crash mid-pipeline must not leak spill files on either plane."""

    @pytest.mark.parametrize("schema", [None, SCHEMA], ids=["object", "columnar"])
    def test_injected_crash_leaves_no_spill_files(self, schema, tmp_path):
        probe_dir = tmp_path / "probe"
        crash_dir = tmp_path / "crash"
        os.makedirs(probe_dir)
        os.makedirs(crash_dir)

        # Measure a clean run's op count, then crash rank 1 two-thirds in —
        # mid-exchange, while spilled state exists on disk.
        probe = SpmdJob(NPROCS, _pipeline, (schema, str(probe_dir)))
        probe.run()
        crash_at = (2 * probe.network.op_count(1)) // 3
        assert crash_at > 0
        assert glob.glob(str(probe_dir / "*")) == []

        plan = FaultPlan([CrashRank(rank=1, at_op=crash_at)])
        with pytest.raises(RankFailure):
            SpmdJob(NPROCS, _pipeline, (schema, str(crash_dir)), fault_plan=plan).run()
        assert glob.glob(str(crash_dir / "*")) == []
