"""Thread vs process transport parity: same program, same bytes.

The process backend exists for throughput, not for new semantics.  Every
pipeline must produce byte-identical artifacts whichever transport carries
the messages: mrblast per-rank output files compare equal byte-for-byte,
and CHUNK-mode SOM codebooks (a fixed floating-point addition order) are
bit-identical — in-core and when the columnar plane is forced to spill
across multiple pages.
"""

import numpy as np
import pytest

from repro.blast import BlastOptions, format_database
from repro.bio import shred_records, synthetic_community, synthetic_nt_database
from repro.core import MrBlastConfig, MrSomConfig, mrblast_spmd, mrsom_spmd
from repro.core.baselines import run_serial_batch_som
from repro.core.mrsom.mmap_input import write_matrix_file
from repro.mrmpi import MapStyle
from repro.som.codebook import SOMGrid


@pytest.fixture(scope="module")
def nt_workload(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("nt_backend")
    com = synthetic_community(n_genomes=3, genome_length=2000, seed=47)
    db = synthetic_nt_database(com, n_decoys=2, decoy_length=1200, homolog_rate=0.05, seed=48)
    alias_path = format_database(db, tmp, "nt", kind="dna", max_volume_bytes=1500)
    reads = list(shred_records(com.genomes))[:8]
    blocks = [reads[i : i + 2] for i in range(0, len(reads), 2)]
    options = BlastOptions.blastn(evalue=1e-4, max_hits=25)
    return str(alias_path), blocks, options


@pytest.fixture(scope="module")
def som_workload(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("som_backend")
    rng = np.random.default_rng(53)
    data = rng.random((300, 8))
    path = write_matrix_file(tmp / "vectors.mat", data)
    return str(path)


def _rank_outputs(results):
    out = []
    for r in results:
        with open(r.output_path, "rb") as f:
            out.append(f.read())
    return out


class TestMrBlastBackendParity:
    @pytest.mark.parametrize("nprocs", [2, 4])
    def test_per_rank_output_files_byte_identical(self, nt_workload, tmp_path, nprocs):
        # Three-way: thread oracle vs process+arena (the default) vs the
        # per-message process path (arena_mb=0).  Zero-copy framing must
        # not change a single output byte.
        alias_path, blocks, options = nt_workload
        base = dict(alias_path=alias_path, query_blocks=blocks, options=options)
        thread = mrblast_spmd(nprocs, MrBlastConfig(
            **base, output_dir=str(tmp_path / "thread"), backend="thread"))
        arena = mrblast_spmd(nprocs, MrBlastConfig(
            **base, output_dir=str(tmp_path / "arena"), backend="process"))
        permsg = mrblast_spmd(nprocs, MrBlastConfig(
            **base, output_dir=str(tmp_path / "permsg"), backend="process",
            arena_mb=0))
        assert len(thread) == len(arena) == len(permsg) == nprocs
        t_bytes = _rank_outputs(thread)
        assert _rank_outputs(arena) == t_bytes
        assert _rank_outputs(permsg) == t_bytes
        for t, a in zip(thread, arena):
            assert t.hits_written == a.hits_written

    def test_spill_outputs_byte_identical_with_and_without_arena(
            self, nt_workload, tmp_path):
        # A tiny memsize forces the collate plane through multi-page
        # spill, so shuffle pages cross the transport in many exchanges;
        # the arena and per-message paths must still agree byte-for-byte.
        alias_path, blocks, options = nt_workload
        base = dict(alias_path=alias_path, query_blocks=blocks,
                    options=options, memsize=2048)
        runs = {}
        for label, extra in [
            ("thread", dict(backend="thread")),
            ("arena", dict(backend="process")),
            ("permsg", dict(backend="process", arena_mb=0)),
        ]:
            spool = tmp_path / f"spool_{label}"
            spool.mkdir()
            runs[label] = mrblast_spmd(3, MrBlastConfig(
                **base, output_dir=str(tmp_path / label),
                spool_dir=str(spool), **extra))
        t_bytes = _rank_outputs(runs["thread"])
        assert _rank_outputs(runs["arena"]) == t_bytes
        assert _rank_outputs(runs["permsg"]) == t_bytes

    def test_stats_identical_across_backends(self, nt_workload, tmp_path):
        alias_path, blocks, options = nt_workload
        base = dict(alias_path=alias_path, query_blocks=blocks, options=options)
        thread = mrblast_spmd(3, MrBlastConfig(
            **base, output_dir=str(tmp_path / "t"), backend="thread"))
        process = mrblast_spmd(3, MrBlastConfig(
            **base, output_dir=str(tmp_path / "p"), backend="process"))
        # Per-rank unit counts come from the dynamic master-worker schedule
        # and are timing-dependent; the totals and the collated per-rank
        # outputs are the deterministic surface.
        assert sum(t.units_processed for t in thread) == \
            sum(p.units_processed for p in process)
        for t, p in zip(thread, process):
            assert (t.rank, t.hits_written, t.queries_written) == (
                p.rank, p.hits_written, p.queries_written)


class TestMrSomBackendParity:
    @pytest.mark.parametrize("nprocs", [2, 4])
    def test_chunk_codebook_bit_identical(self, som_workload, nprocs):
        # CHUNK: static schedule, so both backends replay the exact same
        # floating-point addition order — bit equality, not allclose.
        base = dict(matrix_path=som_workload, grid=SOMGrid(6, 5), epochs=3,
                    block_rows=40, mapstyle=MapStyle.CHUNK)
        thread = mrsom_spmd(nprocs, MrSomConfig(**base, backend="thread"))
        process = mrsom_spmd(nprocs, MrSomConfig(**base, backend="process"))
        np.testing.assert_array_equal(process[0].codebook, thread[0].codebook)
        for r in process[1:]:
            np.testing.assert_array_equal(r.codebook, process[0].codebook)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("nprocs", [2, 3])
    @pytest.mark.parametrize("grid", [
        SOMGrid(6, 5), SOMGrid(5, 6, topology="hex"), SOMGrid(6, 5, periodic=True),
    ], ids=["rect", "hex", "torus"])
    def test_master_smooths_and_broadcasts_equals_serial(self, som_workload, grid,
                                                          nprocs, backend):
        # Fig. 2 as implemented: Reduce to the master, the master smooths and
        # applies Eq. 5, Bcast of the codebook.  MASTER_WORKER dispatch, so
        # the summation order is free and the bound is rtol 1e-9; the final
        # radius of 1 cell runs the last epochs through the denormal rule.
        config = MrSomConfig(matrix_path=som_workload, grid=grid, epochs=4,
                             block_rows=40, backend=backend)
        serial = run_serial_batch_som(config)
        results = mrsom_spmd(nprocs, config)
        assert len(results) == nprocs
        for r in results:
            np.testing.assert_allclose(r.codebook, serial, rtol=1e-9, atol=0)
        assert results[0].init_seconds > 0 and results[0].smooth_seconds > 0

    def test_mrmpi_reduce_spill_bit_identical(self, som_workload, tmp_path):
        # Tiny memsize forces the columnar plane through multi-page spill;
        # pages then cross the process transport as shared-memory blocks.
        base = dict(matrix_path=som_workload, grid=SOMGrid(6, 5), epochs=2,
                    block_rows=40, mapstyle=MapStyle.CHUNK, reduce_mode="mrmpi")
        (tmp_path / "t").mkdir()
        (tmp_path / "p").mkdir()
        thread = mrsom_spmd(3, MrSomConfig(
            **base, memsize=512, spool_dir=str(tmp_path / "t"), backend="thread"))
        process = mrsom_spmd(3, MrSomConfig(
            **base, memsize=512, spool_dir=str(tmp_path / "p"), backend="process"))
        np.testing.assert_array_equal(process[0].codebook, thread[0].codebook)
        assert process[0].shuffle_pairs_moved == thread[0].shuffle_pairs_moved
