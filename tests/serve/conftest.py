"""Shared fixtures for the service-layer suite.

Two synthetic nt workloads per session (the second with more partitions),
each with a per-query *oracle*: the exact bytes a standalone single-rank
``run_mrblast`` produces for each query in isolation.  Every parity assertion in this package compares service output
against these bytes.
"""

import os

import pytest

from repro.blast import BlastOptions, format_database
from repro.bio import shred_records, synthetic_community, synthetic_nt_database
from repro.core import MrBlastConfig, mrblast_spmd


def _nt_workload(tmp, genomes, decoys, max_volume_bytes, spread=False):
    """``genomes`` and ``decoys`` are (count, length); ``spread`` takes the
    reads from each genome in turn instead of from the first ones."""
    com = synthetic_community(n_genomes=genomes[0], genome_length=genomes[1], seed=47)
    db = synthetic_nt_database(com, n_decoys=decoys[0], decoy_length=decoys[1],
                               homolog_rate=0.05, seed=48)
    alias_path = format_database(db, tmp, "nt", kind="dna",
                                 max_volume_bytes=max_volume_bytes)
    if spread:
        turns = zip(*(shred_records([genome]) for genome in com.genomes))
        reads = [read for turn in turns for read in turn][:8]
    else:
        reads = list(shred_records(com.genomes))[:8]
    options = BlastOptions.blastn(evalue=1e-4, max_hits=25)
    return str(alias_path), reads, options


def _standalone_bytes(workload, tmp):
    """query id -> bytes of a standalone one-shot run for that query alone."""
    alias_path, reads, options = workload
    out = {}
    for i, rec in enumerate(reads):
        results = mrblast_spmd(1, MrBlastConfig(
            alias_path=alias_path,
            query_blocks=[[rec]],
            options=options,
            output_dir=os.path.join(tmp, f"q{i}"),
            backend="thread",
        ))
        with open(results[0].output_path, "rb") as fh:
            out[rec.id] = fh.read()
    return out


@pytest.fixture(scope="session")
def serve_workload(tmp_path_factory):
    """(alias_path, reads, options): a small nt database plus 8 query reads."""
    return _nt_workload(tmp_path_factory.mktemp("nt_serve"), (3, 2000), (2, 1200), 1500)


@pytest.fixture(scope="session")
def oracle(serve_workload, tmp_path_factory):
    """query id -> bytes of a standalone one-shot run for that query alone."""
    return _standalone_bytes(serve_workload, tmp_path_factory.mktemp("oracle"))


@pytest.fixture(scope="session")
def split_workload(tmp_path_factory):
    """Six genomes and two decoys, a partition each, and reads from every
    genome in turn: a one-block job has units enough for several chunks
    per worker, and the first four reads hit each of the first four
    partitions, which are the workers' first chunks."""
    return _nt_workload(tmp_path_factory.mktemp("nt_split"), (6, 4000), (2, 4000), 1024,
                        spread=True)


@pytest.fixture(scope="session")
def split_oracle(split_workload, tmp_path_factory):
    """``oracle`` for :func:`split_workload`."""
    return _standalone_bytes(split_workload, tmp_path_factory.mktemp("split_oracle"))
