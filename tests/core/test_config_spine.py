"""One config spine: the shared runtime knobs are declared once, every
construction in use still works, and the shared checks run through one
``validate``."""

import dataclasses
import os

import pytest

from repro.bio import shred_records, synthetic_community, synthetic_nt_database, write_fasta
from repro.blast import BlastOptions, format_database
from repro.core.mrblast.driver import MrBlastConfig
from repro.core.mrblast.hspcodec import encode_hsps
from repro.core.mrblast.pipeline import RuntimeConfig
from repro.blast.hsp import HSP
from repro.serve.session import ServeConfig

SPINE = {f.name: f for f in dataclasses.fields(RuntimeConfig)}

#: the only restatements of a spine field: a one-line change of default
DEFAULT_OVERRIDES = {
    MrBlastConfig: {"locality_aware": False},
    ServeConfig: {"degraded": True},
}


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("spine")
    com = synthetic_community(n_genomes=2, genome_length=1500, seed=15)
    db = synthetic_nt_database(com, n_decoys=1, decoy_length=800, seed=16)
    alias = format_database(db, tmp / "db", "nt", kind="dna")
    reads = list(shred_records(com.genomes))[:4]
    fasta = tmp / "q.fasta"
    write_fasta(reads, fasta)
    return str(alias), reads, str(fasta)


def _construct(cls, workload, tmp_path, **kw):
    alias, reads, fasta = workload
    own = {
        MrBlastConfig: dict(query_blocks=[reads], output_dir=str(tmp_path / "out")),
        ServeConfig: {},
    }[cls]
    return cls(**{"alias_path": alias, **own, **kw})


@pytest.mark.parametrize("cls", list(DEFAULT_OVERRIDES), ids=lambda c: c.__name__)
def test_each_spine_field_is_declared_once(cls):
    own = set(cls.__dict__["__annotations__"])
    restated = own & set(SPINE)
    assert restated == set(DEFAULT_OVERRIDES[cls])
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for name, default in DEFAULT_OVERRIDES[cls].items():
        assert fields[name].default == default != SPINE[name].default
        assert fields[name].type == SPINE[name].type
    # every spine knob is there, and nothing is both spine and own
    assert set(SPINE) <= set(fields)
    assert len(fields) == len(SPINE) + len(own - restated)


def test_declared_field_count():
    declared = len(SPINE) + sum(
        len(cls.__dict__["__annotations__"]) for cls in DEFAULT_OVERRIDES)
    # 66 when each config spelled the knobs out itself, 42 with a third
    # config for dynamic chunking and a per-config arena size
    assert declared <= 34
    for gone in ("columnar", "adaptive", "queries_per_wave", "arena_mb"):
        for cls in DEFAULT_OVERRIDES:
            assert gone not in {f.name for f in dataclasses.fields(cls)}


def test_defaults_that_differed_still_differ(workload, tmp_path):
    batch, serve = (_construct(c, workload, tmp_path) for c in DEFAULT_OVERRIDES)
    assert (batch.locality_aware, serve.locality_aware) == (False, True)
    assert (batch.degraded, serve.degraded) == (False, True)
    assert batch.output_dir == str(tmp_path / "out")


def test_suite_keyword_constructions(workload, tmp_path):
    """benchmarks/suite/workloads.py builds its configs with these keywords."""
    alias, reads, _ = workload
    options = BlastOptions.blastn(evalue=1e-4, max_hits=20)
    MrBlastConfig(
        alias_path=alias, query_blocks=[reads], options=options,
        output_dir=str(tmp_path / "out"), spool_dir=str(tmp_path),
        blocks_per_iteration=2, locality_aware=True, backend="process").validate()
    ServeConfig(
        alias_path=alias, nprocs=3, options=options, backend="process",
        spool_dir=str(tmp_path), max_batch=8, max_delay=0.01, max_pending=64).validate()


class _Captured(Exception):
    pass


def _capture(*args, **kwargs):
    raise _Captured(args, kwargs)


@pytest.mark.parametrize("source", ["--queries", "--query-fasta"])
def test_mrblast_cli_construction(workload, tmp_path, monkeypatch, source):
    from repro.core.mrblast import cli

    alias, _, fasta = workload
    monkeypatch.setattr(cli, "mrblast_spmd", _capture)
    with pytest.raises(_Captured) as caught:
        cli.main(["--db", alias, source, fasta, "--np", "2", "--out", str(tmp_path / "o"),
                  "--locality", "--blocks-per-iteration", "1", "--speculate", "2.0",
                  "--trace", str(tmp_path / "t.json"), "--no-degraded"])
    (nprocs, config), _ = caught.value.args
    assert isinstance(config, MrBlastConfig) and nprocs == 2
    assert (config.locality_aware, config.degraded, config.speculation_factor,
            config.blocks_per_iteration) == (True, False, 2.0, 1)
    config.validate()


def test_serve_cli_construction(workload, tmp_path, monkeypatch):
    from repro.serve import cli

    alias, _, fasta = workload
    monkeypatch.setattr(cli, "QueryService", _capture)
    with pytest.raises(_Captured) as caught:
        cli.main(["--db", alias, "--queries", fasta, "--np", "2", "--backend", "thread",
                  "--max-batch", "4", "--out", str(tmp_path / "o.tsv")])
    (config,), _ = caught.value.args
    assert isinstance(config, ServeConfig)
    assert (config.nprocs, config.max_batch, config.degraded) == (2, 4, True)
    config.validate()


@pytest.mark.parametrize("cls", list(DEFAULT_OVERRIDES), ids=lambda c: c.__name__)
@pytest.mark.parametrize("bad, match", [
    (dict(work_order="spiral"), "work_order"),
    (dict(memsize=0), "memsize"),
    (dict(alias_path="/nonexistent/db.pal.json"), "alias_path"),
])
def test_shared_checks_run_through_one_validate(cls, bad, match, workload, tmp_path):
    config = _construct(cls, workload, tmp_path, **bad)
    with pytest.raises(ValueError, match=f"{cls.__name__}: .*{match}") as caught:
        config.validate()
    raised_in = caught.traceback[-1]
    assert raised_in.name == "validate"
    assert os.path.basename(str(raised_in.path)) == "pipeline.py"


@pytest.mark.parametrize("cls", list(DEFAULT_OVERRIDES), ids=lambda c: c.__name__)
def test_shared_knobs_are_checked_at_construction(cls, workload, tmp_path):
    for bad in (dict(speculation_factor=1.0), dict(id_width=0), dict(lookup_cache_blocks=-1)):
        with pytest.raises(ValueError):
            _construct(cls, workload, tmp_path, **bad)


def _hsp(query_id):
    return HSP(query_id=query_id, subject_id="s", score=1, bit_score=1.0, evalue=1.0,
               q_start=0, q_end=1, s_start=0, s_end=1, identities=1, align_len=1,
               gaps=0, strand=1, frame=0)


def test_id_errors_name_what_the_caller_can_change():
    with pytest.raises(ValueError) as wide:
        encode_hsps([_hsp("q" * 9)], id_width=8)
    assert str(wide.value).endswith("wider than the id column (id_width=8); raise id_width")
    with pytest.raises(ValueError) as nul:
        encode_hsps([_hsp("q\x00")], id_width=8)
    assert str(nul.value).endswith("cannot represent; the id cannot be stored")
    for err in (wide, nul):
        assert "columnar" not in str(err.value)
