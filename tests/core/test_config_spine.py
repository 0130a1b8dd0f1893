"""One runtime spine: the knobs both programs share are declared once, every
construction in use still works, the shared checks run through one
``validate``, and both batch CLIs take the shared flags from one place."""

import ast
import dataclasses
import os
import pathlib
import tomllib

import numpy as np
import pytest

from repro.bio import shred_records, synthetic_community, synthetic_nt_database, write_fasta
from repro.blast import BlastOptions, format_database
from repro.core.mrblast.driver import MrBlastConfig
from repro.core.mrblast.hspcodec import encode_hsps
from repro.core.mrblast.pipeline import RuntimeConfig
from repro.core.mrsom.driver import MrSomConfig
from repro.core.mrsom.mmap_input import write_matrix_file
from repro.core.spine import BatchConfig, JobConfig
from repro.blast.hsp import HSP
from repro.mpi.runtime import RetryPolicy
from repro.mrmpi import MapStyle
from repro.sched import SpeculationPolicy
from repro.serve.session import ServeConfig
from repro.som.codebook import SOMGrid
from test_readme_snippets import python_blocks

ROOT = pathlib.Path(__file__).parents[2]
RECORDS = (JobConfig, BatchConfig, RuntimeConfig, MrBlastConfig, ServeConfig, MrSomConfig)
POLICIES = (SpeculationPolicy, RetryPolicy)
CONFIGS = (MrBlastConfig, ServeConfig, MrSomConfig)

#: the only restatements of an inherited field: a one-line change of default
DEFAULT_OVERRIDES = {
    MrBlastConfig: {"locality_aware": False},
    ServeConfig: {"degraded": True},
}


def _declared(cls):
    """Field names ``cls`` itself declares (a ``KW_ONLY`` marker is none)."""
    return set(cls.__dict__.get("__annotations__", {})) & {
        f.name for f in dataclasses.fields(cls)}


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


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    path = tmp_path_factory.mktemp("spine-som") / "v.mat"
    return write_matrix_file(path, np.random.default_rng(3).random((120, 6)))


def _construct(cls, workload, matrix, tmp_path, **kw):
    alias, reads, _ = workload
    own = {
        MrBlastConfig: dict(alias_path=alias, query_blocks=[reads],
                            output_dir=str(tmp_path / "out")),
        ServeConfig: dict(alias_path=alias),
        MrSomConfig: dict(matrix_path=str(matrix), grid=SOMGrid(3, 3)),
    }[cls]
    return cls(**{**own, **kw})


@pytest.mark.parametrize("cls", RECORDS[1:], ids=lambda c: c.__name__)
def test_each_spine_field_is_declared_once(cls):
    inherited = {f.name: f for base in cls.__mro__[1:] if dataclasses.is_dataclass(base)
                 for f in dataclasses.fields(base)}
    restated = _declared(cls) & set(inherited)
    assert restated == set(DEFAULT_OVERRIDES.get(cls, {}))
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for name, default in DEFAULT_OVERRIDES.get(cls, {}).items():
        assert fields[name].default == default != inherited[name].default
        assert fields[name].type == inherited[name].type
    assert set(inherited) <= set(fields)
    assert len(fields) == len(inherited) + len(_declared(cls) - restated)


def test_no_two_records_declare_one_knob():
    seen = {}
    for cls in RECORDS:
        for name in _declared(cls) - set(DEFAULT_OVERRIDES.get(cls, {})):
            assert name not in seen, f"{name} declared by {seen.get(name)} and {cls}"
            seen[name] = cls.__name__
    # the knobs both programs take come from the spine records
    assert {"backend", "degraded", "speculation_factor"} <= _declared(JobConfig)
    assert {"mapstyle", "resume", "trace_path", "stop_after"} <= _declared(BatchConfig)
    assert issubclass(MrSomConfig, BatchConfig) and issubclass(MrBlastConfig, BatchConfig)
    assert not issubclass(ServeConfig, BatchConfig)


def test_declared_field_count():
    declared = sum(len(_declared(cls)) for cls in RECORDS)
    # 66 when each config spelled the knobs out itself, 52 with mrsom's
    # config restating the knobs it shares with mrblast, 42 before the
    # knobs only tests set left
    assert declared <= 35
    for gone in ("columnar", "adaptive", "queries_per_wave", "arena_mb",
                 "stop_after_iterations", "poison_attempts", "op_timeout",
                 "session_budget", "stop_after_epochs", "track_error",
                 "initial_radius", "final_radius"):
        for cls in CONFIGS:
            assert gone not in {f.name for f in dataclasses.fields(cls)}


#: defaulted fields that stay though a program root may not set them, each
#: with why
CENSUS_ALLOWLIST = {
    (RuntimeConfig, "hit_filter"): "the paper's self-hit exclusion (docs/PAPER_MAP.md)",
    (RuntimeConfig, "unit_fault_injector"):
        "the poison tests' failing unit, until unit-start fault events replace it",
    (RuntimeConfig, "id_width"): "the only escape for ids wider than 64 bytes",
    (RuntimeConfig, "memsize"): "MR-MPI's page size, the paper's one data-plane setting",
    (SpeculationPolicy, "warmup"): "arms speculation on the tests' 3- to 8-unit jobs",
    (MrSomConfig, "reduce_mode"): "the frozen benchmark suite passes it",
}


def _root_sources():
    """``(label, source)`` of every program root: the console scripts with
    the ``cli`` modules they import, the benchmarks (the frozen suite too),
    the examples and the README's Python blocks."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    modules = [target.split(":")[0] for target in scripts.values()]
    paths = set()
    while modules:
        path = ROOT / "src" / (modules.pop().replace(".", os.sep) + ".py")
        if path in paths:
            continue
        paths.add(path)
        modules += [node.module for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.ImportFrom) and node.module
                    and node.module.startswith("repro.") and node.module.endswith(".cli")]
    for folder in ("benchmarks", "examples"):
        paths.update((ROOT / folder).rglob("*.py"))
    sources = [(str(p.relative_to(ROOT)), p.read_text()) for p in sorted(paths)]
    return sources + [(f"README block {i + 1}", code) for i, code in enumerate(python_blocks())]


#: calls that set any record's fields: ``dataclasses.replace``, and the
#: batch CLIs' shared knobs, gathered in a ``dict`` and passed on through
#: ``make_config``
ANY_RECORD = ("replace", "dict", "make_config")


def _keywords_by_callee(sources):
    """Callee name -> the keyword names the roots pass to it."""
    passed = {}
    for _label, source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                passed.setdefault(name, set()).update(kw.arg for kw in node.keywords if kw.arg)
    return passed


def test_every_settable_value_has_a_program_caller():
    """The Options rule: a defaulted field of a config or policy record is
    set by some program root (a keyword to the record, a record extending
    it, or :data:`ANY_RECORD`), or is allowlisted with its reason; a knob
    only tests turn is a constant instead."""
    sources = _root_sources()
    assert any(label.startswith("src/repro/core/cli") for label, _ in sources)
    passed = _keywords_by_callee(sources)
    unset = []
    for cls in RECORDS + POLICIES:
        callees = ANY_RECORD + tuple(c.__name__ for c in RECORDS + POLICIES if issubclass(c, cls))
        for f in dataclasses.fields(cls):
            if f.name not in _declared(cls) or (f.default is dataclasses.MISSING
                                                and f.default_factory is dataclasses.MISSING):
                continue
            if ((cls, f.name) not in CENSUS_ALLOWLIST
                    and not any(f.name in passed.get(c, ()) for c in callees)):
                unset.append(f"{cls.__name__}.{f.name}")
    for cls, name in CENSUS_ALLOWLIST:
        assert name in _declared(cls), f"the allowlist names {cls.__name__}.{name}, which is gone"
    assert not unset, f"set by no program root, only by tests: {sorted(unset)}"


#: the environment variables ``src/`` reads, each with why it is not a
#: config field
ENV_ALLOWLIST = {
    "REPRO_MPI_BACKEND": "flips every run_spmd of a suite or CI job onto OS processes",
    "XDG_CACHE_HOME": "the compiled engine's cache path, a deployment setting",
}

_ENV_NAMES = ("environ", "environb", "getenv", "getenvb")


def test_src_reads_no_environment_variable_outside_the_allowlist():
    """An environment variable is a knob no CLI flag, config or census
    sees: ``src/`` reads only the allowlisted ones, each by literal name."""
    reads = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name not in _ENV_NAMES:
                continue
            use = parents[node]
            if isinstance(use, ast.Attribute) and use.attr == "get":  # os.environ.get(...)
                use = parents[use]
            key = (use.slice if isinstance(use, ast.Subscript)
                   else use.args[0] if isinstance(use, ast.Call) and use.args else None)
            reads.add(key.value if isinstance(key, ast.Constant)
                      else f"{path.relative_to(ROOT)}:{node.lineno}, no literal name")
        assert not any(isinstance(node, ast.ImportFrom) and node.module == "os"
                       and any(alias.name in _ENV_NAMES for alias in node.names)
                       for node in ast.walk(tree)), path
    assert reads == set(ENV_ALLOWLIST)


def test_defaults_that_differed_still_differ(workload, matrix, tmp_path):
    batch, serve, som = (_construct(c, workload, matrix, tmp_path) for c in CONFIGS)
    assert (batch.locality_aware, serve.locality_aware) == (False, True)
    assert (batch.degraded, serve.degraded, som.degraded) == (False, True, False)
    assert batch.output_dir == str(tmp_path / "out")


def test_suite_keyword_constructions(workload, matrix, tmp_path):
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
    MrSomConfig(
        matrix_path=str(matrix), grid=SOMGrid(4, 4), epochs=2, block_rows=40, seed=7,
        mapstyle=MapStyle.MASTER_WORKER, reduce_mode="mpi", backend="process").validate()


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


def test_mrsom_cli_construction(matrix, tmp_path, monkeypatch):
    from repro.core.mrsom import cli

    monkeypatch.setattr(cli, "mrsom_spmd", _capture)
    trace = str(tmp_path / "t.json")
    with pytest.raises(_Captured) as caught:
        cli.main(["--input", str(matrix), "--rows", "3", "--cols", "4", "--np", "3",
                  "--speculate", "1.5", "--no-degraded", "--trace", trace,
                  "--backend", "process"])
    (nprocs, config), _ = caught.value.args
    assert isinstance(config, MrSomConfig) and nprocs == 3
    assert (config.speculation_factor, config.degraded, config.trace_path,
            config.backend, config.grid) == (1.5, False, trace, "process", SOMGrid(3, 4))
    config.validate()


def test_batch_clis_share_one_flag_group():
    from repro.core.mrblast.cli import build_parser as blast_parser
    from repro.core.mrsom.cli import build_parser as som_parser

    shared = {"np", "backend", "faults", "retries", "trace", "speculate", "no_degraded"}

    def flags(ap):
        return {a.dest: (a.option_strings, a.default, a.help, a.choices, a.type, a.metavar)
                for a in ap._actions if a.dest in shared}

    blast, som = flags(blast_parser()), flags(som_parser())
    assert set(blast) == shared
    assert blast == som


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
def test_shared_checks_run_through_one_validate(cls, bad, match, workload, matrix, tmp_path):
    config = _construct(cls, workload, matrix, tmp_path, **bad)
    with pytest.raises(ValueError, match=f"{cls.__name__}: .*{match}") as caught:
        config.validate()
    raised_in = caught.traceback[-1]
    assert raised_in.name == "validate"
    assert os.path.basename(str(raised_in.path)) == "pipeline.py"


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("source", ["argument", "environment"])
def test_bad_backend_is_a_value_error_naming_the_field(
        cls, source, workload, matrix, tmp_path, monkeypatch):
    if source == "argument":
        monkeypatch.delenv("REPRO_MPI_BACKEND", raising=False)
        config = _construct(cls, workload, matrix, tmp_path, backend="mpich")
    else:
        monkeypatch.setenv("REPRO_MPI_BACKEND", "mpich")
        config = _construct(cls, workload, matrix, tmp_path)
    with pytest.raises(ValueError, match=f"^{cls.__name__}: backend.*'mpich'") as caught:
        config.validate()
    assert os.path.basename(str(caught.traceback[-1].path)) == "spine.py"


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda c: c.__name__)
def test_shared_knobs_are_checked_at_construction(cls, workload, matrix, tmp_path):
    bads = [dict(speculation_factor=1.0)]
    if cls is not MrSomConfig:
        bads += [dict(id_width=0), dict(lookup_cache_blocks=-1)]
    for bad in bads:
        with pytest.raises(ValueError):
            _construct(cls, workload, matrix, tmp_path, **bad)


def test_mrsom_checkpoint_dir_must_be_writable(matrix, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    config = MrSomConfig(matrix_path=str(matrix), grid=SOMGrid(3, 3),
                         checkpoint_dir=str(blocker / "ck"))
    with pytest.raises(ValueError, match="MrSomConfig: checkpoint_dir .* cannot be created"):
        config.validate()


def _usage_error(main, argv, capsys):
    with pytest.raises(SystemExit) as caught:
        main(argv)
    err = capsys.readouterr().err
    assert caught.value.code == 2
    assert err.startswith("usage:") and "Traceback" not in err
    return err.strip().splitlines()[-1]


def test_mrsom_cli_errors_are_usage_lines(matrix, tmp_path, capsys):
    from repro.core.mrsom.cli import main

    base = ["--input", str(matrix), "--out", str(tmp_path / "cb.npy")]
    assert "resume=True requires checkpoint_dir" in _usage_error(
        main, base + ["--resume"], capsys)
    assert "speculation_factor must be > 1.0" in _usage_error(
        main, base + ["--speculate", "1.0"], capsys)
    assert "bad fault token" in _usage_error(main, base + ["--faults", "crash"], capsys)
    assert _usage_error(main, base + ["--faults", "crash=1"], capsys).endswith(
        "error: crash needs RANK@N, got 'crash=1'")
    assert "matrix_path" in _usage_error(main, ["--input", str(tmp_path / "none")], capsys)


def test_mrblast_cli_errors_are_usage_lines(workload, tmp_path, capsys):
    from repro.core.mrblast.cli import main

    alias, _, fasta = workload
    base = ["--db", alias, "--queries", fasta, "--out", str(tmp_path / "o")]
    assert "speculation_factor must be > 1.0" in _usage_error(
        main, base + ["--speculate", "0.5"], capsys)
    assert "blocks_per_iteration" in _usage_error(
        main, base + ["--blocks-per-iteration", "-1"], capsys)
    assert "bad fault token" in _usage_error(main, base + ["--faults", "crash"], capsys)
    assert _usage_error(main, base + ["--faults", "crash=1"], capsys).endswith(
        "error: crash needs RANK@N, got 'crash=1'")
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert "output_dir" in _usage_error(
        main, ["--db", alias, "--queries", fasta, "--out", str(blocker / "o")], capsys)


def test_mrsom_cli_supervised_run_resumes(matrix, tmp_path, capsys):
    from repro.core.mrsom.cli import main

    rc = main(["--input", str(matrix), "--rows", "3", "--cols", "3", "--epochs", "3",
               "--np", "3", "--backend", "thread", "--out", str(tmp_path / "cb.npy"),
               "--checkpoint-dir", str(tmp_path / "ck"), "--faults", "crash=1@10",
               "--retries", "2", "--no-degraded"])
    assert rc == 0
    assert "supervisor: 1 retries, 1 faults injected" in capsys.readouterr().out


def test_the_launch_sequence_is_written_once():
    core = ROOT / "src" / "repro" / "core"
    text = "".join(p.read_text() for p in core.rglob("*.py"))
    for call in ("exported_trace(", "run_supervised(", "run_spmd(",
                 "result.faults_injected = ", "result.retries = "):
        assert text.count(call) == 1, call


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
