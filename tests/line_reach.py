"""Which lines of ``src/repro`` only the tests run.

    python tests/line_reach.py

Traces every program root, then the tier-1 suite, with the standard
library's tracer, and prints per file the executable lines, the lines no
root runs and the lines only tier-1 runs, then those tier-1-only lines.
The roots are what a user runs: the four console scripts on both transport
backends with each flag that selects a path, every example and the README's
Python blocks on both backends, every bench (``pytest benchmarks``, the
script-only benches and the gated suite, smoke and each workload at full
size with its per-layer probes) and the figure modules' ``__main__`` blocks.
The symbol-level walk in ``test_package_reach.py`` proves every function
has a caller; this script finds the branches inside live functions that
no program takes.

Every Python process a root starts is traced.  A ``usercustomize`` module
under a temporary ``PYTHONUSERBASE`` installs the tracer at interpreter
start-up; the user site reaches children whose environment rebuilds
``PYTHONPATH``, where a ``sitecustomize`` on ``PYTHONPATH`` would not.
Forked process-backend ranks inherit the tracer and leave through
``os._exit``, which skips ``atexit``, so the hook wraps ``os._exit`` to
write the process's line set first.  Line sets, inputs and the roots'
outputs live in a temporary directory, so the checkout stays as it was
(the gated suite keeps its own ignored ``.bench_work``/``.bench_out``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import sysconfig
import tempfile
import time
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
BACKENDS = ("thread", "process")

#: the tracer every traced interpreter installs at start-up
HOOK = '''\
import atexit, json, os, sys, tempfile, threading

_OUT, _PREFIX = {out!r}, {prefix!r}
_lines = {{}}


def _local(frame, event, arg):
    if event == "line":
        _lines.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(_PREFIX) else None


def _dump():
    fd, path = tempfile.mkstemp(dir=_OUT, suffix=".json")
    with os.fdopen(fd, "w") as fh:
        json.dump({{name: sorted(lines) for name, lines in _lines.items()}}, fh)


def _exit(code, _real=os._exit):
    _dump()
    _real(code)


os._exit = _exit
atexit.register(_dump)
sys.settrace(_global)
threading.settrace(_global)
'''


def executable_lines() -> dict[str, set[int]]:
    """File -> the lines its compiled code objects carry, for every module
    under ``src/repro``."""
    table = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            lines.update(line for _, _, line in code.co_lines() if line)
            stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        table[str(path)] = lines
    return table


def trace(commands: list[tuple[str, list[str], dict]], work: Path) -> dict[str, set[int]]:
    """Run each ``(label, argv, env)`` in its own directory under ``work``
    with every Python process it starts traced; returns file -> lines run
    under ``src/repro``.  A command that fails is reported, and its lines
    still count."""
    userbase, out = work / "userbase", work / "lines"
    site = Path(sysconfig.get_path("purelib", f"{os.name}_user", vars={"userbase": str(userbase)}))
    site.mkdir(parents=True)
    out.mkdir()
    (site / "usercustomize.py").write_text(HOOK.format(out=str(out), prefix=f"{PACKAGE}{os.sep}"))
    base_env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_MPI_")}
    base_env.update(PYTHONUSERBASE=str(userbase), PYTHONPATH=str(SRC))
    for i, (label, argv, env) in enumerate(commands):
        cwd = work / f"run{i:03d}"
        cwd.mkdir()
        t0 = time.monotonic()
        proc = subprocess.run(argv, cwd=cwd, env={**base_env, **env},
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        status = "ok" if proc.returncode == 0 else f"FAILED ({proc.returncode})"
        print(f"  {time.monotonic() - t0:6.1f}s  {status:<12} {label}", file=sys.stderr, flush=True)
        if proc.returncode:
            print("\n".join(proc.stderr.splitlines()[-5:]), file=sys.stderr)
    merged = defaultdict(set)
    for dump in out.iterdir():
        for name, lines in json.loads(dump.read_text()).items():
            merged[name].update(lines)
    return dict(merged)


def _inputs(data: Path) -> None:
    """FASTA and matrix inputs of the console-script roots, made in this
    (untraced) process."""
    sys.path.insert(0, str(SRC))
    import numpy as np

    from repro.bio import (random_protein, shred_records, synthetic_community,
                           synthetic_nt_database, write_fasta)
    from repro.bio.seq import SeqRecord
    from repro.core.mrsom.mmap_input import write_matrix_file

    com = synthetic_community(n_genomes=3, genome_length=2000, seed=47)
    write_fasta(synthetic_nt_database(com, n_decoys=2, decoy_length=1200,
                                      homolog_rate=0.05, seed=48), data / "nt.fasta")
    reads = list(shred_records(com.genomes))[:8]
    write_fasta(reads[:4], data / "q0.fasta")
    write_fasta(reads[4:], data / "q1.fasta")
    write_fasta(reads, data / "all.fasta")
    families = [random_protein(200, seed_or_rng=10 + f) for f in range(3)]
    write_fasta([SeqRecord(f"fam{f}_m{m}", anc) for f, anc in enumerate(families)
                 for m in range(2)], data / "aa.fasta")
    write_fasta([SeqRecord(f"p{f}", anc[20:180]) for f, anc in enumerate(families)],
                data / "p.fasta")
    write_matrix_file(str(data / "v.mat"), np.random.default_rng(0).random((200, 8)))
    sys.path.insert(0, str(ROOT / "tests"))
    from test_readme_snippets import python_blocks

    (data / "readme.py").write_text("\n".join(python_blocks()))


def roots(data: Path) -> list[tuple[str, list[str], dict]]:
    """Every program root, as ``(label, argv, env)``."""
    py = sys.executable
    d = str(data)
    cmds = [
        ("formatdb nt", [py, "-m", "repro.blast.formatdb", "-i", f"{d}/nt.fasta",
                         "-o", f"{d}/nt", "-n", "nt", "-v", "3000"], {}),
        ("formatdb -p", [py, "-m", "repro.blast.formatdb", "-i", f"{d}/aa.fasta",
                         "-o", f"{d}/aa", "-n", "aa", "-p", "-v", "1024"], {}),
    ]
    nt, aa = f"{d}/nt/nt.pal.json", f"{d}/aa/aa.pal.json"
    blocks = ["--queries", f"{d}/q0.fasta", f"{d}/q1.fasta"]
    for backend in BACKENDS:
        out = f"{d}/mrblast-{backend}"
        mrblast = [py, "-m", "repro.core.mrblast.cli", "--db", nt, "--np", "3",
                   "--backend", backend, "--evalue", "1e-5"]
        for flags in ([*blocks, "--out", out],
                      [*blocks, "--out", out, "--resume"],
                      [*blocks, "--trace", "trace.json"],
                      [*blocks, "--faults", "crash=1@10", "--retries", "2", "--no-degraded"],
                      [*blocks, "--faults", "crash=1@8"],  # dies mid-map: degraded
                      [*blocks, "--speculate", "2.0"],
                      [*blocks, "--locality"],
                      [*blocks, "--blocks-per-iteration", "1"],
                      ["--query-fasta", f"{d}/all.fasta", "--out", f"{out}-dyn"],
                      ["--query-fasta", f"{d}/all.fasta", "--out", f"{out}-dyn", "--resume"]):
            cmds.append((f"mrblast {backend} {' '.join(flags)}", mrblast + flags, {}))
        for program, queries in (("blastp", "p.fasta"), ("blastx", "q0.fasta")):
            cmds.append((f"mrblast {backend} --program {program}",
                         [py, "-m", "repro.core.mrblast.cli", "--db", aa, "--np", "3",
                          "--backend", backend, "--program", program,
                          "--queries", f"{d}/{queries}"], {}))
        mrsom = [py, "-m", "repro.core.mrsom.cli", "--input", f"{d}/v.mat", "--rows", "5",
                 "--cols", "5", "--epochs", "3", "--np", "3", "--backend", backend]
        ck = ["--checkpoint-dir", f"{d}/ck-{backend}"]
        for flags in (["--init", "linear"], ["--init", "random"], ["--trace", "trace.json"],
                      ["--speculate", "2.0"],
                      # small units: a worker dies mid-map, so the run ends degraded
                      ["--block-rows", "5", "--faults", "crash=1@20"],
                      [*ck, "--faults", "crash=1@10", "--retries", "2", "--no-degraded"],
                      [*ck, "--resume"]):
            cmds.append((f"mrsom {backend} {' '.join(flags)}", mrsom + flags, {}))
        serve = [py, "-m", "repro.serve.cli", "--db", nt, "--queries", f"{d}/all.fasta",
                 "--np", "2", "--backend", backend, "--evalue", "1e-4"]
        for flags in ([],
                      ["--max-batch", "4", "--ledger", "ledger.json"],
                      ["--metrics", "metrics.json"]):
            cmds.append((f"mrblast-serve {backend} {' '.join(flags)}", serve + flags, {}))
        env = {"REPRO_MPI_BACKEND": backend}
        for example in sorted((ROOT / "examples").glob("*.py")):
            cmds.append((f"examples/{example.name} {backend}", [py, str(example)], env))
        cmds.append((f"README snippets {backend}", [py, f"{d}/readme.py"], env))
    for module in ("report", "plots", "export"):
        cmds.append((f"repro.figures.{module}", [py, "-m", f"repro.figures.{module}", "fig"], {}))
    bench = ROOT / "benchmarks"
    cmds += [
        ("pytest benchmarks", [py, "-m", "pytest", "-q", str(bench), "--benchmark-disable"], {}),
        ("serve_job_budget.py", [py, str(bench / "serve_job_budget.py"),
                                 "--seed", "2011", "--jobs", "4"], {}),
        ("bench_shuffle.py", [py, str(bench / "bench_shuffle.py"), "--ranks", "1", "2"], {}),
        ("suite --smoke", [py, str(bench / "suite" / "run.py"), "--smoke"], {}),
    ]
    for workload in ("blastn_batch", "mr_shuffle", "som_batch", "serve_paced"):
        cmds.append((f"suite {workload} --trace 1",
                     [py, str(bench / "suite" / "run.py"), "--workload", workload,
                      "--trace", "1", "--seconds", "2"], {}))
    return cmds


TIER1 = [("tier-1", [sys.executable, "-m", "pytest", "-q", str(ROOT / "tests")], {})]


def _ranges(lines: list[int]) -> list[tuple[int, int]]:
    spans: list[tuple[int, int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1] = (spans[-1][0], line)
        else:
            spans.append((line, line))
    return spans


def report(exe: dict[str, set[int]], by_roots: dict[str, set[int]],
           by_tests: dict[str, set[int]]) -> None:
    """Per-file and per-package counts, then the tier-1-only lines."""
    totals = defaultdict(lambda: [0, 0, 0])
    print(f"{'file':<44}{'exec':>7}{'no root':>9}{'tier-1 only':>13}")
    for name, lines in exe.items():
        rel = os.path.relpath(name, PACKAGE)
        unrun = lines - by_roots.get(name, set())
        only = unrun & by_tests.get(name, set())
        counts = (len(lines), len(unrun), len(only))
        for key in (rel.split(os.sep)[0] if os.sep in rel else "(top)", "total"):
            totals[key] = [a + b for a, b in zip(totals[key], counts)]
        if unrun:
            print(f"{rel:<44}{counts[0]:>7}{counts[1]:>9}{counts[2]:>13}")
    print()
    for key, (n, unrun, only) in sorted(totals.items(), key=lambda kv: kv[0] == "total"):
        print(f"{key:<44}{n:>7}{unrun:>9}{only:>13}")
    print("\nlines only tier-1 runs (first line of each run shown):")
    for name, lines in exe.items():
        only = sorted((lines - by_roots.get(name, set())) & by_tests.get(name, set()))
        if not only:
            continue
        text = Path(name).read_text().splitlines()
        rel = os.path.relpath(name, ROOT)
        for lo, hi in _ranges(only):
            span = f"{lo}" if lo == hi else f"{lo}-{hi}"
            print(f"{rel}:{span:<10} {text[lo - 1].strip()[:80]}")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="line_reach-") as tmp:
        work = Path(tmp)
        data = work / "data"
        data.mkdir()
        _inputs(data)
        print("tracing the program roots", file=sys.stderr)
        by_roots = trace(roots(data), work / "roots")
        print("tracing tier-1", file=sys.stderr)
        by_tests = trace(TIER1, work / "tier1")
    report(executable_lines(), by_roots, by_tests)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
