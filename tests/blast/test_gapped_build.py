"""The compiled engine kernels' build contract.

``repro.blast._native`` compiles ``_engine.c`` (stage 1's scan, run
grouping and trigger walk, stage 2's ungapped X-drop, stage 3's gapped DP)
once per source hash into a cache directory and loads it with ``ctypes``
when it is imported.  These tests hold: one compile on a cold cache and
none on a warm one (the compiler is stubbed by patching
``_native.compile_command``), none in a process-backend rank, a package
that still imports without a compiler and names the failed command on the
first scan, ungapped or gapped call, a source that compiles clean under
``-Wall -Wextra -Werror``, thread-backend ranks that run the kernels side
by side with serial results, and inputs the kernels could not index
refused rather than read.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.bio import SeqRecord, mutate_dna, random_genome
from repro.bio.alphabet import DNA, PROTEIN
from repro.blast import BlastOptions, _native, make_engine
from repro.blast.extend import extend_ungapped
from repro.blast.gapped import extend_gapped_batch
from repro.blast.lookup import NucleotideLookup, ProteinLookup, QueryBlock
from repro.blast.matrices import nucleotide_matrix
from repro.mpi import run_spmd

SOURCE = _native.SOURCE
SRC_ROOT = Path(_native.__file__).resolve().parents[2]
KERNELS = ("scan", "group_runs", "next_triggers", "ungapped", "gapped_dp")
NT = nucleotide_matrix(1, -2)
ARGS = (NT, 5, 2, 30.0, 24)


def _batch(seed, n=6):
    rng = np.random.default_rng(seed)
    seeds = []
    for _ in range(n):
        base = random_genome(int(rng.integers(150, 300)), seed_or_rng=int(rng.integers(2**31)))
        q = DNA.encode(base)
        s = DNA.encode(mutate_dna(base, 0.05, seed_or_rng=int(rng.integers(2**31))))
        mid = int(q.size // 2)
        seeds.append((q, s, mid, min(mid, int(s.size))))
    return seeds


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty cache directory, and a record of every compile command run."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    calls = []
    real = _native.compile_command

    def counted(source, output):
        calls.append(output)
        return real(source, output)

    monkeypatch.setattr(_native, "compile_command", counted)
    return calls


class _Partition:
    """In-memory stand-in for a DB partition (iteration + stats)."""

    def __init__(self, records):
        self._codes = [(r.id, DNA.encode(r.seq)) for r in records]
        self.total_length = sum(len(r.seq) for r in records)
        self.num_seqs = len(records)

    def __iter__(self):
        return iter(self._codes)


def _search_case(seed):
    """Reads cut from a genome with mutations, and a partition holding the
    genome and a decoy: every stage of the engine runs."""
    genome = random_genome(3000, seed_or_rng=seed)
    reads = [SeqRecord(f"r{i}", mutate_dna(genome[400 * i:400 * i + 300], 0.04,
                                           seed_or_rng=seed + i)) for i in range(4)]
    subjects = [SeqRecord("g", genome), SeqRecord("d", random_genome(2000, seed_or_rng=seed + 9))]
    return reads, _Partition(subjects)


def _search(comm, case):
    reads, partition = case
    return make_engine(BlastOptions.blastn()).search_block(reads, partition)


def test_a_cold_cache_compiles_exactly_once(cold_cache, tmp_path):
    first = _native.load(SOURCE)
    again = _native.load(SOURCE)
    assert len(cold_cache) == 1
    assert all(getattr(lib, name) for lib in (first, again) for name in KERNELS)
    (library,) = (tmp_path / "cache" / "repro").glob("*.so")
    assert library == _native.library_path(SOURCE, tmp_path / "cache" / "repro")
    # The build landed by rename: no temporary file is left behind.
    assert not list((tmp_path / "cache" / "repro").glob("*.tmp"))


def test_concurrent_loads_of_a_cold_cache_compile_once(cold_cache):
    errors = []

    def load():
        try:
            _native.load(SOURCE)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=load) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(cold_cache) == 1


def test_a_warm_cache_loads_without_the_compiler(cold_cache, monkeypatch):
    _native.load(SOURCE)

    def no_compiler(source, output):
        raise AssertionError("the compiler ran on a warm cache")

    monkeypatch.setattr(_native, "compile_command", no_compiler)
    assert all(getattr(_native.load(SOURCE), name) for name in KERNELS)


def _rank_extends(comm, seeds):
    return extend_gapped_batch(seeds, *ARGS), _search(comm, _search_case(5))


def test_process_backend_ranks_never_invoke_the_compiler(tmp_path, monkeypatch):
    """Ranks fork from a process that loaded the kernels at import: with an
    empty cache and a compiler that leaves a mark, no rank compiles, and
    every kernel runs in them."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    mark = tmp_path / "compiled"

    def marking(source, output):
        mark.write_text(output)
        raise AssertionError("a rank ran the compiler")

    monkeypatch.setattr(_native, "compile_command", marking)
    seeds = _batch(1)
    got = run_spmd(2, _rank_extends, seeds, backend="process")
    want = (extend_gapped_batch(seeds, *ARGS), _search(None, _search_case(5)))
    assert want[1], "the search must report hits"
    assert got == [want, want]
    assert not mark.exists()
    assert not (tmp_path / "cache").exists()


def test_a_failing_compiler_is_named_on_the_first_gapped_call(cold_cache, monkeypatch):
    """A compiler that fails: loading reports the command and its stderr,
    and the first scan, ungapped, gapped or whole-search call raises that
    report."""
    stub = [sys.executable, "-c", "import sys; sys.stderr.write('cc: no such compiler'); sys.exit(1)"]
    monkeypatch.setattr(_native, "compile_command", lambda source, output: stub)
    library, error = _native._open()
    assert library is None
    assert "cc: no such compiler" in error and "exited 1" in error
    assert sys.executable in error
    monkeypatch.setattr(_native, "LIBRARY", library)
    monkeypatch.setattr(_native, "ERROR", error)
    q = DNA.encode("ACGT" * 10)
    lookup = NucleotideLookup(QueryBlock([SeqRecord("q", "ACGT" * 10)], "blastn", False))
    calls = [
        lambda: extend_gapped_batch(_batch(2, n=1), *ARGS),
        lambda: lookup.scan(q),
        lambda: extend_ungapped(q, q, np.array([[0], [40]]), np.array([[0], [0], [0]]),
                                11, NT, 20.0),
        lambda: _search(None, _search_case(2)),
    ]
    for call in calls:
        with pytest.raises(RuntimeError, match="cc: no such compiler"):
            call()


def test_without_a_compiler_the_package_imports(tmp_path):
    """With ``CC`` naming no program and an empty cache, ``import repro``
    and the layers that never gap-extend work, and the first gapped call
    raises the named error."""
    script = """
import sysconfig
sysconfig.get_config_vars()["CC"] = "/nonexistent/cc"
import numpy as np
import repro, repro.mpi, repro.mrmpi, repro.som, repro.core
from repro.bio import SeqRecord
from repro.blast.extend import extend_ungapped
from repro.blast.gapped import extend_gapped_batch
from repro.blast.lookup import NucleotideLookup, QueryBlock
from repro.blast.matrices import nucleotide_matrix
from repro.mpi import run_spmd
assert run_spmd(2, lambda comm: comm.allreduce(comm.rank)) == [1, 1]
q = np.zeros(20, dtype=np.uint8)
lookup = NucleotideLookup(QueryBlock([SeqRecord("q", "A" * 20)], "blastn", False))
for call in (
    lambda: lookup.scan(q),
    lambda: extend_ungapped(q, q, np.array([[0], [20]]), np.array([[0], [5], [5]]),
                            11, nucleotide_matrix(1, -2), 20.0),
    lambda: extend_gapped_batch([(q, q, 5, 5)], nucleotide_matrix(1, -2), 5, 2, 20.0, 8),
):
    try:
        call()
    except RuntimeError as exc:
        print("RuntimeError:", exc)
"""
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"), "PYTHONPATH": str(SRC_ROOT)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3 and all(line.startswith("RuntimeError:") for line in lines)
    for line in lines:
        assert "/nonexistent/cc -O2 -shared -fPIC" in line
        assert "No such file or directory" in line


def test_the_source_compiles_clean_with_warnings_as_errors(tmp_path):
    out = tmp_path / "strict.so"
    cmd = [*_native.compiler(), *_native.CFLAGS, "-Wall", "-Wextra", "-Werror",
           "-o", str(out), str(SOURCE)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert out.exists()


def _rank_extends_its_own(comm, batches, cases):
    comm.Barrier()  # both ranks enter the kernels together
    return extend_gapped_batch(batches[comm.rank], *ARGS), _search(comm, cases[comm.rank])


def test_thread_ranks_extend_side_by_side_as_serial_calls_do():
    batches = [_batch(3, n=40), _batch(4, n=40)]
    cases = [_search_case(3), _search_case(4)]
    got = run_spmd(2, _rank_extends_its_own, batches, cases, backend="thread")
    assert got == [(extend_gapped_batch(b, *ARGS), _search(None, c))
                   for b, c in zip(batches, cases)]


def test_inputs_the_kernel_cannot_index_are_refused():
    """What the compiled kernel would read out of bounds never reaches it:
    a residue code outside the matrix, a matrix that is not square, a
    negative band."""
    q = np.array([0, 1, 2, 3, 0, 1, 2, 3], dtype=np.intp)
    bad = q.copy()
    bad[6] = NT.shape[0]
    with pytest.raises(ValueError, match="outside the scoring matrix"):
        extend_gapped_batch([(q, bad, 4, 4)], *ARGS)
    with pytest.raises(ValueError, match="outside the scoring matrix"):
        extend_gapped_batch([(bad, q, 4, 4)], *ARGS)
    with pytest.raises(ValueError, match="square"):
        extend_gapped_batch([(q, q, 4, 4)], NT[:3], 5, 2, 30.0, 24)
    with pytest.raises(ValueError, match="band"):
        extend_gapped_batch([(q, q, 4, 4)], NT, 5, 2, 30.0, -1)
    # Stage 2: a code the walk reaches outside the matrix.
    spans, hits = np.array([[0], [8]]), np.array([[0], [0], [0]])
    with pytest.raises(ValueError, match="outside the matrix"):
        extend_ungapped(bad, q, spans, hits, 4, NT, 100.0)
    # Stage 1: a nucleotide code outside ACGT is refused; a protein code
    # outside the 20 letters (ambiguity codes, or any byte) is never looked up.
    lookup = NucleotideLookup(QueryBlock([SeqRecord("q", "ACGTACGTACGT")], "blastn", False),
                              word_size=4)
    with pytest.raises(ValueError, match="outside the nucleotide alphabet"):
        lookup.scan(bad.astype(np.uint8))
    protein = ProteinLookup(QueryBlock([SeqRecord("p", "MKTAYIAK")], "blastp", False))
    codes = PROTEIN.encode("MKTAYIAK")
    assert protein.scan(codes)[0].size > 0
    codes[3] = 255
    want = [(qp, sp) for qp, sp in zip(*protein.scan(PROTEIN.encode("MKTAYIAK"))) if sp > 3 or sp < 1]
    assert list(zip(*protein.scan(codes))) == want
