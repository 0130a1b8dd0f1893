"""The compiled gapped kernel's build contract.

``repro.blast._native`` compiles ``_gapped.c`` once per source hash into a
cache directory and loads it with ``ctypes`` when ``repro.blast.gapped`` is
imported.  These tests hold: one compile on a cold cache and none on a warm
one (the compiler is stubbed by patching ``_native.compile_command``), none
in a process-backend rank, a package that still imports without a
compiler, a source that compiles clean under ``-Wall -Wextra -Werror``,
thread-backend ranks that run the kernel side by side with serial results,
and inputs the kernel could not index refused before it runs.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.blast.gapped as gapped
from repro.bio import mutate_dna, random_genome
from repro.bio.alphabet import DNA
from repro.blast import _native
from repro.blast.gapped import extend_gapped_batch
from repro.blast.matrices import nucleotide_matrix
from repro.mpi import run_spmd

SOURCE = Path(gapped.__file__).with_name("_gapped.c")
SRC_ROOT = Path(gapped.__file__).resolve().parents[2]
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


def test_a_cold_cache_compiles_exactly_once(cold_cache, tmp_path):
    first = _native.load(SOURCE)
    again = _native.load(SOURCE)
    assert len(cold_cache) == 1
    assert first.gapped_dp and again.gapped_dp
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
    assert _native.load(SOURCE).gapped_dp


def _rank_extends(comm, seeds):
    return extend_gapped_batch(seeds, *ARGS)


def test_process_backend_ranks_never_invoke_the_compiler(tmp_path, monkeypatch):
    """Ranks fork from a process that loaded the kernel at import: with an
    empty cache and a compiler that leaves a mark, no rank compiles."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    mark = tmp_path / "compiled"

    def marking(source, output):
        mark.write_text(output)
        raise AssertionError("a rank ran the compiler")

    monkeypatch.setattr(_native, "compile_command", marking)
    seeds = _batch(1)
    got = run_spmd(2, _rank_extends, seeds, backend="process")
    want = extend_gapped_batch(seeds, *ARGS)
    assert got == [want, want]
    assert not mark.exists()
    assert not (tmp_path / "cache").exists()


def test_a_failing_compiler_is_named_on_the_first_gapped_call(cold_cache, monkeypatch):
    """A compiler that fails: loading reports the command and its stderr,
    and ``extend_gapped_batch`` raises that report."""
    stub = [sys.executable, "-c", "import sys; sys.stderr.write('cc: no such compiler'); sys.exit(1)"]
    monkeypatch.setattr(_native, "compile_command", lambda source, output: stub)
    kernel, error = gapped._load_kernel()
    assert kernel is None
    assert "cc: no such compiler" in error and "exited 1" in error
    assert sys.executable in error
    monkeypatch.setattr(gapped, "_KERNEL", kernel)
    monkeypatch.setattr(gapped, "_KERNEL_ERROR", error)
    with pytest.raises(RuntimeError, match="cc: no such compiler"):
        extend_gapped_batch(_batch(2, n=1), *ARGS)


def test_without_a_compiler_the_package_imports(tmp_path):
    """With ``CC`` naming no program and an empty cache, ``import repro``
    and the layers that never gap-extend work, and the first gapped call
    raises the named error."""
    script = """
import sysconfig
sysconfig.get_config_vars()["CC"] = "/nonexistent/cc"
import numpy as np
import repro, repro.mpi, repro.mrmpi, repro.som, repro.core
from repro.blast.gapped import extend_gapped_batch
from repro.blast.matrices import nucleotide_matrix
from repro.mpi import run_spmd
assert run_spmd(2, lambda comm: comm.allreduce(comm.rank)) == [1, 1]
q = np.zeros(10, dtype=np.intp)
try:
    extend_gapped_batch([(q, q, 5, 5)], nucleotide_matrix(1, -2), 5, 2, 20.0, 8)
except RuntimeError as exc:
    print("RuntimeError:", exc)
"""
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"), "PYTHONPATH": str(SRC_ROOT)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("RuntimeError:")
    assert "/nonexistent/cc -O2 -shared -fPIC" in proc.stdout
    assert "No such file or directory" in proc.stdout


def test_the_source_compiles_clean_with_warnings_as_errors(tmp_path):
    out = tmp_path / "strict.so"
    cmd = [*_native.compiler(), *_native.CFLAGS, "-Wall", "-Wextra", "-Werror",
           "-o", str(out), str(SOURCE)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert out.exists()


def _rank_extends_its_own(comm, batches):
    comm.Barrier()  # both ranks enter the kernel together
    return extend_gapped_batch(batches[comm.rank], *ARGS)


def test_thread_ranks_extend_side_by_side_as_serial_calls_do():
    batches = [_batch(3, n=40), _batch(4, n=40)]
    got = run_spmd(2, _rank_extends_its_own, batches, backend="thread")
    assert got == [extend_gapped_batch(b, *ARGS) for b in batches]


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
