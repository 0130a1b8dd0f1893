"""Build, load and call the engine's C kernels (``_engine.c``) with ``ctypes``.

The source is compiled once per content checksum with ``sysconfig``'s C compiler
(``CC``) at :data:`CFLAGS` and the shared library is cached under
``$XDG_CACHE_HOME/repro`` (``~/.cache/repro``), or under a private temp
directory when that is not writable.  The cache key also covers the
compiler command, the compiler binary's size and modification time (a new
compiler version is a new binary), the flags and the platform, so a warm
cache never runs the compiler.  One process builds a missing library
while others wait on a lock file beside it, and the build lands by atomic
rename, so a library is compiled at most once per cache and nobody loads
a partial one.  The library is loaded once, at import (:data:`LIBRARY`),
and every kernel is run through :func:`call`.
"""

from __future__ import annotations

import ctypes
import fcntl
import os
import shlex
import shutil
import sysconfig
import tempfile
import zlib
from pathlib import Path

import numpy as np

CFLAGS = ("-O2", "-shared", "-fPIC")
SOURCE = Path(__file__).with_name("_engine.c")


def compiler() -> list[str]:
    """The C compiler command Python was configured with."""
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def compile_command(source: str, output: str) -> list[str]:
    """The command that builds ``source`` into the shared library ``output``."""
    return [*compiler(), *CFLAGS, "-o", output, source]


def cache_dir() -> Path:
    """The user's cache directory for built kernels, or a private temp one."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    path = Path(root) / "repro"
    try:
        path.mkdir(parents=True, exist_ok=True)
        if os.access(path, os.W_OK | os.X_OK):
            return path
    except OSError:
        pass
    return Path(tempfile.mkdtemp(prefix="repro-kernels-"))


def library_path(source: Path, directory: Path) -> Path:
    """Where the library built from ``source`` is cached in ``directory``."""
    cc = compiler()
    binary = shutil.which(cc[0]) if cc else None
    stat = os.stat(binary) if binary else None
    setup = "\0".join((
        shlex.join(cc),
        f"{binary} {stat.st_size} {stat.st_mtime_ns}" if stat else "no compiler",
        shlex.join(CFLAGS),
        sysconfig.get_platform(),
    ))
    # Two 32-bit checksums, not hashlib: importing hashlib maps OpenSSL
    # (3.5 MiB of resident memory) into every process that imports the
    # package, forked ranks included.
    data = source.read_bytes() + b"\0" + setup.encode()
    return directory / f"{source.stem}-{zlib.crc32(data):08x}{zlib.adler32(data):08x}.so"


def build(source: Path, target: Path) -> None:
    """Compile ``source`` to ``target``; :class:`RuntimeError` names the
    command and the compiler's stderr if that fails."""
    # Imported here: half a MiB of resident memory that only a cache miss,
    # which runs the compiler, needs.
    import subprocess

    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.stem}-", suffix=".tmp")
    os.close(fd)
    cmd = compile_command(str(source), tmp)
    try:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise RuntimeError(f"cannot build {source.name}: `{shlex.join(cmd)}` "
                               f"did not run: {exc}") from exc
        if proc.returncode:
            raise RuntimeError(f"cannot build {source.name}: `{shlex.join(cmd)}` exited "
                               f"{proc.returncode}:\n{proc.stderr.strip()}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load(source: Path) -> ctypes.CDLL:
    """The shared library of ``source``, built first on a cache miss."""
    target = library_path(source, cache_dir())
    if not target.exists():
        with open(target.with_suffix(".lock"), "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            if not target.exists():
                build(source, target)
    return ctypes.CDLL(str(target))


def _open() -> tuple[ctypes.CDLL | None, str | None]:
    """The engine library, or ``None`` and why it could not be built."""
    try:
        return load(SOURCE), None
    except (RuntimeError, OSError) as exc:
        return None, str(exc)


# Built and loaded at import: a process-backend rank inherits the library
# from the process that forked it, and no timed region compiles.  Without a
# compiler the package still imports, and the first kernel call raises.
LIBRARY, ERROR = _open()


def _address(a: np.ndarray) -> int:
    """Where ``a``'s data starts: through the buffer protocol when ``a`` is
    writable (a third of the cost of ``a.ctypes.data``), else numpy's."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):  # read-only, or empty
        return a.ctypes.data


def call(name: str, *args) -> int:
    """Run the kernel ``name`` on int64 arguments, arrays passed by address.

    Every array must be C-contiguous and of the type the kernel reads.
    ctypes releases the GIL for the call.  Raises :class:`RuntimeError`,
    naming the compile command and its stderr, if the library did not build.
    """
    if LIBRARY is None:
        raise RuntimeError(f"the engine kernels are not available: {ERROR}")
    fn = getattr(LIBRARY, name)
    if fn.argtypes is None:
        fn.restype = ctypes.c_int64
        fn.argtypes = [ctypes.c_int64] * len(args)
    return fn(*[_address(a) if isinstance(a, np.ndarray) else a for a in args])
