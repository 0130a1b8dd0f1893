"""The line-reach script's tracer follows a root into the processes it starts.

``tests/line_reach.py`` is run by hand; the parts of it that would rot
without notice are the two ways a line set leaves a process other than the
root itself: a forked process-backend rank writes its set from the
``os._exit`` wrapper, and a child interpreter picks the tracer up from the
``usercustomize`` hook under ``PYTHONUSERBASE``.
"""

import inspect
import sys

import line_reach

from repro.core.mrsom import cli as mrsom_cli
from repro.mpi import process

ROOT_SCRIPT = """\
import subprocess, sys
from repro.mpi import run_spmd


def rank(comm):
    return comm.rank


assert run_spmd(2, rank, backend="process") == [0, 1]
subprocess.run([sys.executable, "-m", "repro.core.mrsom.cli", "--help"],
               check=True, stdout=subprocess.DEVNULL)
"""


def _line_of(fn, text: str) -> int:
    """Line number of the first line of ``fn`` that contains ``text``."""
    lines, first = inspect.getsourcelines(fn)
    return first + next(i for i, line in enumerate(lines) if text in line)


def test_forked_ranks_and_child_interpreters_reach_the_merged_set(tmp_path):
    root = tmp_path / "root.py"
    root.write_text(ROOT_SCRIPT)
    merged = line_reach.trace([("root", [sys.executable, str(root)], {})], tmp_path / "work")
    # Only a forked rank runs _child_main; it leaves through os._exit.
    assert _line_of(process._child_main, "run_rank(") in merged[process.__file__]
    # Only the child interpreter builds mrsom's parser.
    assert _line_of(mrsom_cli.build_parser, "--block-rows") in merged[mrsom_cli.__file__]
    # The tracer keeps lines of src/repro only.
    assert all(name.startswith(str(line_reach.PACKAGE)) for name in merged)
