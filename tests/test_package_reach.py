"""Every module of the shipped package has a caller outside the test suite.

The roots are what a user runs: the ``[project.scripts]`` entry points,
every ``src/`` module with a ``__main__`` block, and every file under
``benchmarks/`` and ``examples/``.  From them the test follows the static
import graph (function-local imports included, since the package imports
lazily) and asserts that it reaches every module under ``src/repro``.  A
module only the tests import is an oracle and belongs in ``tests/oracles``.
"""

from __future__ import annotations

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _package_modules() -> dict[str, Path]:
    """Dotted name -> file of every module under ``src/repro``."""
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _is_main_block(node: ast.stmt) -> bool:
    test = getattr(node, "test", None)
    return (isinstance(node, ast.If) and isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name) and test.left.id == "__name__"
            and any(isinstance(c, ast.Constant) and c.value == "__main__"
                    for c in test.comparators))


def _imported_names(tree: ast.AST, package: str) -> set[str]:
    """Dotted names a module's import statements may load, anywhere in it.

    ``from a import b`` yields ``a`` and ``a.b`` (``b`` may be a submodule);
    names that are not modules are dropped by the caller.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                module = f"{base}.{module}" if module else base
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def _reached(roots: list[Path], modules: dict[str, Path]) -> set[str]:
    """Package modules the root files are or import, directly or not."""
    name_of = {path: name for name, path in modules.items()}
    seen: set[str] = set()
    stack = [path for path in roots if path not in name_of]

    def load(name: str) -> None:
        # Loading a.b.c runs a/__init__ and a/b/__init__ first.
        parts = name.split(".")
        for i in range(1, len(parts) + 1):
            prefix = ".".join(parts[:i])
            if prefix in modules and prefix not in seen:
                seen.add(prefix)
                stack.append(modules[prefix])

    for path in roots:
        if path in name_of:
            load(name_of[path])
    while stack:
        path = stack.pop()
        name = name_of.get(path, "")
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        for imported in _imported_names(ast.parse(path.read_text()), package):
            load(imported)
    return seen


def _roots(modules: dict[str, Path]) -> list[Path]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    roots = [modules[target.split(":")[0]] for target in scripts.values()]
    roots += [path for path in modules.values()
              if any(_is_main_block(node) for node in ast.parse(path.read_text()).body)]
    for folder in ("benchmarks", "examples"):
        roots += sorted((ROOT / folder).rglob("*.py"))
    return roots


def test_every_package_module_has_a_caller_outside_the_tests():
    modules = _package_modules()
    reached = _reached(_roots(modules), modules)
    unreached = sorted(set(modules) - reached)
    assert not unreached, (
        f"modules only the tests import (move them to tests/oracles): {unreached}")

