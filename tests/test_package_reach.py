"""Every module of the shipped package has a caller outside the test suite.

The roots are what a user runs: the ``[project.scripts]`` entry points,
every ``src/`` module with a ``__main__`` block, and every file under
``benchmarks/`` and ``examples/``.  From them the test follows the static
import graph (function-local imports included, since the package imports
lazily) and asserts that it reaches every module under ``src/repro``.  A
module only the tests import is an oracle and belongs in ``tests/oracles``.

A package's ``__init__`` re-exports names, and a re-export is not a
caller: ``from pkg import Name`` reaches the module that defines ``Name``
(following the chain of re-exports), not every module ``pkg/__init__``
happens to import.  An ``__init__`` import counts as a re-export unless
the ``__init__`` itself uses the bound name.
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


def _from_imports(tree: ast.AST, package: str):
    """``(module, alias)`` of every ``from module import ...`` in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                module = f"{base}.{module}" if module else base
            for alias in node.names:
                yield module, alias


def _reexports(modules: dict[str, Path]) -> dict[str, dict[str, tuple[str, str]]]:
    """Package -> {bound name: (module, name) it is imported from} for the
    names its ``__init__`` imports without using them itself."""
    table = {}
    for name, path in modules.items():
        if path.name != "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        table[name] = {
            alias.asname or alias.name: (module, alias.name)
            for module, alias in _from_imports(tree, name)
            if (alias.asname or alias.name) not in used
        }
    return table


def _defining_module(module: str, name: str, reexports: dict) -> str:
    """The module ``from module import name`` loads ``name`` from."""
    while (module, name) != (hop := reexports.get(module, {}).get(name, (module, name))):
        module, name = hop
    return module


def _imported_names(tree: ast.AST, package: str, reexports: dict,
                    own: dict) -> set[str]:
    """Dotted names a module's import statements may load, anywhere in it.

    ``from a import b`` yields ``a``, ``a.b`` (``b`` may be a submodule)
    and the module ``b`` is re-exported from; names that are not modules
    are dropped by the caller.  The names in ``own`` (a package
    ``__init__``'s re-exports) yield nothing.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    for module, alias in _from_imports(tree, package):
        if (alias.asname or alias.name) in own:
            continue
        names.add(module)
        names.add(f"{module}.{alias.name}")
        names.add(_defining_module(module, alias.name, reexports))
    return names


def _reached(roots: list[Path], modules: dict[str, Path]) -> set[str]:
    """Package modules the root files are or import, directly or not."""
    name_of = {path: name for name, path in modules.items()}
    reexports = _reexports(modules)
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
        for imported in _imported_names(ast.parse(path.read_text()), package,
                                        reexports, reexports.get(name, {})):
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

