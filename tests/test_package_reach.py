"""Every module, function, class and method of the shipped package has a
caller outside the test suite.

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

The second test goes one level down, to definitions, with the README's
Python snippets as one more root; its rules are written out above
``ALLOWLIST``.

A walk over names cannot see a dead branch inside a live function, nor a
method reached only because some other object has a method of the same
name.  ``tests/line_reach.py`` (run by hand) traces the same roots line by
line and prints the lines of ``src/`` that only the tests run.
"""

from __future__ import annotations

import ast
import tomllib
from pathlib import Path

from test_readme_snippets import python_blocks

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


# --- definitions -----------------------------------------------------------
#
# The same roots, one level down: every top-level function and class of a
# ``src/`` module, and every method of such a class, is reached from them.
# Reached code is the module-level statements of reached modules, the body
# of every reached class (bases, decorators, class-level statements) and the
# body of every reached def, worked to a fixed point.  A top-level def is
# reached when reached code names it (a ``Name``, an import alias outside a
# package ``__init__``, or ``module.attr``); a method when its class is
# reached and reached code reads ``.name`` or passes ``"name"`` as the
# literal second argument of ``getattr``/``hasattr``/``setattr``.  Dunders
# are always reached.  ``__all__`` strings, ``__init__`` re-exports,
# keyword-argument names and other string constants are not references.

#: definitions kept without a caller in the programs, each for a reason
ALLOWLIST = frozenset({
    "Get_rank",    # mpi4py mirror (DESIGN.md §2): Comm keeps mpi4py's names
    "Get_size",    # mpi4py mirror
    "Get_source",  # mpi4py mirror: Status
    "Get_tag",     # mpi4py mirror: Status
    "Get_count",   # mpi4py mirror: Status
    "merge_snapshots",    # the benchmark suite is to read rank snapshots through it
    "exclude_self_hits",  # docs/PAPER_MAP.md maps the paper's self-hit exclusion to it
    "reducer_override",   # pickle.Pickler hook: pickle calls it, not the package
})

_DEF = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_ATTR_CALLS = {"getattr", "hasattr", "setattr"}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class _Source:
    """One parsed file: its top-level defs and the names its imports bind."""

    def __init__(self, name: str, text: str, is_init: bool, modules: set[str]):
        self.name, self.is_init = name, is_init
        self.package = name if is_init else name.rpartition(".")[0]
        self.tree = ast.parse(text)
        self.defs: dict[str, ast.AST] = {}
        stack = list(self.tree.body)
        while stack:  # defs under a module-level if/try/with are top-level too
            node = stack.pop()
            if isinstance(node, _DEF):
                self.defs[node.name] = node
            elif isinstance(node, (ast.If, ast.Try, ast.With)):
                stack += [n for n in ast.iter_child_nodes(node) if isinstance(n, ast.stmt)]
        #: local name -> ("module", dotted) or ("symbol", module, name)
        self.bindings: dict[str, tuple] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.bindings[alias.asname] = ("module", alias.name)
                    else:
                        top = alias.name.partition(".")[0]
                        self.bindings[top] = ("module", top)
        for module, alias in _from_imports(self.tree, self.package):
            full = f"{module}.{alias.name}"
            self.bindings[alias.asname or alias.name] = (
                ("module", full) if full in modules else ("symbol", module, alias.name))


class _Reach:
    """The fixed point: which defs of ``sources`` the roots reach."""

    def __init__(self, sources: dict[str, _Source], allow: frozenset = frozenset()):
        self.sources = sources
        self.defs: dict[tuple[str, str], ast.AST] = {}
        self.methods: dict[str, list[tuple[str, str]]] = {}
        for src in sources.values():
            for name, node in src.defs.items():
                self.defs[src.name, name] = node
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            qual = f"{name}.{item.name}"
                            self.defs[src.name, qual] = item
                            self.methods.setdefault(item.name, []).append((src.name, qual))
        self.reached: set[tuple[str, str]] = set()
        self.loaded: set[str] = set()
        self.attrs: set[str] = set()
        self.queue: list[tuple[_Source, ast.AST, set[int]]] = []
        for name in allow:
            self.attr(name)
            for src in sources.values():
                self.mark((src.name, name))

    def run(self) -> None:
        while self.queue:
            self.scan(*self.queue.pop())

    def unreached(self) -> list[str]:
        """Unreached defs; a method only when its class is reached, since an
        unreached class is reported whole."""
        self.run()
        return sorted(f"{module}.{qual}" for module, qual in set(self.defs) - self.reached
                      if (module, qual.partition(".")[0]) in self.reached or "." not in qual)

    # -- growing the reached set ------------------------------------------

    def load(self, module: str) -> None:
        parts = module.split(".")
        for i in range(1, len(parts) + 1):
            prefix = ".".join(parts[:i])
            if prefix in self.sources and prefix not in self.loaded:
                self.loaded.add(prefix)
                src = self.sources[prefix]
                self.queue.append((src, src.tree, {id(n) for n in src.defs.values()}))

    def mark(self, key) -> None:
        if key is None or key in self.reached or key not in self.defs:
            return
        self.reached.add(key)
        node, src = self.defs[key], self.sources[key[0]]
        if isinstance(node, ast.ClassDef):
            skip = set()
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    skip.add(id(item))
                    if _dunder(item.name) or item.name in self.attrs:
                        self.mark((key[0], f"{node.name}.{item.name}"))
            self.queue.append((src, node, skip))
        else:
            self.queue.append((src, node, set()))

    def attr(self, name: str) -> None:
        if name in self.attrs:
            return
        self.attrs.add(name)
        for module, qual in self.methods.get(name, ()):
            if (module, qual.partition(".")[0]) in self.reached:
                self.mark((module, qual))

    def resolve(self, module: str, name: str):
        """The def ``from module import name`` binds, through re-imports."""
        for _ in range(16):
            src = self.sources.get(module)
            if src is None:
                return None
            if name in src.defs:
                return module, name
            binding = src.bindings.get(name)
            if binding is None or binding[0] == "module":
                return None
            module, name = binding[1], binding[2]
        return None

    # -- reading reached code ---------------------------------------------

    def module_of(self, expr: ast.AST, src: _Source) -> str | None:
        if isinstance(expr, ast.Name):
            binding = src.bindings.get(expr.id)
            return binding[1] if binding and binding[0] == "module" else None
        if isinstance(expr, ast.Attribute):
            base = self.module_of(expr.value, src)
            if base and f"{base}.{expr.attr}" in self.sources:
                return f"{base}.{expr.attr}"
        return None

    def scan(self, src: _Source, root: ast.AST, skip: set[int]) -> None:
        stack = [root]
        while stack:
            node = stack.pop()
            if id(node) in skip:
                continue
            stack.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                binding = src.bindings.get(node.id)
                if node.id in src.defs:
                    self.mark((src.name, node.id))
                elif binding and binding[0] == "symbol":
                    self.mark(self.resolve(binding[1], binding[2]))
            elif isinstance(node, ast.Attribute):
                self.attr(node.attr)
                base = self.module_of(node.value, src)
                if base:
                    self.load(f"{base}.{node.attr}")
                    self.mark(self.resolve(base, node.attr))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in _ATTR_CALLS and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)
                  and isinstance(node.args[1].value, str)):
                self.attr(node.args[1].value)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    self.load(alias.name)
            elif isinstance(node, ast.ImportFrom):
                for module, alias in _from_imports(node, src.package):
                    self.load(module)
                    self.load(f"{module}.{alias.name}")
                    if not src.is_init:  # a re-export is not a caller
                        self.mark(self.resolve(module, alias.name))


def unreached_defs(files: dict[str, str], roots: list[str],
                   entry: list[str] = (), allow: frozenset = frozenset()) -> list[str]:
    """Dotted names of the defs in ``files`` (path under ``src`` -> text)
    that neither the whole-file ``roots`` (source texts) nor the entry
    points (``module`` or ``module:function``) reach."""
    names = {}
    for path, text in files.items():
        parts = Path(path).with_suffix("").parts
        is_init = parts[-1] == "__init__"
        names[".".join(parts[:-1] if is_init else parts)] = (text, is_init)
    modules = set(names)
    sources = {name: _Source(name, text, is_init, modules)
               for name, (text, is_init) in names.items()}
    reach = _Reach(sources, allow)
    for target in entry:
        module, _, func = target.partition(":")
        reach.load(module)
        if func:
            reach.mark((module, func))
    for i, text in enumerate(roots):
        root = _Source(f"<root {i}>", text, False, modules)
        reach.queue.append((root, root.tree, set()))
    return reach.unreached()


def test_every_package_definition_has_a_caller_outside_the_tests():
    files = {str(path.relative_to(SRC)): path.read_text()
             for path in (SRC / "repro").rglob("*.py")}
    with open(ROOT / "pyproject.toml", "rb") as fh:
        entry = list(tomllib.load(fh)["project"]["scripts"].values())
    entry += [".".join(Path(path).with_suffix("").parts)
              for path, text in files.items()
              if any(_is_main_block(node) for node in ast.parse(text).body)]
    roots = [path.read_text() for folder in ("benchmarks", "examples")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    roots += python_blocks()
    unreached = unreached_defs(files, roots, entry, ALLOWLIST)
    assert not unreached, (
        f"{len(unreached)} definitions no program, bench, example or README "
        f"snippet reaches (delete them, or move test-only ones to tests/oracles): "
        f"{unreached}")


def test_resolver_rules_on_synthetic_sources():
    """What counts as a reference, on a two-module package."""
    files = {
        "pkg/__init__.py": "from pkg.mod import Exported, Via\n__all__ = ['Exported', 'Listed']\n",
        "pkg/mod.py": (
            "import json\n"
            "class Store:\n"
            "    def sort_keys(self): ...\n"
            "    def hook(self): ...\n"
            "    def __len__(self): return 0\n"
            "class Exported: ...\n"
            "class Listed: ...\n"
            "class Via: ...\n"
            "def used(store):\n"
            "    json.dumps({}, sort_keys=True)\n"
            "    getattr(store, 'hook')()\n"
            "    return 'map'\n"
            "def map(): ...\n"
            "def dead(): return only_from_dead()\n"
            "def only_from_dead(): ...\n"
        ),
    }
    root = "from pkg import Via\nfrom pkg.mod import Store, used\nused(Store()), Via()\n"
    unreached = set(unreached_defs(files, [root]))
    assert "pkg.mod.Store.sort_keys" in unreached      # a keyword-argument name
    assert "pkg.mod.Store.hook" not in unreached       # getattr's literal name
    assert "pkg.mod.Store.__len__" not in unreached    # dunders always count
    assert "pkg.mod.Exported" in unreached             # an __init__ re-export
    assert "pkg.mod.Listed" in unreached               # an __all__ string
    assert "pkg.mod.Via" not in unreached              # imported through the package
    assert "pkg.mod.map" in unreached                  # a string constant
    assert {"pkg.mod.dead", "pkg.mod.only_from_dead"} <= unreached  # the fixed point
