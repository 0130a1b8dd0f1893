"""Public-API hygiene: every module imports, __all__ resolves, docs exist."""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = sorted(
    name
    for _finder, name, _ispkg in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


def test_package_tree_is_nontrivial():
    assert len(MODULES) > 50


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), f"{name} has no module docstring"


@pytest.mark.parametrize(
    "name", [m for m in MODULES if not m.rsplit(".", 1)[-1].startswith("_")]
)
def test_all_exports_resolve_and_are_documented(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol!r}"
        obj = getattr(module, symbol)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert inspect.getdoc(obj), f"{name}.{symbol} has no docstring"


def test_top_level_packages_reexport_their_surface():
    import repro.blast
    import repro.cluster
    import repro.core
    import repro.mpi
    import repro.mrmpi
    import repro.som

    # Spot-check the names the README quickstart relies on.
    for pkg, names in [
        (repro.mpi, ["run_spmd", "Comm"]),
        (repro.mrmpi, ["MapReduce", "MapStyle"]),
        (repro.blast, ["BlastOptions", "make_engine", "format_database",
                       "render_pairwise", "BlastxEngine", "TblastnEngine"]),
        (repro.som, ["BatchSOM", "SOMGrid", "umatrix", "classify"]),
        (repro.core, ["MrBlastConfig", "mrblast_spmd", "MrSomConfig",
                      "mrsom_spmd"]),
        (repro.cluster, ["ranger", "simulate_blast_run", "simulate_som_run",
                         "FaultModel"]),
    ]:
        for n in names:
            assert hasattr(pkg, n), f"{pkg.__name__} does not export {n}"
