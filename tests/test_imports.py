"""The import surface: every name a module lists in ``__all__`` resolves,
``from hqinflab.<module> import *`` works, and the package reads it, as it
reads every tolerance key."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import hqinflab
from hqinflab.config import DEFAULT_TOLERANCES


SUBMODULES = [info.name for info in pkgutil.iter_modules(hqinflab.__path__)]
MODULES = [n for n in SUBMODULES if hasattr(importlib.import_module(f"hqinflab.{n}"), "__all__")]


def test_modules_found():
    # every module but the command line has an import surface
    assert set(MODULES) == set(SUBMODULES) - {"cli"}


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"hqinflab.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from hqinflab.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


# exported names that no module of the package reads, kept on purpose
KEPT = {
    "simulate.export_trace_csv": "per-customer audit dump of a trace, kept for inspecting runs",
    "stats.ks_distance": "test utility, and the base of the two-sample gates on the field's law",
    "stats.ks_critical_value": "test utility, and the base of the two-sample gates on the field's law",
}


def test_every_export_is_read():
    # a name in some __all__ must be loaded somewhere in the package: as a
    # plain name or as an attribute, in its own module or another
    loaded = set()
    for path in pathlib.Path(hqinflab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    unread = [f"{name}.{export}" for name in MODULES
              for export in importlib.import_module(f"hqinflab.{name}").__all__
              if export not in loaded]
    assert sorted(set(unread) - set(KEPT)) == []
    assert sorted(set(KEPT) - set(unread)) == []


def test_every_tolerance_is_read():
    # a key of DEFAULT_TOLERANCES must appear as a string constant in some
    # module of the package other than the config reader that lists it
    strings = set()
    for path in pathlib.Path(hqinflab.__file__).parent.glob("*.py"):
        if path.name != "config.py":
            strings |= {node.value for node in ast.walk(ast.parse(path.read_text(), str(path)))
                        if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert sorted(set(DEFAULT_TOLERANCES) - strings) == []


def _imports_quadrature(node) -> bool:
    """Whether an AST node imports the quadrature module or a name of it."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[-1] == "quadrature" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return ((node.module or "").split(".")[-1] == "quadrature"
                or any(alias.name == "quadrature" for alias in node.names))
    return False


def test_one_quadrature_caller():
    # one quadrature path: the limits reach it through LimitInputs.int_abar,
    # and every other module integrates through limits
    importers = {path.name for path in pathlib.Path(hqinflab.__file__).parent.glob("*.py")
                 if any(map(_imports_quadrature, ast.walk(ast.parse(path.read_text(), str(path)))))}
    assert importers == {"limits.py"}


def _callers(node, calls, scope=()) -> set[str]:
    """The functions, by qualified name, under ``node`` that make a call
    whose callee node ``calls`` accepts."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            found |= _callers(child, calls, (*scope, child.name))
            continue
        if isinstance(child, ast.Call) and calls(child.func):
            found.add(".".join(scope))
        found |= _callers(child, calls, scope)
    return found


def _package_callers(calls) -> set[str]:
    """The functions of the package, as ``module.qualified_name``, that make
    a call whose callee node ``calls`` accepts."""
    return {f"{path.stem}.{name}" for path in pathlib.Path(hqinflab.__file__).parent.glob("*.py")
            for name in _callers(ast.parse(path.read_text(), str(path)), calls)}


def _interarrival_sample(func) -> bool:
    """Whether a callee node is ``<...>.interarrival.sample``."""
    return (isinstance(func, ast.Attribute) and func.attr == "sample"
            and isinstance(func.value, ast.Attribute) and func.value.attr == "interarrival")


def test_one_epoch_path():
    # one way to draw arrival epochs: ArrivalModel.draw_block_epochs
    assert _package_callers(_interarrival_sample) == {"arrivals.ArrivalModel.draw_block_epochs"}


def test_one_limit_runner():
    # one experiment samples the limit engine: the Markov probes are gates
    # of limit_path_validation, not a second runner with its own bundle
    def assembles(func):
        return getattr(func, "attr", getattr(func, "id", None)) == "assemble_limit_bundle"
    assert _package_callers(assembles) == {"experiments.run_limit_path_validation"}


def _unused_imports(path: pathlib.Path) -> list[str]:
    """Names that ``path`` imports but never loads and does not export
    (``from __future__`` imports aside)."""
    tree = ast.parse(path.read_text(), str(path))
    imported, loaded, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names} - {"*"}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return sorted(imported - loaded - exported)


def test_no_unused_imports():
    files = [*pathlib.Path(hqinflab.__file__).parent.glob("*.py"),
             *pathlib.Path(__file__).parent.glob("*.py")]
    assert len(files) > len(SUBMODULES)
    unused = {path.name: _unused_imports(path) for path in files}
    assert {name: names for name, names in unused.items() if names} == {}
