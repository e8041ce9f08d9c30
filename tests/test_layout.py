"""The package keeps its modules' private helpers private: no module of
``hitchinflow`` reads an underscore name of another package module, as
``stable._x`` or ``from .stable import _x``.  Dunder names such as
``__version__`` are public.  No module imports a name that it neither
uses nor re-exports in ``__all__``.  The integrators in ``hitchinflow.ode``
import no package module but ``errors``, and the tests reach them there,
not through ``flow``."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hitchinflow"
MODULES = sorted(PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(path: Path) -> list[str]:
    """Each read of another package module's underscore name in a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules, found = {}, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("hitchinflow"):
            continue  # not a package import
        source = (node.module or "hitchinflow").split(".")[-1]
        for alias in node.names:
            if source == "hitchinflow":  # from . import stable: a module
                modules[alias.asname or alias.name] = alias.name
            elif source != path.stem and _private(alias.name):
                found.append(f"{path.name}:{node.lineno}: from {source} import {alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and modules.get(node.value.id, path.stem) != path.stem
            and _private(node.attr)
        ):
            found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_reads_another_modules_private_names(path):
    assert private_reads(path) == []


def test_the_check_finds_private_reads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import stable, linalg as la\n"
        "from .forms import _gram_dot, wedge\n"
        "from . import __version__\n"
        "x = stable._k_matrix(la._laplace_tables, stable.pair_coeffs)\n"
    )
    assert private_reads(probe) == [
        "probe.py:2: from forms import _gram_dot",
        "probe.py:4: stable._k_matrix",
        "probe.py:4: la._laplace_tables",
    ]


def unused_imports(path: Path) -> list[str]:
    """Each name a module imports but neither uses nor lists in ``__all__``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_imports_a_name_it_does_not_use(path):
    assert unused_imports(path) == []


def test_the_check_finds_unused_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .forms import KForm, hodge, wedge\n"
        "from .errors import UnstableForm as Unstable\n"
        "__all__ = ['KForm']\n"
        "def f(a: np.ndarray):\n"
        "    return wedge(a, a)\n"
    )
    assert unused_imports(probe) == ["probe.py:3: os", "probe.py:4: hodge", "probe.py:5: Unstable"]


@pytest.mark.parametrize("name", ["hitchinflow", *(f"hitchinflow.{p.stem}" for p in MODULES
                                                   if p.stem != "__init__")])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def package_imports(path: Path) -> set[str]:
    """The package modules a module imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".", 1)[1] for a in node.names
                         if a.name.startswith("hitchinflow."))
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("hitchinflow")
        ):
            source = (node.module or "hitchinflow").split(".")[-1]  # from . import x: x
            found.update([a.name for a in node.names] if source == "hitchinflow" else [source])
    return found


def test_ode_imports_no_package_module_but_errors():
    # the integrators know nothing of forms: numpy and the shared exceptions
    assert package_imports(PACKAGE / "ode.py") == {"errors"}


def integrator_reads_through_flow(path: Path, names: set[str]) -> list[str]:
    """Each read in a test module of flow's underscore version of an
    integrator name: ``fl._dp_step``, ``from hitchinflow.flow import
    _Stats`` or ``monkeypatch.setattr(fl, "_MAX_RETRIES", ...)``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    private, aliases, found = {"_" + n for n in names}, set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "hitchinflow":
            aliases.update(a.asname or a.name for a in node.names if a.name == "flow")
        elif isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names if a.name == "hitchinflow.flow" and a.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "hitchinflow.flow":
            found += [f"{path.name}:{node.lineno}: {a.name}" for a in node.names if a.name in private]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases and node.attr in private):
            found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
        elif (isinstance(node, ast.Call) and len(node.args) > 1
              and isinstance(node.args[0], ast.Name) and node.args[0].id in aliases
              and isinstance(node.args[1], ast.Constant) and node.args[1].value in private):
            found.append(f"{path.name}:{node.lineno}: {node.args[1].value!r}")
    return sorted(found)


def ode_names() -> set[str]:
    """The functions, classes and constants ``hitchinflow.ode`` defines."""
    tree = ast.parse((PACKAGE / "ode.py").read_text())
    return {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))} | {
        t.id for n in tree.body if isinstance(n, ast.Assign) for t in n.targets
        if isinstance(t, ast.Name)}


def test_no_test_reads_the_integrators_through_flow():
    names = ode_names()
    assert {"Stop", "Stats", "dp_step", "dense", "MAX_RETRIES", "NUMERICAL_FAILURES"} <= names
    tests = sorted(Path(__file__).resolve().parent.glob("*.py"))
    assert [hit for path in tests for hit in integrator_reads_through_flow(path, names)] == []


def test_the_check_finds_integrator_reads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from hitchinflow import flow as fl, ode\n"
        "import hitchinflow.flow as flow2\n"
        "from hitchinflow.flow import _Stats, _last\n"
        "y = fl._dense(0, 1, 2, 3) + flow2._dp_step + fl._derive_split + ode.dense\n"
        "monkeypatch.setattr(fl, '_MAX_RK45_STEPS', 5)\n"
    )
    assert integrator_reads_through_flow(probe, ode_names()) == [
        "probe.py:3: _Stats",
        "probe.py:4: fl._dense",
        "probe.py:4: flow2._dp_step",
        "probe.py:5: '_MAX_RK45_STEPS'",
    ]


# The package's size in lines.  perfbench's peak_rss_mb counts the compile of
# the package source as well as flow data: a process that runs without
# bytecode caches compiles every module, and compiling flow.py alone raises a
# fresh process's peak RSS by about 3.5 MB (2-core x86, Python 3.11.7).  A
# change that must grow the package raises this ceiling in its own diff and
# says why in CHANGES.md.
SOURCE_LINE_CEILING = 3583


def test_package_source_stays_under_its_line_ceiling():
    lines = sum(path.read_text().count("\n") for path in MODULES)
    assert lines <= SOURCE_LINE_CEILING, (
        f"src/hitchinflow/*.py holds {lines} lines, over the ceiling of {SOURCE_LINE_CEILING}: "
        "perfbench's peak_rss_mb counts the compile of the package source, so grow the "
        "package only with a raised ceiling and the reason in CHANGES.md"
    )
