"""The package keeps its modules' private helpers private: no module of
``hitchinflow`` reads an underscore name of another package module, as
``stable._x`` or ``from .stable import _x``.  Dunder names such as
``__version__`` are public."""

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


@pytest.mark.parametrize("name", ["hitchinflow", *(f"hitchinflow.{p.stem}" for p in MODULES
                                                   if p.stem != "__init__")])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
