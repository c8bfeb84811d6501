"""Module boundaries inside the package: no module reaches into a
sibling's private names, or imports a sibling's name it does not use."""

import ast
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "pmqcc"


def sibling_imports(tree: ast.AST):
    """(module, alias) for every name a ``from .module import name`` (or
    the absolute ``from pmqcc.module import name``) in the tree binds."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "pmqcc":
            continue
        yield from ((module, alias) for alias in node.names)


def private_sibling_imports(source: str) -> list:
    """(module, name) for every ``from .module import _name`` in the source."""
    return [
        (module, alias.name)
        for module, alias in sibling_imports(ast.parse(source))
        if alias.name.startswith("_")
    ]


def unused_sibling_imports(source: str) -> list:
    """(module, name) for every name imported from a sibling that the
    source never reads."""
    tree = ast.parse(source)
    read = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        (module, alias.name)
        for module, alias in sibling_imports(tree)
        if (alias.asname or alias.name) not in read
    ]


def test_detects_private_sibling_imports():
    source = (
        "from __future__ import annotations\n"
        "from .keyrate import RateReport, _assemble\n"
        "from . import _private\n"
        "from pmqcc.yields import _branch_weights\n"
        "from numpy import _globals\n"
    )
    assert private_sibling_imports(source) == [
        ("keyrate", "_assemble"), ("", "_private"), ("pmqcc.yields", "_branch_weights")
    ]


def test_no_module_imports_a_private_sibling_name():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(paths) > 1
    offenders = {path.name: private_sibling_imports(path.read_text(encoding="utf-8")) for path in paths}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_detects_unused_sibling_imports():
    source = (
        "from .core import ParameterError, transmittance\n"
        "from .keyrate import rate_pmqcc as rate\n"
        "from pmqcc.decoy import rate_lower\n"
        "from math import exp\n"
        "def f(ch):\n"
        "    from .optimize import optimize_signal\n"
        "    rate_lower = None\n"
        "    return transmittance(ch), rate\n"
    )
    assert unused_sibling_imports(source) == [
        ("core", "ParameterError"), ("pmqcc.decoy", "rate_lower"), ("optimize", "optimize_signal")
    ]


def test_no_module_imports_a_sibling_name_it_does_not_use():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(paths) > 1
    offenders = {path.name: unused_sibling_imports(path.read_text(encoding="utf-8")) for path in paths}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_every_public_name_resolves_from_its_layer():
    # ``pmqcc`` imports each name from its module on first use
    import pmqcc

    for name in pmqcc.__all__:
        assert getattr(pmqcc, name).__module__.startswith("pmqcc.")
    with pytest.raises(AttributeError):
        pmqcc.not_a_name
