"""Module boundaries inside the package: no module reaches into a
sibling's private names."""

import ast
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "pmqcc"


def private_sibling_imports(source: str) -> list:
    """(module, name) for every ``from .module import _name`` (or the
    absolute ``from pmqcc.module import _name``) in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "pmqcc":
            continue
        found.extend((module, alias.name) for alias in node.names if alias.name.startswith("_"))
    return found


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


def test_every_public_name_resolves_from_its_layer():
    # ``pmqcc`` imports each name from its module on first use
    import pmqcc

    for name in pmqcc.__all__:
        assert getattr(pmqcc, name).__module__.startswith("pmqcc.")
    with pytest.raises(AttributeError):
        pmqcc.not_a_name
