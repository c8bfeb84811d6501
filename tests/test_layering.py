"""Module boundaries inside the package: no module reaches into a
sibling's private names, or imports a sibling's name it does not use,
only the command line names a protocol, and every command type-checks
its config before it builds from it."""

import argparse
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
    # ``pmqcc`` imports each name from its module on first use; the name
    # is in that module's ``__all__``, which bench/tracer.py wraps, and is
    # defined there
    import importlib

    import pmqcc

    for name, module in pmqcc._MODULE_OF.items():
        layer = importlib.import_module(f"pmqcc.{module}")
        assert name in layer.__all__
        assert getattr(pmqcc, name) is getattr(layer, name)
        assert getattr(layer, name).__module__ == layer.__name__
    with pytest.raises(AttributeError):
        pmqcc.not_a_name


# the protocol names the command line maps onto rate_pmqcc's arguments
PROTOCOL_NAMES = {"pmqcc-star", "reduced", "decoy-lower"}


def protocol_names(source: str) -> list:
    """Every string constant of the source that is a protocol name; a
    docstring that uses one in prose is no such constant."""
    return sorted(
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in PROTOCOL_NAMES
    )


def test_detects_protocol_names():
    source = (
        "def f(name, ends):\n"
        '    """The reduced chain, not decoy-lower or pmqcc-star."""\n'
        '    if name == "decoy-lower":\n'
        '        return {"reduced": ends, "pmqcc": None}\n'
        '    return ("pmqcc-star", "reduced chain")\n'
    )
    assert protocol_names(source) == ["decoy-lower", "pmqcc-star", "reduced"]


def test_only_the_command_line_names_a_protocol():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(paths) > 1
    found = {path.name: protocol_names(path.read_text(encoding="utf-8")) for path in paths}
    in_cli = found.pop("cli.py")
    assert {name: names for name, names in found.items() if names} == {}
    assert set(in_cli) == PROTOCOL_NAMES


def test_protocol_choices_of_each_command():
    from pmqcc.cli import build_parser

    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    choices = {
        command: list(action.choices)
        for command, parser in commands.items()
        for action in parser._actions
        if "--protocol" in action.option_strings
    }
    every = ["pmqcc", "pmqcc-star", "reduced", "decoy-lower"]
    assert choices == {"rate": every, "curve": every, "optimize": every[:3]}


def config_calls(source: str) -> dict:
    """For each ``cmd_*`` function of the source, its calls to
    ``load_config``, ``_setup`` and the ``build_*`` builders, by name in
    the order they appear."""
    calls = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_"):
            found = sorted(
                (call.lineno, call.col_offset, call.func.id)
                for call in ast.walk(node)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and (call.func.id in ("load_config", "_setup") or call.func.id.startswith("build_"))
            )
            calls[node.name] = [name for _, _, name in found]
    return calls


def test_detects_config_calls():
    source = (
        "def cmd_a(args):\n"
        "    cfg = load_config(args.config)\n"
        "    return _setup(cfg, 'x'), build_channel(cfg)\n"
        "def cmd_b(args):\n"
        "    pp = build_protocol({})\n"
        "    return pp, load_config(args.config)\n"
        "def helper(cfg):\n"
        "    return build_channel(cfg)\n"
    )
    assert config_calls(source) == {
        "cmd_a": ["load_config", "_setup", "build_channel"], "cmd_b": ["build_protocol", "load_config"]
    }


def test_every_command_loads_its_config_before_building_from_it():
    # load_config is the config's one type check; the builders only convert
    calls = config_calls((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"))
    assert set(calls) == {"cmd_rate", "cmd_curve", "cmd_simulate", "cmd_optimize"}
    assert {name: found[0] for name, found in calls.items()} == dict.fromkeys(calls, "load_config")
