"""Pins on the package's settable surface.

Each count below is the number of knobs a caller can turn.  A change that
adds or removes one must edit its pin here and say why in CHANGES.md.
"""

import ast
import dataclasses
from pathlib import Path

from ddrloc.experiments import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ddrloc"

DEFAULTED_PARAMETERS = 17
CLI_OPTIONS = 31
EXPERIMENT_CONFIG_FIELDS = 19
PUBLIC_NAMES = 53


def _trees():
    return {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def test_defaulted_parameter_count_is_pinned():
    # every parameter with a default, positional or keyword-only, of every
    # function and lambda under src/ddrloc
    n = 0
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                n += len(node.args.defaults)
                n += sum(d is not None for d in node.args.kw_defaults)
    assert n == DEFAULTED_PARAMETERS


def test_cli_option_count_is_pinned():
    n = sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
            for node in ast.walk(_trees()["cli.py"]))
    assert n == CLI_OPTIONS


def test_config_field_counts_are_pinned():
    # a config field is a knob that no parameter default or option counts
    assert len(dataclasses.fields(ExperimentConfig)) == EXPERIMENT_CONFIG_FIELDS


def _public_names():
    # every name ddrloc/__init__.py imports from its modules for callers
    return [alias.asname or alias.name for node in ast.walk(_trees()["__init__.py"])
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_public_name_count_is_pinned():
    assert len(_public_names()) == PUBLIC_NAMES


def test_every_public_name_has_a_caller_outside_the_tests():
    # a name is used when some module of the package other than __init__, a
    # demo or the benchmark loads it, by name or as an attribute
    trees = [tree for name, tree in _trees().items() if name != "__init__.py"]
    trees += [ast.parse(p.read_text())
              for d in ("demos", "bench") for p in sorted((ROOT / d).glob("*.py"))]
    loaded = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert [n for n in _public_names() if n not in loaded] == []
