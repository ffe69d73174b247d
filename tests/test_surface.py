"""Pins on the package's settable surface.

Each count below is the number of knobs a caller can turn.  A change that
adds or removes one must edit its pin here and say why in CHANGES.md.
"""

import ast
import dataclasses
from pathlib import Path

from ddrloc.experiments import ExperimentConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "ddrloc"

DEFAULTED_PARAMETERS = 23
CLI_OPTIONS = 31
EXPERIMENT_CONFIG_FIELDS = 19
PUBLIC_NAMES = 66


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


def test_public_name_count_is_pinned():
    # every name ddrloc/__init__.py imports from its modules for callers
    n = sum(len(node.names) for node in ast.walk(_trees()["__init__.py"])
            if isinstance(node, ast.ImportFrom))
    assert n == PUBLIC_NAMES
