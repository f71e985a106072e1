"""Binding guard: every ffvar name the benchmark tooling in perfbench/ reaches
for still exists with the shape it is used with. The tracer only fails once
``--trace 1`` runs, and the drivers only once the benchmark spawns them; here
a renamed or deleted entry point fails the test suite instead.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402
from workloads import golden_pool  # noqa: E402

from ffvar import arith, cli, tables, variance  # noqa: E402


def _layer_names():
    return [(module, name) for module, names in tracer.LAYER_SPANS.items() for name in names]


@pytest.mark.parametrize("module, name", _layer_names(), ids=lambda x: x)
def test_layer_spans_resolve(module, name):
    obj = importlib.import_module(f"ffvar.{module}")
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_cli_commands_resolve():
    for command in tracer.CLI_COMMANDS:
        assert callable(getattr(cli, f"cmd_{command}"))


def _ffvar_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ffvar"):
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("script", ["charsums.py", "make_golden.py"])
def test_driver_imports_resolve(script):
    names = list(_ffvar_imports(PERFBENCH / script))
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), (script, module, name)


def test_call_shapes_the_tooling_relies_on():
    # make_golden.py calls factor(poly, cache) positionally; the tracer's
    # counters read these arguments by name
    inspect.signature(arith.factor).bind(object(), object())
    assert "us" in inspect.signature(tables.reduce_monic_mod).parameters
    assert {"field", "n"} <= set(inspect.signature(variance.interval_sums).parameters)


def test_parser_accepts_every_benchmark_command():
    # run.py appends --cache-dir to each verify command
    parser = cli.build_parser()
    for cmd in golden_pool():
        if cmd.kind != "charsums":
            extra = ["--cache-dir", "X"] if cmd.kind == "verify" else []
            parser.parse_args([*cmd.args, *extra])
    assert parser.parse_args(["verify", "--cache-dir", "X"]).cache_dir == "X"
