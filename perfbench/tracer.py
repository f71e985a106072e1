"""Traced run of one command: wraps the entry points of each ffvar layer in
timing spans, runs the command in this process, and writes the per-span
totals as JSON.

Usage: python3 perfbench/tracer.py STATS.json ffvar <ffvar arguments...>
       python3 perfbench/tracer.py STATS.json charsums <charsums arguments...>

A wrapped function is rebound in every namespace that holds it (its module,
``ffvar`` itself, and each module that imported it by name), so calls through
``from .tables import get_tables`` are traced too.  Self time is a span's
duration minus the time covered by its direct child spans.  ``covered_s`` is
the time spent inside at least one library span (cli spans excluded).

Deliberately unwrapped: ``ffvar.polys`` and ``ffvar.fields`` (their per-call
rate is too high for a Python wrapper) and the inner-loop helpers of a stage
(``tables.mul_monic_batch``, ``tables.monic_digit_matrix``,
``characters.rotation_multiset_cancels``, ``arith.pi_q``, ...).  Their time
lands in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# layer module -> traced entry points.  A method ("Class.method") is labelled
# "module.method", or "module.Class.method" when the module also traces a
# function of that name (arith.factor vs arith.FactorIndex.factor).
LAYER_SPANS = {
    "characters": (
        "unit_group_basis",
        "enumerate_characters",
        "even_characters",
        "character_rotation_matrix",
        "character_value_matrix",
        "UnitGroupBasis.value_matrix",
    ),
    "tables": ("build_tables", "get_tables", "reduce_monic_mod"),
    "arith": (
        "sieve_irreducibles",
        "factor",
        "FactorIndex.factor",
        "count_smooth_exact",
        "liouville_full_sum",
    ),
    "variance": (
        "interval_sums",
        "variance_direct",
        "variance_charside",
        "weighted_char_sum",
        "ramare_identity_check",
        "decomposition_check",
    ),
    "bounds": (
        "mvt_check",
        "prime_char_sum_ratio",
        "von_mangoldt_char_sum_ratio",
        "large_factor_sum_ratio",
        "smooth_sum_ratio",
    ),
}
CLI_COMMANDS = ("variance", "verify", "sweep", "cache")


def _arg(fn, name: str):
    signature = inspect.signature(fn)

    def get(args, kwargs):
        return signature.bind(*args, **kwargs).arguments[name]

    return get


def _count_items(count):
    def hook(stats, args, kwargs, result, children):
        stats["items"] += count(args, kwargs)

    return hook


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0, "bytes": 0, "hits": 0}
        )
        self._stack: list[list[float]] = []  # [child seconds, child spans] per open span
        self._layer_depth = 0
        self.covered_s = 0.0
        self.phi_total = 0
        self._bases: dict[int, object] = {}

    def wrap(self, label: str, fn, *, layer: bool = True, on_return=None):
        stats = self.spans[label]
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0, 0]
            outermost = layer and self._layer_depth == 0
            self._layer_depth += layer
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                self._layer_depth -= layer
                if stack:
                    stack[-1][0] += duration
                    stack[-1][1] += 1
                stats["calls"] += 1
                stats["total_s"] += duration
                stats["self_s"] += duration - frame[0]
                if outermost:
                    self.covered_s += duration
            if on_return is not None:
                on_return(stats, args, kwargs, result, frame[1])
            return result

        return span

    # per-span counters: (stats, args, kwargs, result, number of child spans)

    def _basis_built(self, stats, args, kwargs, basis, children):
        if id(basis) in self._bases:
            stats["hits"] += 1
        else:
            self._bases[id(basis)] = basis  # keeps the id unique
            self.phi_total += basis.phi

    def hooks(self, name: str, fn):
        """Counter hook for the span of `name`, or None."""
        if name == "reduce_monic_mod":
            us = _arg(fn, "us")
            return _count_items(lambda args, kwargs: len(us(args, kwargs)))
        if name == "interval_sums":
            field, n = _arg(fn, "field"), _arg(fn, "n")
            return _count_items(lambda args, kwargs: field(args, kwargs).q ** n(args, kwargs))

        def hit_without_children(stats, args, kwargs, result, children):
            stats["hits"] += children == 0

        def array_bytes(stats, args, kwargs, result, children):
            stats["bytes"] += result.nbytes

        def built_matrix_bytes(stats, args, kwargs, result, children):
            if children:  # a cached matrix is returned without calling anything
                stats["bytes"] += result.nbytes

        def table_bytes(stats, args, kwargs, tables, children):
            stats["bytes"] += sum(
                a.nbytes
                for group in (tables.big_omega, tables.squarefree,
                              tables.max_factor_degree, tables.irreducibles)
                for a in group
            )

        return {
            "unit_group_basis": self._basis_built,
            "FactorIndex.factor": hit_without_children,
            "UnitGroupBasis.value_matrix": built_matrix_bytes,
            "character_rotation_matrix": array_bytes,
            "character_value_matrix": array_bytes,
            "build_tables": table_bytes,
        }.get(name)

    def install(self, extra_namespaces=()) -> None:
        """Wrap every traced entry point and rebind it wherever it is bound."""
        from ffvar import cli

        replacements: dict[int, object] = {}
        for module_name, names in LAYER_SPANS.items():
            module = importlib.import_module(f"ffvar.{module_name}")
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    fn = getattr(cls, meth)
                    label = f"{module_name}.{name if meth in names else meth}"
                    setattr(cls, meth, self.wrap(label, fn, on_return=self.hooks(name, fn)))
                    continue
                fn = getattr(module, name)
                replacements[id(fn)] = self.wrap(
                    f"{module_name}.{name}", fn, on_return=self.hooks(name, fn)
                )
        for command in CLI_COMMANDS:
            fn = getattr(cli, f"cmd_{command}")
            replacements[id(fn)] = self.wrap(f"cli.{command}", fn, layer=False)
        for suite, fn in list(cli.SUITES.items()):
            cli.SUITES[suite] = self.wrap(f"cli.verify.{suite}", fn, layer=False)

        namespaces = [m for n, m in sys.modules.items() if n == "ffvar" or n.startswith("ffvar.")]
        for ns in [*namespaces, *extra_namespaces]:
            for name, obj in list(vars(ns).items()):
                wrapped = replacements.get(id(obj))
                if wrapped is not None:
                    setattr(ns, name, wrapped)

    def report(self) -> dict:
        return {"spans": dict(self.spans), "covered_s": self.covered_s, "phi_total": self.phi_total}


def main(argv: list[str]) -> int:
    stats_path, program, *rest = argv
    tracer = Tracer()
    if program == "charsums":
        import charsums

        tracer.install([charsums])
        run = charsums.main
    elif program == "ffvar":
        from ffvar import cli

        tracer.install()
        run = cli.main
    else:
        raise SystemExit(f"tracer: unknown program {program!r}")
    try:
        return run(rest)
    finally:
        sys.stdout.flush()
        Path(stats_path).write_text(json.dumps(tracer.report()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
