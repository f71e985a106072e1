"""The one byte budget: a value of ffvar.errors, set by `with budget(...)`,
never an argument."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import ffvar
from ffvar.errors import DEFAULT_BUDGET, BudgetError, budget, check_budget


def _package_callables():
    """Every function and method defined in a module of the package."""
    for info in pkgutil.iter_modules(ffvar.__path__):
        module = importlib.import_module(f"ffvar.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", member


def test_no_function_takes_a_budget():
    names = dict(_package_callables())
    assert {"tables.get_tables", "tables.ArithTables.extend", "cli.main"} <= set(names)
    taking = [name for name, fn in names.items() if "budget" in inspect.signature(fn).parameters]
    assert taking == []
    assert list(inspect.signature(check_budget).parameters) == ["nbytes", "what", "args"]


def test_budget_nests_and_restores_after_an_exception():
    def limit() -> int:
        with pytest.raises(BudgetError) as info:
            check_budget(1 << 62, "probe")
        return int(str(info.value).rsplit(" ", 1)[1])

    assert limit() == DEFAULT_BUDGET
    with budget(100):
        check_budget(100, "at the limit")
        assert limit() == 100
        with pytest.raises(RuntimeError), budget(7):
            assert limit() == 7
            raise RuntimeError
        assert limit() == 100
        with pytest.raises(BudgetError, match="^the 3 tables needs 101 bytes, over the budget of 100$"):
            check_budget(101, "the {} {}", 3, "tables")
    assert limit() == DEFAULT_BUDGET
