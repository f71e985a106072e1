"""The one byte budget: a value of ffvar.errors, set by `with budget(...)`,
never an argument."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys

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


def test_an_estimate_past_the_str_digit_limit_is_a_power_of_two_bound():
    # at most the interpreter's int-to-str digit limit, the estimate prints
    # whole; past it, as the largest power of two it reaches
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)  # 4300
    try:
        with budget(100):
            whole = 10**4299  # 4300 digits
            with pytest.raises(BudgetError) as info:
                check_budget(whole, "cell")
            assert str(info.value) == f"cell needs {whole} bytes, over the budget of 100"
            bound = "^cell N=1 needs at least 2\\^20001 bytes, over the budget of 100$"
            with pytest.raises(BudgetError, match=bound):
                check_budget(3 << 20000, "cell N={}", 1)
    finally:
        sys.set_int_max_str_digits(old)
