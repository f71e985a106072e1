"""Exception types shared across the package, and the one byte budget.

cli.ERROR_EXITS maps each to its exit code; the README tabulates the codes.
"""

from __future__ import annotations


class FFVarError(Exception):
    """Base class for package errors."""


class PreconditionError(FFVarError):
    """An operation was called outside its documented domain."""


class BudgetError(FFVarError):
    """A path's byte estimate exceeds the budget."""


class IrreducibleCacheError(FFVarError):
    """A sieve cache file is malformed or inconsistent."""


class SmoothWindowError(PreconditionError):
    """No prime factor in the requested degree window."""


DEFAULT_BUDGET = 1 << 30  # bytes


def check_budget(nbytes: int, budget: int, what: str, *args: object) -> None:
    """The one gate, before each allocation; `what` is formatted only to refuse."""
    if nbytes > budget:
        raise BudgetError(f"{what.format(*args)} needs {nbytes} bytes, over the budget of {budget}")
