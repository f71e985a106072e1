"""Exception types shared across the package, and the one byte budget.

cli.ERROR_EXITS maps each to its exit code; the README tabulates the codes.
The budget is one value, read by check_budget and set for a block by
`with budget(nbytes):`; no function takes it as an argument.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator


class FFVarError(Exception):
    """Base class for package errors."""


class PreconditionError(FFVarError):
    """An operation was called outside its documented domain."""


class BudgetError(FFVarError):
    """A path's byte estimate exceeds the budget."""


class SmoothWindowError(PreconditionError):
    """No prime factor in the requested degree window."""


DEFAULT_BUDGET = 1 << 30  # bytes
_BUDGET: ContextVar[int] = ContextVar("budget", default=DEFAULT_BUDGET)


@contextmanager
def budget(nbytes: int) -> Iterator[None]:
    """The budget is `nbytes` inside the block, and what it was again after."""
    token = _BUDGET.set(nbytes)
    try:
        yield
    finally:
        _BUDGET.reset(token)


def check_budget(nbytes: int, what: str, *args: object) -> None:
    """The one gate, before each allocation; `what` is formatted only to refuse."""
    limit = _BUDGET.get()
    if nbytes > limit:
        try:
            need = str(nbytes)
        except ValueError:  # more digits than the interpreter converts to str
            need = f"at least 2^{nbytes.bit_length() - 1}"
        raise BudgetError(f"{what.format(*args)} needs {need} bytes, over the budget of {limit}")
