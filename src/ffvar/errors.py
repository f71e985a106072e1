"""Exception types shared across the package.

cli.main maps each to an exit code: precondition violations exit 2, budget
refusals exit 4, a corrupt sieve cache exits 1. Exit 3 (a variance gap beyond
tolerance) is not an exception: cmd_variance returns it.
"""

from __future__ import annotations


class FFVarError(Exception):
    """Base class for package errors."""


class PreconditionError(FFVarError):
    """An operation was called outside its documented domain."""


class BudgetError(FFVarError):
    """An enumeration would exceed the configured size budget."""


class IrreducibleCacheError(FFVarError):
    """A sieve cache file is malformed or inconsistent."""


class SmoothWindowError(PreconditionError):
    """No prime factor in the requested degree window."""
