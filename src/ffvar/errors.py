"""Exception types shared across the package.

cli.ERROR_EXITS maps each to its exit code; the README tabulates the codes.
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
