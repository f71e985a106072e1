"""Polynomials over F_q as coefficient tuples, and monic mantissas.

Coefficients are element codes stored ascending (index j holds the t^j
coefficient) with no trailing zeros, so the zero polynomial has an empty
tuple and degree None. A monic polynomial of degree n is identified with its
mantissa: the integer in [0, q^n) whose base-q digit j is the t^j
coefficient. Ascending mantissa is the canonical "lexicographic" order used
everywhere (constant term varies fastest).

Poly is a value, not a ring: every command computes on mantissas, residue
codes and coefficient rows. The ring operations and the coefficient
reversal star live in the tests, as the oracle those computations are
checked against.
"""

from __future__ import annotations

from typing import Sequence

from .errors import PreconditionError
from .fields import FieldSpec
from .records import Frozen


class Poly(Frozen):
    """Equal and hashed by (field, coeffs), trailing zeros stripped."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: tuple[int, ...]):
        if coeffs and coeffs[-1] == 0:
            i = len(coeffs)
            while i > 0 and coeffs[i - 1] == 0:
                i -= 1
            coeffs = coeffs[:i]
        object.__setattr__(self, "field", field)  # not Frozen.__init__: the hot constructor
        object.__setattr__(self, "coeffs", coeffs)

    # -- shape

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | None:
        """None for the zero polynomial (degree sentinel, compares as 'minus
        infinity' must be handled by callers explicitly)."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def lead(self) -> int:
        if self.is_zero:
            raise PreconditionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- rendering

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for j in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[j]
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                tj = "t" if j == 1 else f"t^{j}"
                parts.append(tj if c == 1 else f"{c}*{tj}")
        return "+".join(parts)


# -- constructors


def t_power(field: FieldSpec, n: int) -> Poly:
    if n < 0:
        raise PreconditionError("t_power needs n >= 0")
    return Poly(field, (0,) * n + (1,))


def from_coeffs(field: FieldSpec, coeffs: Sequence[int]) -> Poly:
    for c in coeffs:
        if not 0 <= c < field.q:
            raise PreconditionError(f"element code {c} out of range for {field}")
    return Poly(field, tuple(coeffs))


# -- monic mantissas


def monic_index(f: Poly) -> int:
    """Mantissa of a monic polynomial: sum of coeff(j) * q^j below the lead."""
    if not f.is_monic:
        raise PreconditionError("monic_index needs a monic polynomial")
    q = f.field.q
    u = 0
    for j in range(len(f.coeffs) - 2, -1, -1):
        u = u * q + f.coeffs[j]
    return u


def monic_from_index(field: FieldSpec, n: int, u: int) -> Poly:
    if n < 0:
        raise PreconditionError("degree must be >= 0")
    if not 0 <= u < field.q**n:
        raise PreconditionError(f"mantissa {u} out of range for degree {n}")
    q = field.q
    coeffs = []
    for _ in range(n):
        coeffs.append(u % q)
        u //= q
    coeffs.append(1)
    return Poly(field, tuple(coeffs))

