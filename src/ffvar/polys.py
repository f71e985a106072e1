"""Polynomials over F_q, monic mantissas, and the coefficient reversal.

Coefficients are element codes stored ascending (index j holds the t^j
coefficient) with no trailing zeros, so the zero polynomial has an empty
tuple and degree None. A monic polynomial of degree n is identified with its
mantissa: the integer in [0, q^n) whose base-q digit j is the t^j
coefficient. Ascending mantissa is the canonical "lexicographic" order used
everywhere (constant term varies fastest).
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

    def coeff(self, j: int) -> int:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else 0

    # -- ring operations

    def _check_same_field(self, other: "Poly") -> None:
        if self.field != other.field:
            raise PreconditionError("mixed-field polynomial arithmetic")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_same_field(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, ci in enumerate(b):
            out[i] = f.add(out[i], ci)
        return Poly(f, tuple(out))

    def __neg__(self) -> "Poly":
        f = self.field
        return Poly(f, tuple(f.neg(c) for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_same_field(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(f, ())
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                row = f.mul_rows[ai]
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = f.add(out[i + j], row[bj])
        return Poly(f, tuple(out))

    def scale(self, c: int) -> "Poly":
        f = self.field
        if c == 0:
            return Poly(f, ())
        row = f.mul_rows[c]
        return Poly(f, tuple(row[x] for x in self.coeffs))

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise PreconditionError("negative polynomial powers are not defined")
        result = one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check_same_field(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        db = len(other.coeffs) - 1
        rem = list(self.coeffs)
        if len(rem) - 1 < db:
            return Poly(f, ()), self
        quot = [0] * (len(rem) - db)
        inv_lead = f.inv(other.coeffs[-1])
        for shift in range(len(rem) - db - 1, -1, -1):
            c = rem[shift + db]
            if c == 0:
                continue
            factor = f.mul(c, inv_lead)
            quot[shift] = factor
            row = f.mul_rows[factor]
            for i, bi in enumerate(other.coeffs):
                if bi:
                    rem[shift + i] = f.sub(rem[shift + i], row[bi])
        return Poly(f, tuple(quot)), Poly(f, tuple(rem))

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        """The monic associate."""
        if self.is_zero:
            raise PreconditionError("zero polynomial has no monic associate")
        return self if self.coeffs[-1] == 1 else self.scale(self.field.inv(self.coeffs[-1]))

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


def zero(field: FieldSpec) -> Poly:
    return Poly(field, ())


def one(field: FieldSpec) -> Poly:
    return Poly(field, (1,))


def constant(field: FieldSpec, c: int) -> Poly:
    if not 0 <= c < field.q:
        raise PreconditionError(f"element code {c} out of range for {field}")
    return Poly(field, (c,) if c else ())


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


# -- the coefficient-reversal involution


def star(f: Poly) -> Poly:
    """Coefficient reversal: star(f)(t) = t^deg(f) * f(1/t). Multiplicative
    for all nonzero f; an involution exactly on f with f(0) != 0."""
    if f.is_zero:
        raise PreconditionError("star of the zero polynomial is undefined")
    return Poly(f.field, tuple(reversed(f.coeffs)))
