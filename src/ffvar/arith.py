"""Factorization over F_q[t], irreducible counts, and smooth counts.

factor() takes any nonzero F: it walks the factor links of the sieve tables
(tables.ArithTables.factor_links) from the mantissa of the monic associate,
F's coefficients times the lead's inverse read off the field's mul_table,
one lookup per prime factor, and returns the leading coefficient as the
unit. lambda, mu and Omega over all monic of a degree live in the tables
themselves, and so do the irreducibles: sieve_irreducibles returns the
tables deep enough to list them per degree.
The sieve tables are the one source of factorizations; nothing is read from
or written to a file.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cache

import numpy as np

from .errors import PreconditionError
from .fields import FieldSpec, prime_factors
from .polys import Poly, monic_from_index, monic_index
from .records import Frozen
from .tables import ArithTables, get_tables


def sieve_irreducibles(field: FieldSpec, max_degree: int) -> ArithTables:
    """The sieve tables, built or extended to at least max_degree under the
    budget: tables.irreducibles[d] lists the monic irreducibles of degree d
    as ascending mantissas."""
    if max_degree < 1:
        raise PreconditionError("max_degree must be >= 1")
    return get_tables(field, max_degree)


# -- factorization


class Factorization(Frozen):
    """unit * prod(P_i^e_i) with factors ascending by (degree, mantissa)."""

    __slots__ = ("unit", "factors")

    def __iter__(self):
        return iter(self.factors)


def factor(f: Poly, cache: object) -> Factorization:
    """Factor by walking the sieve's factor links, one lookup per prime factor.
    The tables and each walked degree's links must fit the budget: BudgetError.
    `cache` is accepted and unread: the tables are the one source."""
    if f.is_zero:
        raise PreconditionError("cannot factor the zero polynomial")
    n = f.degree
    if n == 0:
        return Factorization(unit=f.lead, factors=())
    monic = f.field.mul_table[f.field.inv_table[f.lead], list(f.coeffs)]
    found = factor_mantissas(f.field, n, monic_index(Poly(f.field, tuple(monic.tolist()))))
    return Factorization(f.lead, tuple((monic_from_index(f.field, d, u), e) for d, u, e in found))


def factor_mantissas(field: FieldSpec, n: int, u: int) -> list[tuple[int, int, int]]:
    """(deg P, mantissa of P, e) for each P^e || G, G monic of degree n >= 1
    with mantissa u, ascending: G's factor links walked, one lookup a factor."""
    tables = get_tables(field, n)
    found: Counter[tuple[int, int]] = Counter()
    while n:
        deg, fac, cof = tables.factor_links(n)
        d = int(deg[u])
        if d == 0:
            found[n, u] += 1
            break
        found[d, int(fac[u])] += 1
        n, u = n - d, int(cof[u])
    return [(d, u, e) for (d, u), e in sorted(found.items())]


class FactorIndex:
    """Factorizations over `field` by factor(): the factor links make each
    one a lookup per prime factor, so nothing is kept between calls."""

    __slots__ = ("field",)

    def __init__(self, field: FieldSpec):
        self.field = field

    def factor(self, f: Poly) -> Factorization:
        return factor(f, None)


# -- counting


def integer_moebius(n: int) -> int:
    if n < 1:
        raise PreconditionError("integer moebius needs n >= 1")
    exponents = prime_factors(n).values()
    return 0 if max(exponents, default=1) > 1 else (-1) ** len(exponents)


@cache
def pi_q(field: FieldSpec, n: int) -> int:
    """Number of monic irreducibles of degree n (necklace formula), memoized."""
    if n < 1:
        raise PreconditionError("pi_q needs n >= 1")
    q = field.q
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += integer_moebius(d) * q ** (n // d)
    assert total % n == 0
    return total // n


def liouville_full_sum(field: FieldSpec, n: int) -> int:
    """Sum of the Liouville function over all monic polynomials of degree n."""
    if n < 0:
        raise PreconditionError("degree must be >= 0")
    tables = get_tables(field, n)
    return int(tables.liouville_values(n).sum(dtype=np.int64))


def count_smooth_exact(field: FieldSpec, h: int, n: int) -> int:
    """Exact count of h-smooth monic polynomials of degree n, via the
    generating function prod_{d<=h} (1-x^d)^(-pi_q(d)). Pure integers."""
    if n < 0:
        raise PreconditionError("degree must be >= 0")
    if h < 1:
        raise PreconditionError("smoothness bound must be >= 1")
    coeffs = [0] * (n + 1)
    coeffs[0] = 1
    for d in range(1, min(h, n) + 1):
        r = pi_q(field, d)
        # multiply by (1-x^d)^(-r): coefficient of x^(d*j) is C(r-1+j, j)
        nxt = [0] * (n + 1)
        for i in range(n + 1):
            acc = 0
            j = 0
            while d * j <= i:
                acc += math.comb(r - 1 + j, j) * coeffs[i - d * j]
                j += 1
            nxt[i] = acc
        coeffs = nxt
    return coeffs[n]


def smooth_asymptotic_ratio(field: FieldSpec, h: int, n: int) -> tuple[float, float]:
    """(count / (q^n * exp(-u log u)) with u = n/h, count / q^(n-h)).

    The first ratio is exactly 1.0 at h = n; both stay finite on any grid
    with h >= 1.
    """
    if h < 1 or n < 1:
        raise PreconditionError("need h >= 1 and n >= 1")
    count = count_smooth_exact(field, h, n)
    q = field.q
    u = n / h
    main = count * math.exp(u * math.log(u)) / q**n
    crude = float(Fraction(count, q ** max(n - h, 0)))
    return main, crude
