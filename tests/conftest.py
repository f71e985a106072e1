from __future__ import annotations

import functools
import itertools
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np
import pytest

from ffvar import bounds, characters, tables
from ffvar.arith import factor, sieve_irreducibles
from ffvar.fields import FieldSpec, make_field, prime_factors
from ffvar.errors import BudgetError, PreconditionError
from ffvar.polys import Poly, constant, from_coeffs, monic_from_index, monic_index, t_power


@pytest.fixture(scope="session")
def f2() -> FieldSpec:
    return make_field(2)


@pytest.fixture(scope="session")
def f3() -> FieldSpec:
    return make_field(3)


@pytest.fixture(scope="session")
def f4() -> FieldSpec:
    return make_field(2, 2)


@pytest.fixture(scope="session")
def cache2(f2) -> tables.ArithTables:
    return sieve_irreducibles(f2, 10)


@pytest.fixture(scope="session")
def cache3(f3) -> tables.ArithTables:
    return sieve_irreducibles(f3, 8)


@pytest.fixture
def cold_caches(monkeypatch):
    """Empty the caches of tables, residue rings and psi rows, so that a
    measured peak includes building them; the fixture's value empties them
    again."""

    def clear() -> None:
        monkeypatch.setattr(tables, "_TABLE_CACHE", {})
        for cached in (tables.residue_ring, bounds._psi_rows):
            cached.cache_clear()

    clear()
    return clear


def traced_peak(fn, *args, **kwargs) -> int:
    """tracemalloc peak, in bytes, of one call of fn."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# -- independent oracles, shared by the test modules ----------------------------
#
# Completely separate route from the sieve: a monic polynomial is divided by
# the smaller monic irreducibles in ascending (degree, mantissa) order, where
# a polynomial is irreducible when this same search finds no divisor; the
# cofactor is factored the same way. Memoized, so sweeping all monic of a
# degree reuses the lower degrees.


@functools.cache
def brute_factor(f: Poly) -> tuple[Poly, ...]:
    """Monic irreducible factors of monic f with multiplicity, ascending."""
    for d in range(1, f.degree // 2 + 1):
        for g in brute_irreducibles(f.field, d):
            quo, rem = divmod(f, g)
            if rem.is_zero:
                return (g, *brute_factor(quo))
    return (f,) if f.degree >= 1 else ()


@functools.cache
def brute_irreducibles(fld, d: int) -> tuple[Poly, ...]:
    return tuple(g for g in enumerate_monic(fld, d) if len(brute_factor(g)) == 1)


DEFAULT_ENUM_BUDGET = 1 << 22


def enumerate_monic(
    field: FieldSpec, n: int, *, budget: int = DEFAULT_ENUM_BUDGET
) -> Iterator[Poly]:
    """All monic polynomials of degree n in ascending mantissa order, one Poly
    each; past `budget` polynomials, BudgetError."""
    if n < 0:
        raise PreconditionError("degree must be >= 0")
    if field.q**n > budget:
        raise BudgetError(f"enumeration of q^{n} = {field.q**n} exceeds budget {budget}")
    for u in range(field.q**n):
        yield monic_from_index(field, n, u)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(a, 0) = monic(a); gcd(0, 0) is an error."""
    if a.is_zero and b.is_zero:
        raise PreconditionError("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


@dataclass(frozen=True)
class IntervalKey:
    """Identifies the set of monics of degree n agreeing with a pivot above
    degree h: `packed` holds the pinned coefficients h+1..n-1 as an integer
    in [0, q^(n-h-1)). The per-polynomial view of an interval, against which
    the mantissa blocks of variance.interval_sums are checked."""

    n: int
    h: int
    packed: int


def interval_key(g: Poly, h: int) -> IntervalKey:
    if not g.is_monic:
        raise PreconditionError("interval pivot must be monic")
    n = len(g.coeffs) - 1
    if not 0 <= h < n:
        raise PreconditionError(f"need 0 <= h < deg; got h={h}, deg={n}")
    return IntervalKey(n=n, h=h, packed=monic_index(g) // g.field.q ** (h + 1))


def interval_members(field: FieldSpec, key: IntervalKey) -> Iterator[Poly]:
    q = field.q
    base = key.packed * q ** (key.h + 1)
    for u in range(base, base + q ** (key.h + 1)):
        yield monic_from_index(field, key.n, u)


def power_columns(basis: characters.UnitGroupBasis, k: int) -> np.ndarray:
    """Column of chi^k for every chi in enumerate_characters order: the
    C-order grid index of the exponent vector k * e mod the orders. The
    character sums of chi^k are the chi-sums gathered at these columns."""
    columns = np.zeros(1, dtype=np.int64)
    for o in basis.orders:
        columns = (columns[:, None] * o + k * np.arange(o) % o).ravel()
    return columns


def transform_even_square_sum(
    field: FieldSpec, n_total: int, n: int, h: int, keep_smooth: bool
) -> float:
    """The window sum of bounds.large_factor_sum_ratio (keep_smooth False) and
    bounds.smooth_sum_ratio (True) by its definition: lambda on the monics of
    degree n, masked by max_factor_degree <= h, folded mod t^(N-h); every even
    character sum from one transform over the unit group, squared and added."""
    modulus = t_power(field, n_total - h)
    table = tables.get_tables(field, max(n, n_total))
    smooth = table.max_factor_degree[n] <= h
    lam = np.where(smooth if keep_smooth else ~smooth, table.liouville_values(n), 0)
    weights = np.zeros(field.q**modulus.degree, dtype=np.int64)
    tables.fold_monic_mod(field, modulus, n, lam, weights)
    basis = characters.unit_group_basis(field, modulus)
    sums = characters.character_sums(basis, weights, even_only=True)
    return float(np.sum(sums.real**2 + sums.imag**2))


def residue_code(f: Poly, modulus: Poly) -> int:
    """Code of f mod Q: the coefficients of the remainder as base-q digits."""
    q = f.field.q
    return sum(c * q**j for j, c in enumerate((f % modulus).coeffs))


# -- the unit-group basis by one power per test --------------------------------
#
# A second construction of the basis, one power at a time: each candidate
# lift and each test raised to its power from its code by square-and-
# multiply, one candidate after another, and a span doubled by
# ResidueRing.mul with its step squared from the step's code. The library's
# generators, orders and unit codes are pinned against it.


def ring_pow(ring: tables.ResidueRing, a: int, e: int) -> int:
    """a^e mod Q by square-and-multiply from the top bit of e down, on a's
    multiplication map: row 0 of the map of a^e, the image of 1, is a^e."""
    if e == 0:
        return 1
    base = out = ring.maps(a)[0]
    for bit in bin(e)[3:]:
        out = out @ out % ring.p
        if bit == "1":
            out = out @ base % ring.p
    return int(ring.codes(out))


def oracle_generators(field: FieldSpec, modulus: Poly) -> Iterator[tuple[int, int]]:
    """(code, order) of each generator, factor by factor P^e || Q: the first
    1 + R z whose power q^(d(e-1)) has order q^d - 1, then each principal
    unit 1 + x^i t^l P^j R, j < e prime to p, of order p^s."""
    q, p, m = field.q, field.p, modulus.degree
    ring, one = tables.residue_ring(field, modulus), constant(field, 1)
    if modulus == t_power(field, m):
        factors = [(t_power(field, 1), m)]
    else:
        factors = factor(modulus, sieve_irreducibles(field, max(1, m // 2)))
    for P, e in factors:
        d, R = P.degree, modulus // P**e
        if q**d > 2:
            order, primes = q**d - 1, prime_factors(q**d - 1)
            for z in range(q**d):
                lift = one + R * from_coeffs(field, [z // q**j % q for j in range(d)])
                y = ring_pow(ring, residue_code(lift, modulus), q ** (d * (e - 1)))
                if ring_pow(ring, y, order) == 1 and all(
                    ring_pow(ring, y, order // ell) != 1 for ell in primes
                ):
                    break
            else:
                raise AssertionError(f"no primitive element mod {P}^{e}")
            yield y, order
        for j in range(1, e):
            if j % p:
                s = next(s for s in itertools.count() if j * p**s >= e)
                for l, i in itertools.product(range(d), range(field.k)):
                    omega = from_coeffs(field, [0] * l + [p**i])
                    yield residue_code(one + omega * P**j * R, modulus), p**s


def oracle_basis(field: FieldSpec, modulus: Poly) -> tuple[tuple, tuple, np.ndarray]:
    """(generators, orders, unit codes) mod Q: the span of oracle_generators,
    taken last to first, so that it is the C-order grid of their exponents."""
    ring = tables.residue_ring(field, modulus)
    gens = list(oracle_generators(field, modulus))
    codes = np.ones(1, dtype=np.int64)
    for y, e in reversed(gens):
        assert ring_pow(ring, y, e) == 1, (modulus, y, e)
        size, step = e * len(codes), y
        while len(codes) < size:  # doubling: codes holds c blocks and step = y^c
            codes = np.concatenate((codes, ring.mul(codes[: size - len(codes)], step)))
            step = ring_pow(ring, step, 2)
    return tuple(y for y, _ in gens), tuple(e for _, e in gens), codes


def brute_unit_count(modulus: Poly) -> int:
    """Euler's phi by gcd: the residues mod Q of degree < deg Q coprime to Q."""
    fld, m = modulus.field, modulus.degree
    q = fld.q
    count = 0
    for code in range(1, q**m):
        g = from_coeffs(fld, [(code // q**j) % q for j in range(m)])
        count += poly_gcd(g, modulus).degree == 0
    return count


# -- the scalar character oracle ----------------------------------------------
#
# One character at a time, as an exponent vector over the basis generators,
# evaluated unit by unit from the basis's discrete logs in exact rotation
# numbers. The library keeps characters only as exponent rows and their sums
# only as transforms; these objects are what those are checked against.

RotationNumber = Fraction


@dataclass(frozen=True, eq=False)
class DirichletChar:
    basis: characters.UnitGroupBasis
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.exponents) != len(self.basis.orders):
            raise PreconditionError("exponent vector length mismatch")
        for e, o in zip(self.exponents, self.basis.orders):
            if not 0 <= e < o:
                raise PreconditionError(f"exponent {e} out of range for order {o}")

    @property
    def is_principal(self) -> bool:
        return not any(self.exponents)

    @property
    def is_even(self) -> bool:
        """Trivial on the nonzero constants, codes 1..q-1 mod any Q."""
        return all(self.rotation_numerator(c) == 0 for c in range(1, self.basis.field.q))

    def rotation_numerator(self, code: int) -> int:
        """k such that chi(unit) = exp(2*pi*i*k/L); unit given by residue code."""
        basis = self.basis
        index = int(basis.unit_index(code))
        if index < 0:
            raise PreconditionError(f"residue code {code} is not a unit")
        L = basis.exponent
        logs = np.unravel_index(index, basis.orders)
        return sum(e * (L // o) * int(x) for e, o, x in zip(self.exponents, basis.orders, logs)) % L

    def evaluate(self, f: Poly) -> RotationNumber | None:
        """Rotation number of chi(f), or None when gcd(f, Q) != 1 (chi = 0)."""
        if f.is_zero:
            return None
        basis = self.basis
        code = residue_code(f, basis.modulus)
        if basis.unit_index(code) < 0:
            return None
        return Fraction(self.rotation_numerator(code), basis.exponent)

    def value(self, f: Poly) -> complex:
        rot = self.evaluate(f)
        if rot is None:
            return 0j
        return complex(np.exp(2j * np.pi * float(rot)))


def characters_of(basis: characters.UnitGroupBasis) -> list[DirichletChar]:
    """Every character mod Q, exponent vectors in lexicographic order."""
    return [
        DirichletChar(basis, exps)
        for exps in itertools.product(*(range(o) for o in basis.orders))
    ]


def principal_character(basis: characters.UnitGroupBasis) -> DirichletChar:
    return DirichletChar(basis, tuple(0 for _ in basis.orders))


def rotation_multiset_cancels(numerators: Iterable[int], exponent: int) -> bool:
    """characters.rotation_rows_cancel on a single multiset (an empty one
    cancels)."""
    ks = np.fromiter(numerators, dtype=np.int64)
    return bool(characters.rotation_rows_cancel(ks[None, :], exponent)[0])
