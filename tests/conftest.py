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
from ffvar.arith import Factorization, factor, sieve_irreducibles
from ffvar.fields import FieldSpec, make_field, prime_factors
from ffvar.errors import BudgetError, PreconditionError
from ffvar.polys import Poly, from_coeffs, monic_from_index, monic_index, t_power


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


# -- the field and polynomial ring, one element at a time ----------------------
#
# The package computes on mantissas, residue codes and coefficient rows, and
# a field is only its four numpy tables. This scalar arithmetic, on element
# codes and on coefficient tuples, one coefficient at a time, is the reference
# those computations are checked against.


@functools.cache
def _rows(fld: FieldSpec) -> tuple:
    """(add, mul, neg, inv) of fld as tuples: the ring's scalar lookups. Cached
    by the field's equality, (p, k, q, modulus), so only for make_field's."""
    add, mul = (tuple(map(tuple, table.tolist())) for table in (fld.add_table, fld.mul_table))
    return add, mul, tuple(fld.neg_table.tolist()), tuple(fld.inv_table.tolist())


def fmul(fld: FieldSpec, a: int, b: int) -> int:
    return _rows(fld)[1][a][b]


def finv(fld: FieldSpec, a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    return _rows(fld)[3][a]


def scalar_field_axioms(fld: FieldSpec) -> None:
    """fields.verify_field_axioms by cubic loops over the codes, reading fld's
    own tables: the same first violation and message."""
    add, mul = fld.add_table.tolist(), fld.mul_table.tolist()
    neg, inv = fld.neg_table.tolist(), fld.inv_table.tolist()
    rng = range(fld.q)
    for a in rng:
        if add[a][0] != a or mul[a][1] != a:
            raise AssertionError(f"identity fails at {a}")
        if add[a][neg[a]] != 0:
            raise AssertionError(f"negation fails at {a}")
        if a and mul[a][inv[a]] != 1:
            raise AssertionError(f"inverse fails at {a}")
    for a in rng:
        for b in rng:
            if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                raise AssertionError(f"commutativity fails at ({a}, {b})")
    for a in rng:
        for b in rng:
            for c in rng:
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    raise AssertionError(f"additive associativity fails at ({a},{b},{c})")
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    raise AssertionError(f"multiplicative associativity fails at ({a},{b},{c})")
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    raise AssertionError(f"distributivity fails at ({a},{b},{c})")


def zero(field: FieldSpec) -> Poly:
    return Poly(field, ())


def one(field: FieldSpec) -> Poly:
    return Poly(field, (1,))


def constant(field: FieldSpec, c: int) -> Poly:
    if not 0 <= c < field.q:
        raise PreconditionError(f"element code {c} out of range for {field}")
    return Poly(field, (c,) if c else ())


def coeff(f: Poly, j: int) -> int:
    return f.coeffs[j] if 0 <= j < len(f.coeffs) else 0


def _field_of(a: Poly, b: Poly) -> FieldSpec:
    if a.field != b.field:
        raise PreconditionError("mixed-field polynomial arithmetic")
    return a.field


def padd(a: Poly, b: Poly) -> Poly:
    add = _rows(_field_of(a, b))[0]
    x, y = a.coeffs, b.coeffs
    if len(x) < len(y):
        x, y = y, x
    out = list(x)
    for i, c in enumerate(y):
        out[i] = add[out[i]][c]
    return Poly(a.field, tuple(out))


def pneg(a: Poly) -> Poly:
    neg = _rows(a.field)[2]
    return Poly(a.field, tuple(neg[c] for c in a.coeffs))


def psub(a: Poly, b: Poly) -> Poly:
    return padd(a, pneg(b))


def pmul(a: Poly, *rest: Poly) -> Poly:
    """a times each of rest in turn, schoolbook."""
    for b in rest:
        add, mul = _rows(_field_of(a, b))[:2]
        x, y = a.coeffs, b.coeffs
        out = [0] * max(len(x) + len(y) - 1, 0)
        for i, xi in enumerate(x):
            if xi:
                row = mul[xi]
                for j, yj in enumerate(y):
                    if yj:
                        out[i + j] = add[out[i + j]][row[yj]]
        a = Poly(a.field, tuple(out))
    return a


def scale(f: Poly, c: int) -> Poly:
    row = _rows(f.field)[1][c]
    return Poly(f.field, tuple(row[x] for x in f.coeffs))


def ppow(f: Poly, e: int) -> Poly:
    if e < 0:
        raise PreconditionError("negative polynomial powers are not defined")
    result, base = one(f.field), f
    while e:
        if e & 1:
            result = pmul(result, base)
        base = pmul(base, base)
        e >>= 1
    return result


def pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    f = _field_of(a, b)
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    add, mul, neg, inv = _rows(f)
    db = len(b.coeffs) - 1
    rem = list(a.coeffs)
    if len(rem) - 1 < db:
        return zero(f), a
    quot = [0] * (len(rem) - db)
    inv_lead = inv[b.coeffs[-1]]
    for shift in range(len(rem) - db - 1, -1, -1):
        c = rem[shift + db]
        if c == 0:
            continue
        quot[shift] = step = mul[c][inv_lead]
        row = mul[step]
        for i, bi in enumerate(b.coeffs):
            if bi:
                rem[shift + i] = add[rem[shift + i]][neg[row[bi]]]
    return Poly(f, tuple(quot)), Poly(f, tuple(rem))


def pdiv(a: Poly, b: Poly) -> Poly:
    return pdivmod(a, b)[0]


def pmod(a: Poly, b: Poly) -> Poly:
    return pdivmod(a, b)[1]


def monic(f: Poly) -> Poly:
    """The monic associate."""
    if f.is_zero:
        raise PreconditionError("zero polynomial has no monic associate")
    return f if f.coeffs[-1] == 1 else scale(f, finv(f.field, f.coeffs[-1]))


def star(f: Poly) -> Poly:
    """Coefficient reversal: star(f)(t) = t^deg(f) * f(1/t). Multiplicative
    for all nonzero f; an involution exactly on f with f(0) != 0."""
    if f.is_zero:
        raise PreconditionError("star of the zero polynomial is undefined")
    return Poly(f.field, tuple(reversed(f.coeffs)))


def expand(fac: Factorization, field: FieldSpec) -> Poly:
    """unit * prod(P^e) of a factorization, multiplied out."""
    return pmul(constant(field, fac.unit), *(ppow(p, e) for p, e in fac.factors))


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
            quo, rem = pdivmod(f, g)
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
        a, b = b, pmod(a, b)
    return monic(a)


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
    return sum(c * q**j for j, c in enumerate(pmod(f, modulus).coeffs))


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
        d, R = P.degree, pdiv(modulus, ppow(P, e))
        if q**d > 2:
            order, primes = q**d - 1, prime_factors(q**d - 1)
            for z in range(q**d):
                lift = padd(one, pmul(R, from_coeffs(field, [z // q**j % q for j in range(d)])))
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
                    yield residue_code(padd(one, pmul(omega, ppow(P, j), R)), modulus), p**s


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
