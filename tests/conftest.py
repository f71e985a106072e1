from __future__ import annotations

import functools
import tracemalloc
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import pytest

from ffvar import bounds, characters, tables
from ffvar.arith import SieveCache, sieve_irreducibles
from ffvar.fields import FieldSpec, make_field
from ffvar.errors import PreconditionError
from ffvar.polys import Poly, enumerate_monic, from_coeffs, monic_from_index, monic_index


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
def sieve_dir(tmp_path_factory):
    # one shared directory so the sieve files are built once per session
    return tmp_path_factory.mktemp("sieve")


@pytest.fixture(scope="session")
def cache2(f2, sieve_dir) -> SieveCache:
    return sieve_irreducibles(f2, 10, cache_dir=sieve_dir)


@pytest.fixture(scope="session")
def cache3(f3, sieve_dir) -> SieveCache:
    return sieve_irreducibles(f3, 8, cache_dir=sieve_dir)


@pytest.fixture
def cold_caches(monkeypatch):
    """Empty the caches of tables, residue rings, bases, even masks and mvt
    codes, so that a measured peak includes building them."""
    monkeypatch.setattr(tables, "_TABLE_CACHE", {})
    for cached in (
        tables.residue_ring,
        characters._structural_basis,
        characters.even_mask,
        bounds._monic_codes,
    ):
        cached.cache_clear()


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


def brute_unit_count(modulus: Poly) -> int:
    """Euler's phi by gcd: the residues mod Q of degree < deg Q coprime to Q."""
    fld, m = modulus.field, modulus.degree
    q = fld.q
    count = 0
    for code in range(1, q**m):
        g = from_coeffs(fld, [(code // q**j) % q for j in range(m)])
        count += poly_gcd(g, modulus).degree == 0
    return count
