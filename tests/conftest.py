from __future__ import annotations

import functools

import pytest

from ffvar.arith import SieveCache, sieve_irreducibles
from ffvar.fields import FieldSpec, make_field
from ffvar.polys import Poly, enumerate_monic, from_coeffs, poly_gcd


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


def brute_unit_count(modulus: Poly) -> int:
    """Euler's phi by gcd: the residues mod Q of degree < deg Q coprime to Q."""
    fld, m = modulus.field, modulus.degree
    q = fld.q
    count = 0
    for code in range(1, q**m):
        g = from_coeffs(fld, [(code // q**j) % q for j in range(m)])
        count += poly_gcd(g, modulus).degree == 0
    return count
