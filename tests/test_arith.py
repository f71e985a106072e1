from __future__ import annotations

import tracemalloc

import pytest

import ffvar.tables
from conftest import brute_factor, brute_unit_count, enumerate_monic, expand, one, pmul, scale, zero
from ffvar.arith import (
    FactorIndex,
    count_smooth_exact,
    factor,
    integer_moebius,
    liouville_full_sum,
    pi_q,
    sieve_irreducibles,
    smooth_asymptotic_ratio,
)
from ffvar.characters import unit_group_basis
from ffvar.errors import BudgetError, PreconditionError
from ffvar.fields import make_field
from ffvar.polys import from_coeffs, monic_index, t_power
from ffvar.tables import get_tables

# -- necklace counts -----------------------------------------------------------


def test_pi_q_frozen_values(f2, f3):
    assert [pi_q(f2, n) for n in range(1, 11)] == [2, 1, 2, 3, 6, 9, 18, 30, 56, 99]
    assert [pi_q(f3, n) for n in range(1, 9)] == [3, 3, 8, 18, 48, 116, 312, 810]
    f4 = make_field(2, 2)
    assert [pi_q(f4, n) for n in range(1, 5)] == [4, 6, 20, 60]


def test_pi_q_matches_sieve(cache2, cache3):
    for cache, top in ((cache2, 10), (cache3, 8)):
        for n in range(1, top + 1):
            assert len(cache.irreducibles[n]) == pi_q(cache.field, n)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)])
def test_memoized_pi_q_equals_the_necklace_formula(p, k):
    # asked twice, the memoized count is the Moebius sum and satisfies
    # sum_{d | n} d pi_q(d) = q^n
    fld = make_field(p, k)
    q = fld.q
    for n in range(1, 13):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        formula = sum(integer_moebius(d) * q ** (n // d) for d in divisors) // n
        assert pi_q(fld, n) == pi_q(fld, n) == formula
        assert sum(d * pi_q(fld, d) for d in divisors) == q**n


def test_integer_moebius_frozen():
    got = [integer_moebius(n) for n in range(1, 21)]
    assert got == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0, -1, 0, -1, 0]


# -- the irreducible lists ------------------------------------------------------


def test_sieve_irreducibles_lists_the_tables_to_the_asked_degree(monkeypatch, f2):
    # the process's sieve tables, built to the asked degree or deeper, whose
    # irreducibles[d] are the ascending mantissas of degree d
    monkeypatch.setattr(ffvar.tables, "_TABLE_CACHE", {})
    shallow = sieve_irreducibles(f2, 4)
    assert shallow is get_tables(f2, 4) and shallow.max_degree == 4
    assert [m.tolist() for m in shallow.irreducibles[1:]] == [[0, 1], [3], [3, 5], [3, 9, 15]]
    get_tables(f2, 6)
    assert sieve_irreducibles(f2, 4) is shallow and shallow.max_degree == 6
    with pytest.raises(PreconditionError, match="max_degree must be >= 1"):
        sieve_irreducibles(f2, 0)


# -- factorization ---------------------------------------------------------------


def test_factor_reconstructs_product(cache2, cache3):
    for cache in (cache2, cache3):
        fld = cache.field
        for n in range(1, 7):
            for f in enumerate_monic(fld, n):
                fac = factor(f, cache)
                assert expand(fac, fld) == f
                assert all(e >= 1 for _, e in fac)
                # trial order is (degree, mantissa) ascending
                degs = [p.degree for p, _ in fac]
                assert degs == sorted(degs)


def test_factor_units_and_errors(f3, cache3):
    fac = factor(from_coeffs(f3, [0, 2, 2]), cache3)  # 2 t (t+1)
    assert fac.unit == 2
    assert [(str(p), e) for p, e in fac] == [("t", 1), ("t+1", 1)]
    assert factor(one(f3), cache3).factors == ()
    with pytest.raises(PreconditionError):
        factor(zero(f3), cache3)


@pytest.mark.parametrize("p,k", [(2, 2), (5, 1), (3, 2)], ids=["4", "5", "9"])
def test_factor_of_every_unit_multiple(p, k):
    # factor(c F) reads the monic associate's mantissa off the field's tables:
    # unit c and the factors of F, for every unit c and every monic F
    fld = make_field(p, k)
    for n in range(1, 4 if fld.q > 5 else 5):
        for f in enumerate_monic(fld, n):
            primes = brute_factor(f)
            expected = [(P, primes.count(P)) for P in dict.fromkeys(primes)]
            for c in range(1, fld.q):
                fac = factor(scale(f, c), None)
                assert fac.unit == c and list(fac.factors) == expected, (f, c)


def test_factor_reads_no_cache(f2):
    # the second argument is accepted and unread: the factor links are the
    # one source, whatever is passed
    want = factor(t_power(f2, 9), sieve_irreducibles(f2, 2))
    assert [(str(p), e) for p, e in want] == [("t", 9)]
    assert factor(t_power(f2, 9), None) == want


def test_factor_past_table_budget_raises_before_allocating():
    # the tables to degree 8 over F_16 are estimated at 27 GB, past the 1 GiB
    # default budget: refused before any table
    f16 = make_field(2, 4)
    cache = sieve_irreducibles(f16, 4)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="^sieve tables to degree 8 needs .* bytes, over"):
            factor(t_power(f16, 8), cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_factor_index_is_factor(f3):
    # no memo: each call walks the factor links, and gives factor's answer
    idx = FactorIndex(f3)
    assert not hasattr(idx, "__dict__") and type(idx).__slots__ == ("field",)
    for f in enumerate_monic(f3, 4):
        for c in (1, 2):
            assert idx.factor(scale(f, c)) == factor(scale(f, c), None)
    assert idx.factor(scale(f, 2)).unit == 2


# -- Omega, lambda and mu on the sieve tables ----------------------------------------


def test_function_values_on_hand_cases(f2, cache2):
    tables = get_tables(f2, 4)
    f = from_coeffs(f2, [0, 0, 1, 1])  # t^2 (t + 1)
    quad = from_coeffs(f2, [1, 1, 1])
    # (G, Omega, lambda, mu), read at the mantissa of G
    for g, big_omega, lam, mu in (
        (f, 3, -1, 0),
        (quad, 1, -1, -1),
        (pmul(quad, quad), 2, 1, 0),
        (t_power(f2, 3), 3, -1, 0),
        (from_coeffs(f2, [0, 1, 1]), 2, 1, 1),  # t (t + 1)
    ):
        n, u = g.degree, monic_index(g)
        assert tables.big_omega[n][u] == big_omega, g
        assert tables.liouville_values(n)[u] == lam, g
        assert tables.moebius_values(n)[u] == mu, g
    assert len(factor(f, cache2).factors) == 2  # omega counts distinct primes
    assert tables.liouville_values(0).tolist() == tables.moebius_values(0).tolist() == [1]


def test_euler_phi_formulas_and_brute_force(f2, f3):
    assert unit_group_basis(f2, t_power(f2, 3)).phi == 4
    assert unit_group_basis(f2, from_coeffs(f2, [0, 1, 0, 1])).phi == 2  # t (t+1)^2
    for fld in (f2, f3):
        for m in (1, 2, 3):
            for modulus in enumerate_monic(fld, m):
                assert unit_group_basis(fld, modulus).phi == brute_unit_count(modulus), modulus


# -- aggregate identities -----------------------------------------------------------


def test_liouville_full_sum_closed_form():
    # every q <= 16 up to q^n <= 2^14; the deepest degree first, so one
    # table build serves every n
    for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)):
        fld = make_field(p, k)
        top = max(n for n in range(1, 15) if fld.q**n <= 1 << 14)
        for n in range(top, -1, -1):
            assert liouville_full_sum(fld, n) == (-1) ** n * fld.q ** ((n + 1) // 2)


def test_count_smooth_matches_factor_enumeration(f2, f3):
    for fld, top in ((f2, 7), (f3, 5)):
        idx = FactorIndex(fld)
        for n in range(0, top + 1):
            for h in range(1, n + 2):
                brute = sum(
                    1
                    for g in enumerate_monic(fld, n)
                    if all(p.degree <= h for p, _ in idx.factor(g))
                )
                assert count_smooth_exact(fld, h, n) == brute


def test_count_smooth_boundaries(f2):
    assert count_smooth_exact(f2, 3, 0) == 1
    assert count_smooth_exact(f2, 9, 5) == 2**5  # everything is smooth past h = n
    with pytest.raises(PreconditionError):
        count_smooth_exact(f2, 0, 4)


def test_smooth_asymptotic_ratio(f2, f3):
    assert smooth_asymptotic_ratio(f2, 3, 3) == (1.0, 8.0)
    for fld in (f2, f3):
        for n in range(1, 7):
            main, crude = smooth_asymptotic_ratio(fld, n, n)
            assert main == 1.0
            assert crude > 0
        main, _ = smooth_asymptotic_ratio(fld, 2, 6)
        assert 0 < main < float("inf")
