from __future__ import annotations

import logging
import tracemalloc

import pytest

from conftest import brute_unit_count, enumerate_monic
from ffvar.arith import (
    FactorIndex,
    cache_file_name,
    count_smooth_exact,
    factor,
    integer_moebius,
    liouville_full_sum,
    load_cache,
    pi_q,
    sieve_irreducibles,
    smooth_asymptotic_ratio,
    write_cache,
)
from ffvar.characters import unit_group_basis
from ffvar.errors import BudgetError, IrreducibleCacheError, PreconditionError
from ffvar.fields import make_field
from ffvar.polys import from_coeffs, monic_index, one, t_power, zero
from ffvar.tables import get_tables

# -- necklace counts -----------------------------------------------------------


def test_pi_q_frozen_values(f2, f3):
    assert [pi_q(f2, n) for n in range(1, 11)] == [2, 1, 2, 3, 6, 9, 18, 30, 56, 99]
    assert [pi_q(f3, n) for n in range(1, 9)] == [3, 3, 8, 18, 48, 116, 312, 810]
    f4 = make_field(2, 2)
    assert [pi_q(f4, n) for n in range(1, 5)] == [4, 6, 20, 60]


def test_pi_q_matches_sieve(cache2, cache3):
    for cache in (cache2, cache3):
        for n in range(1, cache.max_degree + 1):
            assert cache.count(n) == pi_q(cache.field, n)


def test_integer_moebius_frozen():
    got = [integer_moebius(n) for n in range(1, 21)]
    assert got == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0, -1, 0, -1, 0]


# -- sieve cache file format ----------------------------------------------------


def test_cache_file_names(f2, f4):
    assert cache_file_name(f2) == "ffsieve_p2_k1.txt"
    assert cache_file_name(f4) == "ffsieve_p2_k2_m111.txt"


def test_cache_round_trip(f2, tmp_path):
    cache = sieve_irreducibles(f2, 6)
    path = tmp_path / cache_file_name(f2)
    write_cache(cache, path)
    header = path.read_text().splitlines()[0]
    assert header == "FFSIEVE 1 p=2 k=1 mod=- maxdeg=6 count=23"
    loaded = load_cache(f2, path)
    assert loaded == cache


def test_cache_detects_corruption(f2, tmp_path):
    cache = sieve_irreducibles(f2, 4)
    path = tmp_path / "sieve.txt"
    write_cache(cache, path)
    good = path.read_text().splitlines()

    def expect_error(lines, fragment):
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IrreducibleCacheError, match=fragment):
            load_cache(f2, path)

    expect_error(["FFSIEVE 1 junk"], "bad header")
    expect_error(["FFSIEVE 2" + good[0][9:]] + good[1:], "unsupported version")
    expect_error([good[0].replace("p=2", "p=3")] + good[1:], "header is for")
    expect_error([good[0].replace("mod=-", "mod=1,1")] + good[1:], "modulus mismatch")
    expect_error(good[:-2] + [good[-1]], "entries, header says")
    expect_error(good[:-1], "END line")
    # non-monic entry: flip the leading coefficient on the first body line
    bad = good.copy()
    bad[1] = "1 1 0"
    expect_error(bad, ":2: entry is not monic")
    bad = good.copy()
    bad[1], bad[2] = bad[2], bad[1]
    expect_error(bad, "out of order")
    bad = good.copy()
    bad[1] = "1 x 1"
    expect_error(bad, "unparsable")
    bad = good.copy()
    bad[1] = "1 7 1"
    expect_error(bad, "coefficient code out of range")
    path.write_text("")
    with pytest.raises(IrreducibleCacheError, match="empty"):
        load_cache(f2, path)
    with pytest.raises(IrreducibleCacheError, match="cannot read"):
        load_cache(f2, tmp_path / "missing.txt")


def test_sieve_recovers_from_corrupt_file(f2, tmp_path, caplog):
    path = tmp_path / cache_file_name(f2)
    path.write_text("FFSIEVE 1 garbage\n")
    with caplog.at_level(logging.WARNING, logger="ffvar.arith"):
        cache = sieve_irreducibles(f2, 5, cache_dir=tmp_path)
    assert any("corrupt" in rec.message for rec in caplog.records)
    # the replacement file is valid and loads back identically
    assert load_cache(f2, path) == cache


def test_sieve_extends_short_file(f2, tmp_path, caplog):
    sieve_irreducibles(f2, 3, cache_dir=tmp_path)
    with caplog.at_level(logging.INFO, logger="ffvar.arith"):
        deeper = sieve_irreducibles(f2, 6, cache_dir=tmp_path)
    assert any("resieving" in rec.message for rec in caplog.records)
    assert deeper.max_degree == 6
    assert load_cache(f2, tmp_path / cache_file_name(f2)).max_degree == 6


def test_sieve_trusts_covering_file(f2, tmp_path):
    first = sieve_irreducibles(f2, 6, cache_dir=tmp_path)
    path = tmp_path / cache_file_name(f2)
    stamp = path.read_text()
    again = sieve_irreducibles(f2, 4, cache_dir=tmp_path)
    assert again == first  # deeper cached file is served as-is
    assert path.read_text() == stamp  # and not rewritten


# -- factorization ---------------------------------------------------------------


def test_factor_reconstructs_product(cache2, cache3):
    for cache in (cache2, cache3):
        fld = cache.field
        for n in range(1, 7):
            for f in enumerate_monic(fld, n):
                fac = factor(f, cache)
                assert fac.product(fld) == f
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


def test_factor_needs_enough_cache_depth(f2):
    shallow = sieve_irreducibles(f2, 2)
    with pytest.raises(PreconditionError, match="cache depth"):
        factor(t_power(f2, 9), shallow)


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


def test_factor_index_memoizes(f3, cache3):
    idx = FactorIndex(f3, cache3)
    f = from_coeffs(f3, [1, 0, 1, 1])
    # the factors tuple is shared between calls; the unit rides along fresh
    assert idx.factor(f).factors is idx.factor(f).factors
    scaled = idx.factor(f.scale(2))
    assert scaled.unit == 2
    assert scaled.factors is idx.factor(f).factors


# -- Omega, lambda and mu on the sieve tables ----------------------------------------


def test_function_values_on_hand_cases(f2, cache2):
    tables = get_tables(f2, 4)
    f = from_coeffs(f2, [0, 0, 1, 1])  # t^2 (t + 1)
    quad = from_coeffs(f2, [1, 1, 1])
    # (G, Omega, lambda, mu), read at the mantissa of G
    for g, big_omega, lam, mu in (
        (f, 3, -1, 0),
        (quad, 1, -1, -1),
        (quad * quad, 2, 1, 0),
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


def test_count_smooth_matches_factor_enumeration(f2, f3, cache2, cache3):
    for fld, cache, top in ((f2, cache2, 7), (f3, cache3, 5)):
        idx = FactorIndex(fld, cache)
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
