from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import enumerate_monic, traced_peak
from ffvar.bounds import (
    BoundReport,
    TrialConfig,
    large_factor_sum_ratio,
    mvt_check,
    mvt_trial,
    prime_char_sum_ratio,
    smooth_sum_ratio,
    von_mangoldt_char_sum_ratio,
    von_mangoldt_char_sums,
)
from ffvar import arith as arith_module
from ffvar import bounds as bounds_module
from ffvar import characters as characters_module
from ffvar import tables as tables_module
from ffvar.characters import l_coefficients, unit_group_basis
from ffvar.errors import BudgetError, PreconditionError
from ffvar.fields import make_field
from ffvar.polys import from_coeffs, monic_index, t_power
from ffvar.tables import get_tables, reduce_monic_mod

ALL_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4))

# -- report plumbing -------------------------------------------------------------


def test_ratio_handles_zero_rhs():
    assert BoundReport("x", {}, 0.0, 0.0, False, None).ratio == 0.0
    assert BoundReport("x", {}, 2.0, 0.0, False, None).ratio == math.inf
    assert BoundReport("x", {}, 3.0, 6.0, False, None).ratio == 0.5


def test_summary_mentions_verdict(f2):
    rep = mvt_check(f2, t_power(f2, 3), 5, np.zeros(32))
    line = rep.summary()
    assert line.startswith("mvt [pass]")
    assert "ratio=0" in line


def test_trial_config_validation():
    TrialConfig(seed=0, trials=1, distribution="phases")
    with pytest.raises(PreconditionError):
        TrialConfig(trials=0)
    with pytest.raises(PreconditionError):
        TrialConfig(distribution="gaussian")


# -- mean value theorem ------------------------------------------------------------


def test_mvt_zero_vector(f2):
    rep = mvt_check(f2, t_power(f2, 3), 5, np.zeros(32))
    assert rep.lhs == 0.0 and rep.rhs == 0.0
    assert rep.passed


def test_mvt_single_unit_coefficient(f2):
    # one monic polynomial coprime to t^3: lhs collapses to Phi(Q) = 4 and the
    # bound is 2 Phi (q^(n-3) + 1) = 40
    coeffs = np.zeros(32, dtype=np.complex128)
    coeffs[1] = 1.0  # t^5 + 1
    rep = mvt_check(f2, t_power(f2, 3), 5, coeffs)
    assert rep.lhs == pytest.approx(4.0)
    assert rep.rhs == pytest.approx(40.0)
    assert rep.passed


def test_mvt_coefficients_on_non_units_are_ignored(f2):
    live = np.zeros(32, dtype=np.complex128)
    live[1] = 1.0
    noisy = live.copy()
    noisy[0] = 17.0 - 3j  # t^5 shares a factor with t^3
    a = mvt_check(f2, t_power(f2, 3), 5, live)
    b = mvt_check(f2, t_power(f2, 3), 5, noisy)
    assert a.lhs == pytest.approx(b.lhs)
    # the diagonal only counts coprime coefficients, so the bound is unchanged
    assert a.rhs == pytest.approx(b.rhs)


def test_mvt_trial_frozen_run(f2):
    reports = list(mvt_trial(f2, t_power(f2, 3), 5, TrialConfig(seed=1, trials=100)))
    assert len(reports) == 100
    assert all(r.passed for r in reports)
    assert max(r.ratio for r in reports) == pytest.approx(0.3)
    again = list(mvt_trial(f2, t_power(f2, 3), 5, TrialConfig(seed=1, trials=100)))
    assert [r.ratio for r in again] == [r.ratio for r in reports]


def test_mvt_trial_phases_and_general_modulus(f2, f3):
    modulus = from_coeffs(f2, [0, 1, 0, 1])  # t (t+1)^2
    for rep in mvt_trial(f2, modulus, 6, TrialConfig(seed=2, trials=20, distribution="phases")):
        assert rep.passed
    for rep in mvt_trial(f3, t_power(f3, 2), 4, TrialConfig(seed=5, trials=20)):
        assert rep.passed


def test_mvt_trial_budget_refusal_is_a_budget_error(f2, cold_caches):
    # 64 bytes per drawn coefficient: F_2 n = 16 draws 65,536 of them
    need = 64 * 2**16
    cfg = TrialConfig(seed=1, trials=2)
    trials = mvt_trial(f2, t_power(f2, 3), 16, cfg, budget=need - 1)
    message = f"^mvt draws of 65536 coefficients needs {need} bytes, over the budget of {need - 1}$"
    with pytest.raises(BudgetError, match=message):
        next(trials)
    reports = []
    peak = traced_peak(lambda: reports.extend(mvt_trial(f2, t_power(f2, 3), 16, cfg, budget=need)))
    assert [rep.passed for rep in reports] == [True, True]
    assert peak <= need


def test_mvt_short_side(f2):
    # n below deg Q exercises the q^(n - deg Q) < 1 branch
    coeffs = np.zeros(4, dtype=np.complex128)
    coeffs[1] = 1.0
    rep = mvt_check(f2, t_power(f2, 3), 2, coeffs)
    assert rep.passed
    assert rep.rhs == pytest.approx(2 * 4 * (0.5 + 1.0))


def test_mvt_coefficient_length_checked(f2):
    with pytest.raises(PreconditionError):
        mvt_check(f2, t_power(f2, 3), 5, np.zeros(31))


# -- observed character sums ----------------------------------------------------------


def test_prime_char_sum_pinned(f2):
    rep = prime_char_sum_ratio(f2, 2, 1)
    assert rep.lhs == pytest.approx(1.0)
    assert rep.rhs == pytest.approx(2 * math.sqrt(2))
    assert rep.ratio == pytest.approx(1 / (2 * math.sqrt(2)))
    assert not rep.hard and rep.passed is None
    rep = prime_char_sum_ratio(f2, 2, 2)
    assert rep.ratio == pytest.approx(0.5)


def test_prime_char_sum_needs_nonprincipal_characters(f2):
    with pytest.raises(PreconditionError, match="m >= 2"):
        prime_char_sum_ratio(f2, 1, 1)


def test_von_mangoldt_sum_pinned(f2):
    rep = von_mangoldt_char_sum_ratio(f2, t_power(f2, 2), 2)
    assert rep.lhs == pytest.approx(1.0)
    assert rep.rhs == pytest.approx(4.0)
    assert rep.ratio == pytest.approx(0.25)
    assert rep.hard and rep.passed
    rep = von_mangoldt_char_sum_ratio(f2, t_power(f2, 2), 1)
    assert rep.ratio == pytest.approx(1 / (2 * math.sqrt(2)))
    with pytest.raises(PreconditionError):
        von_mangoldt_char_sum_ratio(f2, t_power(f2, 1), 3)


def test_von_mangoldt_sum_grid_stays_bounded(f3):
    for modulus in (t_power(f3, 2), from_coeffs(f3, [1, 0, 1])):
        for n_total in range(1, 9):
            rep = von_mangoldt_char_sum_ratio(f3, modulus, n_total)
            assert rep.passed, rep.summary()


def _psi_per_n(field, modulus, n_total):
    """psi_N(chi) for one N from the primes, the way the monitor once built
    each report: the irreducibles of each divisor d of N reduced mod Q, and
    one stacked transform with chi(P)^(N/d) = chi(P^(N/d)) per row."""
    basis = unit_group_basis(field, modulus)
    tables = get_tables(field, n_total)
    size = field.q**modulus.degree
    divisors = [d for d in range(1, n_total + 1) if n_total % d == 0]
    counts = np.stack([
        np.bincount(
            reduce_monic_mod(field, modulus, d, tables.irreducibles[d]),
            minlength=size,
        )
        for d in divisors
    ])
    # chi(P)^k = chi(P^k): each row's counts land at k times the discrete
    # logs of their units on a grid shaped like the group, then one inverse DFT
    logs = np.unravel_index(basis.grid_index, basis.orders) if basis.orders else ()
    grid = np.zeros((len(divisors), basis.phi), dtype=np.complex128)
    for row, d, c in zip(grid, divisors, counts):
        cell = np.zeros(basis.phi, dtype=np.int64)
        for x, o in zip(logs, basis.orders):
            cell = cell * o + n_total // d * x % o
        np.add.at(row, cell, c[basis.unit_codes])
    grid = grid.reshape(len(divisors), *basis.orders)
    sums = np.fft.ifftn(grid, axes=tuple(range(1, grid.ndim))).reshape(len(divisors), -1) * basis.phi
    return sum(d * row for d, row in zip(divisors, sums))


def _check_against_primes(fld, modulus, n_max):
    """The table against the prime sums, within 1e-12 of the size of each
    part (the principal column, about q^N, and the others), and under the
    Riemann-hypothesis bound: deg Q - 1 inverse zeros of size 1 or sqrt(q)."""
    q, m = fld.q, modulus.degree
    table = von_mangoldt_char_sums(fld, modulus, n_max)
    assert table.shape == (n_max, unit_group_basis(fld, modulus).phi)
    for n_total in range(1, n_max + 1):
        got, want = table[n_total - 1], _psi_per_n(fld, modulus, n_total)
        where = (q, str(modulus), n_total)
        assert abs(got[0] - want[0]) <= 1e-12 * abs(want[0]), where
        scale = max(1.0, float(np.max(np.abs(want[1:]), initial=0.0)))
        assert np.max(np.abs(got[1:] - want[1:]), initial=0.0) <= 1e-12 * scale, where
        bound = (m - 1) * q ** (n_total / 2)
        assert np.max(np.abs(got[1:]), initial=0.0) <= bound * (1 + 1e-12), where


def _moduli_to_degree_5():
    for fld in (make_field(2), make_field(3)):
        for m in (2, 3, 4, 5):
            for modulus in enumerate_monic(fld, m):
                yield fld, modulus


def test_von_mangoldt_table_matches_the_per_n_sums():
    # every monic Q of degree 2..5 over F_2 and F_3, at N <= 10
    for fld, modulus in _moduli_to_degree_5():
        _check_against_primes(fld, modulus, 10)


def test_von_mangoldt_table_matches_the_per_n_sums_for_every_q():
    # a seeded Q of degree 2 and 3 with nonzero constant term for each
    # q <= 16, to the largest N <= 10 with q^N <= 2^16
    rng = np.random.default_rng(12)
    for p, k in ALL_FIELDS:
        fld = make_field(p, k)
        q = fld.q
        n_max = max(n for n in range(1, 11) if q**n <= 1 << 16)
        for m in (2, 3):
            modulus = from_coeffs(fld, [*rng.integers(1, q, size=1), *rng.integers(0, q, size=m - 1), 1])
            _check_against_primes(fld, modulus, n_max)


def test_oracle_catches_a_perturbed_l_coefficient(monkeypatch):
    fld = make_field(3)
    modulus = from_coeffs(fld, [2, 1, 0, 1, 1])
    _check_against_primes(fld, modulus, 10)

    def perturbed(basis, **kwargs):
        coeffs = l_coefficients(basis, **kwargs).copy()
        coeffs[2, 5] += 1e-9
        return coeffs

    monkeypatch.setattr(bounds_module, "l_coefficients", perturbed)
    bounds_module._psi_rows.cache_clear()
    try:
        with pytest.raises(AssertionError):
            _check_against_primes(fld, modulus, 10)
    finally:
        bounds_module._psi_rows.cache_clear()


def _inverse_zeros(coeffs):
    """The inverse zeros of one L-polynomial sum_j c_j u^j, c_0 = 1: the
    roots of u^D L(1/u), D its degree (trailing zero coefficients dropped)."""
    coeffs = np.where(np.abs(coeffs) < 1e-9, 0, coeffs)
    return np.roots(coeffs[: np.flatnonzero(coeffs)[-1] + 1])


def _check_inverse_zeros(fld, modulus, n_max):
    """The Riemann hypothesis on the L-coefficients: every inverse zero has
    size 1 or sqrt(q); and the table's psi_N = -sum alpha^N over them, the
    power sums of the numerical roots."""
    q = fld.q
    table = von_mangoldt_char_sums(fld, modulus, n_max)
    coeffs = l_coefficients(unit_group_basis(fld, modulus))
    for column, c in enumerate(coeffs[:, 1:].T, start=1):
        zeros = _inverse_zeros(c)
        sizes = np.abs(zeros)
        gap = np.minimum(np.abs(sizes - 1), np.abs(sizes - math.sqrt(q)))
        assert np.all(gap <= 1e-6), (q, str(modulus), sizes)
        powers = -np.sum(zeros[:, None] ** np.arange(1, n_max + 1), axis=0)
        scale = modulus.degree * q ** (np.arange(1, n_max + 1) / 2)
        assert np.all(np.abs(table[:, column] - powers) <= 1e-6 * scale), (q, str(modulus))


def test_von_mangoldt_table_follows_the_explicit_formula():
    # every monic Q of degree 2..5 over F_2 and F_3 at N <= 10, except that
    # only a seeded sample of the 243 quintic moduli over F_3 is rooted
    sample = np.random.default_rng(5).choice(3**5, size=24, replace=False)
    for fld, modulus in _moduli_to_degree_5():
        if fld.q == 2 or modulus.degree < 5 or monic_index(modulus) in sample:
            _check_inverse_zeros(fld, modulus, 10)


def test_von_mangoldt_report_at_n_40_reads_no_table(f2, monkeypatch):
    # the explicit formula reaches N = 40 mod a degree-6 Q, past any sieve:
    # once the basis is built, the report leaves the table cache untouched
    modulus = from_coeffs(f2, [1, 1, 0, 0, 1, 0, 1])
    unit_group_basis(f2, modulus)
    monkeypatch.setattr(tables_module, "_TABLE_CACHE", {})
    rep = von_mangoldt_char_sum_ratio(f2, modulus, 40)
    assert tables_module._TABLE_CACHE == {}
    assert rep.passed and rep.rhs == 6 * 2.0**20
    _check_inverse_zeros(f2, modulus, 40)


def _fields(rep):
    return rep.bound, rep.params, rep.lhs, rep.rhs, rep.hard, rep.passed


def test_von_mangoldt_reports_do_not_depend_on_call_order(f3):
    a, b = from_coeffs(f3, [2, 1, 0, 1, 1]), from_coeffs(f3, [1, 0, 1]) ** 2
    ascending = {(str(Q), n): _fields(von_mangoldt_char_sum_ratio(f3, Q, n))
                 for Q in (a, b) for n in range(1, 10)}
    descending = {(str(Q), n): _fields(von_mangoldt_char_sum_ratio(f3, Q, n))
                  for Q in (b, a) for n in range(9, 0, -1)}
    interleaved = {(str(Q), n): _fields(von_mangoldt_char_sum_ratio(f3, Q, n))
                   for n in range(1, 10) for Q in (a, b)}
    assert ascending == descending == interleaved


def test_von_mangoldt_reports_survive_horizon_extension():
    # rows grown for a larger N leave the earlier rows as they were
    fld = make_field(5)
    modulus = from_coeffs(fld, [1, 2, 1])
    bounds_module._psi_rows.cache_clear()
    before = [_fields(von_mangoldt_char_sum_ratio(fld, modulus, n)) for n in range(1, 4)]
    short = von_mangoldt_char_sums(fld, modulus, 3)
    after = [_fields(von_mangoldt_char_sum_ratio(fld, modulus, n)) for n in range(1, 7)]
    assert np.array_equal(von_mangoldt_char_sums(fld, modulus, 6)[:3], short)
    assert after[:3] == before
    for n_total, (_, _, lhs, *_) in enumerate(after, start=1):
        want = float(np.max(np.abs(_psi_per_n(fld, modulus, n_total)[1:])))
        assert lhs == pytest.approx(want, rel=1e-12)


def test_von_mangoldt_reports_cost_one_transform_per_modulus(f3, monkeypatch):
    # N = 1..10 in turn, as the charsums benchmark asks them: one
    # character_sums call per modulus, and no sieve table read
    calls = []
    transform = characters_module.character_sums
    monkeypatch.setattr(characters_module, "character_sums",
                        lambda *args, **kwargs: calls.append(1) or transform(*args, **kwargs))
    moduli = [from_coeffs(f3, [2, 1, 0, 1, 1]), from_coeffs(f3, [1, 0, 1]) ** 2, t_power(f3, 5)]

    def no_tables(*args, **kwargs):
        raise AssertionError("a report read the sieve tables")

    bounds_module._psi_rows.cache_clear()
    for modulus in moduli:
        unit_group_basis(f3, modulus)  # the basis factors Q through the sieve
        with monkeypatch.context() as reports:
            for module in (tables_module, bounds_module, arith_module):
                reports.setattr(module, "get_tables", no_tables)
            for n_total in range(1, 11):
                assert von_mangoldt_char_sum_ratio(f3, modulus, n_total).passed
    assert len(calls) == len(moduli)


def test_von_mangoldt_table_is_read_only(f2):
    table = von_mangoldt_char_sums(f2, t_power(f2, 3), 6)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0


def test_von_mangoldt_preconditions(f2):
    with pytest.raises(PreconditionError, match="need N >= 1"):
        von_mangoldt_char_sum_ratio(f2, t_power(f2, 2), 0)
    with pytest.raises(PreconditionError, match="admits no non-principal character"):
        von_mangoldt_char_sum_ratio(f2, t_power(f2, 1) * from_coeffs(f2, [1, 1]), 3)


# -- proof-shaped partial sums ----------------------------------------------------------


def test_large_factor_sum_pinned(f2):
    rep = large_factor_sum_ratio(f2, 4, 3, 1)
    assert rep.lhs == pytest.approx(12.0)
    assert rep.rhs == pytest.approx(4096.0)
    assert rep.extras["statement_rhs"] == pytest.approx(2048.0)
    assert rep.extras["statement_ratio"] == pytest.approx(12 / 2048)


def test_large_factor_sum_empty_window(f2):
    rep = large_factor_sum_ratio(f2, 4, 2, 2)  # n <= h: no qualifying factor
    assert rep.lhs == 0.0
    assert rep.extras == {}


def test_large_factor_sum_window_validation(f2):
    with pytest.raises(PreconditionError):
        large_factor_sum_ratio(f2, 4, 5, 1)
    with pytest.raises(PreconditionError):
        large_factor_sum_ratio(f2, 4, 3, 0)
    with pytest.raises(PreconditionError):
        large_factor_sum_ratio(f2, 4, 3, 4)


def test_smooth_sum_pinned(f2):
    rep = smooth_sum_ratio(f2, 4, 0, 1)
    assert rep.lhs == pytest.approx(4.0)  # only G = 1, so the sum is Phi_ev
    assert rep.rhs == pytest.approx(72.0)
    rep = smooth_sum_ratio(f2, 5, 3, 2)
    assert rep.lhs == pytest.approx(8.0)
    assert rep.rhs == pytest.approx(128.0)


def test_window_sums_observed_ratios_finite(f2):
    for n in range(0, 4):
        for h in (1, 2):
            a = large_factor_sum_ratio(f2, 5, n, h)
            b = smooth_sum_ratio(f2, 5, n, h)
            assert math.isfinite(a.ratio) and a.ratio >= 0
            assert math.isfinite(b.ratio) and b.ratio >= 0
