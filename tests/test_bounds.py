from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import traced_peak
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
from ffvar import tables as tables_module
from ffvar.characters import character_sums, unit_group_basis
from ffvar.errors import BudgetError, PreconditionError
from ffvar.fields import make_field
from ffvar.polys import enumerate_monic, from_coeffs, t_power
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
    """psi_N(chi) for one N, the way the monitor once built each report: the
    irreducibles of each divisor d of N reduced mod Q, and one stacked
    transform with chi(P)^(N/d) = chi(P^(N/d)) per row."""
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
    logs = np.array(
        [np.unravel_index(i, basis.orders) for i in basis.grid_index.tolist()], dtype=np.int64
    ).reshape(basis.phi, -1)
    grid = np.zeros((len(divisors), basis.phi), dtype=np.complex128)
    for row, d, c in zip(grid, divisors, counts):
        cell = np.zeros(basis.phi, dtype=np.int64)
        for x, o in zip(logs.T, basis.orders):
            cell = cell * o + n_total // d * x % o
        np.add.at(row, cell, c[basis.unit_codes])
    grid = grid.reshape(len(divisors), *basis.orders)
    sums = np.fft.ifftn(grid, axes=tuple(range(1, grid.ndim))).reshape(len(divisors), -1) * basis.phi
    return sum(d * row for d, row in zip(divisors, sums))


def _small_moduli():
    for fld in (make_field(2), make_field(3)):
        for m in (2, 3, 4):
            for modulus in enumerate_monic(fld, m):
                yield fld, modulus


def test_von_mangoldt_table_matches_the_per_n_sums():
    for fld, modulus in _small_moduli():
        table = von_mangoldt_char_sums(fld, modulus, 10)
        assert table.shape == (10, unit_group_basis(fld, modulus).phi)
        for n_total in range(1, 11):
            want = _psi_per_n(fld, modulus, n_total)
            scale = np.max(np.abs(want))
            np.testing.assert_allclose(table[n_total - 1], want, rtol=1e-12, atol=1e-12 * scale,
                                       err_msg=f"q={fld.q} Q={modulus} N={n_total}")


def _explicit_formula(field, modulus, n_max):
    """(psi_N for N = 1..n_max, L-coefficients c_0..c_(deg Q - 1)) over every
    character mod Q, from L(u, chi) = sum_j c_j(chi) u^j alone:
    u L'/L = sum_N psi_N u^N, so psi_N = N c_N - sum_{1<=j<N} psi_j c_(N-j).
    A monic of degree j < deg Q is its own residue code q^j + u, so c_j is
    one transform of the indicator of the codes q^j .. 2q^j - 1; for
    non-principal chi, c_j = 0 for j >= deg Q."""
    q, m = field.q, modulus.degree
    basis = unit_group_basis(field, modulus)
    rows = np.zeros((m, q**m))
    for j in range(m):
        rows[j, q**j : 2 * q**j] = 1
    c = character_sums(basis, rows)
    coeff = lambda j: c[j] if j < m else 0.0
    psi = []
    for n in range(1, n_max + 1):
        psi.append(n * coeff(n) - sum(psi[j - 1] * coeff(n - j) for j in range(1, n)))
    return np.array(psi), c


def _check_explicit_formula(fld, modulus, n_max, roots=True):
    q, m = fld.q, modulus.degree
    table = von_mangoldt_char_sums(fld, modulus, n_max)
    psi, c = _explicit_formula(fld, modulus, n_max)
    for n_total in range(1, n_max + 1):
        got, want = table[n_total - 1, 1:], psi[n_total - 1, 1:]
        scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale, (q, str(modulus), n_total)
        # the Riemann hypothesis: m - 1 inverse zeros, each of size 1 or sqrt(q)
        bound = (m - 1) * q ** (n_total / 2)
        assert np.max(np.abs(got), initial=0.0) <= bound * (1 + 1e-12), (q, str(modulus), n_total)
    for coeffs in c[:, 1:].T if roots else ():
        coeffs = np.where(np.abs(coeffs) < 1e-9, 0, coeffs)
        coeffs = coeffs[: np.flatnonzero(coeffs)[-1] + 1]
        # roots of u^D L(1/u), leading coefficient c_0 = 1: the inverse zeros
        sizes = np.abs(np.roots(coeffs))
        gap = np.minimum(np.abs(sizes - 1), np.abs(sizes - math.sqrt(q)))
        assert np.all(gap <= 1e-6), (q, str(modulus), sizes)


def test_von_mangoldt_table_follows_the_explicit_formula():
    # every monic Q of degree 2..5 over F_2 and F_3 at N <= 10; the inverse
    # zeros of each, except that only a seeded sample of the 243 quintic
    # moduli over F_3 has its L-polynomial rooted
    sample = np.random.default_rng(5).choice(3**5, size=24, replace=False)
    for fld, modulus in _small_moduli():
        _check_explicit_formula(fld, modulus, 10)
    for fld in (make_field(2), make_field(3)):
        for u, modulus in enumerate(enumerate_monic(fld, 5)):
            _check_explicit_formula(fld, modulus, 10, roots=fld.q == 2 or u in sample)
    rng = np.random.default_rng(12)
    for p, k in ALL_FIELDS:
        fld = make_field(p, k)
        q = fld.q
        n_max = max(n for n in range(1, 11) if q**n <= 1 << 16)
        for m in (2, 3):
            modulus = from_coeffs(fld, [*rng.integers(1, q, size=1), *rng.integers(0, q, size=m - 1), 1])
            _check_explicit_formula(fld, modulus, n_max)


def _fields(rep):
    return rep.bound, rep.params, rep.lhs, rep.rhs, rep.hard, rep.passed


def test_von_mangoldt_reports_do_not_depend_on_call_order(f3):
    get_tables(f3, 9)
    a, b = from_coeffs(f3, [2, 1, 0, 1, 1]), from_coeffs(f3, [1, 0, 1]) ** 2
    ascending = {(str(Q), n): _fields(von_mangoldt_char_sum_ratio(f3, Q, n))
                 for Q in (a, b) for n in range(1, 10)}
    descending = {(str(Q), n): _fields(von_mangoldt_char_sum_ratio(f3, Q, n))
                  for Q in (b, a) for n in range(9, 0, -1)}
    interleaved = {(str(Q), n): _fields(von_mangoldt_char_sum_ratio(f3, Q, n))
                   for n in range(1, 10) for Q in (a, b)}
    assert ascending == descending == interleaved


def test_von_mangoldt_reports_survive_table_extension(monkeypatch):
    fld = make_field(5)
    modulus = from_coeffs(fld, [1, 2, 1])
    monkeypatch.delitem(tables_module._TABLE_CACHE, fld, raising=False)
    get_tables(fld, 3)
    before = [_fields(von_mangoldt_char_sum_ratio(fld, modulus, n)) for n in range(1, 4)]
    assert von_mangoldt_char_sums(fld, modulus, 3).shape[0] == 3
    get_tables(fld, 6)  # extended in place; the next report reads a deeper table
    after = [_fields(von_mangoldt_char_sum_ratio(fld, modulus, n)) for n in range(1, 7)]
    assert von_mangoldt_char_sums(fld, modulus, 6).shape[0] == 6
    assert after[:3] == before
    for n_total, (_, _, lhs, *_) in enumerate(after, start=1):
        want = float(np.max(np.abs(_psi_per_n(fld, modulus, n_total)[1:])))
        assert lhs == pytest.approx(want, rel=1e-12)


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
