from __future__ import annotations

import math

import numpy as np
import pytest

from ffvar.bounds import (
    BoundReport,
    MVT_SLACK,
    TrialConfig,
    large_factor_sum_ratio,
    mvt_check,
    mvt_trial,
    prime_char_sum_ratio,
    smooth_sum_ratio,
    theorem_ratio_sweep,
    von_mangoldt_char_sum_ratio,
)
from ffvar.errors import BudgetError, PreconditionError
from ffvar.fields import make_field
from ffvar.polys import from_coeffs, t_power

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


def test_mvt_trial_budget_refusal_is_a_budget_error(f2):
    trials = mvt_trial(f2, t_power(f2, 3), 5, TrialConfig(seed=1, trials=1), budget=16)
    with pytest.raises(BudgetError, match="exceeds budget 16"):
        next(trials)


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


# -- theorem ratio monitoring -------------------------------------------------------------


def test_theorem_ratio_sweep_pinned(f2):
    (rep,) = theorem_ratio_sweep(f2, [3], lambda n: [1])
    assert rep.lhs == pytest.approx(4.0)
    assert rep.rhs == pytest.approx(486.0)
    assert rep.ratio == pytest.approx(4 / 486)
    assert not rep.hard


def test_theorem_ratio_sweep_rejects_h_zero(f2):
    with pytest.raises(PreconditionError):
        list(theorem_ratio_sweep(f2, [3], lambda n: [0]))
    with pytest.raises(PreconditionError):
        list(theorem_ratio_sweep(f2, [3], lambda n: [3]))


def test_theorem_ratio_sweep_deterministic(f2):
    rule = lambda n: range(1, min(3, n - 1) + 1)
    a = [r.ratio for r in theorem_ratio_sweep(f2, range(3, 8), rule)]
    b = [r.ratio for r in theorem_ratio_sweep(f2, range(3, 8), rule)]
    assert a == b
    assert all(math.isfinite(x) and x > 0 for x in a)
