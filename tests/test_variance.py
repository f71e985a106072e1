from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from ffvar.arith import liouville, moebius
from ffvar.errors import BudgetError, PreconditionError, SmoothWindowError
from ffvar.fields import make_field
from ffvar.polys import enumerate_monic, from_coeffs, interval_key, monic_from_index, t_power
from ffvar.variance import (
    FUNCTIONS,
    decomposition_check,
    get_function,
    interval_sums,
    ramare_identity_check,
    variance_charside,
    variance_direct,
    variance_report,
    weighted_char_sum,
)

# -- function handles -----------------------------------------------------------


def test_function_registry():
    assert sorted(FUNCTIONS) == ["liouville", "moebius", "unit"]
    with pytest.raises(PreconditionError, match="unknown function"):
        get_function("nope")


def test_t_power_weights():
    lam = get_function("liouville")
    mu = get_function("moebius")
    unit = get_function("unit")
    assert [lam.t_power_value(v) for v in range(5)] == [1, -1, 1, -1, 1]
    assert [mu.t_power_value(v) for v in range(5)] == [1, -1, 0, 0, 0]
    assert all(unit.t_power_value(v) == 1 for v in range(5))


def test_pointwise_matches_classical_functions(cache2):
    f2 = cache2.field
    lam = get_function("liouville")
    mu = get_function("moebius")
    for g in enumerate_monic(f2, 5):
        assert lam.pointwise(g, cache2) == liouville(g, cache2)
        assert mu.pointwise(g, cache2) == moebius(g, cache2)


# -- direct route -----------------------------------------------------------------


def test_interval_sums_pinned(f2):
    acc = interval_sums(f2, "liouville", 3, 1)
    assert acc.tolist() == [-2, -2]


def test_interval_sums_match_brute_interval_keys(f3, cache3):
    # independent of the mantissa layout: group every monic G of degree 4 by
    # its interval key and add up pointwise values from trial division
    for name in ("liouville", "moebius", "unit"):
        handle = get_function(name)
        for h in range(0, 4):
            brute = [0] * 3 ** (4 - h - 1)
            for g in enumerate_monic(f3, 4):
                brute[interval_key(g, h).packed] += handle.pointwise(g, cache3)
            assert interval_sums(f3, name, 4, h).tolist() == brute


def test_interval_sums_preconditions(f2):
    with pytest.raises(PreconditionError):
        interval_sums(f2, "liouville", 3, 3)
    with pytest.raises(BudgetError):
        interval_sums(f2, "liouville", 24, 1, budget=1 << 10)


def test_variance_direct_pinned(f2):
    assert variance_direct(f2, "liouville", 3, 1) == Fraction(4)
    assert variance_direct(f2, "moebius", 3, 1) == Fraction(0)


def test_variance_direct_is_exact_rational(f3):
    v = variance_direct(f3, "liouville", 4, 1)
    assert isinstance(v, Fraction)
    # brute recount: mean over intervals of S^2
    total = Fraction(0)
    sums = interval_sums(f3, "liouville", 4, 1)
    for s in sums.tolist():
        total += Fraction(s * s)
    assert v == total * Fraction(3 ** (1 + 1), 3**4)


def test_unit_function_closed_form(f2, f3):
    # S_I = q^(h+1) for every interval, so the mean square is q^(2h+2)
    for fld in (f2, f3):
        for n in range(2, 6):
            for h in range(0, n - 1):
                assert variance_direct(fld, "unit", n, h) == fld.q ** (2 * h + 2)


# -- character route ---------------------------------------------------------------


def test_weighted_char_sum_pinned(f2):
    from ffvar.characters import enumerate_characters, unit_group_basis

    basis = unit_group_basis(f2, t_power(f2, 2))
    chi0, chi1 = enumerate_characters(basis)
    assert weighted_char_sum(f2, "liouville", chi0, 3) == pytest.approx(-4 + 0j)
    assert weighted_char_sum(f2, "liouville", chi1, 3) == pytest.approx(0j)


def test_variance_charside_pinned(f2):
    assert variance_charside(f2, "liouville", 3, 1) == pytest.approx(4.0)
    assert variance_charside(f2, "moebius", 3, 1) == pytest.approx(0.0)


def test_charside_requires_room_for_even_characters(f2):
    with pytest.raises(PreconditionError):
        variance_charside(f2, "liouville", 3, 2)
    with pytest.raises(PreconditionError):
        variance_charside(f2, "liouville", 3, 3)


def test_both_routes_agree_on_a_medium_grid(f2, f3):
    for fld, n_top in ((f2, 7), (f3, 5)):
        for name in ("liouville", "moebius", "unit"):
            for n in range(2, n_top + 1):
                for h in range(0, n - 1):
                    direct = variance_direct(fld, name, n, h)
                    char = variance_charside(fld, name, n, h)
                    assert abs(float(direct) - char) <= 1e-9 * max(1.0, float(direct))


# -- reports ------------------------------------------------------------------------


def test_variance_report_fields(f2):
    rep = variance_report(f2, "liouville", 3, 1)
    assert (rep.q, rep.n, rep.h, rep.function) == (2, 3, 1, "liouville")
    assert rep.direct == 4
    assert rep.charside == pytest.approx(4.0)
    assert rep.abs_gap == pytest.approx(0.0)
    assert rep.theorem_ratio == pytest.approx(4 / 486)


def test_variance_report_edges(f2):
    rep = variance_report(f2, "liouville", 3, 0)
    assert rep.theorem_ratio is None  # the monitored bound divides by h
    assert rep.abs_gap == pytest.approx(0.0)
    top = variance_report(f2, "liouville", 3, 1, mode="direct")
    assert top.charside is None and top.abs_gap is None
    char = variance_report(f2, "liouville", 3, 1, mode="character")
    assert char.direct is None and char.charside == pytest.approx(4.0)
    assert variance_report(f2, "liouville", 3, 2, mode="character").charside is None
    with pytest.raises(PreconditionError, match="unknown mode"):
        variance_report(f2, "liouville", 3, 1, mode="dual")


# -- exact identity checks ------------------------------------------------------------


def test_ramare_identity_defect_zero_exhaustive(f2, cache2):
    for n in range(2, 7):
        for h in range(1, n):
            smooth_skips = 0
            for g in enumerate_monic(f2, n):
                try:
                    assert ramare_identity_check(f2, g, h, n, cache=cache2) == 0
                except SmoothWindowError:
                    smooth_skips += 1
            assert smooth_skips > 0  # the all-smooth corner really occurs


def test_ramare_identity_on_f3_samples(f3, cache3):
    rng = np.random.default_rng(11)
    n = 5
    for u in rng.integers(0, 3**n, size=60):
        g = monic_from_index(f3, n, int(u))
        for h in (1, 2, 3):
            try:
                assert ramare_identity_check(f3, g, h, n, cache=cache3) == 0
            except SmoothWindowError:
                pass


def test_ramare_rejects_bad_inputs(f2, f3, cache2, cache3):
    g = monic_from_index(f2, 4, 3)
    with pytest.raises(PreconditionError):
        ramare_identity_check(f2, g, 0, 4, cache=cache2)
    with pytest.raises(PreconditionError):
        ramare_identity_check(f2, g, 2, 5, cache=cache2)
    with pytest.raises(PreconditionError, match="monic"):
        ramare_identity_check(f3, from_coeffs(f3, [0, 0, 2]), 1, 2, cache=cache3)


def test_ramare_smooth_window_error(f2, cache2):
    g = from_coeffs(f2, [0, 1]) * from_coeffs(f2, [1, 1])  # t(t+1): 1-smooth
    with pytest.raises(SmoothWindowError):
        ramare_identity_check(f2, g, 1, 2, cache=cache2)


def test_decomposition_defect_zero(f2, f3, cache2, cache3):
    for fld, cache, n_top in ((f2, cache2, 6), (f3, cache3, 4)):
        for n in range(2, n_top + 1):
            for h in range(1, n):
                assert decomposition_check(fld, n, h, cache=cache) == 0


def test_decomposition_rejects_bad_window(f2, cache2):
    with pytest.raises(PreconditionError):
        decomposition_check(f2, 4, 0, cache=cache2)
    with pytest.raises(PreconditionError):
        decomposition_check(f2, 4, 4, cache=cache2)
