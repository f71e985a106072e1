from __future__ import annotations

import copy
import tracemalloc
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

import ffvar.variance
from conftest import (
    brute_factor,
    characters_of,
    enumerate_monic,
    interval_key,
    pdiv,
    pmul,
    traced_peak,
)
from ffvar.arith import count_smooth_exact, factor
from ffvar.errors import BudgetError, PreconditionError, SmoothWindowError, budget
from ffvar.fields import make_field
from ffvar.polys import (
    from_coeffs,
    monic_from_index,
    monic_index,
    t_power,
)
from ffvar.characters import unit_group_basis
from ffvar.tables import build_tables, get_tables, table_bytes
from ffvar.variance import (
    FUNCTIONS,
    MODES,
    cell_bytes,
    decomposition_check,
    degree_values,
    direct_variances,
    interval_sums,
    ramare_identity_check,
    t_power_value,
    variance_charside,
    variance_direct,
    variance_reports,
    weighted_char_sum,
    window_bytes,
    window_defects,
)

# -- function names ---------------------------------------------------------------


def test_function_registry(monkeypatch, cold_caches, f2):
    # an unknown name is refused, naming the three choices, before any table
    # or basis is built
    assert FUNCTIONS == ("liouville", "moebius", "unit")
    basis = unit_group_basis(f2, t_power(f2, 2))
    cold_caches()

    def no_basis(*args):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(ffvar.variance, "unit_group_basis", no_basis)
    message = r"^unknown function 'nope'; choose from \['liouville', 'moebius', 'unit'\]$"
    for call in (
        lambda: interval_sums(f2, "nope", 6, 1),
        lambda: variance_direct(f2, "nope", 6, 1),
        lambda: direct_variances(f2, "nope", 6, []),
        lambda: variance_charside(f2, "nope", 6, 1),
        lambda: weighted_char_sum(f2, "nope", basis, (0,), 6),
        lambda: next(variance_reports(f2, "nope", 6, [1])),
        lambda: next(variance_reports(f2, "nope", 6, [1], mode="character")),
        lambda: degree_values(f2, "nope", 6),
        lambda: t_power_value("nope", 1),
    ):
        with pytest.raises(PreconditionError, match=message):
            call()
        assert ffvar.tables._TABLE_CACHE == {}


def test_t_power_weights():
    assert [t_power_value("liouville", v) for v in range(5)] == [1, -1, 1, -1, 1]
    assert [t_power_value("moebius", v) for v in range(5)] == [1, -1, 0, 0, 0]
    assert all(t_power_value("unit", v) == 1 for v in range(5))


# -- direct route -----------------------------------------------------------------


def test_interval_sums_pinned(f2):
    acc = interval_sums(f2, "liouville", 3, 1)
    assert acc.tolist() == [-2, -2]


def _brute_value(name: str, g) -> int:
    """lambda, mu or 1 at monic G, from the trial-division factors."""
    primes = brute_factor(g)
    if name == "unit":
        return 1
    if name == "moebius" and len(set(primes)) < len(primes):
        return 0
    return (-1) ** len(primes)


def test_interval_sums_match_brute_interval_keys(f3):
    # independent of the mantissa layout and of the sieve: group every monic
    # G of degree 4 by its interval key and add up lambda, mu or 1 from the
    # trial-division factors
    for name in ("liouville", "moebius", "unit"):
        for h in range(0, 4):
            brute = [0] * 3 ** (4 - h - 1)
            for g in enumerate_monic(f3, 4):
                brute[interval_key(g, h).packed] += _brute_value(name, g)
            assert interval_sums(f3, name, 4, h).tolist() == brute


def test_interval_sums_preconditions(f2):
    with pytest.raises(PreconditionError):
        interval_sums(f2, "liouville", 3, 3)
    # the tables gate decides: one byte short of the degree-24 tables
    need = table_bytes(f2, 24)
    message = f"^sieve tables to degree 24 needs {need} bytes"
    with budget(need - 1), pytest.raises(BudgetError, match=message):
        interval_sums(f2, "liouville", 24, 1)


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


def test_direct_route_sums_the_int8_values_in_place(f2):
    # the interval sums read the int8 values as they are: beyond the int64
    # sums themselves, variance_direct allocates under 2 q^N bytes (an int64
    # copy of the values alone would be 8 q^N), and the results are those of
    # an explicit int64 sum
    n, h = 20, 1
    get_tables(f2, n)
    for name in ("liouville", "moebius"):
        values = degree_values(f2, name, n)
        assert values.dtype == np.int8
        sums = values.astype(np.int64).reshape(-1, 2 ** (h + 1)).sum(axis=1)
        tracemalloc.start()
        try:
            got = variance_direct(f2, name, n, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == Fraction(2 ** (h + 1) * int(sums @ sums), 2**n)
        assert peak - sums.nbytes < 2 * 2**n, (name, peak)


# every F_q with q <= 16, as (p, k)
ALL_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4))


@pytest.mark.parametrize("p,k", ALL_FIELDS, ids=[str(p**k) for p, k in ALL_FIELDS])
def test_direct_variances_of_one_n_match_the_per_h_sums(p, k):
    # one pass per N, the sums at h + 1 folded from those at h, against each
    # h summed from the values on its own, for every h and for sparse sets of
    # h that skip levels
    fld = make_field(p, k)
    q = fld.q
    top = max(n for n in range(1, 9) if q**n <= 4096)
    for name in FUNCTIONS:
        for n in range(1, top + 1):
            values = degree_values(fld, name, n).astype(np.int64)
            want = {}
            for h in range(n):
                sums = values.reshape(-1, q ** (h + 1)).sum(axis=1)
                want[h] = Fraction(q ** (h + 1) * int(sums @ sums), q**n)
            assert direct_variances(fld, name, n, range(n)) == want
            sparse = [n - 1, 0] if n > 1 else [0]
            assert direct_variances(fld, name, n, sparse) == {h: want[h] for h in sparse}
            assert interval_sums(fld, name, n, n - 1).tolist() == [int(values.sum())]
    with pytest.raises(PreconditionError, match="need 0 <= h < n; got h=3, n=3"):
        direct_variances(fld, "liouville", 3, [0, 3])


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
    assert weighted_char_sum(f2, "liouville", basis, chi0, 3) == pytest.approx(-4 + 0j)
    assert weighted_char_sum(f2, "liouville", basis, chi1, 3) == pytest.approx(0j)
    for bad in ((2,), (0, 0)):
        with pytest.raises(PreconditionError):
            weighted_char_sum(f2, "liouville", basis, bad, 3)


@pytest.mark.parametrize("lower", [(0, 0), (1, 0, 1), (1, 2, 0, 1)])
def test_weighted_char_sum_matches_brute_sums(f3, lower):
    # t^2, (t + 1)^2 and t^3 + 2t + 1 over F_3: the t^m fold and the
    # general-modulus fold against chi(G) summed G by G
    from ffvar.characters import unit_group_basis

    basis = unit_group_basis(f3, from_coeffs(f3, [*lower, 1]))
    terms = [(v, g) for v in range(5) for g in enumerate_monic(f3, 4 - v)]
    for chi in characters_of(basis):
        values = [chi.value(g) for _, g in terms]
        for name in FUNCTIONS:
            brute = sum(
                t_power_value(name, v) * _brute_value(name, g) * x
                for (v, g), x in zip(terms, values)
            )
            got = weighted_char_sum(f3, name, basis, chi.exponents, 4)
            assert got == pytest.approx(brute, abs=1e-9)


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
    (rep,) = variance_reports(f2, "liouville", 3, [1])
    assert (rep.q, rep.n, rep.h, rep.function) == (2, 3, 1, "liouville")
    assert rep.direct == 4
    assert rep.charside == pytest.approx(4.0)
    assert rep.abs_gap == pytest.approx(0.0)
    assert rep.theorem_ratio == pytest.approx(4 / 486)


def test_variance_report_edges(f2):
    (rep,) = variance_reports(f2, "liouville", 3, [0])
    assert rep.theorem_ratio is None  # the monitored bound divides by h
    assert rep.abs_gap == pytest.approx(0.0)
    (top,) = variance_reports(f2, "liouville", 3, [1], mode="direct")
    assert top.charside is None and top.abs_gap is None
    char, past = variance_reports(f2, "liouville", 3, [1, 2], mode="character")
    assert char.direct is None and char.charside == pytest.approx(4.0)
    assert past.charside is None  # h = 2 > N - 2: no character route
    with pytest.raises(PreconditionError, match="unknown mode"):
        next(variance_reports(f2, "liouville", 3, [1], mode="dual"))


# -- exact identity checks ------------------------------------------------------------
#
# Small-N oracle: the per-G identities from Poly products, factorizations and
# Fractions, independent of the window pairs that window_defects reads.


def _liouville(factors) -> int:
    return -1 if sum(e for _, e in factors) & 1 else 1


def _omega_w(factors, h: int, n: int) -> int:
    """Distinct irreducible factors with h < deg P <= n."""
    return sum(1 for p, _ in factors if h < p.degree <= n)


def _oracle_ramare(g, h: int, n: int, cache) -> Fraction | None:
    """Recombination defect at G, or None when G is h-smooth."""
    fac = factor(g, cache).factors
    window = [p for p, _ in fac if h < p.degree <= n]
    if not window:
        return None
    total = Fraction(0)
    for p in window:
        cfac = factor(pdiv(g, p), cache).factors
        omega_full = _omega_w(cfac, h, n) + all(cp != p for cp, _ in cfac)
        total -= Fraction(_liouville(cfac), omega_full)
    return total - _liouville(fac)


def _oracle_decomposition(fld, n: int, h: int, cache) -> list[Fraction]:
    """Decomposition defect at every G of degree n, mantissa-indexed."""
    tables = get_tables(fld, n)
    weights: defaultdict[int, Fraction] = defaultdict(Fraction)
    for x in range(h + 1, n + 1):
        for p in (monic_from_index(fld, x, int(u)) for u in tables.irreducibles[x]):
            for m in enumerate_monic(fld, n - x):
                mfac = factor(m, cache).factors
                share = Fraction(_liouville(mfac), _omega_w(mfac, h, n) + 1)
                weights[monic_index(pmul(p, m))] -= share
            if 2 * x <= n:
                for m2 in enumerate_monic(fld, n - 2 * x):
                    pm = pmul(p, m2)
                    pmfac = factor(pm, cache).factors
                    w = _omega_w(pmfac, h, n)
                    weights[monic_index(pmul(p, pm))] -= Fraction(_liouville(pmfac), w * (w + 1))
    lam = tables.liouville_values(n)
    rough = tables.max_factor_degree[n] > h
    return [weights[u] - (int(lam[u]) if rough[u] else 0) for u in range(fld.q**n)]


def test_window_defects_match_per_g_oracle(f2, f3, cache2, cache3):
    for fld, cache, n_top in ((f2, cache2, 6), (f3, cache3, 5)):
        for n in range(2, n_top + 1):
            for h in range(1, n):
                check = window_defects(fld, n, h)
                den = check.denominator
                ramare = [_oracle_ramare(g, h, n, cache) for g in enumerate_monic(fld, n)]
                assert check.skipped.tolist() == [d is None for d in ramare]
                assert [Fraction(int(d), den) for d in check.ramare] == [
                    Fraction(0) if d is None else d for d in ramare
                ]
                assert [Fraction(int(d), den) for d in check.decomposition] == (
                    _oracle_decomposition(fld, n, h, cache)
                )


def test_window_defects_catch_corrupted_tables(monkeypatch, f3):
    clean = build_tables(f3, 5)
    omega = copy.deepcopy(clean)
    omega.big_omega[3][7] += 1
    smooth = copy.deepcopy(clean)
    smooth.max_factor_degree[5][clean.irreducibles[5][0]] = 1
    for tables in (omega, smooth):
        monkeypatch.setattr(ffvar.variance, "get_tables", lambda field, n, tables=tables: tables)
        ramare = decomposition = 0
        for n in range(2, 6):
            for h in range(1, n):
                check = window_defects(f3, n, h)
                ramare += np.count_nonzero(check.ramare)
                decomposition += np.count_nonzero(check.decomposition)
        assert ramare > 0 and decomposition > 0


# every F_q with q <= 16, as (p, k)
ALL_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4))


def test_window_identities_hold_for_every_q():
    cells = 0
    for p, k in ALL_FIELDS:
        fld = make_field(p, k)
        n = 2
        while fld.q**n <= 4096:
            for h in range(1, n):
                check = window_defects(fld, n, h)
                assert not check.ramare.any() and not check.decomposition.any(), (fld.q, n, h)
                cells += 1
            n += 1
    assert cells == 136


def test_window_pairs_past_budget_raise(monkeypatch, f3):
    # the estimate counts the pairs the pass reads (degree 5 and the
    # cofactor degrees 1..3) without building them: one byte short refuses
    tables = build_tables(f3, 5)
    need = window_bytes(f3, 5, 1)
    rows = [len(tables.window_pairs(m)[0]) for m in (5, 1, 2, 3)]
    assert need == 88 * rows[0] + 24 * sum(rows[1:]) + 48 * 3**5 + (1 << 20)
    message = f"^window pairs of degree 5 needs {need} bytes, over the budget of {need - 1}$"
    monkeypatch.setattr(ffvar.variance, "get_tables", lambda field, n: tables)
    with budget(need - 1), pytest.raises(BudgetError, match=message):
        window_defects(f3, 5, 1)
    fresh = build_tables(f3, 5)
    monkeypatch.setattr(ffvar.variance, "get_tables", lambda field, n: fresh)
    with budget(need):
        assert traced_peak(window_defects, f3, 5, 1) <= need


def test_ramare_identity_defect_zero_exhaustive(f2):
    for n in range(2, 7):
        for h in range(1, n):
            check = window_defects(f2, n, h)
            assert not check.ramare.any()
            smooth_skips = int(np.count_nonzero(check.skipped))
            assert smooth_skips == count_smooth_exact(f2, h, n)
            assert smooth_skips > 0  # the all-smooth corner really occurs


def test_ramare_identity_on_f3_samples(f3):
    rng = np.random.default_rng(11)
    n = 5
    for u in rng.integers(0, 3**n, size=60):
        g = monic_from_index(f3, n, int(u))
        for h in (1, 2, 3):
            try:
                assert ramare_identity_check(f3, g, h, n) == 0
            except SmoothWindowError:
                pass


def test_ramare_rejects_bad_inputs(f2, f3):
    g = monic_from_index(f2, 4, 3)
    with pytest.raises(PreconditionError):
        ramare_identity_check(f2, g, 0, 4)
    with pytest.raises(PreconditionError):
        ramare_identity_check(f2, g, 2, 5)
    with pytest.raises(PreconditionError, match="monic"):
        ramare_identity_check(f3, from_coeffs(f3, [0, 0, 2]), 1, 2)


def test_ramare_smooth_window_error(f2):
    g = pmul(from_coeffs(f2, [0, 1]), from_coeffs(f2, [1, 1]))  # t(t+1): 1-smooth
    with pytest.raises(SmoothWindowError):
        ramare_identity_check(f2, g, 1, 2)


def test_decomposition_defect_zero(f2, f3):
    for fld, n_top in ((f2, 6), (f3, 4)):
        for n in range(2, n_top + 1):
            for h in range(1, n):
                assert decomposition_check(fld, n, h) == 0


def test_decomposition_rejects_bad_window(f2):
    with pytest.raises(PreconditionError):
        decomposition_check(f2, 4, 0)
    with pytest.raises(PreconditionError):
        decomposition_check(f2, 4, 4)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("p, n, h", [(2, 16, 1), (2, 16, 2), (3, 10, 1)])
def test_cell_bytes_cover_the_route_peak(cold_caches, p, n, h, mode):
    # the estimate the CLI checks per cell is at least what the cell's
    # routes peak at, tables, mu's squarefree flags and basis built from cold;
    # unit builds no table on either route
    fld = make_field(p)
    for f in ("moebius", "unit"):
        peak = traced_peak(lambda: list(variance_reports(fld, f, n, [h], mode=mode)))
        assert peak <= cell_bytes(fld, f, n, h, mode), f


def test_unit_cell_bytes_count_no_tables():
    # F_2 N=27 --mode direct --function unit needs about 403 MB, its values
    # and interval sums: under the default budget, though the tables it never
    # builds would take it past
    fld = make_field(2)
    assert cell_bytes(fld, "unit", 27, 1, "direct") < 1 << 30
    assert cell_bytes(fld, "unit", 27, 1, "direct") + table_bytes(fld, 27) > 1 << 30
