"""Acceptance gate: ten criteria, one test (and one PASS/FAIL line) each.

Each test prints `PASS <criterion>: <summary>` on success so a verbose run
reads as a checklist; tolerances and grids are stated inline next to the
assertions they guard.
"""
from __future__ import annotations

import functools
import math
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from ffvar.arith import (
    count_smooth_exact,
    liouville_full_sum,
    smooth_asymptotic_ratio,
)
from ffvar.bounds import mvt_trial, von_mangoldt_char_sum_ratio
from conftest import (
    characters_of,
    enumerate_monic,
    monic,
    pmul,
    ppow,
    rotation_multiset_cancels,
    star,
)
from ffvar.characters import (
    character_rotation_matrix,
    count_even,
    enumerate_characters,
    unit_group_basis,
)
from ffvar.cli import main
from ffvar.fields import make_field
from ffvar.polys import (
    from_coeffs,
    monic_from_index,
    monic_index,
    t_power,
)
from ffvar.tables import get_tables
from ffvar.variance import (
    decomposition_check,
    variance_charside,
    variance_direct,
    window_defects,
)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)


def criterion(label: str):
    """Print exactly one pass/fail line for the wrapped check."""

    def deco(fn):
        @functools.wraps(fn)
        def run():
            t0 = time.perf_counter()
            try:
                detail = fn()
            except BaseException as exc:
                print(f"FAIL {label}: {exc}")
                raise
            elapsed = time.perf_counter() - t0
            print(f"PASS {label}: {detail} [{elapsed:.1f}s]")

        return run

    return deco


@criterion("criterion-01 variance identity")
def test_criterion_01_variance_identity_dual_route():
    start = time.perf_counter()
    worst = 0.0
    cells = 0
    for fld, n_top in ((F2, 10), (F3, 7)):
        for n in range(2, n_top + 1):
            for name in ("liouville", "moebius"):
                for h in range(0, n - 1):
                    direct = variance_direct(fld, name, n, h)
                    charside = variance_charside(fld, name, n, h)
                    gap = abs(float(direct) - charside)
                    tol = 1e-6 * max(1.0, float(direct))
                    assert gap <= tol, (
                        f"routes disagree at (q={fld.q}, N={n}, h={h}, f={name}): "
                        f"direct={direct}, char={charside}, gap={gap:.3e} > {tol:.3e}"
                    )
                    worst = max(worst, gap / max(1.0, float(direct)))
                    cells += 1
    assert variance_direct(F2, "liouville", 3, 1) == Fraction(4)
    assert abs(variance_charside(F2, "liouville", 3, 1) - 4.0) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion budget exceeded: {elapsed:.1f}s >= 60s"
    return f"{cells} grid cells, worst relative gap {worst:.2e}, pinned Var(q=2,N=3,h=1)=4"


@criterion("criterion-02 closed-form full sums")
def test_criterion_02_liouville_full_sum_closed_form():
    start = time.perf_counter()
    checks = 0
    for fld, n_top in ((F2, 16), (F3, 10), (F4, 8), (F5, 8)):
        for n in range(0, n_top + 1):
            got = liouville_full_sum(fld, n)
            want = (-1) ** n * fld.q ** ((n + 1) // 2)
            assert got == want, f"sum over M_{n} of lambda: got {got}, want {want} (q={fld.q})"
            checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion budget exceeded: {elapsed:.1f}s >= 120s"
    return f"{checks} degree columns match (-1)^n q^ceil(n/2) over q in {{2,3,4,5}}"


@criterion("criterion-03 involution and symmetry")
def test_criterion_03_star_involution_and_liouville_symmetry():
    total = 0
    for fld in (F2, F3):
        q = fld.q
        for n in range(0, 11):
            tables = get_tables(fld, n)
            lam = {m: tables.liouville_values(m) for m in range(n + 1)}
            for u in range(q**n):
                if n >= 1 and u % q == 0:
                    continue  # F(0) = 0: the involution is not defined there
                f = monic_from_index(fld, n, u)
                g = star(f)
                assert star(g) == f, f"star is not an involution at {f}"
                gm = monic(g)
                assert int(lam[gm.degree][monic_index(gm)]) == int(lam[n][u]), (
                    f"lambda changed under star at {f}"
                )
                total += 1
    rng = np.random.default_rng(2024)
    pairs = 0
    for _ in range(10_000):
        fld = F2 if rng.integers(0, 2) == 0 else F3
        q = fld.q
        coeffs = []
        for _f in range(2):
            deg = int(rng.integers(0, 7))
            cs = [int(c) for c in rng.integers(0, q, size=deg + 1)]
            cs[0] = int(rng.integers(1, q))  # nonzero constant term
            if cs[-1] == 0:
                cs[-1] = 1
            coeffs.append(from_coeffs(fld, cs))
        f, g = coeffs
        assert star(pmul(f, g)) == pmul(star(f), star(g)), f"star not multiplicative at ({f})*({g})"
        pairs += 1
    return f"{total} exhaustive reversals (deg <= 10, q in {{2,3}}), {pairs} random product pairs"


@criterion("criterion-04 recombination identity")
def test_criterion_04_ramare_identity_exact():
    checked = 0
    for n in range(2, 9):
        for h in range(1, n):
            check = window_defects(F2, n, h)
            bad = np.flatnonzero(check.ramare)
            assert not bad.size, (
                f"nonzero defect {Fraction(int(check.ramare[bad[0]]), check.denominator)} "
                f"at G={monic_from_index(F2, n, int(bad[0]))}, h={h}, n={n}"
            )
            smooth = int(np.count_nonzero(check.skipped))
            checked += F2.q**n - smooth
            # every skipped G must be exactly the h-smooth ones
            assert smooth == count_smooth_exact(F2, h, n), (
                f"smooth-skip count mismatch at n={n}, h={h}"
            )
    return f"{checked} qualifying (G, h) cells with exact defect 0 (q=2, n <= 8)"


@criterion("criterion-05 window decomposition")
def test_criterion_05_decomposition_defect_zero():
    cells = 0
    for fld in (F2, F3):
        for n in range(2, 9):
            for h in range(1, n):
                defect = decomposition_check(fld, n, h)
                assert defect == 0, f"max |defect| = {defect} at (q={fld.q}, n={n}, h={h})"
                cells += 1
    return f"{cells} (q, n, h) cells with max |defect| exactly 0 (q in {{2,3}}, n <= 8)"


@criterion("criterion-06 mean value theorem trials")
def test_criterion_06_mvt_randomized_trials():
    moduli = {
        F2: [t_power(F2, 2), t_power(F2, 3), t_power(F2, 4), from_coeffs(F2, [1, 1, 1]),
             pmul(ppow(from_coeffs(F2, [1, 1]), 2), t_power(F2, 1))],
        F3: [t_power(F3, 2), t_power(F3, 3), t_power(F3, 4), from_coeffs(F3, [1, 1, 1]),
             pmul(ppow(from_coeffs(F3, [1, 1]), 2), t_power(F3, 1))],
    }
    trials = 0
    worst = 0.0
    seed = 500
    for fld, mods in moduli.items():
        n = 8 if fld.q == 2 else 6
        for modulus in mods:
            for dist in ("signs", "phases"):
                reports = mvt_trial(fld, modulus, n, seed=seed, trials=25, distribution=dist)
                seed += 1
                for rep in reports:
                    assert rep.passed, rep.summary()
                    worst = max(worst, rep.ratio)
                    trials += 1
    assert trials == 500
    return f"{trials} seeded trials, zero violations (slack 1e-9), max ratio {worst:.3f}"


@criterion("criterion-07 smooth counting")
def test_criterion_07_smooth_dp_vs_enumeration():
    cells = 0
    for fld in (F2, F3):
        q = fld.q
        for n in range(0, 9):
            tables = get_tables(fld, n)
            mfd = np.asarray(tables.max_factor_degree[n])
            for h in range(1, n + 1):
                brute = int((mfd <= h).sum()) if n >= 1 else 1
                dp = count_smooth_exact(fld, h, n)
                assert dp == brute, f"smooth count mismatch (q={q}, N={n}, h={h}): {dp} vs {brute}"
                main_ratio, crude_ratio = smooth_asymptotic_ratio(fld, h, n)
                assert math.isfinite(main_ratio) and math.isfinite(crude_ratio)
                if h == n:
                    assert main_ratio == 1.0, f"h=N column not exactly 1 at (q={q}, N={n})"
                cells += 1
    return f"{cells} (q, N, h) cells: DP equals enumeration, h=N ratio exactly 1"


@criterion("criterion-08 character layer")
def test_criterion_08_orthogonality_and_totients():
    rows = 0
    for q in (2, 3, 4):
        fld = F4 if q == 4 else make_field(q)
        for m in range(1, 6):
            basis = unit_group_basis(fld, t_power(fld, m))
            assert basis.phi == q ** (m - 1) * (q - 1), f"Phi(t^{m}) wrong for q={q}"
            assert count_even(basis) == q ** (m - 1), f"Phi_ev(t^{m}) wrong for q={q}"
            chars = characters_of(basis)
            assert enumerate_characters(basis).tolist() == [list(chi.exponents) for chi in chars]
            assert [chi.is_even for chi in chars] == [i < q ** (m - 1) for i in range(len(chars))]
            R = character_rotation_matrix(basis, enumerate_characters(basis))
            one_col = int(np.where(basis.unit_codes == 1)[0][0])
            for i, chi in enumerate(chars):
                cancels = rotation_multiset_cancels(R[i].tolist(), basis.exponent)
                assert cancels == (not chi.is_principal), (
                    f"row orthogonality broken for chi={chi.exponents} mod t^{m}, q={q}"
                )
            for j in range(R.shape[1]):
                cancels = rotation_multiset_cancels(R[:, j].tolist(), basis.exponent)
                assert cancels == (j != one_col), (
                    f"column orthogonality broken at unit code {basis.unit_codes[j]}"
                )
            rows += len(chars)
    return f"exact orthogonality both ways for {rows} characters; totient formulas hold (q in {{2,3,4}}, m <= 5)"


@criterion("criterion-09 von Mangoldt character sums")
def test_criterion_09_von_mangoldt_sums_bounded():
    checked = 0
    vacuous = 0
    worst = 0.0
    where = None
    for fld in (F2, F3):
        for m in range(2, 6):
            for modulus in enumerate_monic(fld, m):
                if unit_group_basis(fld, modulus).phi < 2:
                    vacuous += 1  # t(t+1) over F_2: no non-principal character
                    continue
                for n_total in range(1, 13):
                    rep = von_mangoldt_char_sum_ratio(fld, modulus, n_total)
                    assert rep.passed, rep.summary()
                    if rep.ratio > worst:
                        worst, where = rep.ratio, (fld.q, str(modulus), n_total)
                    checked += 1
    assert vacuous == 1  # exactly one modulus in the grid has a trivial unit group
    return f"{checked} (Q, N) reports all under deg(Q) q^(N/2); max ratio {worst:.3f} at {where}"


@criterion("criterion-10 theorem ratio sweep")
def test_criterion_10_sweep_emission():
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        for path in (a, b):
            rc = main(["sweep", "--N", "3:12", "--h", "1:4", "--out", str(path)])
            assert rc == 0, f"sweep exited {rc}"
        assert a.read_bytes() == b.read_bytes(), "sweep emission is not deterministic"
        rows = a.read_text().strip().splitlines()
    header, data = rows[0], rows[1:]
    assert header == "q,N,h,var_direct,var_char,bound_n5,ratio,largepf_ratio,smoothpf_ratio"
    max_ratio = 0.0
    at = None
    monitored = 0
    for line in data:
        cells = line.split(",")
        n, h = int(cells[1]), int(cells[2])
        ratio = float(cells[6])
        assert math.isfinite(ratio) and ratio > 0, f"bad ratio in row {line!r}"
        if 1 <= h <= min(4, n - 2):
            monitored += 1
            if ratio > max_ratio:
                max_ratio, at = ratio, (n, h)
    expected_cells = sum(min(4, n - 2) for n in range(3, 13))
    assert monitored == expected_cells, f"{monitored} monitored cells, expected {expected_cells}"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"criterion budget exceeded: {elapsed:.1f}s >= 600s"
    return f"{len(data)} rows, deterministic; max ratio {max_ratio:.4f} at (N,h)={at} (no threshold asserted)"
