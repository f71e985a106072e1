"""Empirical monitors for the inequality layer: the character-sum mean value
theorem, prime and von Mangoldt character sums, the large-prime-factor and
smooth-factor square sums, and the right side of the headline variance
bound, against which cmd_sweep reads its theorem ratio. The two square sums
over the even characters mod t^(N-h) are exact class sums of the fold, with
no basis and no transform; every other character sum is a transform.

Two report classes, never mixed: hard-pass checks whose constant is fully
justified (the mean value theorem with its explicit 2*Phi(Q)*(q^(n-deg Q)+1),
the von Mangoldt sum against deg(Q)*q^(N/2)) carry a pass/fail verdict;
everything whose sharp constant is unspecified is observe-only and reports a
finite ratio without asserting a threshold.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import PreconditionError, check_budget
from .fields import FieldSpec
from .polys import Poly, t_power
from .records import Record
from .characters import character_sums, l_coefficients, unit_group_basis
from .tables import fold_monic_mod, get_tables, reduce_monic_mod

MVT_SLACK = 1e-9


class BoundReport(Record):
    __slots__ = ("bound", "params", "lhs", "rhs", "passed", "extras")

    def __init__(self, bound: str, params: dict[str, object], lhs: float, rhs: float,
                 passed: bool | None, extras: dict[str, float] | None = None):
        self.bound, self.params, self.lhs, self.rhs, self.passed = bound, params, lhs, rhs, passed
        self.extras = {} if extras is None else extras

    @property
    def hard(self) -> bool:
        """Hard checks are exactly the ones with a verdict."""
        return self.passed is not None

    @property
    def ratio(self) -> float:
        if self.rhs == 0:
            return 0.0 if self.lhs == 0 else math.inf
        return self.lhs / self.rhs

    def summary(self) -> str:
        verdict = {True: "pass", False: "FAIL", None: "observe"}[self.passed]
        ps = " ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.bound} [{verdict}] {ps} lhs={self.lhs:.6g} rhs={self.rhs:.6g} ratio={self.ratio:.6g}"


def _mvt_reports(
    field: FieldSpec, modulus: Poly, n: int, rows: int, draws: Callable[[np.ndarray], Iterable]
) -> list[BoundReport]:
    """The mean value theorem on `rows` coefficient vectors from draws(units),
    each at the mantissas `units` of the monics of degree n prime to Q alone:
    each is folded by its residues into one row, one transform sums them."""
    q, m = field.q, modulus.degree
    basis = unit_group_basis(field, modulus)
    codes = reduce_monic_mod(field, modulus, n, np.arange(q**n))
    units = np.flatnonzero(np.isin(codes, basis.unit_codes, kind="table"))
    codes = codes[units]
    folded = np.empty((rows, q**m), dtype=np.complex128)
    diag = np.empty(rows)
    for i, coeffs in enumerate(draws(units)):
        folded[i] = np.bincount(codes, coeffs.real, q**m)
        folded[i] += 1j * np.bincount(codes, coeffs.imag, q**m)
        diag[i] = np.sum(np.abs(coeffs) ** 2)
    sums = character_sums(basis, folded)
    scale = q ** (n - m) if n >= m else 1.0 / q ** (m - n)
    reports = []
    for row, d in zip(sums, diag):
        lhs = float(np.sum(row.real**2 + row.imag**2))
        rhs = 2.0 * basis.phi * (scale + 1.0) * float(d)
        report = BoundReport("mvt", {"q": q, "Q": str(modulus), "n": n}, lhs, rhs, passed=None)
        report.passed = report.ratio <= 1.0 + MVT_SLACK
        reports.append(report)
    return reports


def mvt_check(field: FieldSpec, modulus: Poly, n: int, coeffs: np.ndarray) -> BoundReport:
    """One instance of the mean value theorem: coeffs is a complex vector
    indexed by the mantissas of monic degree-n polynomials."""
    if len(coeffs) != field.q**n:
        raise PreconditionError(f"need q^n = {field.q**n} coefficients, got {len(coeffs)}")
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    return _mvt_reports(field, modulus, n, 1, lambda units: [coeffs[units]])[0]


def mvt_trial(
    field: FieldSpec,
    modulus: Poly,
    n: int,
    *,
    seed: int = 0,
    trials: int = 100,
    distribution: str = "signs",
) -> list[BoundReport]:
    """Seeded random coefficient draws, "signs" (+-1) or "phases" (unit
    modulus): same seed, same draws; every report must pass. A draw is
    estimated at 64 bytes per monic of degree n (57 measured), its folded
    row at 16 bytes per residue mod Q."""
    if trials < 1:
        raise PreconditionError("trial count must be >= 1")
    if distribution not in ("signs", "phases"):
        raise PreconditionError(f"unknown distribution {distribution!r}")
    size = field.q**n
    nbytes = 64 * size + 16 * trials * field.q**modulus.degree
    check_budget(nbytes, "mvt of {} draws of {} coefficients", trials, size)
    rng = np.random.default_rng(seed)

    def draws(units: np.ndarray) -> Iterator[np.ndarray]:
        for _ in range(trials):  # one full draw a trial keeps the stream
            if distribution == "signs":
                yield (rng.integers(0, 2, size=size)[units] * 2 - 1).astype(np.complex128)
            else:
                yield np.exp(2j * np.pi * rng.random(size)[units])

    reports = _mvt_reports(field, modulus, n, trials, draws)
    for trial, report in enumerate(reports):
        report.params.update(trial=trial, seed=seed, distribution=distribution)
    return reports


def prime_char_sum_ratio(field: FieldSpec, m: int, x: int) -> BoundReport:
    """Max over non-principal chi mod t^m of |sum over irreducible P of
    degree x of chi(P)|, against ((N-h)/x) q^(x/2) with m standing in for
    N-h. Observe-only (no stated constant)."""
    if m < 2:
        raise PreconditionError("need m >= 2 so non-principal characters exist")
    if x < 1:
        raise PreconditionError("need x >= 1")
    q = field.q
    tables = get_tables(field, x)
    modulus = t_power(field, m)
    basis = unit_group_basis(field, modulus)
    codes = reduce_monic_mod(field, modulus, x, tables.irreducibles[x])
    sums = character_sums(basis, np.bincount(codes, minlength=q**m))[1:]
    lhs = float(np.max(np.abs(sums))) if len(sums) else 0.0
    rhs = (m / x) * q ** (x / 2)
    return BoundReport(
        bound="prime_char_sum",
        params={"q": q, "m": m, "x": x},
        lhs=lhs,
        rhs=rhs,
        passed=None,
    )


@lru_cache(maxsize=1)
def _psi_rows(field: FieldSpec, modulus: Poly) -> tuple[np.ndarray, list, list, list]:
    """The L-coefficients mod Q (one transform), the principal c_j as exact
    ints, and the psi rows grown from them: exact ints for the principal
    character, complex rows for the rest."""
    c = l_coefficients(unit_group_basis(field, modulus))
    return c, [round(x.real) for x in c[:, 0]], [], []


def _grown_psi_rows(field: FieldSpec, modulus: Poly, n_max: int) -> tuple[list, list]:
    """The cached psi rows of Q, grown to at least N = n_max by Newton's
    identity: the principal character's exact ints, and the complex rows of
    the rest (row N - 1 for N). Past m = deg Q the principal c_N, q^(N-m)
    Phi, is appended as its row is grown."""
    q, m = field.q, modulus.degree
    c, c0, principal, rest = _psi_rows(field, modulus)
    phi = c.shape[1]
    for n in range(len(rest) + 1, n_max + 1):
        if n >= m:
            c0.append(q ** (n - m) * phi)
        principal.append(n * c0[n] - sum(c0[j] * principal[n - j - 1] for j in range(1, n)))
        row = n * c[n, 1:] if n < m else np.zeros(phi - 1, dtype=np.complex128)
        rest.append(row - sum(c[j, 1:] * rest[n - j - 1] for j in range(1, min(n, m))))
    return principal, rest


def von_mangoldt_char_sums(field: FieldSpec, modulus: Poly, n_max: int) -> np.ndarray:
    """psi_N(chi) = sum_{G in M_N} Lambda(G) chi(G) for N = 1..n_max (row
    N - 1) and every chi mod Q (enumerate_characters order), read-only.

    The explicit formula, with no table of primes: u L'/L = sum_N psi_N u^N
    for L(u, chi) = sum_j c_j u^j (characters.l_coefficients), so every row
    follows by Newton's identity psi_N = N c_N - sum_{1<=j<N} c_j psi_(N-j).
    Past m = deg Q, c_j = 0 but for the principal chi, whose column is exact
    integers. Rows are kept per modulus and grown on demand: N = 1..n_max in
    turn costs one transform."""
    principal, rest = _grown_psi_rows(field, modulus, n_max)
    psi = np.column_stack(([float(x) for x in principal[:n_max]], rest[:n_max]))
    psi.flags.writeable = False
    return psi


def von_mangoldt_char_sum_ratio(field: FieldSpec, modulus: Poly, n_total: int) -> BoundReport:
    """Max over non-principal chi mod Q of |sum_{G in M_N} Lambda(G) chi(G)|
    against deg(Q) * q^(N/2). Hard pass: the Riemann-hypothesis bound for
    these L-functions carries constant deg(Q) - 1. The sums are row N of
    von_mangoldt_char_sums(field, Q, N), read alone from the cached rows; no
    sieve table is read."""
    if n_total < 1:
        raise PreconditionError("need N >= 1")
    q = field.q
    row = _grown_psi_rows(field, modulus, n_total)[1][n_total - 1]
    if not row.size:
        raise PreconditionError(f"modulus {modulus} admits no non-principal character")
    lhs = float(np.max(np.abs(row)))
    rhs = modulus.degree * q ** (n_total / 2)
    report = BoundReport(
        bound="von_mangoldt_char_sum",
        params={"q": q, "Q": str(modulus), "N": n_total},
        lhs=lhs,
        rhs=rhs,
        passed=None,
    )
    report.passed = report.ratio <= 1.0
    return report


def window_sum_bytes(field: FieldSpec, n: int, m: int) -> int:
    """Peak bytes of the window sums mod t^m over degree n: 3 per monic of
    degree n (values, mask), 16 per residue (both blocks' folds) and 48 per
    class (their class sums and gathers, the scaled codes, the codes one
    digit shorter)."""
    q = field.q
    return 3 * q**n + 16 * q**m + 48 * q ** (m - 1) + (1 << 20)


def _window_square_sums(field: FieldSpec, n_total: int, n: int, h: int) -> tuple[float, float]:
    """Sum over even chi mod t^m, m = N - h, of |sum_{G in M_n} lambda(G)
    chi(G)|^2 over the G with an irreducible factor of degree > h, and over
    the h-smooth G. Even characters are those of the units mod F_q^*, so by
    orthogonality each is q^(m-1) times the sum over the classes v F_q^* of
    (the block's fold summed over the class)^2, an exact integer. lambda and
    the max factor degrees are read once, and the smooth block's fold is the
    whole fold less the other block's. The class of v = 1 + q r is c v, each
    digit of v scaled by c, one digit per pass."""
    if not 1 <= h <= n_total - 2:
        raise PreconditionError(f"need 1 <= h <= N-2; got h={h}, N={n_total}")
    if not 0 <= n <= n_total:
        raise PreconditionError(f"need 0 <= n <= N; got n={n}, N={n_total}")
    q, m = field.q, n_total - h
    check_budget(window_sum_bytes(field, n, m), "window sum mod t^{} over degree {}", m, n)
    tables = get_tables(field, n)
    lam, top = tables.liouville_values(n), tables.max_factor_degree[n]
    folds = np.zeros((2, q**m), dtype=np.int64)  # (not h-smooth, h-smooth)
    fold_monic_mod(field, t_power(field, m), n, lam, folds[1])
    lam *= top > h
    fold_monic_mod(field, t_power(field, m), n, lam, folds[0])
    folds[1] -= folds[0]
    sums = np.zeros((2, q ** (m - 1)), dtype=np.int64)
    for row in field.mul_table[1:].astype(np.int64):  # row c scales a digit by c
        codes = row[1:2]  # c v for v = 1; digit j of r then varies slowest
        for j in range(1, m):
            codes = np.add.outer(row * q**j, codes).ravel()
        sums += folds.take(codes, axis=1)
    # below q^(2n-1), so int64-exact while the tables to degree n fit in 33 GB
    return tuple(float(int(s @ s) * q ** (m - 1)) for s in sums)


def window_sum_reports(field: FieldSpec, n_total: int, n: int, h: int) -> tuple[BoundReport, ...]:
    """Both window monitors, observe-only, from one pass (_window_square_sums):
    the even-character square sum of the non-h-smooth Liouville block against
    the proof form (N^3/h^2) q^(N+n-h), the statement form (n-h)(N/h)^2 q^(N+n-h)
    in extras, and that of the h-smooth block against q^(n+N-h) + q^(2(N-h))."""
    q = field.q
    rough, smooth = _window_square_sums(field, n_total, n, h)
    rhs = (n_total**3 / h**2) * float(q) ** (n_total + n - h)
    extras = {}
    stmt = (n - h) * (n_total / h) ** 2 * float(q) ** (n_total + n - h)
    if stmt > 0:
        extras["statement_rhs"] = stmt
        extras["statement_ratio"] = rough / stmt
    params = {"q": q, "N": n_total, "n": n, "h": h}
    large = BoundReport("large_factor_sum", params, rough, rhs, passed=None, extras=extras)
    rhs = float(q) ** (n + n_total - h) + float(q) ** (2 * (n_total - h))
    return large, BoundReport("smooth_sum", dict(params), smooth, rhs, passed=None)


def large_factor_sum_ratio(field: FieldSpec, n_total: int, n: int, h: int) -> BoundReport:
    return window_sum_reports(field, n_total, n, h)[0]


def smooth_sum_ratio(field: FieldSpec, n_total: int, n: int, h: int) -> BoundReport:
    return window_sum_reports(field, n_total, n, h)[1]


def theorem_rhs(q: int, n: int, h: int) -> float:
    """N^5 q^h / h^2 in floats: the monitored variance bound of a sweep row."""
    return (n**5 / h**2) * float(q) ** h
