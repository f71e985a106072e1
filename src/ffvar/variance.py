"""Variance of arithmetic functions over short intervals, two ways.

A short interval around a monic G_0 of degree N keeps all coefficients above
degree h fixed, so intervals are the fibers of mantissa // q^(h+1). The
direct route enumerates all q^N polynomials, accumulates interval sums, and
returns the exact rational

    Var = q^(h+1) / q^N * sum_I S_I^2.

An interval at h + 1 is q consecutive intervals at h, so the sums of every h
of one N come from one pass over the values (direct_variances).

The character route never touches intervals: it averages |U(chi)|^2 over the
even characters mod t^(N-h), where

    U(chi) = sum_{v=0}^{N} f(t^v) * sum_{G monic, deg G = N-v} f(G) chi(G),

and divides by the square of the number of even characters. For symmetric
multiplicative f (Liouville, Moebius, the constant 1) the two routes agree
exactly; the valuation v of each block enters through f(t^v), pairing the
t-power part split off by the coefficient-reversal involution with the
coprime-to-t part seen by the characters.

Also here: the Ramare-style recombination identity and the window
decomposition of Liouville into (prime x cofactor) parts, checked exactly for
every monic G of degree n at once. Both sum over the window pairs (P, M),
G = P * M with h < deg P <= n (ArithTables.window_pairs), a term read from
the cofactor M alone: lambda(M) = -lambda(G), w = omega_w(M) and whether
P | M. Each term weighs 1/omega_w(G): where P does not divide M,
omega_w(G) = w + 1; where it does, omega_w(G) = w and the decomposition's
1/(w+1) + 1/(w(w+1)) telescopes to 1/w. So over the omega_w(G) window
primes both sums give lambda(G). Each is still evaluated as stated, in int64
numerators over lcm(1..n+1).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

import numpy as np

from .arith import pi_q
from .errors import PreconditionError, SmoothWindowError, check_budget
from .fields import FieldSpec
from .polys import Poly, monic_index, t_power
from .records import Frozen
from .characters import UnitGroupBasis, character_sums, route_bytes, unit_group_basis
from .tables import flag_bytes, fold_monic_mod, get_tables, table_bytes


FUNCTIONS = ("liouville", "moebius", "unit")


def _check_function(f: str) -> None:
    if f not in FUNCTIONS:
        raise PreconditionError(f"unknown function {f!r}; choose from {sorted(FUNCTIONS)}")


def degree_values(field: FieldSpec, f: str, n: int) -> np.ndarray:
    """Values of the function named `f` (one of FUNCTIONS, each symmetric, i.e.
    star-invariant away from t, completely or squarefree multiplicative, with
    values in {-1, 0, 1}) over all monic of degree n, mantissa-indexed, int8;
    only liouville and moebius read the sieve tables."""
    _check_function(f)
    if f == "liouville":
        return get_tables(field, n).liouville_values(n)
    if f == "moebius":
        return get_tables(field, n).moebius_values(n)
    return np.ones(field.q**n, dtype=np.int8)


def t_power_value(f: str, v: int) -> int:
    """The function named `f` at t^v."""
    _check_function(f)
    if f == "liouville":
        return -1 if v & 1 else 1
    if f == "moebius":
        return (1, -1, 0)[min(v, 2)]
    return 1


def _fold(acc: np.ndarray, q: int, dtype) -> np.ndarray:
    """Sums of q consecutive entries of acc, as `dtype`: q strided column
    adds, several times faster than numpy's sum over a short axis."""
    cols = acc.reshape(-1, q)
    out = cols[:, 0].astype(dtype)
    for i in range(1, q):
        out += cols[:, i]
    return out


def interval_sums(
    field: FieldSpec, f: str, n: int, h: int
) -> np.ndarray:
    """S_I for every interval I, indexed by packed upper coefficients: an
    interval is a contiguous block of q^(h+1) mantissas. The int8 values are
    summed q at a time, each level in the narrowest int that holds it."""
    _check_function(f)
    if not 0 <= h < n:
        raise PreconditionError(f"need 0 <= h < n; got h={h}, n={n}")
    q = field.q
    acc = degree_values(field, f, n)
    for level in range(1, h + 2):  # |S| <= q^level: a type that holds -q^level - 1 holds it
        acc = _fold(acc, q, np.min_scalar_type(-(q**level) - 1))
    return acc.astype(np.int64)


def direct_variances(
    field: FieldSpec, f: str, n: int, hs: Iterable[int]
) -> dict[int, Fraction]:
    """variance_direct at degree n for every h in `hs`, from one read of the
    values: the interval sums at h + 1 are those at h summed over q
    consecutive intervals."""
    _check_function(f)
    q = field.q
    out: dict[int, Fraction] = {}
    for h in sorted(set(hs)):
        if not out:
            acc = interval_sums(field, f, n, h)
        elif h >= n:
            raise PreconditionError(f"need 0 <= h < n; got h={h}, n={n}")
        else:
            for _ in range(at, h):
                acc = _fold(acc, q, np.int64)
        at = h
        out[h] = Fraction(q ** (h + 1) * int(acc @ acc), q**n)
    return out


def variance_direct(
    field: FieldSpec, f: str, n: int, h: int
) -> Fraction:
    """Exact mean square of interval sums: (q^(h+1)/q^n) * sum_I S_I^2."""
    return direct_variances(field, f, n, (h,))[h]


def _residue_weight_vector(
    field: FieldSpec,
    f: str,
    modulus: Poly,
    n_total: int,
) -> np.ndarray:
    """W[r] = sum over v of f(t^v) * sum_{G in M_(n_total-v), G = r mod Q} f(G),
    as int64 over all q^deg(Q) residue codes."""
    weights = np.zeros(field.q**modulus.degree, dtype=np.int64)
    for v in range(n_total + 1):
        wt = t_power_value(f, v)
        if wt != 0:
            vals = degree_values(field, f, n_total - v)
            fold_monic_mod(field, modulus, n_total - v, vals if wt > 0 else -vals, weights)
    return weights


def weighted_char_sum(
    field: FieldSpec,
    f: str,
    basis: UnitGroupBasis,
    exponents,
    n_total: int,
) -> complex:
    """U(chi) = sum_v f(t^v) * sum_{G in M_(n_total - v)} f(G) chi(G), chi the
    character mod basis.modulus with exponent vector `exponents`."""
    _check_function(f)
    if n_total < 0:
        raise PreconditionError("total degree must be >= 0")
    if basis.field != field:
        raise PreconditionError("character modulus lives over a different field")
    exponents = tuple(int(e) for e in exponents)
    if len(exponents) != len(basis.orders) or not all(
        0 <= e < o for e, o in zip(exponents, basis.orders)
    ):
        raise PreconditionError(f"exponents {exponents} out of range for orders {basis.orders}")
    weights = _residue_weight_vector(field, f, basis.modulus, n_total)
    row = np.ravel_multi_index(exponents, basis.orders)
    return complex(character_sums(basis, weights)[row])


def variance_charside(
    field: FieldSpec, f: str, n: int, h: int
) -> float:
    """Average of |U(chi)|^2 over even chi mod t^(n-h), divided by the
    number of even characters; agrees with variance_direct for the symmetric
    multiplicative functions handled here."""
    _check_function(f)
    if not 0 <= h <= n - 2:
        raise PreconditionError(f"need 0 <= h <= n-2; got h={h}, n={n}")
    modulus = t_power(field, n - h)
    basis = unit_group_basis(field, modulus)
    weights = _residue_weight_vector(field, f, modulus, n)
    sums = character_sums(basis, weights, even_only=True)
    return float(np.sum(sums.real**2 + sums.imag**2)) / len(sums) ** 2


class VarianceReport(Frozen):
    __slots__ = ("q", "n", "h", "function", "direct", "charside")

    @property
    def abs_gap(self) -> float | None:
        if self.direct is None or self.charside is None:
            return None
        return abs(float(self.direct) - self.charside)

    @property
    def theorem_ratio(self) -> float | None:
        """Var * h^2 / (N^5 * q^h); the bound being monitored says this
        stays O(1) for Liouville, h >= 1."""
        if self.direct is None or self.h < 1:
            return None
        return float(self.direct * self.h**2 / (self.n**5 * Fraction(self.q) ** self.h))


MODES = ("direct", "character", "both")


def variance_reports(
    field: FieldSpec,
    f: str,
    n: int,
    hs: Sequence[int],
    *,
    mode: str = "both",
) -> Iterator[VarianceReport]:
    """The grid cells (n, h), h in `hs` in order, by the routes `mode` names
    (one of MODES): the direct route for every h in one pass over the values
    (direct_variances), then the character route per cell as it is yielded.
    The character route needs h <= n-2 and is left out above that."""
    _check_function(f)
    if mode not in MODES:
        raise PreconditionError(f"unknown mode {mode!r}")
    direct = direct_variances(field, f, n, hs) if mode != "character" else {}
    for h in hs:
        charside = None
        if mode != "direct" and h <= n - 2:
            charside = variance_charside(field, f, n, h)
        yield VarianceReport(
            q=field.q, n=n, h=h, function=f, direct=direct.get(h), charside=charside
        )


def cell_bytes(field: FieldSpec, f: str, n: int, h: int, mode: str = "both") -> int:
    """Byte estimate of one cell of variance_reports for `f`, or of a sweep row
    (liouville): the tables but for unit, and for moebius their flags; direct, a copy of the values
    and the interval sums; character (h <= n-2), route_bytes mod t^(n-h) (basis
    and transform), the weights, fold and masks. A sweep row's window sums
    (bounds.window_sum_bytes) need less than the character part."""
    q, m = field.q, n - h
    nbytes = (table_bytes(field, n) if f != "unit" else 0) + (flag_bytes(field, n) if f == "moebius" else 0)
    nbytes += q**n + 8 * q ** (m - 1) if mode != "character" else 0
    if mode != "direct" and m >= 2:
        nbytes += route_bytes(field, t_power(field, m)) + 4 * q**n + 16 * q**m
    return nbytes


# -- identity checks (exact rationals; defects must be literally zero)


class WindowDefects(Frozen):
    """Defects of both window identities for every monic G of degree n,
    mantissa-indexed, as int64 numerators over one `denominator`; `skipped`
    marks the G no window prime divides (h-smooth by the pairs)."""

    __slots__ = ("denominator", "ramare", "decomposition", "skipped")


def window_bytes(field: FieldSpec, n: int, h: int) -> int:
    """Peak bytes of window_defects: 24 per pair of degree n and of each degree
    below n - h (three int64 columns), 64 more per pair of degree n (the
    per-term arrays), 48 per G, 1 MiB for rings."""
    q = field.q
    pairs = [sum(pi_q(field, d) * q ** (m - d) for d in range(1, m + 1)) for m in range(n + 1)]
    return 88 * pairs[n] + 24 * sum(pairs[1 : n - h]) + 48 * q**n + (1 << 20)


def window_defects(
    field: FieldSpec,
    n: int,
    h: int,
) -> WindowDefects:
    """One array pass over the window pairs (P, M), G = P * M, P a window
    prime (h < deg P <= n), reading each term from M: lambda(M),
    omega_w(M) (the pairs of degree deg M that reach M) and P | M (M is the
    product of a pair (P, M') of degree deg M). The per-G sums

        recombination:  -lambda(M) / (omega_w(M) + [P does not divide M])
        decomposition:  -lambda(M) / (w + 1) - [P | M] lambda(M) / (w (w + 1)),
                        w = omega_w(M)

    must equal lambda(G) * [max_factor_degree(G) > h], so a G that the pairs
    and the table disagree on shows a defect."""
    if not 1 <= h < n:
        raise PreconditionError(f"need 1 <= h < n; got h={h}, n={n}")
    q = field.q
    check_budget(window_bytes(field, n, h), "window pairs of degree {}", n)
    tables = get_tables(field, n)

    def window(m: int):
        """The pairs of degree m whose P is a window prime: deg P, M, P * M."""
        deg, cof, prod = tables.window_pairs(m)
        lo = np.searchsorted(deg, h + 1)
        return deg[lo:], cof[lo:], prod[lo:]

    omega = {m: np.bincount(window(m)[2], minlength=q**m) for m in range(n - h)}
    deg, cof, prod = window(n)
    lam, w, divides = [], [], []
    for d in range(h + 1, n + 1):
        m = n - d
        part = slice(*np.searchsorted(deg, [d, d + 1]))
        lam.append(tables.liouville_values(m)[cof[part]])
        w.append(omega[m][cof[part]])
        flags = np.zeros(part.stop - part.start, bool)
        if 2 * d <= n:  # P | M where M is the product of a pair (P, M') of degree m
            sub_deg, _, sub_prod = window(m)
            rows = sub_prod[slice(*np.searchsorted(sub_deg, [d, d + 1]))].reshape(-1, q ** (m - d))
            flags[(np.arange(len(rows)) * q**m)[:, None] + rows] = True
        divides.append(flags)
    lam, w, divides = (np.concatenate(x).astype(np.int64) for x in (lam, w, divides))

    den = math.lcm(*range(1, n + 2))
    target = den * tables.liouville_values(n).astype(np.int64) * (tables.max_factor_degree[n] > h)
    ramare, decomposition = np.zeros(q**n, np.int64), np.zeros(q**n, np.int64)
    np.add.at(ramare, prod, -lam * (den // (w + 1 - divides)))
    squarefull = divides * (den // np.maximum(w * (w + 1), 1))  # w >= 1 where P | M
    np.add.at(decomposition, prod, -lam * (den // (w + 1) + squarefull))
    return WindowDefects(
        denominator=den,
        ramare=ramare - target,
        decomposition=decomposition - target,
        skipped=np.bincount(prod, minlength=q**n) == 0,
    )


def ramare_identity_check(field: FieldSpec, g: Poly, h: int, n: int) -> Fraction:
    """Defect of the recombination identity for one G: the sum over window
    primes P | G of -lambda(G/P) / omega_w(G), omega_w(G) counted from the
    cofactor as omega_w(G/P) + [P does not divide G/P], minus lambda(G). A
    per-G view of window_defects; an h-smooth G raises SmoothWindowError
    unless max_factor_degree calls it rough, when its defect is returned."""
    if not g.is_monic:
        raise PreconditionError("G must be monic")
    if g.degree != n:
        raise PreconditionError(f"deg G = {g.degree} but n = {n}")
    check = window_defects(field, n, h)
    u = monic_index(g)
    defect = Fraction(int(check.ramare[u]), check.denominator)
    if check.skipped[u] and defect == 0:
        raise SmoothWindowError(f"{g} has no prime factor of degree in ({h}, {n}]")
    return defect


def decomposition_check(field: FieldSpec, n: int, h: int) -> Fraction:
    """Max abs defect over all monic G of degree n of the window
    decomposition: the (prime x cofactor) sum of -lambda(M) / (w + 1) at
    G = P * M and -lambda(P * M') / (w (w + 1)) at G = P^2 * M', w the
    window-prime count of the cofactor, must be lambda(G) * [G is not
    h-smooth] (see window_defects)."""
    check = window_defects(field, n, h)
    return Fraction(int(np.abs(check.decomposition).max()), check.denominator)
