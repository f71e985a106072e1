"""Dirichlet characters mod a monic Q, built on an explicit unit-group basis.

The unit group of F_q[t]/(Q) has a closed form (Neukirch, ch. II, sec. 5):
by CRT, the product over P^e || Q (d = deg P, R = Q/P^e) of a cyclic group of
order q^d - 1 and the principal units mod P^e, which 1 + w P^j R generate
independently for 1 <= j < e, p not dividing j, and w over an F_p-basis of
the polynomials of degree < d; each has order p^s, s least with j p^s >= e.
The units are the span of the generators, built block by block on arrays of
residue codes through tables.ResidueRing; a unit's discrete log is kept as one
integer, the C-order flat index of its exponent vector in a grid shaped like
the group, and unravelled only where a coordinate is read. A character is an
exponent vector too, one grid cell, numbered the same way; its values are
rotation numerators k (chi = exp(2 pi i k/L), L the group exponent), so
orthogonality sums can be tested for exact cancellation without touching
floats. The even characters are those trivial on the nonzero constants:
all of them when q = 2. When Q = P^e with deg P = 1, the first generator is
a primitive constant, so the constants are grid axis 0 alone and the even
characters are the cells with first coordinate 0, the prefix of length
Phi/(q-1). Bulk character sums go through character_sums: the weights
are placed on the grid and one DFT over the unit group gives every character
at once.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .arith import factor, sieve_irreducibles
from .errors import DEFAULT_BUDGET, PreconditionError, check_budget
from .fields import FieldSpec
from .polys import Poly, constant, from_coeffs, t_power
from .tables import residue_ring

_SCRATCH = 1 << 20  # residue rings and small arrays of one basis or transform


def residue_code(f: Poly, modulus: Poly) -> int:
    """Code of f mod Q: the coefficients of the remainder as base-q digits."""
    q = f.field.q
    return sum(c * q**j for j, c in enumerate((f % modulus).coeffs))


class UnitGroupBasis:
    """Direct-product decomposition of (F_q[t]/Q)^* with discrete logs:
    grid_index[i] is the C-order flat index, in a grid of shape `orders`, of
    the exponent vector of unit_codes[i] over the generators (a bijection of
    the units onto range(phi)); unit_codes ascend, so unit_index finds a
    code's position i by search."""

    def __init__(
        self,
        field: FieldSpec,
        modulus: Poly,
        generators: tuple[int, ...],
        orders: tuple[int, ...],
        unit_codes: np.ndarray,
        grid_index: np.ndarray,
    ):
        self.field = field
        self.modulus = modulus
        self.generators = generators
        self.orders = orders
        self.exponent = math.lcm(*orders) if orders else 1
        self.unit_codes = unit_codes
        self.grid_index = grid_index

    @property
    def phi(self) -> int:
        return len(self.unit_codes)

    def unit_index(self, codes) -> np.ndarray:
        """Position in unit_codes of each residue code, -1 for a non-unit."""
        pos = np.minimum(np.searchsorted(self.unit_codes, codes), self.phi - 1)
        return np.where(self.unit_codes[pos] == codes, pos, -1)

    # dense value matrix over (characters x units), the reference that
    # character_sums is tested against; "all" rows are enumerate_characters,
    # "even" rows even_characters
    def value_matrix(self, kind: str) -> np.ndarray:
        exponents = enumerate_characters(self) if kind == "all" else even_characters(self)
        return character_value_matrix(self, exponents)


def _phi_bound(field: FieldSpec, modulus: Poly) -> int:
    """Phi(Q) for Q = t^m; q^m - 1, its largest value, for any other Q."""
    q, m = field.q, modulus.degree
    return q**m - 1 if any(modulus.coeffs[:-1]) else q**m - q ** (m - 1)


def basis_bytes(field: FieldSpec, modulus: Poly) -> int:
    """Peak bytes of building the basis mod Q: 64 per unit for the codes, grid
    index, span and sort (41 measured mod t^m; other Q add factor tables)."""
    return 64 * _phi_bound(field, modulus) + _SCRATCH


def transform_bytes(field: FieldSpec, modulus: Poly, rows: int = 1) -> int:
    """Peak bytes of character_sums mod Q on `rows` rows of weights: 64 per
    unit and row (gather, grid, two DFT passes)."""
    return 64 * rows * _phi_bound(field, modulus) + _SCRATCH


def route_bytes(field: FieldSpec, modulus: Poly) -> int:
    """Peak bytes of a basis mod Q and one transform: the larger of the build
    and the built basis (16 per unit, codes and grid index) with the transform."""
    held = 16 * _phi_bound(field, modulus) + _SCRATCH
    return max(basis_bytes(field, modulus), held + transform_bytes(field, modulus))


# the most recently built basis, keyed by (field, modulus): one at a time
_BASIS_CACHE: dict[tuple[FieldSpec, Poly], UnitGroupBasis] = {}


def unit_group_basis(
    field: FieldSpec, modulus: Poly, *, budget: int = DEFAULT_BUDGET
) -> UnitGroupBasis:
    if not modulus.is_monic or modulus.degree < 1:
        raise PreconditionError("modulus must be monic of degree >= 1")
    check_budget(basis_bytes(field, modulus), budget, "unit group mod {}", modulus)
    key = (field, modulus)
    if key not in _BASIS_CACHE:
        _BASIS_CACHE.clear()  # drop the last basis before building the next
        _BASIS_CACHE[key] = _structural_basis(field, modulus)
    return _BASIS_CACHE[key]


def _prime_divisors(n: int) -> list[int]:
    """By trial division up to sqrt(n)."""
    out = []
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
    return out + [n] if n > 1 else out


def _generators(field: FieldSpec, modulus: Poly):
    """(code, order) of each generator, factor by factor P^e || Q."""
    q, p, m = field.q, field.p, modulus.degree
    ring, one = residue_ring(field, modulus), constant(field, 1)
    if modulus == t_power(field, m):
        factors = [(t_power(field, 1), m)]
    else:
        factors = factor(modulus, sieve_irreducibles(field, max(1, m // 2)))
    for P, e in factors:
        d, R = P.degree, modulus // P**e
        if q**d > 2:
            # 1 + R z runs over F_q[t]/P as z does and is 1 mod R; the power
            # q^(d(e-1)) kills its principal part, leaving order | q^d - 1
            order, primes = q**d - 1, _prime_divisors(q**d - 1)
            for z in range(q**d):
                lift = one + R * from_coeffs(field, [z // q**j % q for j in range(d)])
                y = ring.pow(residue_code(lift, modulus), q ** (d * (e - 1)))
                if ring.pow(y, order) == 1 and all(
                    ring.pow(y, order // ell) != 1 for ell in primes
                ):
                    break
            else:
                raise AssertionError(f"no primitive element mod {P}^{e}")
            yield y, order
        for j in range(1, e):
            if j % p:
                s = next(s for s in itertools.count() if j * p**s >= e)
                for l, i in itertools.product(range(d), range(field.k)):
                    omega = from_coeffs(field, [0] * l + [p**i])
                    yield residue_code(one + omega * P**j * R, modulus), p**s


def _structural_basis(field: FieldSpec, modulus: Poly) -> UnitGroupBasis:
    ring = residue_ring(field, modulus)
    # the span of the generators so far: its codes and their grid indices;
    # extending by y of order e appends the blocks span * y^j, j < e, whose
    # exponent vectors gain a last coordinate j
    span = np.ones(1, dtype=np.int64)
    index = np.zeros(1, dtype=np.int64)
    generators: list[int] = []
    orders: list[int] = []
    for y, e in _generators(field, modulus):
        if ring.pow(y, e) != 1:
            raise AssertionError(f"generator {y} does not have order dividing {e}")
        size, step = e * len(span), y
        while len(span) < size:  # doubling: span holds c blocks and step = y^c
            span = np.concatenate((span, ring.mul(span[: size - len(span)], step)))
            step = ring.pow(step, 2)
        index = (index * e + np.arange(e)[:, None]).ravel()
        generators.append(y)
        orders.append(e)
    order = np.argsort(span)
    codes = span[order]
    if not (np.diff(codes) > 0).all():
        raise AssertionError("span extension collided; basis invariant broken")
    return UnitGroupBasis(
        field=field,
        modulus=modulus,
        generators=tuple(generators),
        orders=tuple(orders),
        unit_codes=codes,
        grid_index=index[order],
    )


def enumerate_characters(basis: UnitGroupBasis) -> np.ndarray:
    """The exponent vectors of all Phi(Q) characters, one (Phi x r) int64 row
    each, in C order of the grid: the principal character comes first."""
    return np.indices(basis.orders).reshape(len(basis.orders), basis.phi).T


def count_even(basis: UnitGroupBasis) -> int:
    """Number of characters trivial on the nonzero constants: all of them when
    q = 2, else Phi/(q-1), the cells off the constants' axis 0. Defined when
    the first generator is a primitive constant (Q = P^e, deg P = 1)."""
    q = basis.field.q
    if q == 2:
        return basis.phi
    if basis.generators[0] >= q:  # a residue code below q is a constant
        raise PreconditionError(f"the constants are no grid axis of the units mod {basis.modulus}")
    return basis.phi // (q - 1)


def even_characters(basis: UnitGroupBasis) -> np.ndarray:
    """Exponent rows of the even characters: the prefix of enumerate_characters
    whose first coordinate (the constants' axis) is 0."""
    return enumerate_characters(basis)[: count_even(basis)]


def character_sums(
    basis: UnitGroupBasis, weights: np.ndarray, *, even_only: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> np.ndarray:
    """sum over units u of weights[u] * chi(u), for every character chi at
    once; `weights` is indexed by residue code (non-units are ignored). A 2-D
    `weights` gives one row of sums per row; past the budget, BudgetError.

    Each row's unit weights are assigned to the grid cells of their discrete
    logs (one cell per unit, as the group is a direct product); one inverse
    DFT over Z/o_1 x ... x Z/o_r then yields all sums. Entries follow
    enumerate_characters order, or even_characters order when even_only: an
    even character ignores the constants' axis, so for q > 2 the grid is
    summed over that axis and only the Phi/(q-1) cells left are transformed."""
    weights = np.asarray(weights)
    count = weights.size // weights.shape[-1]
    nbytes = transform_bytes(basis.field, basis.modulus, count)
    check_budget(nbytes, budget, "character transform of {} x {}", count, basis.phi)
    w = weights[..., basis.unit_codes]
    rows = w.reshape(-1, basis.phi)
    grid = np.zeros(rows.shape, dtype=np.complex128)
    grid[:, basis.grid_index] = rows
    grid = grid.reshape(len(rows), *basis.orders)
    cells = basis.phi
    if even_only and basis.field.q > 2:
        cells = count_even(basis)
        grid = grid.sum(axis=1)
    sums = np.fft.ifftn(grid, axes=tuple(range(1, grid.ndim))).reshape(*w.shape[:-1], cells)
    sums *= cells
    return sums


def l_coefficients(basis: UnitGroupBasis) -> np.ndarray:
    """c_j(chi) = sum over monic G of degree j of chi(G) for j < m = deg Q (row
    j, enumerate_characters order), L(u, chi) = sum_j c_j u^j: one transform
    of the indicators of the codes q^j .. 2q^j - 1, as a monic of degree j < m
    is its own residue. Past m, c_j is q^(j-m) Phi [chi principal]."""
    q, m = basis.field.q, basis.modulus.degree
    starts, codes = q ** np.arange(m)[:, None], np.arange(q**m)
    return character_sums(basis, (starts <= codes) & (codes < 2 * starts))


def character_rotation_matrix(basis: UnitGroupBasis, exponents: np.ndarray) -> np.ndarray:
    """Integer rotation numerators, one row per character exponent vector
    (a row of the 2-D `exponents`), columns aligned with basis.unit_codes."""
    exponents = np.asarray(exponents, dtype=np.int64)
    if not basis.orders:
        return np.zeros((len(exponents), basis.phi), dtype=np.int64)
    L = basis.exponent
    logs = np.stack(np.unravel_index(basis.grid_index, basis.orders))
    return (exponents * (L // np.array(basis.orders)) @ logs) % L


def character_value_matrix(basis: UnitGroupBasis, exponents: np.ndarray) -> np.ndarray:
    L = basis.exponent
    roots = np.exp(2j * np.pi * np.arange(L) / L)
    return roots[character_rotation_matrix(basis, exponents)]


def rotation_rows_cancel(numerators: np.ndarray, exponent: int) -> np.ndarray:
    """Row-wise exact-zero test for sums of roots of unity exp(2*pi*i*k/L),
    one bool per row of a 2-D array of numerators k: true iff the row's
    multiset is c >= 1 uniform copies of a full coset of a nontrivial cyclic
    subgroup of Z/L (then the sum telescopes to zero exactly). One bincount
    over (row, k mod L) gives the counts; a row cancels when its support has
    d > 1 points, d divides L, its counts are all equal and its support is
    invariant under a shift by L/d. An empty row cancels. False means no such
    structure; the test is meant for character sums, which always cancel
    this way when they cancel."""
    L = exponent
    ks = np.asarray(numerators, dtype=np.int64)
    rows, width = ks.shape
    if width == 0:
        return np.ones(rows, dtype=bool)
    counts = np.bincount(
        (np.arange(rows)[:, None] * L + ks % L).ravel(), minlength=rows * L
    ).reshape(rows, L)
    support = counts > 0
    d = support.sum(axis=1)
    step = L // d
    shifted = np.take_along_axis(support, (np.arange(L) - step[:, None]) % L, axis=1)
    return (
        (d > 1)
        & (L % d == 0)
        & (counts.max(axis=1) * d == width)
        & (shifted == support).all(axis=1)
    )

