"""Dirichlet characters mod a monic Q, built on an explicit unit-group basis.

The unit group of F_q[t]/(Q) has a closed form (Neukirch, ch. II, sec. 5):
by CRT, the product over P^e || Q (d = deg P, R = Q/P^e) of a cyclic group of
order q^d - 1 and the principal units mod P^e, which 1 + w P^j R generate
independently for 1 <= j < e, p not dividing j, and w over an F_p-basis of
the polynomials of degree < d; each has order p^s, s least with j p^s >= e.
Mod t^m they are written down and spanned by shift-and-add (Rosen, ch. 4);
for any other Q found and spanned on the multiplication maps of
tables.ResidueRing. Either way the units are listed in grid order: the
discrete log of the unit at position i is the exponent vector of flat index i
in a C-order grid shaped like the group, so it is never stored. A character
is an exponent vector too, one grid cell, numbered the same way; its values are
rotation numerators k (chi = exp(2 pi i k/L), L the group exponent), so
orthogonality sums can be tested for exact cancellation without touching
floats. The even characters are those trivial on the nonzero constants:
all of them when q = 2. When Q = P^e with deg P = 1, the first generator is
a primitive constant, so the constants are grid axis 0 alone and the even
characters are the cells with first coordinate 0, the prefix of length
Phi/(q-1). Bulk character sums go through character_sums: the weights
gathered at the unit codes are the grid, and one DFT over the unit group
gives every character at once.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .arith import factor_mantissas
from .errors import PreconditionError, check_budget
from .fields import FieldSpec, prime_factors
from .polys import Poly, monic_index, t_power
from .tables import ResidueRing

_SCRATCH = 1 << 20  # residue rings and small arrays of one basis or transform


class UnitGroupBasis:
    """Direct-product decomposition of (F_q[t]/Q)^* with discrete logs:
    unit_codes[i] is the unit whose exponent vector over the generators has
    C-order flat index i in a grid of shape `orders` (a bijection of range(phi)
    onto the units, checked to hold no code twice)."""

    def __init__(self, field: FieldSpec, modulus: Poly, generators: tuple[int, ...],
                 orders: tuple[int, ...], unit_codes: np.ndarray):
        self.field, self.modulus, self.generators, self.orders = field, modulus, generators, orders
        self.exponent = math.lcm(*orders) if orders else 1
        self.unit_codes = unit_codes
        seen = np.zeros(field.q**modulus.degree, dtype=bool)
        seen[unit_codes] = True
        if np.count_nonzero(seen) != len(unit_codes):
            raise AssertionError("span extension collided; basis invariant broken")

    @property
    def phi(self) -> int:
        return len(self.unit_codes)

    def unit_index(self, codes) -> np.ndarray:
        """Position in unit_codes of each residue code, -1 for a non-unit: an
        inverse lookup over every residue code, built on each call."""
        lookup = np.full(self.field.q**self.modulus.degree, -1, dtype=np.int64)
        lookup[self.unit_codes] = np.arange(self.phi)
        return lookup[codes]

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
    """Peak bytes of building the basis mod Q: mod t^m, 16 per unit for the
    codes and a temporary, m more for the digit rows when q > 2 (12 and m + 8
    to m + 13 measured); for any other Q, 16 per unit and F_p digit (k m of
    them) for the span's float rows as they double, and 40 for its codes and
    factor tables (at most 16 k m + 8 measured, at 4 to 18 digits)."""
    k, m = field.k, modulus.degree
    per_unit = 16 + m * (field.q > 2) if modulus == t_power(field, m) else 16 * k * m + 40
    return per_unit * _phi_bound(field, modulus) + _SCRATCH


def transform_bytes(field: FieldSpec, modulus: Poly, rows: int = 1) -> int:
    """Peak bytes of character_sums mod Q on `rows` rows of weights: 64 per
    unit and row (gather, grid, two DFT passes)."""
    return 64 * rows * _phi_bound(field, modulus) + _SCRATCH


def route_bytes(field: FieldSpec, modulus: Poly) -> int:
    """Peak bytes of a basis mod Q and one transform: the larger of the build
    and the built basis (8 per unit, its codes) with the transform."""
    held = 8 * _phi_bound(field, modulus) + _SCRATCH
    return max(basis_bytes(field, modulus), held + transform_bytes(field, modulus))


def unit_group_basis(field: FieldSpec, modulus: Poly) -> UnitGroupBasis:
    """The basis mod Q, built on each call; none is cached: mod t^m from its
    written-down generators, on the residue ring otherwise."""
    if not modulus.is_monic or modulus.degree < 1:
        raise PreconditionError("modulus must be monic of degree >= 1")
    check_budget(basis_bytes(field, modulus), "unit group mod {}", modulus)
    if modulus == t_power(field, modulus.degree):
        return _t_power_basis(field, modulus)
    return _structural_basis(field, modulus)


def _t_power_generators(field: FieldSpec, m: int) -> list[tuple[int, int, int, int]]:
    """(code, order, w, j) of each generator 1 + w t^j mod t^m: the first 1 + z
    that is a primitive constant (j = 0; none for q = 2), then 1 + x^i t^j for
    i < k and p not dividing j, of order p^s, s least with j p^s >= m."""
    q, p = field.q, field.p
    gens = []
    if q > 2:  # c is primitive when c, c^2, ..., c^(q-1) are q - 1 constants
        mul, one_plus = field.mul_table.tolist(), field.add_table[1].tolist()
        w = next(w for w, c in enumerate(one_plus)
                 if len({*itertools.accumulate([c] * (q - 1), lambda x, y: mul[x][y])}) == q - 1)
        gens.append((one_plus[w], q - 1, w, 0))
    for j in filter(lambda j: j % p, range(1, m)):
        order = p ** next(s for s in itertools.count() if j * p**s >= m)
        gens += [(1 + p**i * q**j, order, p**i, j) for i in range(field.k)]
    return gens


def _t_power_basis(field: FieldSpec, modulus: Poly) -> UnitGroupBasis:
    """The span of _t_power_generators with no ring: by y = 1 + w t^j of order
    e it grows by e - 1 blocks, each the last times y (p - 1 blocks, then y
    steps to y^p = 1 + w^p t^(jp)). Over F_2 it is codes, u y = u ^ (u << j);
    else one uint8 row per coefficient, and u y adds w times the rows j lower."""
    q, p, m = field.q, field.p, modulus.degree
    gens = _t_power_generators(field, m)
    phi, size = math.prod(e for _, e, *_ in gens), 1
    span = np.ones(phi, np.int64) if q == 2 else np.eye(m, phi, dtype=np.uint8)  # column 0 is 1
    for _, e, w, j in reversed(gens):
        while e > 1:
            step = p if e % p == 0 else e  # the constant's e - 1 blocks at once
            for a in range(1, step):
                old, new = span[..., (a - 1) * size : a * size], span[..., a * size : (a + 1) * size]
                if q == 2:
                    np.bitwise_xor(old, old << j & (1 << m) - 1, out=new)
                    continue
                new[:j], times = old[:j], old[: m - j] if w == 1 else field.mul_table[w][old[: m - j]]
                if p == 2:
                    np.bitwise_xor(old[j:], times, out=new[j:])
                elif field.k == 1:  # digits below p: the sum, less p where it reaches p
                    np.add(old[j:], times, out=new[j:])
                    np.minimum(new[j:], new[j:] - p, out=new[j:])
                else:  # x q + y <= 255: q <= 16
                    new[j:] = field.add_table.ravel()[old[j:] * q + times]
            size, e, j = size * step, e // step, j * p
            w = int(functools.reduce(lambda x, y: field.mul_table[x, y], [w] * p))  # w^p
    codes = span if q == 2 else span[-1].astype(np.int64)
    for row in span[-2::-1] if q > 2 else ():  # Horner over the coefficient rows
        codes *= q
        codes += row
    generators, orders = tuple(y for y, *_ in gens), tuple(e for _, e, *_ in gens)
    return UnitGroupBasis(field, modulus, generators, orders, codes)


def _generators(field: FieldSpec, modulus: Poly, ring: ResidueRing) -> list[tuple]:
    """(code, order, map) of each generator, factor by factor P^e || Q: a
    primitive lift when q^d > 2, then the principal units, for every factor
    at once through chains of ResidueRing.powers."""
    q, p, k, m = field.q, field.p, field.k, modulus.degree
    n, one = len(ring.place), np.eye(len(ring.place))
    factors = factor_mantissas(field, m, monic_index(modulus))  # (deg P, mantissa of P, e)
    # one chain on the maps of the P (P = Q is 0 mod Q) gives each P^e and
    # the P^j of the principal units, j < e prime to p; R = Q / P^e is the
    # product of the other factors' P^e
    r, es = len(factors), [e for *_, e in factors]
    js = [[j for j in range(1, e) if j % p] for e in es]
    exponents = sorted(set().union(*js, es if r > 1 else []))
    ps = ring.maps([q**d + u if d < m else 0 for d, u, _ in factors])
    pw, rs = dict(zip(exponents, ring.powers(ps, exponents))), one[None]
    for o in range(1, r):  # R of factor i takes in the P^e of factor i + o
        rs = ring.mod(rs @ np.stack([pw[es[(i + o) % r]][(i + o) % r] for i in range(r)]))
    # 1 + x^i t^l P^j R (the maps of x^i t^l, l < d, are T's first kd rows)
    # has order p^s, s least with j p^s >= e. 1 + R z runs over F_q[t]/P as
    # z does and is 1 mod R; y, its power q^(d(e-1)), has order | q^d - 1,
    # exactly when y^order = 1 and y^(order/ell) != 1 for each prime ell
    units, orders, owners, search = [np.empty((0, n, n))], [], [], {}
    for i, (d, _, e) in enumerate(factors):
        if js[i]:
            steps = np.stack([pw[j][i] for j in js[i]]) @ rs[i]
            units.append(ring.mod(ring.T[: k * d] @ steps[:, None] + one).reshape(-1, n, n))
            for j in js[i]:
                orders += [p ** next(s for s in itertools.count() if j * p**s >= e)] * (k * d)
            owners += [i] * len(units[-1])
        if q**d > 2:  # the exponents of y, y^order and the y^(order/ell)
            order = q**d - 1
            parts = [order // ell for ell in prime_factors(order)]
            search[i] = [q ** (d * (e - 1)) * x for x in (1, order, *parts)]
    units, gens = np.concatenate(units), [[] for _ in factors]
    for i, code, order, unit in zip(owners, ring.codes(units).tolist(), orders, units):
        gens[i].append((code, order, unit))
    # one chain tests the principal units' orders and every factor's first
    # chunk of candidates z (degree by degree, within the scratch; z = 0 lifts
    # to 1), then one more each chunk for the factors with no primitive lift
    z, top = 1, q
    while search or len(units):
        live = list(search)
        if any(z >= q ** factors[i][0] for i in live):
            raise AssertionError(f"no primitive element mod a factor of {modulus}")
        exponents = sorted({*orders, *(x for i in live for x in search[i])})
        cap = max(1, _SCRATCH // (8 * n * n * (len(exponents) + 1) * max(1, len(live))))
        zs = np.arange(z, min(top, z + cap) if live else z)
        lifts = ring.mod(ring.maps(zs) @ rs[live][:, None] + one)
        powers = ring.powers(np.concatenate((units, lifts.reshape(-1, n, n))), exponents)
        ones = ring.codes(powers) == 1
        if not ones[[exponents.index(o) for o in orders], np.arange(len(orders))].all():
            raise AssertionError(f"a principal unit mod {modulus} does not have its order")
        ones = ones[:, len(units) :].reshape(len(exponents), len(live), len(zs))
        for a, i in enumerate(live):
            lift, full, *parts = (exponents.index(x) for x in search[i])
            hit = np.flatnonzero(ones[full, a] & ~ones[parts, a].any(0))
            if len(hit):
                y = powers[lift, len(units) + a * len(zs) + hit[0]]
                gens[i].insert(0, (int(ring.codes(y)), q ** factors[i][0] - 1, y))
                del search[i]
        units, orders, z = units[:0], [], z + len(zs)
        top *= q if z == top else 1
    return [g for own in gens for g in own]


def _structural_basis(field: FieldSpec, modulus: Poly) -> UnitGroupBasis:
    ring = ResidueRing(field, modulus)
    gens = _generators(field, modulus, ring)  # none for q = 2, m = 1
    # the span of the generators so far, one row of digits per unit;
    # extending by y of order e appends the blocks span * y^j, j < e, so the
    # last generator taken varies slowest: taken last to first, the span is
    # the C-order grid. It doubles: holding c blocks, it is multiplied by
    # `step`, the map of y^c, squared after
    span = np.eye(len(ring.place))[:1]
    for _, e, step in reversed(gens):
        size = e * len(span)
        while len(span) < size:
            span = np.concatenate((span, ring.mod(span[: size - len(span)] @ step)))
            if len(span) < size:
                step = ring.mod(step @ step)
    generators, orders = tuple(y for y, *_ in gens), tuple(e for _, e, _ in gens)
    return UnitGroupBasis(field, modulus, generators, orders, span.astype(np.int64) @ ring.place)


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
    basis: UnitGroupBasis, weights: np.ndarray, *, even_only: bool = False
) -> np.ndarray:
    """sum over units u of weights[u] * chi(u), for every character chi at
    once; `weights` is indexed by residue code (non-units are ignored). A 2-D
    `weights` gives one row of sums per row; past the budget, BudgetError.

    Each row's weights gathered at unit_codes are its grid, as the units are
    listed in grid order; one inverse DFT over Z/o_1 x ... x Z/o_r then yields
    all sums, complex even for Phi = 1 (no axis). Entries follow
    enumerate_characters order, or even_characters order when even_only: an
    even character ignores the constants' axis, so for q > 2 the grid is
    summed over that axis and only the Phi/(q-1) cells left are transformed."""
    weights = np.asarray(weights)
    count = weights.size // weights.shape[-1]
    nbytes = transform_bytes(basis.field, basis.modulus, count)
    check_budget(nbytes, "character transform of {} x {}", count, basis.phi)
    w = weights[..., basis.unit_codes]
    grid = w.reshape(-1, *basis.orders)
    cells = basis.phi
    if even_only and basis.field.q > 2:
        cells = count_even(basis)
        grid = grid.sum(axis=1)
    sums = np.fft.ifftn(grid, axes=tuple(range(1, grid.ndim))).astype(complex, copy=False)
    sums = sums.reshape(*w.shape[:-1], cells)
    sums *= cells
    return sums


def l_coefficients(basis: UnitGroupBasis) -> np.ndarray:
    """c_j(chi) = sum over monic G of degree j of chi(G) for j < m = deg Q (row
    j, enumerate_characters order), L(u, chi) = sum_j c_j u^j: one transform
    of the indicators of the codes q^j .. 2q^j - 1, as a monic of degree j < m
    is its own residue. Past m, c_j is q^(j-m) Phi [chi principal]."""
    q, m = basis.field.q, basis.modulus.degree
    # the transform's gate, before the m x q^m indicators are built
    nbytes = transform_bytes(basis.field, basis.modulus, m)
    check_budget(nbytes, "character transform of {} x {}", m, basis.phi)
    starts, codes = q ** np.arange(m)[:, None], np.arange(q**m)
    return character_sums(basis, (starts <= codes) & (codes < 2 * starts))


def character_rotation_matrix(basis: UnitGroupBasis, exponents: np.ndarray) -> np.ndarray:
    """Integer rotation numerators, one row per character exponent vector
    (a row of the 2-D `exponents`), columns aligned with basis.unit_codes."""
    exponents = np.asarray(exponents, dtype=np.int64)
    if not basis.orders:
        return np.zeros((len(exponents), basis.phi), dtype=np.int64)
    L = basis.exponent
    logs = enumerate_characters(basis).T  # a unit's logs are its grid coordinates
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

