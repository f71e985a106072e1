"""Dirichlet characters mod a monic Q, built on an explicit unit-group basis.

The unit group of F_q[t]/(Q) is decomposed into a direct product of cyclic
subgroups by the greedy lift: repeatedly take an element of maximal order in
the current quotient, adjust it by a word in the existing generators so its
lift has that exact order, and extend the discrete-log table; each step runs on
whole arrays of residue codes through tables.ResidueRing. Characters
are then exponent vectors; values are rotation numbers (exact Fractions k/L with
L the group exponent), so orthogonality sums can be tested for exact
cancellation without touching floats. Bulk character sums go through
character_sums: one DFT over the unit group gives every character at once.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cache
from typing import Iterable, Sequence

import numpy as np

from .arith import factor, sieve_irreducibles
from .errors import BudgetError, PreconditionError
from .fields import FieldSpec
from .polys import Poly, t_power
from .tables import residue_ring

RotationNumber = Fraction

DEFAULT_UNIT_BUDGET = 1 << 20


class UnitGroupBasis:
    """Direct-product decomposition of (F_q[t]/Q)^* with discrete logs:
    row i of dlog_matrix is the exponent vector of unit_codes[i] over the
    generators, and code_to_index maps a residue code to its row (-1 for a
    non-unit)."""

    def __init__(
        self,
        field: FieldSpec,
        modulus: Poly,
        generators: tuple[int, ...],
        orders: tuple[int, ...],
        unit_codes: np.ndarray,
        dlog_matrix: np.ndarray,
    ):
        self.field = field
        self.modulus = modulus
        self.generators = generators
        self.orders = orders
        self.exponent = math.lcm(*orders) if orders else 1
        self.unit_codes = unit_codes
        self.dlog_matrix = dlog_matrix
        self.code_to_index = np.full(field.q**modulus.degree, -1, dtype=np.int64)
        self.code_to_index[unit_codes] = np.arange(len(unit_codes))

    @property
    def phi(self) -> int:
        return len(self.unit_codes)

    def residue_code(self, f: Poly) -> int:
        r = f % self.modulus
        q = self.field.q
        return sum(c * q**j for j, c in enumerate(r.coeffs))

    def scaled_exponents(self, exponents: Sequence[int]) -> np.ndarray:
        L = self.exponent
        return np.array(
            [e * (L // o) for e, o in zip(exponents, self.orders)], dtype=np.int64
        )

    # dense value matrix over (characters x units), the reference that
    # character_sums is tested against; "all" rows follow
    # enumerate_characters order, "even" rows follow even_characters order
    def value_matrix(self, kind: str) -> np.ndarray:
        chars = enumerate_characters(self) if kind == "all" else even_characters(self)
        return character_value_matrix(self, chars)


def _unit_codes(field: FieldSpec, modulus: Poly) -> np.ndarray:
    """Ascending residue codes coprime to Q: clear the multiples P*M
    (deg M < m - deg P) of each irreducible P | Q of degree below m."""
    q, m = field.q, modulus.degree
    codes = np.arange(q**m, dtype=np.int64)
    if modulus == t_power(field, m):
        return codes[codes % q != 0]
    unit, ring = codes != 0, residue_ring(field, modulus)
    for P, _ in factor(modulus, sieve_irreducibles(field, max(1, m // 2))):
        if P.degree < m:
            p_code = sum(c * q**j for j, c in enumerate(P.coeffs))
            unit[ring.mul(p_code, codes[: q ** (m - P.degree)])] = False
    return codes[unit]


def unit_group_basis(
    field: FieldSpec, modulus: Poly, *, budget: int = DEFAULT_UNIT_BUDGET
) -> UnitGroupBasis:
    if not modulus.is_monic or modulus.degree < 1:
        raise PreconditionError("modulus must be monic of degree >= 1")
    q, m = field.q, modulus.degree
    if q**m > budget:
        raise BudgetError(f"residue ring size q^{m} = {q**m} exceeds budget {budget}")
    return _greedy_basis(field, modulus)


@cache
def _greedy_basis(field: FieldSpec, modulus: Poly) -> UnitGroupBasis:
    ring, units = residue_ring(field, modulus), _unit_codes(field, modulus)

    # the span of the generators so far: its codes, their discrete logs, and
    # pos[code] = row of code in span (-1 outside the span)
    span = np.ones(1, dtype=np.int64)
    logs = np.zeros((1, 0), dtype=np.int64)
    pos = np.full(field.q**modulus.degree, -1, dtype=np.int64)
    pos[1] = 0
    generators: list[int] = []
    orders: list[int] = []
    while len(span) < len(units):
        # element of maximal order in the quotient by the current span: step
        # w <- w*u for every candidate u at once; u drops out when w lands in
        # the span, and argmax keeps the first (smallest) u of maximal order
        cand = units[pos[units] < 0]
        order = np.zeros(len(cand), dtype=np.int64)
        alive = np.arange(len(cand))
        w, e = cand, 1
        while len(alive):
            w = ring.mul(w, cand[alive])
            e += 1
            landed = pos[w] >= 0
            order[alive[landed]] = e
            alive, w = alive[~landed], w[~landed]
        best = int(np.argmax(order))
        u, e = int(cand[best]), int(order[best])
        # adjust so the lift has order exactly e: u^e lies in the span with
        # discrete log divisible by e (the span stays a direct summand)
        y = u
        for g, o, x in zip(generators, orders, logs[pos[ring.pow(u, e)]].tolist()):
            assert x % e == 0, "span lost purity; basis invariant broken"
            y = int(ring.mul(y, ring.pow(g, (o - x // e) % o))[0])
        assert ring.pow(y, e) == 1
        blocks, ypow = [], 1
        for j in range(e):
            blocks.append(ring.mul(span, ypow))
            ypow = int(ring.mul(ypow, y)[0])
        span = np.concatenate(blocks)
        logs = np.column_stack((np.tile(logs, (e, 1)), np.arange(e).repeat(len(logs))))
        # two rows with one code cannot both point back at themselves
        pos[span] = np.arange(len(span))
        if not np.array_equal(pos[span], np.arange(len(span))):
            raise AssertionError("span extension collided; basis invariant broken")
        generators.append(y)
        orders.append(e)

    return UnitGroupBasis(
        field=field,
        modulus=modulus,
        generators=tuple(generators),
        orders=tuple(orders),
        unit_codes=units,
        dlog_matrix=logs[pos[units]],
    )


@dataclass(frozen=True, eq=False)
class DirichletChar:
    basis: UnitGroupBasis
    exponents: tuple[int, ...]
    is_principal: bool = dc_field(init=False)
    is_even: bool = dc_field(init=False)

    def __post_init__(self) -> None:
        if len(self.exponents) != len(self.basis.orders):
            raise PreconditionError("exponent vector length mismatch")
        for e, o in zip(self.exponents, self.basis.orders):
            if not 0 <= e < o:
                raise PreconditionError(f"exponent {e} out of range for order {o}")
        object.__setattr__(self, "is_principal", not any(self.exponents))
        # even: trivial on the scalar constants (codes 1..q-1 are exactly the
        # nonzero constants in every residue ring of degree >= 1)
        even = all(
            self.rotation_numerator(c) == 0 for c in range(1, self.basis.field.q)
        )
        object.__setattr__(self, "is_even", even)

    def rotation_numerator(self, code: int) -> int:
        """k such that chi(unit) = exp(2*pi*i*k/L); unit given by residue code."""
        basis = self.basis
        index = basis.code_to_index[code] if 0 <= code < len(basis.code_to_index) else -1
        if index < 0:
            raise PreconditionError(f"residue code {code} is not a unit")
        L = basis.exponent
        vec = basis.dlog_matrix[index].tolist()
        return sum(e * (L // o) * x for e, o, x in zip(self.exponents, basis.orders, vec)) % L

    def evaluate(self, f: Poly) -> RotationNumber | None:
        """Rotation number of chi(f), or None when gcd(f, Q) != 1 (chi = 0)."""
        if f.is_zero:
            return None
        basis = self.basis
        code = basis.residue_code(f)
        if basis.code_to_index[code] < 0:
            return None
        return Fraction(self.rotation_numerator(code), basis.exponent)

    def value(self, f: Poly) -> complex:
        rot = self.evaluate(f)
        if rot is None:
            return 0j
        return complex(np.exp(2j * np.pi * float(rot)))

    def __repr__(self) -> str:
        return f"DirichletChar(mod {self.basis.modulus}, exponents={self.exponents})"


def enumerate_characters(basis: UnitGroupBasis) -> list[DirichletChar]:
    """All Phi(Q) characters; the principal character comes first."""
    out = [
        DirichletChar(basis, exps)
        for exps in itertools.product(*(range(o) for o in basis.orders))
    ]
    assert out[0].is_principal
    return out


def principal_character(basis: UnitGroupBasis) -> DirichletChar:
    return DirichletChar(basis, tuple(0 for _ in basis.orders))


def even_characters(basis: UnitGroupBasis) -> list[DirichletChar]:
    """Characters trivial on the constants, in enumeration order."""
    return [chi for chi in enumerate_characters(basis) if chi.is_even]


def even_mask(basis: UnitGroupBasis) -> np.ndarray:
    """Boolean mask over enumerate_characters order: True where chi is trivial
    on the nonzero constants (residue codes 1..q-1)."""
    L = basis.exponent
    consts = basis.dlog_matrix[basis.code_to_index[1 : basis.field.q]]
    scaled = consts * np.array([L // o for o in basis.orders], dtype=np.int64)
    exponents = np.indices(basis.orders).reshape(len(basis.orders), basis.phi)
    return ~((scaled @ exponents) % L).any(axis=0)


def count_even(basis: UnitGroupBasis) -> int:
    return int(even_mask(basis).sum())


def character_sums(
    basis: UnitGroupBasis,
    weights: np.ndarray,
    *,
    even_only: bool = False,
    power: int = 1,
) -> np.ndarray:
    """sum over units u of weights[u] * chi(u)^power, for every character chi
    at once; `weights` is indexed by residue code (non-units are ignored).

    chi(u)^power = chi(u^power), so the weights are scattered at the discrete
    logs power * dlog(u) of a grid shaped like the group; one inverse DFT over
    Z/o_1 x ... x Z/o_r then yields all sums. Entries follow
    enumerate_characters order, or even_characters order when even_only."""
    w = np.asarray(weights)[basis.unit_codes].astype(np.complex128)
    if not basis.orders:  # trivial group: the principal character only
        return w
    grid = np.zeros(basis.orders, dtype=np.complex128)
    logs = (power * basis.dlog_matrix) % np.array(basis.orders, dtype=np.int64)
    np.add.at(grid, tuple(logs.T), w)
    sums = np.fft.ifftn(grid).ravel() * basis.phi
    return sums[even_mask(basis)] if even_only else sums


def character_rotation_matrix(
    basis: UnitGroupBasis, chars: Sequence[DirichletChar]
) -> np.ndarray:
    """Integer rotation numerators, shape (len(chars), phi), columns aligned
    with basis.unit_codes."""
    if not chars:
        return np.zeros((0, basis.phi), dtype=np.int64)
    C = np.stack([basis.scaled_exponents(chi.exponents) for chi in chars])
    if C.shape[1] == 0:
        return np.zeros((len(chars), basis.phi), dtype=np.int64)
    return (C @ basis.dlog_matrix.T) % basis.exponent


def character_value_matrix(
    basis: UnitGroupBasis, chars: Sequence[DirichletChar]
) -> np.ndarray:
    L = basis.exponent
    roots = np.exp(2j * np.pi * np.arange(L) / L)
    return roots[character_rotation_matrix(basis, chars)]


def rotation_multiset_cancels(numerators: Iterable[int], exponent: int) -> bool:
    """Exact-zero test for a sum of roots of unity exp(2*pi*i*k/L): true iff
    the multiset is c >= 1 uniform copies of a full coset of a nontrivial
    cyclic subgroup of Z/L (then the sum telescopes to zero exactly).
    Returns False when the multiset has no such structure; the test is meant
    for character sums, which always cancel this way when they cancel."""
    counts = Counter(k % exponent for k in numerators)
    if not counts:
        return True
    vals = sorted(counts)
    d = len(vals)
    if d == 1 or exponent % d:
        return False
    step = exponent // d
    c0 = counts[vals[0]]
    if any(counts[v] != c0 for v in vals[1:]):
        return False
    return all(vals[i] == vals[0] + i * step for i in range(d))
