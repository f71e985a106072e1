"""Dirichlet characters mod a monic Q, built on an explicit unit-group basis.

The unit group of F_q[t]/(Q) is decomposed into a direct product of cyclic
subgroups by the greedy lift: repeatedly take an element of maximal order in
the current quotient, adjust it by a word in the existing generators so its
lift has that exact order, and extend the discrete-log table. Characters are
then exponent vectors; values are rotation numbers (exact Fractions k/L with
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
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetError, PreconditionError
from .fields import FieldSpec
from .polys import Poly, poly_gcd

RotationNumber = Fraction

DEFAULT_UNIT_BUDGET = 1 << 20


def _code_to_poly(field: FieldSpec, m: int, code: int) -> Poly:
    q = field.q
    coeffs = []
    for _ in range(m):
        coeffs.append(code % q)
        code //= q
    return Poly(field, tuple(coeffs))


class _ResidueRing:
    """Scalar arithmetic on residue codes mod a monic Q, via pure-python
    table rows (fast enough for basis extraction; bulk work is numpy)."""

    def __init__(self, field: FieldSpec, modulus: Poly):
        self.field = field
        self.modulus = modulus
        self.m = modulus.degree
        q = field.q
        # coefficient rows of t^j mod Q for j = m .. 2m-2
        self.red: list[tuple[int, ...]] = []
        for j in range(self.m, 2 * self.m - 1):
            r = Poly(field, (0,) * j + (1,)) % modulus
            self.red.append(tuple(r.coeff(i) for i in range(self.m)))
        self.qpow = [q**i for i in range(self.m)]

    def _digits(self, code: int) -> list[int]:
        q = self.field.q
        out = []
        for _ in range(self.m):
            out.append(code % q)
            code //= q
        return out

    def mul(self, a: int, b: int) -> int:
        f = self.field
        add_rows, mul_rows = f.add_rows, f.mul_rows
        m = self.m
        da, db = self._digits(a), self._digits(b)
        conv = [0] * (2 * m - 1)
        for i, ai in enumerate(da):
            if ai:
                row = mul_rows[ai]
                for j, bj in enumerate(db):
                    if bj:
                        conv[i + j] = add_rows[conv[i + j]][row[bj]]
        acc = conv[:m]
        for j in range(m, 2 * m - 1):
            c = conv[j]
            if c:
                crow = mul_rows[c]
                red = self.red[j - m]
                acc = [
                    add_rows[acc[i]][crow[red[i]]] if red[i] else acc[i]
                    for i in range(m)
                ]
        return sum(d * p for d, p in zip(acc, self.qpow))

    def pow(self, a: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out


class UnitGroupBasis:
    """Direct-product decomposition of (F_q[t]/Q)^* with discrete logs."""

    def __init__(
        self,
        field: FieldSpec,
        modulus: Poly,
        generators: tuple[int, ...],
        orders: tuple[int, ...],
        unit_codes: np.ndarray,
        dlog: dict[int, tuple[int, ...]],
        ring: _ResidueRing,
    ):
        self.field = field
        self.modulus = modulus
        self.generators = generators
        self.orders = orders
        self.exponent = math.lcm(*orders) if orders else 1
        self.unit_codes = unit_codes
        self.dlog = dlog
        self._ring = ring
        # dlog rows aligned with unit_codes; rotation numerator of chi at a
        # unit is dot(scaled exponents, row) mod exponent
        self.dlog_matrix = np.array(
            [dlog[int(c)] for c in unit_codes], dtype=np.int64
        ).reshape(len(unit_codes), len(generators))
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


_BASIS_CACHE: dict[tuple[FieldSpec, Poly], UnitGroupBasis] = {}


def unit_group_basis(
    field: FieldSpec, modulus: Poly, *, budget: int = DEFAULT_UNIT_BUDGET
) -> UnitGroupBasis:
    if not modulus.is_monic or modulus.degree < 1:
        raise PreconditionError("modulus must be monic of degree >= 1")
    key = (field, modulus)
    cached = _BASIS_CACHE.get(key)
    if cached is not None:
        return cached

    q, m = field.q, modulus.degree
    if q**m > budget:
        raise BudgetError(f"residue ring size q^{m} = {q**m} exceeds budget {budget}")
    ring = _ResidueRing(field, modulus)
    units = [
        c
        for c in range(q**m)
        if c and poly_gcd(_code_to_poly(field, m, c), modulus).degree == 0
    ]
    phi = len(units)

    dlog: dict[int, tuple[int, ...]] = {1: ()}
    generators: list[int] = []
    orders: list[int] = []
    while len(dlog) < phi:
        # element of maximal order in the quotient by the current span
        best_u, best_e = 0, 0
        for u in units:
            if u in dlog:
                continue
            w, e = u, 1
            while w not in dlog:
                w = ring.mul(w, u)
                e += 1
            if e > best_e:
                best_u, best_e = u, e
        e = best_e
        # adjust so the lift has order exactly e: u^e lies in the span with
        # discrete log divisible by e (the span stays a direct summand)
        xs = dlog[ring.pow(best_u, e)]
        y = best_u
        for g, o, x in zip(generators, orders, xs):
            assert x % e == 0, "span lost purity; basis invariant broken"
            y = ring.mul(y, ring.pow(g, (o - x // e) % o))
        assert ring.pow(y, e) == 1
        new_dlog: dict[int, tuple[int, ...]] = {}
        ypow = 1
        for j in range(e):
            for code, vec in dlog.items():
                new_dlog[ring.mul(code, ypow)] = vec + (j,)
            ypow = ring.mul(ypow, y)
        if len(new_dlog) != len(dlog) * e:
            raise AssertionError("span extension collided; basis invariant broken")
        dlog = new_dlog
        generators.append(y)
        orders.append(e)

    basis = UnitGroupBasis(
        field=field,
        modulus=modulus,
        generators=tuple(generators),
        orders=tuple(orders),
        unit_codes=np.array(units, dtype=np.int64),
        dlog=dlog,
        ring=ring,
    )
    _BASIS_CACHE[key] = basis
    return basis


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
        vec = basis.dlog.get(code)
        if vec is None:
            raise PreconditionError(f"residue code {code} is not a unit")
        L = basis.exponent
        total = 0
        for e, o, x in zip(self.exponents, basis.orders, vec):
            total += e * (L // o) * x
        return total % L

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
