"""Bulk per-degree tables over all monic polynomials, numpy-vectorized.

For each degree m up to a bound this sieve produces, indexed by mantissa:

  * big_omega[m][u]  -- number of irreducible factors with multiplicity
  * squarefree[m][u] -- no repeated factor
  * max_factor_degree[m][u] -- degree of the largest irreducible factor
  * irreducibles[m]  -- sorted mantissas of the monic irreducibles

The sieve walks degrees upward. At degree m, every product P*M with P
irreducible of degree d <= m/2 and M monic of degree m-d gets its entries
written from M's row (Omega is additive, max-factor-degree is a max, so any
irreducible divisor P of G produces the same value: overwrites are
consistent). Whatever is never written is irreducible. Squarefree-ness is
killed separately by marking P^2 * M products. Products are computed in bulk
on digit matrices via the field's lookup tables, chunked to bound memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, PreconditionError
from .fields import FieldSpec
from .polys import Poly, monic_from_index, t_power

DEFAULT_TABLE_BUDGET = 1 << 22
_CHUNK = 1 << 15


def monic_digit_matrix(field: FieldSpec, n: int, us: np.ndarray) -> np.ndarray:
    """(len(us), n+1) uint8 matrix of coefficient codes, leading 1 included."""
    q = field.q
    dig = np.empty((len(us), n + 1), dtype=np.uint8)
    dig[:, n] = 1
    shifted = us.astype(np.int64)
    for i in range(n):
        dig[:, i] = shifted % q
        shifted //= q
    return dig


def mul_monic_batch(
    field: FieldSpec, pcoeffs: tuple[int, ...], md: int, us: np.ndarray
) -> np.ndarray:
    """Mantissas of P * M for a fixed monic P (ascending coeffs `pcoeffs`)
    and all monic M of degree md given by mantissas `us`."""
    q = field.q
    m_target = md + len(pcoeffs) - 1
    dig = monic_digit_matrix(field, md, us)
    acc = np.zeros((len(us), m_target), dtype=np.uint8)
    add_t, mul_t = field.add_table, field.mul_table
    for j, pc in enumerate(pcoeffs):
        if pc == 0:
            continue
        block = dig if pc == 1 else mul_t[pc][dig]
        hi = min(md + 1, m_target - j)
        if hi > 0:
            acc[:, j : j + hi] = add_t[acc[:, j : j + hi], block[:, :hi]]
    qpow = q ** np.arange(m_target, dtype=np.int64)
    return acc.astype(np.int64) @ qpow


@dataclass
class ArithTables:
    field: FieldSpec
    max_degree: int
    big_omega: list[np.ndarray]
    squarefree: list[np.ndarray]
    max_factor_degree: list[np.ndarray]
    irreducibles: list[np.ndarray]

    def liouville_values(self, n: int) -> np.ndarray:
        """(-1)^Omega over all monic of degree n, int8, mantissa-indexed."""
        om = self.big_omega[n]
        return (1 - ((om & 1) << 1)).astype(np.int8)

    def moebius_values(self, n: int) -> np.ndarray:
        return np.where(self.squarefree[n], self.liouville_values(n), 0).astype(np.int8)

    def irreducible_polys(self, d: int) -> list[Poly]:
        return [monic_from_index(self.field, d, int(u)) for u in self.irreducibles[d]]


def build_tables(
    field: FieldSpec, max_degree: int, *, budget: int = DEFAULT_TABLE_BUDGET
) -> ArithTables:
    if max_degree < 0:
        raise PreconditionError("max_degree must be >= 0")
    q = field.q
    if q**max_degree > budget:
        raise BudgetError(
            f"q^max_degree = {q**max_degree} exceeds table budget {budget}"
        )
    big_omega = [np.zeros(1, dtype=np.int8)]
    squarefree = [np.ones(1, dtype=bool)]
    mfd = [np.zeros(1, dtype=np.int8)]
    irr: list[np.ndarray] = [np.empty(0, dtype=np.int64)]

    for m in range(1, max_degree + 1):
        size = q**m
        om = np.full(size, -1, dtype=np.int8)
        sf = np.ones(size, dtype=bool)
        mf = np.zeros(size, dtype=np.int8)
        for d in range(1, m // 2 + 1):
            lower_om = big_omega[m - d]
            lower_mf = mfd[m - d]
            md = m - d
            for up in irr[d]:
                pc = monic_from_index(field, d, int(up)).coeffs
                for start in range(0, q**md, _CHUNK):
                    us = np.arange(start, min(start + _CHUNK, q**md), dtype=np.int64)
                    codes = mul_monic_batch(field, pc, md, us)
                    om[codes] = lower_om[us] + 1
                    mf[codes] = np.maximum(lower_mf[us], d)
            if 2 * d <= m:
                md2 = m - 2 * d
                for up in irr[d]:
                    p = monic_from_index(field, d, int(up))
                    p2 = (p * p).coeffs
                    for start in range(0, q**md2, _CHUNK):
                        us = np.arange(start, min(start + _CHUNK, q**md2), dtype=np.int64)
                        codes = mul_monic_batch(field, p2, md2, us)
                        sf[codes] = False
        fresh = np.nonzero(om < 0)[0]
        om[fresh] = 1
        mf[fresh] = m
        big_omega.append(om)
        squarefree.append(sf)
        mfd.append(mf)
        irr.append(fresh.astype(np.int64))

    return ArithTables(
        field=field,
        max_degree=max_degree,
        big_omega=big_omega,
        squarefree=squarefree,
        max_factor_degree=mfd,
        irreducibles=irr,
    )


_TABLE_CACHE: dict[FieldSpec, ArithTables] = {}


def get_tables(
    field: FieldSpec, max_degree: int, *, budget: int = DEFAULT_TABLE_BUDGET
) -> ArithTables:
    """Cached tables for `field`, covering at least `max_degree`."""
    cached = _TABLE_CACHE.get(field)
    if cached is None or cached.max_degree < max_degree:
        cached = build_tables(field, max_degree, budget=budget)
        _TABLE_CACHE[field] = cached
    return cached


_TMOD_CACHE: dict[tuple[FieldSpec, Poly], np.ndarray] = {}


def t_power_residues(field: FieldSpec, modulus: Poly, n: int) -> np.ndarray:
    """(n+1, deg Q) uint8 coefficient codes of t^j mod Q for j = 0..n, read
    from one table per (field, Q) that grows on demand."""
    key = (field, modulus)
    table = _TMOD_CACHE.get(key, np.eye(1, modulus.degree, dtype=np.uint8))
    if len(table) <= n:
        # t * r = (r shifted up) - r[m-1] * (Q - t^m) mod Q
        neg_low = field.neg_table[np.array(modulus.coeffs[:-1], dtype=np.uint8)]
        rows = list(table)
        while len(rows) <= n:
            shifted = np.concatenate((np.zeros(1, dtype=np.uint8), rows[-1][:-1]))
            rows.append(field.add_table[shifted, field.mul_table[rows[-1][-1], neg_low]])
        table = _TMOD_CACHE[key] = np.stack(rows)
    return table[: n + 1]


def reduce_monic_mod(field: FieldSpec, modulus: Poly, n: int, us: np.ndarray) -> np.ndarray:
    """Residue codes (mantissa-style integers in [0, q^deg(modulus))) of the
    monic degree-n polynomials with mantissas `us`, reduced mod `modulus`."""
    if not modulus.is_monic or modulus.degree < 1:
        raise PreconditionError("modulus must be monic of degree >= 1")
    q = field.q
    m = modulus.degree
    us = np.asarray(us, dtype=np.int64)
    if modulus == t_power(field, m):
        if n >= m:
            return us % q**m
        return us + q**n
    # general modulus: residue = sum_j c_j * (t^j mod Q), via per-digit tables
    tmod = t_power_residues(field, modulus, n)
    acc = np.broadcast_to(tmod[n], (len(us), m)).copy()
    add_t, mul_t = field.add_table, field.mul_table
    shifted = us.copy()
    for j in range(n):
        cj = (shifted % q).astype(np.uint8)
        shifted //= q
        row = tmod[j]
        if not row.any():
            continue
        acc = add_t[acc, mul_t[cj[:, None], row[None, :]]]
    qpow = q ** np.arange(m, dtype=np.int64)
    return acc.astype(np.int64) @ qpow
