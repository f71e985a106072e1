"""Bulk per-degree tables over all monic polynomials, numpy-vectorized.

For each degree m up to a bound this sieve produces, indexed by mantissa:

  * big_omega[m][u]  -- number of irreducible factors with multiplicity
  * max_factor_degree[m][u] -- degree of the largest irreducible factor
  * irreducibles[m]  -- sorted mantissas of the monic irreducibles
  * squarefree[m][u] -- no repeated factor, built when mu is first read

The sieve walks degrees upward, one product pass per degree. At degree m,
every product P*M with P irreducible of degree d <= m/2 and M monic of
degree m-d gets its entries written from M's row (Omega is additive,
max-factor-degree is a max, so any irreducible divisor P of G produces the
same value: overwrites are consistent). Omega and max-factor-degree are the
low and high bytes of one int16 per polynomial (big_omega and
max_factor_degree are its int8 views), so one scatter writes both. Whatever
is never written is irreducible. Only mu reads squarefree-ness: moebius_values
kills the flags on first use by marking P^2 * M products, the squares P^2
from row_mul, the one product of coefficient rows, once per degree of P.

The products of all P of one degree come from one mul_monic_batch call. It
splits M = L + t^a H at half its degree, so it needs P times at most
2 q^ceil(md/2) halves instead of q^md cofactors. Every step after that is a
sum of polynomials taken on their codes: base-p digits added mod p, which
is XOR for p = 2 and, for odd p, the integer sum less its carries at the
k deg P digits where the two summands overlap, one compare and one masked
subtract each. P * L is linear in L, so the codes of all L come in code
order from the q - 1 multiples c P per coefficient of L; P * H is
P * h + t^(md-a) P, and the join adds t^a P * H to P * L. No ring is
built. Blocks of at most _CHUNK products bound memory.

Write order: a block that holds several P holds every M of each of them, so
the blocks run through the products in (deg P, P, M) order. Where several P
write the same G, the last P in that order wins, as in a loop over single
P. Omega and max-factor-degree do not depend on the writer; the factor
links record it, and stay the same as that loop's.

The same product pass, run again on demand for one degree, records a factor
link per mantissa: one irreducible P | G and the cofactor G/P. Following the
links from G factors it in Omega(G) lookups (ArithTables.factor_links). The
window pairs (ArithTables.window_pairs) keep every (deg P, M, P * M) of one
degree, for the identity checks of the variance module.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError, check_budget
from .fields import FieldSpec
from .polys import Poly, t_power

_CHUNK = 1 << 15
_SIEVE_SCRATCH = 2 << 20  # product blocks: under 0.6 MiB measured, q <= 16


def _digit_adder(p: int, y: np.ndarray, start: int, count: int):
    """The map from codes x to the codes of the sums of the polynomials with
    codes x and y, broadcast, where the base-p digits of x and y can both be
    nonzero only at the count digits from start. For p = 2 the sum is XOR.
    For odd p it is the integer sum less p^(s+1) at each of those digits s
    where the two digits sum to p or more: one compare and one masked
    subtract per digit, against y's digits taken once for every x."""
    if p == 2:
        return lambda x: x ^ y
    places = [p**s for s in range(start, start + count)]
    rooms = [(p - y // place % p).astype(np.int8) for place in places]

    def add(x: np.ndarray) -> np.ndarray:
        out = x + y
        for place, room in zip(places, rooms):
            digits = (x // place % p).astype(np.int8)
            np.subtract(out, place * p, out=out, where=np.greater_equal(digits, room))
        return out

    return add


def _low_products(field: FieldSpec, dp: int, ups: np.ndarray, a: int) -> np.ndarray:
    """Codes of P * L for every L of degree < a, in code order, one row per
    monic P of degree dp with mantissa in `ups`. P * L is linear in L, so
    the block of the L with top coefficient c at t^j is the block below q^j,
    each plus c P t^j: the q - 1 multiples c P read from mul_table, one
    _digit_adder sum per j for every c."""
    p, k, q = field.p, field.k, field.q
    place = q ** np.arange(dp + 1)
    coeffs = (ups[:, None] + q**dp) // place % q
    multiples = (field.mul_table[1:, coeffs] @ place).T[..., None]
    low = np.zeros((len(ups), q**a), np.int64)
    for j in range(a):
        out = low[:, q**j : q ** (j + 1)].reshape(len(ups), q - 1, q**j)
        out[...] = _digit_adder(p, multiples * q**j, k * j, k * dp)(low[:, None, : q**j])
    return low


def mul_monic_batch(field: FieldSpec, dp: int, ups: np.ndarray, md: int):
    """Mantissas of P * M for the monic P of degree dp with mantissas `ups` and
    every monic M of degree md, as blocks (rows of ups, slice of M's
    mantissas, the products' mantissas as a (rows, len) array).

    Split M = L + t^a H at a = ceil(md/2), so deg L < a, H is monic of degree
    md - a and M's mantissa is l + q^a h. Then P * M = P * L + t^a P * H, and
    the mantissa of P * M is code(P * L) (+) q^a mant(P * H), (+) the sum of
    _digit_adder over the k*dp digits from k*a where the two overlap. The
    codes of P * L come from _low_products, and so do those of P * h, h below
    q^(md-a) <= q^a, for P * H = P * h (+) t^(md-a) P.

    A block holds at most _CHUNK products (but at least one row of H). When
    every M of one P fits, a block holds every M of each of its P; otherwise
    it holds whole H rows of a single P. Either way the blocks run through
    the products in (P, M) order, so a caller that writes them in turn leaves
    the last P's entry wherever several P write the same G."""
    p, k, q = field.p, field.k, field.q
    a = (md + 1) // 2
    h0, lows = q ** (md - a), q**a
    h_rows = max(1, min(h0, _CHUNK // lows))
    p_rows = max(1, _CHUNK // q**md)
    low = _low_products(field, dp, ups, a)
    high = _digit_adder(p, (ups * h0)[:, None], k * (md - a), k * dp)(low[:, :h0]) * lows
    for i in range(0, len(ups), p_rows):
        add_low = _digit_adder(p, low[i : i + p_rows, None, :], k * a, k * dp)
        for j in range(0, h0, h_rows):
            block = add_low(high[i : i + p_rows, j : j + h_rows, None])
            rows, size = len(block), block.shape[1] * lows
            yield slice(i, i + rows), slice(j * lows, j * lows + size), block.reshape(rows, size)


def row_mul(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient rows (constant first) of the products of rows a and b, both
    of width w: a schoolbook product through the field tables, each
    coefficient of a times all of b per lookup, width 2w - 1."""
    q, width = field.q, a.shape[-1]
    add, mul = field.add_table.ravel(), field.mul_table.ravel()  # x q + y <= 255: q <= 16
    out = np.zeros((*a.shape[:-1], 2 * width - 1), dtype=np.uint8)
    for i in range(width):
        part = out[..., i : i + width]
        part[...] = add[part * q + mul[a[..., i : i + 1] * q + b]]
    return out


def _squares(field: FieldSpec, d: int, ups: np.ndarray) -> np.ndarray:
    """Mantissas of P^2 for the monic P of degree d with mantissas `ups`: P^2
    is monic, so its mantissa is its 2d low coefficients, from one row_mul."""
    q = field.q
    coeffs = ((ups[:, None] + q**d) // q ** np.arange(d + 1) % q).astype(np.uint8)
    return row_mul(field, coeffs, coeffs)[:, :-1] @ q ** np.arange(2 * d)


class ArithTables:
    """The tables of `field` (the module docstring) for degrees 0..max_degree: built
    holding degree 0, the one monic 1 with no factor, and grown in place by extend.
    `squarefree` holds degrees 0..k only, k the highest degree whose mu was read
    (moebius_values), or 0 before any was."""

    __slots__ = ("field", "max_degree", "big_omega", "squarefree", "max_factor_degree",
                 "irreducibles", "_links", "_pairs", "_packed")

    def __init__(self, field: FieldSpec):
        self.field, self._links, self._pairs, self._packed = field, {}, {}, []
        self.big_omega, self.max_factor_degree, self.irreducibles = [], [], []
        self.squarefree = [np.ones(1, bool)]
        self._push(np.zeros(1, "<i2"), np.empty(0, np.int64))

    def factor_links(self, m: int) -> tuple[np.ndarray, ...]:
        """(deg P, mantissa of P, mantissa of G/P) for one irreducible P | G
        per monic G of degree m <= max_degree, mantissa-indexed; deg P is 0
        where G is irreducible. Built by one product pass on first use, once
        links_bytes is checked against the budget."""
        links = self._links.get(m)
        if links is None:
            check_budget(links_bytes(self.field, m), "factor links of degree {}", m)
            size = self.field.q**m
            links = (np.zeros(size, np.int8), np.zeros(size, np.int32), np.zeros(size, np.int32))
            deg, fac, cof = links
            for d in range(1, m // 2 + 1):  # P * M for every P of degree d <= m/2
                ups = self.irreducibles[d]
                for rows, part, block in mul_monic_batch(self.field, d, ups, m - d):
                    deg[block], fac[block] = d, ups[rows, None]
                    cof[block] = np.arange(part.start, part.stop)
            self._links[m] = links
        return links

    def window_pairs(self, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(deg P, mantissa of M, mantissa of P * M) for every monic
        irreducible P of degree 1..m and every monic M of degree m - deg P,
        int64, ordered by (deg P, P, M): the pairs of one P are q^(m - deg P)
        consecutive rows in M's mantissa order. Each G of degree m appears
        once per distinct irreducible factor. Built by one mul_monic_batch
        call per degree on first use."""
        pairs = self._pairs.get(m)
        if pairs is None:
            q = self.field.q
            deg, cof, prod = ([np.empty(0, np.int64)] for _ in range(3))
            for d in range(1, m + 1):
                ups, size = self.irreducibles[d], q ** (m - d)
                deg.append(np.full(len(ups) * size, d))
                cof.append(np.tile(np.arange(size), len(ups)))
                prod += [block.ravel() for *_, block in mul_monic_batch(self.field, d, ups, m - d)]
            pairs = self._pairs[m] = tuple(np.concatenate(c) for c in (deg, cof, prod))
        return pairs

    def extend(self, max_degree: int) -> None:
        """Sieve degrees self.max_degree+1 .. max_degree onto these tables in
        place, one product pass per degree; the arrays and factor links built
        so far are kept."""
        check_budget(table_bytes(self.field, max_degree), "sieve tables to degree {}", max_degree)
        q = self.field.q
        for m in range(self.max_degree + 1, max_degree + 1):
            # P * M gets Omega(M) + 1 and max(max factor degree of M, deg P); 0 is unwritten
            packed = np.zeros(q**m, dtype="<i2")
            for d in range(1, m // 2 + 1):
                for _, part, block in mul_monic_batch(self.field, d, self.irreducibles[d], m - d):
                    below = self._packed[m - d][part]
                    packed[block] = np.maximum(below, below & 0xFF | d << 8) + 1
            fresh = np.flatnonzero(packed == 0)
            packed[fresh] = m << 8 | 1
            self._push(packed, fresh.astype(np.int64, copy=False))

    def _push(self, packed: np.ndarray, irreducibles: np.ndarray) -> None:
        """Append a degree: Omega and max factor degree are int8 views of `packed`."""
        self._packed.append(packed)
        self.big_omega.append(packed.view(np.int8)[0::2])
        self.max_factor_degree.append(packed.view(np.int8)[1::2])
        self.irreducibles.append(irreducibles)
        self.max_degree = len(self._packed) - 1

    def liouville_values(self, n: int) -> np.ndarray:
        """(-1)^Omega over all monic of degree n, int8, mantissa-indexed."""
        lam = self.big_omega[n] & 1  # 1 - 2 (Omega & 1), in place
        lam <<= 1
        return np.subtract(1, lam, out=lam)

    def moebius_values(self, n: int) -> np.ndarray:
        """mu over all monic of degree n, int8, mantissa-indexed. The squarefree
        flags of the degrees to n not yet held are built first, once flag_bytes
        is checked against the budget: P^2 * M is marked for every irreducible
        P of degree d <= n/2, each d's squares P^2 built once."""
        if not 0 <= n <= self.max_degree:  # an IndexError, as from liouville_values
            raise IndexError(f"degree {n} is past the tables' {self.max_degree}")
        q, first = self.field.q, len(self.squarefree)
        if first <= n:
            check_budget(flag_bytes(self.field, n), "squarefree flags to degree {}", n)
            flags = [np.ones(q**m, dtype=bool) for m in range(first, n + 1)]
            for d in range(1, n // 2 + 1):
                squares = _squares(self.field, d, self.irreducibles[d])
                for m in range(max(first, 2 * d), n + 1):
                    for *_, block in mul_monic_batch(self.field, 2 * d, squares, m - 2 * d):
                        flags[m - first][block] = False
            self.squarefree += flags
        mu = self.liouville_values(n)
        mu *= self.squarefree[n]
        return mu


def links_bytes(field: FieldSpec, m: int) -> int:
    """Bytes of the factor links of degree m: 9 per monic (an int8 degree,
    int32 factor and cofactor) and the product blocks."""
    return 9 * field.q**m + _SIEVE_SCRATCH


def table_bytes(field: FieldSpec, max_degree: int) -> int:
    """Bytes of the tables to max_degree: 2 per monic, 8 per irreducible (<= q^m/m
    of degree m), and the top degree's mask, irreducible indices and blocks."""
    q, n = field.q, max(max_degree, 1)
    held, qm = 0, 1
    for m in range(1, n + 1):  # q**m afresh each time would cost seconds at large n
        qm *= q
        held += 2 * qm + 8 * qm // m
    return held + qm + 8 * qm // n + _SIEVE_SCRATCH


def flag_bytes(field: FieldSpec, n: int) -> int:
    """Bytes of the squarefree flags to degree n: 1 per monic, 24 per monic of degree
    n/2 for one degree's squares P^2 and their coefficient rows, and the blocks."""
    q = field.q
    return (q ** (n + 1) - 1) // (q - 1) + 24 * q ** (n // 2) + _SIEVE_SCRATCH


def build_tables(field: FieldSpec, max_degree: int) -> ArithTables:
    if max_degree < 0:
        raise PreconditionError("max_degree must be >= 0")
    tables = ArithTables(field)
    tables.extend(max_degree)
    return tables


_TABLE_CACHE: dict[FieldSpec, ArithTables] = {}


def get_tables(field: FieldSpec, max_degree: int) -> ArithTables:
    """Cached tables for `field`, extended in place to cover `max_degree`."""
    cached = _TABLE_CACHE.get(field)
    if cached is None:
        cached = _TABLE_CACHE[field] = build_tables(field, max_degree)
    elif cached.max_degree < max_degree:
        cached.extend(max_degree)
    return cached


# cap on the float64 scratch of one ResidueRing chunk
_SCRATCH_BYTES = 1 << 17


class ResidueRing:
    """Arithmetic on residue codes mod a monic Q of degree m.

    The base-p digits of a residue code are its n = k*m coordinates over F_p:
    digit j*k + i is the x^i part of the t^j coefficient, x generating F_q
    over F_p. The code of any polynomial of degree <= d has the same layout
    over x^i t^j, j <= d. Row j*k + i of `table` holds the coordinates of
    x^i t^j mod Q (the one t^j mod Q table, grown on demand), so reduction
    mod Q is the F_p-linear map digits @ rows[:(d+1)k]. Products are
    F_p-bilinear: T[a, b] holds the coordinates of e_a * e_b, so multiplying
    by a fixed code b is the n x n F_p-linear map sum over c of b_c T[:, c],
    applied to the digits of the other factor. Every matmul entry is a short
    sum of products of digits below p, so float64 is exact."""

    def __init__(self, field: FieldSpec, modulus: Poly):
        p, k, m = field.p, field.k, modulus.degree
        n = k * m
        self.p, self.k, self.place = p, k, p ** np.arange(n)
        xpow = p ** np.arange(k)
        # x^i t^m = -x^i (Q - t^m); under the identity, rows k..n+k-1 are
        # then the coordinates of t * e_a, the step that grows the table
        top = field.neg_table[field.mul_table[xpow[:, None], np.array(modulus.coeffs[:-1])]]
        self.table = np.vstack((np.eye(n), (top[..., None] // xpow % p).reshape(k, n)))
        # x^(i1+i2) = sum_l s[i1, i2, l] x^l, so e_a * e_b combines k rows
        s = field.mul_table[xpow[:, None], xpow][..., None] // xpow % p
        rows = self.rows((2 * m - 1) * k).reshape(2 * m - 1, k, n)
        prod = np.einsum("abl,jJlc->jaJbc", s, rows[np.add.outer(np.arange(m), np.arange(m))])
        self.T = self.mod(prod).reshape(n, n, n)

    def rows(self, count: int) -> np.ndarray:
        """The first `count` rows of the table, stepping it by t as needed, k
        rows a step, into one array."""
        k, have = self.k, len(self.table)
        if have < count:
            table = np.empty((have + (count - have + k - 1) // k * k, len(self.place)))
            table[:have], step = self.table, self.table[k : len(self.place) + k]
            for j in range(have, len(table), k):
                table[j : j + k] = self.mod(table[j - k : j] @ step)
            self.table = table
        return self.table[:count]

    def mod(self, x: np.ndarray) -> np.ndarray:
        """x mod p as float64, x float64 holding exact integers, through int64:
        several times faster than float % (and than int64 %)."""
        x = x.astype(np.int64)
        x -= x // self.p * self.p
        return x.astype(np.float64)

    def _digits(self, values: np.ndarray, place: np.ndarray) -> np.ndarray:
        """Base-p digits of `values` as float rows."""
        return (values[:, None] // place % self.p).astype(np.float64)

    def _batched(self, out: np.ndarray, width: int, coords_of) -> np.ndarray:
        """Fill `out`, one row per item, with the codes of the coordinates
        coords_of(part) (n per code), over chunks of its rows sized so their
        `width`-float rows stay in the cap."""
        step = max(1, _SCRATCH_BYTES // (8 * width))
        for part in (slice(i, i + step) for i in range(0, len(out), step)):
            out[part] = self.mod(coords_of(part)).reshape(*out[part].shape, -1) @ self.place
        return out

    def reduce(self, d: int, us: np.ndarray) -> np.ndarray:
        """Codes mod Q of the polynomials of degree <= d with codes `us` (a
        monic's is q^d plus its mantissa): one linear map, whatever their
        degrees."""
        rows = self.rows((d + 1) * self.k)
        place = self.p ** np.arange(len(rows))
        return self._batched(np.empty(len(us), np.int64), len(rows),
                             lambda s: self._digits(us[s], place) @ rows)

    def maps(self, codes: np.ndarray) -> np.ndarray:
        """The (n, n) maps of `codes`, a's digits times b's map being a*b's
        (row c of T as (n, n*n) is the map of e_c, T being symmetric); the
        map of a*b is the product of a's and b's."""
        n = len(self.place)
        maps = self._digits(np.atleast_1d(codes), self.place) @ self.T.reshape(n, n * n)
        return self.mod(maps).reshape(-1, n, n)

    def powers(self, maps: np.ndarray, exponents) -> np.ndarray:
        """Maps of a^e for each exponent e (axis 0) and each a given by its
        map (axis 1), from one squaring chain: at bit b the chain holds the
        maps of a^(2^b), and each exponent with bit b set takes them in."""
        out = np.empty((len(exponents), *maps.shape))
        out[[e == 0 for e in exponents]] = np.eye(len(self.place))
        for bit in range(max(exponents, default=0).bit_length()):
            if bit:
                maps = self.mod(maps @ maps)
            for i, e in enumerate(exponents):
                if e >> bit & 1:
                    out[i] = maps if e & ((1 << bit) - 1) == 0 else self.mod(out[i] @ maps)
        return out

    def codes(self, maps: np.ndarray) -> np.ndarray:
        """The codes of elements given by their maps: row 0, the image of 1."""
        return maps[..., 0, :].astype(np.int64) @ self.place

    def mul(self, a, b) -> np.ndarray:
        """Codes of a*b for the codes `a` and one code `b`, or, for an array
        of codes `b`, a (len(b), len(a)) array with row i for b[i]: a's
        digits times the maps of a chunk of the b side by side."""
        a, bs = np.atleast_1d(a), np.atleast_1d(b)
        n = len(self.place)
        out = np.empty((len(bs), len(a)), np.int64)
        step = max(1, _SCRATCH_BYTES // (8 * n * n))
        for i in range(0, len(bs), step):
            side = self.maps(bs[i : i + step]).transpose(1, 0, 2).reshape(n, -1)
            self._batched(out[i : i + step].T, side.shape[1],
                          lambda s: self._digits(a[s], self.place) @ side)
        return out[0] if np.ndim(b) == 0 else out


def reduce_monic_mod(field: FieldSpec, modulus: Poly, n: int, us: np.ndarray) -> np.ndarray:
    """Residue codes (mantissa-style integers in [0, q^deg(modulus))) of the
    monic degree-n polynomials with mantissas `us`, reduced mod `modulus`:
    by the ring, or mod t^m from the codes q^n + u (q^n is 0 there once n >= m)."""
    if not modulus.is_monic or modulus.degree < 1:
        raise PreconditionError("modulus must be monic of degree >= 1")
    q, m = field.q, modulus.degree
    codes = np.asarray(us, dtype=np.int64) + q**n
    if modulus != t_power(field, m):
        return ResidueRing(field, modulus).reduce(n, codes)
    return codes % q**m


def fold_monic_mod(field: FieldSpec, modulus: Poly, n: int, values, out: np.ndarray) -> None:
    """Add `values` (monics of degree n by mantissa) into `out` at their codes
    mod Q; mod t^m, by a reshape and one sum for n >= m, at q^n + u below."""
    q, m = field.q, modulus.degree
    if modulus != t_power(field, m):
        np.add.at(out, reduce_monic_mod(field, modulus, n, np.arange(q**n)), values)
    elif n >= m:
        out += values.reshape(-1, q**m).sum(0, dtype=np.int64)
    else:
        out[q**n : 2 * q**n] += values
