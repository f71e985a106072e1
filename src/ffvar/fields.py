"""Finite fields F_q with q = p^k small enough for table-driven arithmetic.

Elements are encoded as integers in [0, q): the base-p digits of the code are
the coordinates in the power basis 1, x, ..., x^(k-1) of F_p[x]/(P). For
k = 1 the code is just the residue mod p. Products are the digits' polynomial
products folded mod P, P the first monic of degree k by ascending mantissa
with no zero divisor in its table (x when k = 1): the first irreducible.
Addition is digitwise mod p. A field is its four read-only numpy tables,
add_table, mul_table, neg_table and inv_table; every reader indexes them,
one element or whole arrays at a time.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import PreconditionError
from .records import Frozen

MAX_FIELD_SIZE = 16


def prime_factors(n: int) -> dict[int, int]:
    """{p: e} with n the product of the p^e, by trial division up to sqrt(n);
    {} for n < 2."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class FieldSpec(Frozen):
    """A concrete F_q with lookup tables for all four operations (the module
    docstring), equal, hashed and shown by (p, k, q, modulus) alone; the
    modulus is ascending monic coefficients over F_p, None when k == 1."""

    __slots__ = ("p", "k", "q", "modulus", "add_table", "mul_table", "neg_table", "inv_table")
    _shown = 4

    def __str__(self) -> str:
        return f"F_{self.q}" if self.k == 1 else f"F_{self.q}=F_{self.p}^{self.k}"


@lru_cache(maxsize=None)
def make_field(p: int, k: int = 1) -> FieldSpec:
    """Build F_{p^k}. For k > 1 the modulus is the first monic irreducible of
    degree k over F_p by ascending mantissa (constant term varying fastest)."""
    if prime_factors(p) != {p: 1}:
        raise PreconditionError(f"p = {p} is not prime")
    if k < 1:
        raise PreconditionError(f"k = {k} must be >= 1")
    q = p**k
    if q > MAX_FIELD_SIZE:
        raise PreconditionError(f"q = {q} exceeds the size limit {MAX_FIELD_SIZE}")

    place = p ** np.arange(k)
    digits = np.arange(q)[:, None] // place % p
    add = (digits[:, None] + digits) % p @ place
    prod = np.zeros((q, q, 2 * k - 1), dtype=np.int64)  # a's digits times b's, by degree
    for i in range(k):
        prod[:, :, i : i + k] += digits[:, None, i, None] * digits
    # P = x^k + low for the first low, by ascending mantissa, with no zero divisor
    for low in digits:
        red = prod.copy()
        for j in range(2 * k - 2, k - 1, -1):  # x^j = -low * x^(j-k), top first
            red[:, :, j - k : j] -= red[:, :, j, None] * low
        mul = red[:, :, :k] % p @ place
        if mul[1:, 1:].all():
            break
    modulus = (*map(int, low), 1) if k > 1 else None

    # neg[a] is the b with a + b = 0 and inv[a] the b with a * b = 1; row 0
    # of mul holds no 1, so inv[0] is 0
    neg, inv = np.argmax(add == 0, axis=1), np.argmax(mul == 1, axis=1)
    add_np, mul_np, neg_np, inv_np = (a.astype(np.uint8) for a in (add, mul, neg, inv))
    for arr in (add_np, mul_np, neg_np, inv_np):
        arr.flags.writeable = False
    return FieldSpec(p, k, q, modulus, add_np, mul_np, neg_np, inv_np)


def verify_field_axioms(fld: FieldSpec) -> None:
    """Exhaustively check the field axioms on the tables, one broadcast per
    axiom over every a, (a, b) or (a, b, c). Raises on the first violation in
    (a, b, c) order, naming the first axiom below that fails there."""
    add, mul, neg, inv = fld.add_table, fld.mul_table, fld.neg_table, fld.inv_table
    a = np.arange(fld.q)
    _first_violation(
        [(add[:, 0] != a) | (mul[:, 1] != a), add[a, neg] != 0, (mul[a, inv] != 1) & (a > 0)],
        ["identity fails at {}", "negation fails at {}", "inverse fails at {}"],
    )
    _first_violation([(add != add.T) | (mul != mul.T)], ["commutativity fails at ({}, {})"])
    a, b, c = a[:, None, None], a[None, :, None], a[None, None, :]
    _first_violation(
        [add[add[a, b], c] != add[a, add[b, c]], mul[mul[a, b], c] != mul[a, mul[b, c]],
         mul[a, add[b, c]] != add[mul[a, b], mul[a, c]]],
        ["additive associativity fails at ({},{},{})",
         "multiplicative associativity fails at ({},{},{})", "distributivity fails at ({},{},{})"],
    )


def _first_violation(bad: list[np.ndarray], messages: list[str]) -> None:
    """bad[i] marks where axiom i fails, all over one grid of codes: raise
    messages[i] for the first grid point in C order, and the first i there."""
    hit = np.logical_or.reduce(bad)
    if hit.any():
        at = np.unravel_index(np.argmax(hit), hit.shape)
        first = next(i for i, fails in enumerate(bad) if fails[at])
        raise AssertionError(messages[first].format(*map(int, at)))
