"""Finite fields F_q with q = p^k small enough for table-driven arithmetic.

Elements are encoded as integers in [0, q): the base-p digits of the code are
the coordinates in the power basis 1, x, ..., x^(k-1) of F_p[x]/(P). For
k = 1 the code is just the residue mod p. For k > 1, F_{p^k} is built on F_p:
P is the first degree-k irreducible of the F_p sieve (tables.build_tables),
and products come from the residue ring F_p[x]/(P) (tables.ResidueRing).
Addition is digitwise mod p. Scalar work reads the nested tuples add_rows and
mul_rows; bulk work reads the read-only numpy add_table, mul_table, neg_table
and inv_table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import PreconditionError

MAX_FIELD_SIZE = 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A concrete F_q with lookup tables for all four operations."""

    p: int
    k: int
    q: int
    # modulus coefficients over F_p, ascending, monic; None when k == 1
    modulus: tuple[int, ...] | None
    add_table: np.ndarray = field(compare=False, repr=False)
    mul_table: np.ndarray = field(compare=False, repr=False)
    neg_table: np.ndarray = field(compare=False, repr=False)
    inv_table: np.ndarray = field(compare=False, repr=False)
    add_rows: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    mul_rows: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    def add(self, a: int, b: int) -> int:
        return self.add_rows[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add_rows[a][self.neg(b)]

    def mul(self, a: int, b: int) -> int:
        return self.mul_rows[a][b]

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return int(self.inv_table[a])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def element_pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def __str__(self) -> str:
        return f"F_{self.q}" if self.k == 1 else f"F_{self.q}=F_{self.p}^{self.k}"


@lru_cache(maxsize=None)
def make_field(p: int, k: int = 1) -> FieldSpec:
    """Build F_{p^k}. For k > 1 the modulus is the lexicographically smallest
    monic irreducible of degree k over F_p (constant term compared first)."""
    if not _is_prime(p):
        raise PreconditionError(f"p = {p} is not prime")
    if k < 1:
        raise PreconditionError(f"k = {k} must be >= 1")
    q = p**k
    if q > MAX_FIELD_SIZE:
        raise PreconditionError(f"q = {q} exceeds the size limit {MAX_FIELD_SIZE}")

    codes = np.arange(q)
    digits = codes[:, None] // p ** np.arange(k) % p
    add = (digits[:, None] + digits) % p @ p ** np.arange(k)
    if k == 1:
        modulus = None
        mul = np.outer(codes, codes) % p
    else:
        # both modules build on FieldSpec, so they are imported here
        from .polys import monic_from_index
        from .tables import build_tables, residue_ring

        prime_field = make_field(p)
        # the sieve lists irreducibles by ascending mantissa, smallest first
        P = monic_from_index(prime_field, k, int(build_tables(prime_field, k).irreducibles[k][0]))
        ring = residue_ring(prime_field, P)
        modulus = P.coeffs
        mul = ring.mul(codes, codes)

    # neg[a] is the b with a + b = 0 and inv[a] the b with a * b = 1; row 0
    # of mul holds no 1, so inv[0] is 0
    neg, inv = np.argmax(add == 0, axis=1), np.argmax(mul == 1, axis=1)
    add_np, mul_np, neg_np, inv_np = (a.astype(np.uint8) for a in (add, mul, neg, inv))
    for arr in (add_np, mul_np, neg_np, inv_np):
        arr.flags.writeable = False

    return FieldSpec(
        p=p,
        k=k,
        q=q,
        modulus=modulus,
        add_table=add_np,
        mul_table=mul_np,
        neg_table=neg_np,
        inv_table=inv_np,
        add_rows=tuple(tuple(row) for row in add.tolist()),
        mul_rows=tuple(tuple(row) for row in mul.tolist()),
    )


def verify_field_axioms(fld: FieldSpec) -> None:
    """Exhaustively check the field axioms on the tables. Raises on the first
    violation; intended for q <= 16 where the cubic loops are trivial."""
    q = fld.q
    rng = range(q)
    for a in rng:
        if fld.add(a, 0) != a or fld.mul(a, 1) != a:
            raise AssertionError(f"identity fails at {a}")
        if fld.add(a, fld.neg(a)) != 0:
            raise AssertionError(f"negation fails at {a}")
        if a and fld.mul(a, fld.inv(a)) != 1:
            raise AssertionError(f"inverse fails at {a}")
    for a in rng:
        for b in rng:
            if fld.add(a, b) != fld.add(b, a) or fld.mul(a, b) != fld.mul(b, a):
                raise AssertionError(f"commutativity fails at ({a}, {b})")
    for a in rng:
        for b in rng:
            for c in rng:
                if fld.add(fld.add(a, b), c) != fld.add(a, fld.add(b, c)):
                    raise AssertionError(f"additive associativity fails at ({a},{b},{c})")
                if fld.mul(fld.mul(a, b), c) != fld.mul(a, fld.mul(b, c)):
                    raise AssertionError(f"multiplicative associativity fails at ({a},{b},{c})")
                if fld.mul(a, fld.add(b, c)) != fld.add(fld.mul(a, b), fld.mul(a, c)):
                    raise AssertionError(f"distributivity fails at ({a},{b},{c})")
