"""Factorization over F_q[t], irreducible counts, and smooth counts.

factor() takes any nonzero F: it walks the factor links of the sieve tables
(tables.ArithTables.factor_links) from the monic associate, one lookup per
prime factor, and returns the leading coefficient as the unit. lambda, mu
and Omega over all monic of a degree live in the tables themselves. The
irreducible lists can be persisted in a small line-oriented text format
(FFSIEVE) so repeated runs skip the sieve.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np

from .errors import IrreducibleCacheError, PreconditionError
from .fields import FieldSpec, prime_factors
from .polys import Poly, monic_from_index, monic_index, one
from .records import Frozen
from .tables import get_tables

CACHE_FORMAT_VERSION = 1


class SieveCache(Frozen):
    """Complete ascending lists of monic irreducibles per degree d: by_degree[d], [0] empty."""

    __slots__ = ("field", "max_degree", "by_degree")

    def degree(self, d: int) -> tuple[Poly, ...]:
        if not 1 <= d <= self.max_degree:
            raise PreconditionError(f"degree {d} outside cache range 1..{self.max_degree}")
        return self.by_degree[d]

    def count(self, d: int) -> int:
        return len(self.degree(d))


def cache_file_name(field: FieldSpec) -> str:
    if field.modulus is None:
        return f"ffsieve_p{field.p}_k{field.k}.txt"
    digits = "".join(str(c) for c in field.modulus)
    return f"ffsieve_p{field.p}_k{field.k}_m{digits}.txt"


def _modulus_header(field: FieldSpec) -> str:
    if field.modulus is None:
        return "-"
    return ",".join(str(c) for c in field.modulus)


def write_cache(cache: SieveCache, path: Path | str) -> None:
    path = Path(path)
    total = sum(len(lst) for lst in cache.by_degree)
    lines = [
        f"FFSIEVE {CACHE_FORMAT_VERSION} p={cache.field.p} k={cache.field.k} "
        f"mod={_modulus_header(cache.field)} maxdeg={cache.max_degree} count={total}"
    ]
    for d in range(1, cache.max_degree + 1):
        for poly in cache.by_degree[d]:
            coeffs = [poly.coeff(j) for j in range(d + 1)]
            lines.append(" ".join([str(d)] + [str(c) for c in coeffs]))
    lines.append(f"END {total}")
    path.write_text("\n".join(lines) + "\n")


def load_cache(field: FieldSpec, path: Path | str) -> SieveCache:
    """Parse an FFSIEVE file. Raises IrreducibleCacheError on any structural
    problem (the caller decides whether to fall back to recomputation)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise IrreducibleCacheError(f"cannot read {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise IrreducibleCacheError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 7 or head[0] != "FFSIEVE":
        raise IrreducibleCacheError(f"{path}: bad header {lines[0]!r}")
    if head[1] != str(CACHE_FORMAT_VERSION):
        raise IrreducibleCacheError(f"{path}: unsupported version {head[1]}")
    fields = dict(part.split("=", 1) for part in head[2:])
    if fields.get("p") != str(field.p) or fields.get("k") != str(field.k):
        raise IrreducibleCacheError(f"{path}: header is for F_{fields.get('p')}^{fields.get('k')}")
    if fields.get("mod") != _modulus_header(field):
        raise IrreducibleCacheError(f"{path}: modulus mismatch")
    try:
        max_degree = int(fields["maxdeg"])
        count = int(fields["count"])
    except (KeyError, ValueError) as exc:
        raise IrreducibleCacheError(f"{path}: bad header numbers") from exc

    if lines[-1].split() != ["END", str(count)]:
        raise IrreducibleCacheError(f"{path}: missing or inconsistent END line")
    body = lines[1:-1]
    if len(body) != count:
        raise IrreducibleCacheError(f"{path}: {len(body)} entries, header says {count}")

    by_degree: list[list[Poly]] = [[] for _ in range(max_degree + 1)]
    prev_key: tuple[int, int] | None = None
    for lineno, line in enumerate(body, start=2):
        toks = line.split()
        try:
            d = int(toks[0])
            coeffs = [int(t) for t in toks[1:]]
        except ValueError as exc:
            raise IrreducibleCacheError(f"{path}:{lineno}: unparsable entry") from exc
        if not 1 <= d <= max_degree:
            raise IrreducibleCacheError(f"{path}:{lineno}: degree {d} out of range")
        if len(coeffs) != d + 1:
            raise IrreducibleCacheError(f"{path}:{lineno}: wrong coefficient count")
        if any(not 0 <= c < field.q for c in coeffs):
            raise IrreducibleCacheError(f"{path}:{lineno}: coefficient code out of range")
        if coeffs[-1] != 1:
            raise IrreducibleCacheError(f"{path}:{lineno}: entry is not monic")
        poly = Poly(field, tuple(coeffs))
        key = (d, monic_index(poly))
        if prev_key is not None and key <= prev_key:
            raise IrreducibleCacheError(f"{path}:{lineno}: entries out of order")
        prev_key = key
        by_degree[d].append(poly)
    return SieveCache(field=field, max_degree=max_degree, by_degree=tuple(tuple(lst) for lst in by_degree))


def sieve_irreducibles(
    field: FieldSpec, max_degree: int, *, cache_dir: Path | str | None = None
) -> SieveCache:
    """Complete irreducible lists up to max_degree, optionally persisted.

    A readable cache file that covers the requested range is trusted after
    structural validation; a corrupt or short file is reported and replaced
    by a fresh sieve.
    """
    if max_degree < 1:
        raise PreconditionError("max_degree must be >= 1")
    path = Path(cache_dir) / cache_file_name(field) if cache_dir is not None else None
    if path is not None and path.exists():
        import logging  # loaded only where a cache file may be stale or corrupt

        log = logging.getLogger(__name__)
        try:
            cached = load_cache(field, path)
            if cached.max_degree >= max_degree:
                return cached
            log.info("cache %s only covers degree %d, resieving", path, cached.max_degree)
        except IrreducibleCacheError as exc:
            log.warning("discarding corrupt sieve cache: %s", exc)
    tables = get_tables(field, max_degree)
    by_degree: list[tuple[Poly, ...]] = [()]
    for d in range(1, max_degree + 1):
        by_degree.append(tuple(tables.irreducible_polys(d)))
    cache = SieveCache(field=field, max_degree=max_degree, by_degree=tuple(by_degree))
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_cache(cache, path)
    return cache


# -- factorization


class Factorization(Frozen):
    """unit * prod(P_i^e_i) with factors ascending by (degree, mantissa)."""

    __slots__ = ("unit", "factors")

    def __iter__(self):
        return iter(self.factors)

    def product(self, field: FieldSpec) -> Poly:
        out = one(field).scale(self.unit)
        for p, e in self.factors:
            out = out * p**e
        return out


def factor(f: Poly, cache: SieveCache) -> Factorization:
    """Factor by walking the sieve's factor links, one lookup per prime factor.
    The tables and each walked degree's links must fit the budget: BudgetError."""
    if f.is_zero:
        raise PreconditionError("cannot factor the zero polynomial")
    n = f.degree
    if n == 0:
        return Factorization(unit=f.lead, factors=())
    if cache.max_degree < n // 2:
        raise PreconditionError(
            f"cache depth {cache.max_degree} insufficient for degree {n} (needs {n // 2})"
        )
    found = factor_mantissas(f.field, n, monic_index(f.monic()))
    return Factorization(f.lead, tuple((monic_from_index(f.field, d, u), e) for d, u, e in found))


def factor_mantissas(field: FieldSpec, n: int, u: int) -> list[tuple[int, int, int]]:
    """(deg P, mantissa of P, e) for each P^e || G, G monic of degree n >= 1
    with mantissa u, ascending: G's factor links walked, one lookup a factor."""
    tables = get_tables(field, n)
    found: Counter[tuple[int, int]] = Counter()
    while n:
        deg, fac, cof = tables.factor_links(n)
        d = int(deg[u])
        if d == 0:
            found[n, u] += 1
            break
        found[d, int(fac[u])] += 1
        n, u = n - d, int(cof[u])
    return [(d, u, e) for (d, u), e in sorted(found.items())]


class FactorIndex:
    """Memoized factorizations, keyed by monic associate."""

    def __init__(self, field: FieldSpec, cache: SieveCache):
        self.field = field
        self.cache = cache
        self._memo: dict[tuple[int, int], tuple[tuple[Poly, int], ...]] = {}

    def factor(self, f: Poly) -> Factorization:
        if f.is_zero:
            raise PreconditionError("cannot factor the zero polynomial")
        g = f.monic()
        key = (g.degree, monic_index(g))
        got = self._memo.get(key)
        if got is None:
            got = factor(g, self.cache).factors
            self._memo[key] = got
        return Factorization(unit=f.lead, factors=got)


# -- counting


def integer_moebius(n: int) -> int:
    if n < 1:
        raise PreconditionError("integer moebius needs n >= 1")
    exponents = prime_factors(n).values()
    return 0 if max(exponents, default=1) > 1 else (-1) ** len(exponents)


@cache
def pi_q(field: FieldSpec, n: int) -> int:
    """Number of monic irreducibles of degree n (necklace formula), memoized."""
    if n < 1:
        raise PreconditionError("pi_q needs n >= 1")
    q = field.q
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += integer_moebius(d) * q ** (n // d)
    assert total % n == 0
    return total // n


def liouville_full_sum(field: FieldSpec, n: int) -> int:
    """Sum of the Liouville function over all monic polynomials of degree n."""
    if n < 0:
        raise PreconditionError("degree must be >= 0")
    tables = get_tables(field, n)
    return int(tables.liouville_values(n).sum(dtype=np.int64))


def count_smooth_exact(field: FieldSpec, h: int, n: int) -> int:
    """Exact count of h-smooth monic polynomials of degree n, via the
    generating function prod_{d<=h} (1-x^d)^(-pi_q(d)). Pure integers."""
    if n < 0:
        raise PreconditionError("degree must be >= 0")
    if h < 1:
        raise PreconditionError("smoothness bound must be >= 1")
    coeffs = [0] * (n + 1)
    coeffs[0] = 1
    for d in range(1, min(h, n) + 1):
        r = pi_q(field, d)
        # multiply by (1-x^d)^(-r): coefficient of x^(d*j) is C(r-1+j, j)
        nxt = [0] * (n + 1)
        for i in range(n + 1):
            acc = 0
            j = 0
            while d * j <= i:
                acc += math.comb(r - 1 + j, j) * coeffs[i - d * j]
                j += 1
            nxt[i] = acc
        coeffs = nxt
    return coeffs[n]


def smooth_asymptotic_ratio(field: FieldSpec, h: int, n: int) -> tuple[float, float]:
    """(count / (q^n * exp(-u log u)) with u = n/h, count / q^(n-h)).

    The first ratio is exactly 1.0 at h = n; both stay finite on any grid
    with h >= 1.
    """
    if h < 1 or n < 1:
        raise PreconditionError("need h >= 1 and n >= 1")
    count = count_smooth_exact(field, h, n)
    q = field.q
    u = n / h
    main = count * math.exp(u * math.log(u)) / q**n
    crude = float(Fraction(count, q ** max(n - h, 0)))
    return main, crude
