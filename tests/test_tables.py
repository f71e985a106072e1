from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from conftest import (
    brute_factor,
    coeff,
    enumerate_monic,
    expand,
    padd,
    pmod,
    pmul,
    ppow,
    scale,
    traced_peak,
)
from ffvar import tables as tables_module

from ffvar.arith import factor, pi_q, sieve_irreducibles
from ffvar.errors import BudgetError, budget
from ffvar.fields import make_field
from ffvar.polys import (
    Poly,
    from_coeffs,
    monic_from_index,
    monic_index,
    t_power,
)
from ffvar.tables import (
    build_tables,
    flag_bytes,
    get_tables,
    links_bytes,
    mul_monic_batch,
    ResidueRing,
    reduce_monic_mod,
    table_bytes,
)

# every F_q with q <= 16, as (p, k)
ALL_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4))


@pytest.mark.parametrize("p,k", ALL_FIELDS, ids=[str(p**k) for p, k in ALL_FIELDS])
def test_sieve_tables_match_trial_division(p, k):
    # every degree with q^n <= 4096: the split product's carries differ for
    # each p and k
    fld = make_field(p, k)
    q = fld.q
    max_deg = max(n for n in range(1, 13) if q**n <= 4096)
    tab = build_tables(fld, max_deg)
    for n in range(1, max_deg + 1):
        lam = tab.liouville_values(n)
        mu = tab.moebius_values(n)
        for u in range(q**n):
            f = monic_from_index(fld, n, u)
            primes = brute_factor(f)
            omega = len(primes)
            sqfree = len(set(p.coeffs for p in primes)) == omega
            mfd = max(p.degree for p in primes)
            assert tab.big_omega[n][u] == omega
            assert bool(tab.squarefree[n][u]) == sqfree
            assert tab.max_factor_degree[n][u] == mfd
            assert lam[u] == (-1) ** omega
            assert mu[u] == ((-1) ** omega if sqfree else 0)


@pytest.mark.parametrize("p,k", ALL_FIELDS, ids=[str(p**k) for p, k in ALL_FIELDS])
def test_window_pairs_match_poly_products(p, k):
    # every degree with q^m <= 1024: rows in (deg P, P, M) order, P * M from
    # Poly products, and each G once per distinct irreducible factor
    fld = make_field(p, k)
    q = fld.q
    max_deg = max(m for m in range(1, 11) if q**m <= 1024)
    tab = build_tables(fld, max_deg)
    for m in range(0, max_deg + 1):
        deg, cof, prod = tab.window_pairs(m)
        rows = [(d, int(up), u) for d in range(1, m + 1) for up in tab.irreducibles[d]
                for u in range(q ** (m - d))]
        assert list(zip(deg.tolist(), cof.tolist())) == [(d, u) for d, _, u in rows]
        assert prod.tolist() == [
            monic_index(pmul(monic_from_index(fld, d, up), monic_from_index(fld, m - d, u)))
            for d, up, u in rows
        ]
        distinct = [len(set(brute_factor(g))) for g in enumerate_monic(fld, m)]
        assert np.bincount(prod, minlength=q**m).tolist() == distinct
    assert tab.window_pairs(max_deg)[2] is tab.window_pairs(max_deg)[2]  # built once


@pytest.mark.parametrize("p,k", ALL_FIELDS, ids=[str(p**k) for p, k in ALL_FIELDS])
def test_sieve_irreducible_counts_match_necklace_formula(p, k):
    fld = make_field(p, k)
    top = max(n for n in range(1, 15) if fld.q**n <= 1 << 14)
    tab = build_tables(fld, top)
    for n in range(1, top + 1):
        assert len(tab.irreducibles[n]) == pi_q(fld, n)


def test_irreducible_polys_are_irreducible(f3):
    tab = build_tables(f3, 4)
    for n in range(1, 5):
        for p in (monic_from_index(f3, n, int(u)) for u in tab.irreducibles[n]):
            assert p.is_monic and p.degree == n
            assert len(brute_factor(p)) == 1


def test_liouville_column_sums_match_zeta_identity(f2, f3):
    # sum over monic degree-n of lambda is (-1)^n q^ceil(n/2)
    for fld, deg in ((f2, 10), (f3, 7)):
        tab = build_tables(fld, deg)
        for n in range(1, deg + 1):
            total = int(tab.liouville_values(n).sum())
            assert total == (-1) ** n * fld.q ** ((n + 1) // 2)


def test_moebius_column_sums_vanish():
    # 1/zeta = 1 - q x: degree-1 sum is -q, all higher degrees cancel
    # exactly, and q^n - q^(n-1) monics of each degree n >= 2 are squarefree;
    # for every q <= 16 up to q^n <= 2^16, the flags read one degree a call
    # before an extend and many degrees in one call after it
    for p, k in ALL_FIELDS:
        fld = make_field(p, k)
        q = fld.q
        top = max(n for n in range(1, 17) if q**n <= 1 << 16)
        tab = build_tables(fld, (top + 1) // 2)
        reads = [*range(1, tab.max_degree + 1), top, *range(top - 1, tab.max_degree, -1)]
        for n in reads:
            if n > tab.max_degree:
                tab.extend(top)
            mu = tab.moebius_values(n)
            assert len(tab.squarefree) == (n if tab.max_degree < top else top) + 1
            assert int(mu.sum()) == (-q if n == 1 else 0), (q, n)
            if n >= 2:
                assert np.count_nonzero(mu) == q**n - q ** (n - 1), (q, n)


def test_factor_matches_brute_factor():
    # every monic G with q^deg G <= 4096 for every q <= 16, and every unit
    # multiple of it for q <= 5: the same primes with the same exponents,
    # ascending by (degree, mantissa), and the leading coefficient as unit
    for p, k in ALL_FIELDS:
        fld = make_field(p, k)
        q = fld.q
        top = max(n for n in range(1, 13) if q**n <= 4096)
        cache = sieve_irreducibles(fld, top // 2)
        for n in range(top + 1):
            for g in enumerate_monic(fld, n):
                primes = brute_factor(g)
                expected = [(P, primes.count(P)) for P in dict.fromkeys(primes)]
                for c in range(1, q if q <= 5 else 2):
                    fac = factor(scale(g, c), cache)
                    assert fac.unit == c and list(fac.factors) == expected, (q, g, c)
                keys = [(P.degree, monic_index(P)) for P, _ in fac]
                assert keys == sorted(set(keys))


# -- batched monic multiplication ---------------------------------------------


def _one_shot_products(fld, dp: int, up: int, md: int) -> np.ndarray:
    """Oracle: P * M for every monic M of degree md as one ring product mod
    t^m, m = dp + md, with no split."""
    q, m = fld.q, dp + md
    ring = ResidueRing(fld, t_power(fld, m))
    return ring.mul(np.arange(q**md) + q**md, (up + q**dp) % q**m)


def _poly_squares(fld, d: int, ups) -> np.ndarray:
    """Oracle: mantissas of P^2 for the monic P of degree d with mantissas
    `ups`, from Poly products."""
    polys = (monic_from_index(fld, d, int(up)) for up in ups)
    return np.array([monic_index(pmul(P, P)) for P in polys], dtype=np.int64)


@pytest.mark.parametrize("p,k", ALL_FIELDS, ids=[str(p**k) for p, k in ALL_FIELDS])
def test_mul_monic_batch_matches_poly_product(p, k, monkeypatch):
    # up to 8 irreducible P of each degree 1..4 (all of them for q = 2)
    # and their squares as the flags pass builds them, one batch per
    # degree, for every md with q^md <= 2^14 against the one-shot ring
    # product per P, so overlaps of several digits carry for each p and k.
    # A _CHUNK of half of one P's products spreads it over several blocks;
    # the default one puts several P in one block. Either way the blocks
    # run in (P, M) order.
    fld = make_field(p, k)
    q = fld.q
    tab = build_tables(fld, 4)
    rng = np.random.default_rng(7)
    batches = []
    for dp in (1, 2, 3, 4):
        ups = np.sort(rng.permutation(tab.irreducibles[dp])[:8])
        squares = _poly_squares(fld, dp, ups)
        built = tables_module._squares(fld, dp, tab.irreducibles[dp])
        assert np.array_equal(built[np.searchsorted(tab.irreducibles[dp], ups)], squares)
        batches += [(dp, ups), (2 * dp, squares)]
    seen = set()
    for dp, ups in batches:
        for md in range(15):
            if q**md > 1 << 14:
                break
            expected = np.stack([_one_shot_products(fld, dp, int(up), md) for up in ups])
            for chunk in (tables_module._CHUNK, q**md // 2):
                monkeypatch.setattr(tables_module, "_CHUNK", chunk)
                done = 0
                for rows, part, block in mul_monic_batch(fld, dp, ups, md):
                    assert block.shape == (rows.stop - rows.start, part.stop - part.start)
                    assert block.flags.c_contiguous  # so writes land in (P, M) order
                    assert rows.start * q**md + part.start == done  # (P, M) order
                    whole = part == slice(0, q**md)
                    assert len(block) == 1 or whole  # several P only with all their M
                    assert block.size <= chunk or block.shape == (1, q ** ((md + 1) // 2))
                    assert np.array_equal(block, expected[rows, part]), (q, dp, md)
                    done += block.size
                    seen.add("several P" if len(block) > 1 else "one P" if whole else "split P")
                assert done == expected.size
            if md <= 3:  # and against Poly products, for two P and at most 256 M
                for i in rng.permutation(len(ups))[:2]:
                    P = monic_from_index(fld, dp, int(ups[i]))
                    for u in rng.permutation(q**md)[:256]:
                        expected_poly = pmul(P, monic_from_index(fld, md, int(u)))
                        assert int(expected[i, u]) == monic_index(expected_poly), (q, P, md, u)
    assert {"several P", "split P"} <= seen


def _digitwise_sums(p: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Oracle: the base-p digits of x and y added mod p, one digit at a time."""
    out, place = np.zeros(np.broadcast(x, y).shape, np.int64), 1
    while (x // place).any() or (y // place).any():
        out += (x // place % p + y // place % p) % p * place
        place *= p
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_digit_adder_folds_and_carries_every_overlap_digit(p):
    # random y, and x a multiple of p^start, so the two overlap at the 1 to 8
    # digits from start (deg P up to 8 over F_p), each carried by its own
    # masked subtract, in the broadcast shapes of the sieve: the span's
    # (rows, q - 1, 1) multiples against (rows, 1, q^j) codes, the join's
    # (rows, 1, q^a) codes against (rows, H, 1), and P * H's (rows, 1)
    # against (rows, h); one adder takes three x, as the join takes H chunks
    rng = np.random.default_rng(p)
    shapes = ((0, (5, 3, 1), (5, 1, 7)), (2, (5, 1, 6), (5, 4, 1)), (1, (5, 1), (5, 6)))
    for count in range(1, 9):
        for start, y_shape, x_shape in shapes:
            y = rng.integers(0, p ** (start + count), y_shape)
            add = tables_module._digit_adder(p, y, start, count)
            for _ in range(3):
                x = rng.integers(0, p ** (count + 2), x_shape) * p**start
                assert np.array_equal(add(x), _digitwise_sums(p, x, y)), (p, count, start)


def _code(f: Poly) -> int:
    return sum(c * f.field.q**j for j, c in enumerate(f.coeffs))


@pytest.mark.parametrize("p,k", ALL_FIELDS, ids=[str(p**k) for p, k in ALL_FIELDS])
def test_low_products_and_squares_match_poly_products(p, k):
    # P * L for every L of degree < a from the q - 1 multiples of P, one
    # digit-wise sum per coefficient of L, and P^2 as the flags pass builds
    # it, against Poly products
    fld = make_field(p, k)
    q = fld.q
    tab = build_tables(fld, 4)
    for d in range(1, 5):
        ups = tab.irreducibles[d][:6]
        polys = [monic_from_index(fld, d, int(up)) for up in ups]
        squares = tables_module._squares(fld, d, tab.irreducibles[d])[:6]
        assert np.array_equal(squares, _poly_squares(fld, d, ups))
        for a in range(4):
            if q**a > 1 << 12:
                break
            low = tables_module._low_products(fld, d, ups, a)
            assert low.shape == (len(ups), q**a)
            ls = [from_coeffs(fld, [u // q**j % q for j in range(a)]) for u in range(q**a)]
            for P, row in zip(polys, low.tolist()):
                assert row == [_code(pmul(P, L)) for L in ls], (q, P, a)


@pytest.mark.parametrize(
    "p,k", [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2)], ids=["3", "5", "7", "13", "9"]
)
def test_mul_monic_batch_carries_overlaps_past_the_fold(p, k):
    # P of every degree from 1, and their squares, so the k deg P overlap
    # digits run from k to 2 k top, each carried on its own: P * M against
    # the one-shot ring product for every M of a few degrees
    fld = make_field(p, k)
    q = fld.q
    top = max(d for d in range(1, 8) if q**d <= 1 << 15)
    tab = build_tables(fld, top)
    rng = np.random.default_rng(q)
    for dp in range(1, top + 1):
        ups = np.sort(rng.permutation(tab.irreducibles[dp])[:4])
        for dm, mants in ((dp, ups), (2 * dp, _poly_squares(fld, dp, ups))):
            for md in range(1, 7):
                if q**md > 1 << 12:
                    break
                expected = np.stack([_one_shot_products(fld, dm, int(u), md) for u in mants])
                blocks = [block.ravel() for *_, block in mul_monic_batch(fld, dm, mants, md)]
                assert np.array_equal(np.concatenate(blocks), expected.ravel()), (q, dm, md)


def test_residue_ring_mul_stacks_multipliers(f3):
    # an array of multipliers gives one row per multiplier, equal to the
    # one-multiplier product, also when the multipliers span several chunks
    f9 = make_field(3, 2)
    for fld, coeffs in ((f3, [2, 1, 0, 1, 1]), (f9, [5, 0, 1]), (f3, [0, 0, 0, 0, 0, 0, 1])):
        modulus = from_coeffs(fld, coeffs)
        ring, size = ResidueRing(fld, modulus), fld.q**modulus.degree
        a, bs = np.arange(size), np.random.default_rng(1).integers(0, size, 700)
        rows = ring.mul(a, bs)
        assert rows.shape == (len(bs), size) and rows.flags.c_contiguous
        for b, row in zip(bs, rows):
            assert np.array_equal(row, ring.mul(a, int(b)))


# -- reference: the sieve's per-P product loop ------------------------------
#
# The product pass as it ran one irreducible P at a time, before the kernel
# took every P of one degree in one batch. Writers of one G then came in
# (deg P, P, M) order, so the last P to write G left its factor link; the
# batched pass must leave byte-identical tables, links and window pairs.


def _per_p_products(fld, dp: int, up: int, md: int):
    """(slice of M's mantissas, mantissas of P * M) blocks for one P."""
    p, k, q = fld.p, fld.k, fld.q
    a, m = (md + 1) // 2, md + dp
    h0 = q ** (md - a)
    ring = ResidueRing(fld, t_power(fld, a + dp + 1))
    codes = ring.mul(np.arange(max(q**a, 2 * h0)), up + q**dp)
    low, high = codes[: q**a], codes[h0 : 2 * h0] - q ** (m - a)
    place = p ** np.arange(k * dp)
    digits = np.concatenate((low // q**a, high)) // place[:, None] % p
    low_room, high_digits = p - digits[:, : q**a], digits[:, q**a :]
    rows = max(1, tables_module._CHUNK // q**a)
    for h in range(0, len(high), rows):
        block = np.add.outer(high[h : h + rows] * q**a, low)
        carries = np.greater_equal(high_digits[:, h : h + rows, None], low_room[:, None, :])
        for carry, where in zip(place * p * q**a, carries):
            np.subtract(block, carry, out=block, where=where)
        yield slice(h * q**a, h * q**a + block.size), block.ravel()


def _per_p_pass(fld, irreducibles, m: int, power: int = 1):
    for d in range(1, m // 2 + 1):
        ups = irreducibles[d]
        mants = ups
        if power == 2:
            mants = _poly_squares(fld, d, ups)
        for up, mant in zip(ups, mants.tolist()):
            for part, codes in _per_p_products(fld, power * d, mant, m - power * d):
                yield d, up, part, codes


def _per_p_tables(fld, max_degree: int):
    """(big_omega, squarefree, max_factor_degree, irreducibles) per degree."""
    q = fld.q
    om, sf, mf = [np.zeros(1, np.int8)], [np.ones(1, bool)], [np.zeros(1, np.int8)]
    irr = [np.empty(0, np.int64)]
    for m in range(1, max_degree + 1):
        om.append(np.full(q**m, -1, dtype=np.int8))
        sf.append(np.ones(q**m, dtype=bool))
        mf.append(np.zeros(q**m, dtype=np.int8))
        for d, _, part, codes in _per_p_pass(fld, irr, m):
            om[m][codes] = om[m - d][part] + 1
            mf[m][codes] = np.maximum(mf[m - d][part], d)
        for *_, codes in _per_p_pass(fld, irr, m, power=2):
            sf[m][codes] = False
        fresh = np.nonzero(om[m] < 0)[0]
        om[m][fresh], mf[m][fresh] = 1, m
        irr.append(fresh.astype(np.int64))
    return om, sf, mf, irr


def _per_p_links(fld, irreducibles, m: int):
    size = fld.q**m
    deg, fac, cof = np.zeros(size, np.int8), np.zeros(size, np.int32), np.zeros(size, np.int32)
    for d, up, part, codes in _per_p_pass(fld, irreducibles, m):
        deg[codes], fac[codes], cof[codes] = d, up, np.arange(part.start, part.stop)
    return deg, fac, cof


def _per_p_pairs(fld, irreducibles, m: int):
    q = fld.q
    deg, cof, prod = ([np.empty(0, np.int64)] for _ in range(3))
    for d in range(1, m + 1):
        ups, size = irreducibles[d], q ** (m - d)
        deg.append(np.full(len(ups) * size, d))
        cof.append(np.tile(np.arange(size), len(ups)))
        for up in ups.tolist():
            prod += [block for _, block in _per_p_products(fld, d, up, m - d)]
    return tuple(np.concatenate(c) for c in (deg, cof, prod))


def _same_arrays(got, want) -> bool:
    return len(got) == len(want) and all(
        a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want)
    )


@pytest.mark.parametrize("p,k", ALL_FIELDS, ids=[str(p**k) for p, k in ALL_FIELDS])
def test_batched_sieve_matches_the_per_p_loop(p, k):
    # every degree with q^m <= 2^16 for the tables (the squarefree flags
    # once mu is read) and factor links; the window pairs run one per-P
    # product per irreducible of every degree up to m, so they are compared
    # up to q^m <= 2^12
    fld = make_field(p, k)
    q = fld.q
    top = max(n for n in range(1, 17) if q**n <= 1 << 16)
    tab = build_tables(fld, top)
    tab.moebius_values(top)
    want = _per_p_tables(fld, top)
    got = (tab.big_omega, tab.squarefree, tab.max_factor_degree, tab.irreducibles)
    for got_group, want_group in zip(got, want):
        assert _same_arrays(got_group, want_group)
    irr = want[3]
    for m in range(top + 1):
        assert _same_arrays(tab.factor_links(m), _per_p_links(fld, irr, m)), (q, m)
        if q**m <= 1 << 12:
            assert _same_arrays(tab.window_pairs(m), _per_p_pairs(fld, irr, m)), (q, m)


# sha256 of each degree's arrays in turn, from degree 0 to the top one with
# q^m <= 2^16, first 16 hex digits, as (Omega, max factor degree,
# irreducibles, factor links, window pairs, mu): written down from the sieve
# whose products came from a residue ring for odd p and from shifted bits
# for p = 2
SIEVE_DIGESTS = {
    (2, 1): ('a18baa5d55bdc898', 'de2b1b76ab3d037e', '19cd335c330dfda2', '8f81edabaf8f0565', 'b0fc01cf7bd56cf9', '144565180dc1bf9b'),
    (3, 1): ('6ff61e5c994d906f', '305d355078906ea5', 'b9fa0cc490237db4', '1507975afb392a64', '9a218658add48dec', 'a1affb7ef3a1ff1b'),
    (2, 2): ('12687d3fc1c620cf', 'd01c21c61d27e474', '58256408e50a7e61', '97b3ebca3935c2dc', 'e853ea99dde44660', '538b568e8df9de60'),
    (5, 1): ('d751f43e789dc87a', '819de4ffb6648ac8', 'f2be895fd9e0d51c', 'f880bb24bfe513fe', '78ef32cc290a77a5', '4409fc8491de24b7'),
    (7, 1): ('d53df22583fc812c', '477e502d948ca30e', 'dda01184cef79073', '2abb699dd8099cd3', 'd0c844b2b32a76be', '57591372f574001e'),
    (2, 3): ('26c769a3b3568c53', '686643ce716b4870', 'de12927afa8ea49a', '78b29277b0f32881', 'a75d196a6a3ae1e2', '70598e3a1f8ea9d9'),
    (3, 2): ('d6450e0f89ca17d6', 'bda75d8ae13ef4c3', '06746c94c823722d', '65740212288fe2e6', '996b7c10d254c4ed', '889baec1570d57a1'),
    (11, 1): ('4e154a9a1c182518', '499a6c0132f4e666', '78b7d3777c6c3964', '7aab2c49224733e8', '923fb01816ee84ce', 'ca89079211b73dcf'),
    (13, 1): ('15f0dd8cf9293c48', '5a2cf21427b8f2ef', '30055b0f49e2432f', '2ae00211933000e0', 'c3769b3096e8c446', '643f795de4c546d4'),
    (2, 4): ('d2ea69e74e40f4f5', '361f87cc448a2906', 'a5d83a4b6f33153f', 'c83e2e4b98b5af32', 'ffc4882fbb0552d7', 'b84516dabbe181d9'),
}


def _sieve_digests(fld) -> tuple[str, ...]:
    top = max(n for n in range(1, 17) if fld.q**n <= 1 << 16)
    tab = build_tables(fld, top)
    reads = (lambda m: (tab.big_omega[m],), lambda m: (tab.max_factor_degree[m],),
             lambda m: (tab.irreducibles[m],), tab.factor_links, tab.window_pairs,
             lambda m: (tab.moebius_values(m),))
    digests = []
    for read in reads:
        h = hashlib.sha256()
        for m in range(top + 1):
            for a in read(m):
                h.update(a.dtype.str.encode() + a.tobytes())
        digests.append(h.hexdigest()[:16])
    return tuple(digests)


@pytest.mark.parametrize("p,k", ALL_FIELDS, ids=[str(p**k) for p, k in ALL_FIELDS])
def test_sieve_tables_match_their_pinned_digests(p, k):
    assert _sieve_digests(make_field(p, k)) == SIEVE_DIGESTS[p, k]


def test_sieve_constructs_no_residue_ring(monkeypatch):
    # tables and mu to degree 6 over every q <= 16, factor links and window
    # pairs to the top degree with q^m <= 2^12
    def refused(*args, **kwargs):
        raise AssertionError("the sieve constructed a residue ring")

    monkeypatch.setattr(tables_module.ResidueRing, "__init__", refused)
    for p, k in ALL_FIELDS:
        fld = make_field(p, k)
        tab = build_tables(fld, 6)
        tab.moebius_values(6)
        for m in range(7):
            if fld.q**m <= 1 << 12:
                tab.factor_links(m)
                tab.window_pairs(m)


# -- modular reduction ---------------------------------------------------------


def _residue_code(f: Poly, q: int) -> int:
    return sum(c * q**j for j, c in enumerate(f.coeffs))


@pytest.mark.parametrize("q", [2, 3])
def test_reduce_monic_mod_t_power(q):
    fld = make_field(q)
    for m in (1, 2, 3):
        modulus = t_power(fld, m)
        for n in range(1, 6):
            us = np.arange(q**n, dtype=np.int64)
            got = reduce_monic_mod(fld, modulus, n, us)
            for u in us:
                f = monic_from_index(fld, n, int(u))
                assert int(got[u]) == _residue_code(pmod(f, modulus), q)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (3, 2)], ids=["2", "3", "4", "9"])
def test_reduce_monic_mod_t_power_matches_the_ring(p, k):
    # one expression for every degree: q^n + u mod t^m, below m and above it
    fld = make_field(p, k)
    q = fld.q
    for m in (1, 2, 3):
        ring = ResidueRing(fld, t_power(fld, m))
        for n in range(2 * m + 1):
            us = np.arange(q**n, dtype=np.int64)
            want = ring.reduce(n, us + q**n)
            assert np.array_equal(reduce_monic_mod(fld, t_power(fld, m), n, us), want), (m, n)


def test_reduce_monic_mod_general_modulus():
    # the ring path for every q <= 16: for k > 1 the F_p coordinates of each
    # coefficient must be carried correctly through the affine map
    rng = np.random.default_rng(5)
    for p, k in ALL_FIELDS:
        fld = make_field(p, k)
        q = fld.q
        moduli = [
            from_coeffs(fld, [1, 1]),
            ppow(from_coeffs(fld, [q - 1, 1]), 2),
            pmul(from_coeffs(fld, [0, 1]), from_coeffs(fld, [1, 1])),
            from_coeffs(fld, [*rng.integers(1, q, size=1), *rng.integers(0, q, size=2), 1]),
        ]
        if q <= 3:
            moduli += [from_coeffs(fld, [1, 1, 1]), from_coeffs(fld, [0, 1, 0, 1])]
        for modulus in moduli:
            for n in range(0, 7):
                if q**n > 600:
                    break
                us = np.arange(q**n, dtype=np.int64)
                got = reduce_monic_mod(fld, modulus, n, us)
                for u in us:
                    f = monic_from_index(fld, n, int(u))
                    assert int(got[u]) == _residue_code(pmod(f, modulus), q), (q, modulus, n, u)


def _coordinates(fld, f: Poly, m: int) -> list[int]:
    """F_p coordinates of a residue: digit j*k + i is the x^i part of t^j."""
    return [(coeff(f, j) // fld.p**i) % fld.p for j in range(m) for i in range(fld.k)]


def test_residue_ring_table_grows_on_demand(f2, f3, f4):
    f9 = make_field(3, 2)
    cases = ((f2, [1, 1, 0, 1]), (f3, [2, 0, 1]), (f4, [3, 1, 2, 1]), (f2, [0, 0, 1]), (f9, [5, 0, 1]))
    for fld, coeffs in cases:
        modulus = from_coeffs(fld, coeffs)
        ring, k, m = ResidueRing(fld, modulus), fld.k, modulus.degree
        built = ring.rows(len(ring.table)).copy()
        grown = ring.rows(len(built) + 4 * k)
        assert grown.shape == (len(built) + 4 * k, k * m) and len(ring.table) == len(grown)
        assert np.array_equal(grown[: len(built)], built)
        # a count short of a whole step still grows the table by k rows
        assert len(ring.rows(len(grown) + 1)) == len(grown) + 1
        assert len(ring.table) == len(grown) + k
        grown = ring.table
        for j in range(len(grown) // k):
            for i in range(k):
                x_i = from_coeffs(fld, [fld.p**i])
                expected = _coordinates(fld, pmod(pmul(x_i, t_power(fld, j)), modulus), m)
                assert grown[j * k + i].tolist() == expected


def test_residue_ring_mod_equals_float_mod():
    rng = np.random.default_rng(5)
    for p in (2, 3, 13):
        ring = ResidueRing(make_field(p), from_coeffs(make_field(p), [1, 1]))
        for shape in ((0,), (1,), (7, 7), (4096,)):
            x = rng.integers(0, 1 << 40, size=shape).astype(np.float64)
            got = ring.mod(x)
            assert got.dtype == np.float64 and np.array_equal(got, x % p), (p, shape)


class _CountedMaps(np.ndarray):
    """Maps that count the matrix products they enter."""

    products = 0

    def __matmul__(self, other):
        _CountedMaps.products += 1
        return np.ndarray.__matmul__(self, other)

    def __rmatmul__(self, other):
        _CountedMaps.products += 1
        return np.ndarray.__rmatmul__(self, other)


def test_residue_ring_powers_share_one_squaring_chain(f3, f4):
    # one map product per bit below the top of the largest exponent, and one
    # more per set bit below the top of each exponent; exponent 0 is 1
    for fld, coeffs in ((f3, [2, 1, 0, 1, 1]), (f4, [3, 1, 2, 1])):
        ring = ResidueRing(fld, from_coeffs(fld, coeffs))
        cases = (([1], 0), ([2], 1), ([3], 2), ([8], 3), ([3, 8], 4), ([5, 6, 7], 2 + 1 + 1 + 2))
        for exponents, count in cases:
            _CountedMaps.products = 0
            ring.powers(ring.maps(5).view(_CountedMaps), exponents)
            assert _CountedMaps.products == count, exponents
        assert ring.codes(ring.powers(ring.maps([5, 7]), [0])).tolist() == [[1, 1]]
    # against Poly products mod Q, for every q <= 16: mul on every pair of a
    # batch of elements, powers on the batch and a batch of exponents at
    # once; an element's map holds its code in row 0
    rng = np.random.default_rng(3)
    for p, k in ALL_FIELDS:
        fld = make_field(p, k)
        q = fld.q
        moduli = [
            from_coeffs(fld, [*rng.integers(0, q, size=3), 1]),
            pmul(ppow(from_coeffs(fld, [1, 1]), 2), t_power(fld, 1)),
        ]
        if (p, k) == (3, 1):
            moduli.append(from_coeffs(fld, [2, 1, 0, 1, 1]))
        if (p, k) == (2, 2):
            moduli.append(from_coeffs(fld, [3, 1, 2, 1]))
        for modulus in moduli:
            ring, m = ResidueRing(fld, modulus), modulus.degree
            elements = rng.integers(0, q**m, size=10)
            exponents = rng.integers(0, 40, size=4).tolist()
            maps = ring.maps(elements)
            assert np.array_equal(ring.codes(maps), elements)
            polys = [from_coeffs(fld, [a // q**j % q for j in range(m)]) for a in elements.tolist()]
            for row, b in zip(ring.mul(elements, elements).tolist(), polys):
                assert row == [_residue_code(pmod(pmul(a, b), modulus), q) for a in polys], (q, modulus)
            got = ring.codes(ring.powers(maps, exponents))
            for a, base, column in zip(elements.tolist(), polys, got.T):
                for e, code in zip(exponents, column.tolist()):
                    expected = from_coeffs(fld, [1])
                    for _ in range(e):
                        expected = pmod(pmul(expected, base), modulus)
                    assert code == _residue_code(expected, q), (q, modulus, a, e)


# -- caching -------------------------------------------------------------------


def test_get_tables_reuses_and_extends(f2):
    a = get_tables(f2, 5)
    b = get_tables(f2, 4)
    assert b is a  # shallower request served from the same build
    c = get_tables(f2, max(6, a.max_degree + 1))
    assert c is a and c.max_degree >= 6  # extended in place
    assert len(c.irreducibles[1]) == 2


def test_get_tables_extends_in_place(f3, monkeypatch):
    monkeypatch.setattr(tables_module, "_TABLE_CACHE", {})
    tab = get_tables(f3, 3)
    links, mu = tab.factor_links(3), tab.moebius_values(3)
    earlier = [list(group) for group in (tab.big_omega, tab.squarefree,
                                         tab.max_factor_degree, tab.irreducibles)]
    assert get_tables(f3, 5) is tab and tab.max_degree == 5
    assert tab.factor_links(3) is links
    assert len(tab.squarefree) == 4  # an extend builds no flags
    assert np.array_equal(tab.moebius_values(3), mu)
    fresh = build_tables(f3, 5)
    for tables in (tab, fresh):
        tables.moebius_values(5)
    for old, group, want in zip(
        earlier,
        (tab.big_omega, tab.squarefree, tab.max_factor_degree, tab.irreducibles),
        (fresh.big_omega, fresh.squarefree, fresh.max_factor_degree, fresh.irreducibles),
    ):
        assert all(a is b for a, b in zip(old, group))  # earlier degrees kept as built
        assert len(group) == len(want) == 6
        assert all(np.array_equal(a, b) for a, b in zip(group, want))
    for m in range(1, 6):
        assert all(np.array_equal(a, b) for a, b in zip(tab.factor_links(m), fresh.factor_links(m)))
    with pytest.raises(BudgetError, match="^sieve tables to degree 30 needs"):
        get_tables(f3, 30)
    assert tab.max_degree == 5


def _traced(fn, *args):
    """(fn(*args), its tracemalloc peak in bytes)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_tables_scratch_memory_stays_bounded(cold_caches):
    # the product pass emits blocks of at most _CHUNK products, never a q^md
    # array, so a build peaks within 1 MiB of the tables it keeps and the
    # top degree's q^n byte mask of unwritten entries (counted by
    # table_bytes), and within the estimate that the budget gate reads; F_3
    # to degree 13, F_7 to 6 and F_9 to 6 carry up to 6 overlap digits, one
    # step each. The flags pass of moebius_values(n) keeps the same two
    # bounds against flag_bytes, less the mu values it returns
    sizes = (((2, 1), 18), ((3, 1), 11), ((3, 1), 13), ((2, 2), 8), ((5, 1), 8), ((7, 1), 6),
             ((3, 2), 6), ((2, 4), 5))
    blocks = tables_module._SIEVE_SCRATCH // 2
    for (p, k), n in sizes:
        fld = make_field(p, k)
        tab, peak = _traced(build_tables, fld, n)
        groups = (tab.big_omega, tab.squarefree, tab.max_factor_degree, tab.irreducibles)
        held = sum(a.nbytes for group in groups for a in group)
        assert peak - held - fld.q**n <= blocks, (fld.q, n, peak - held - fld.q**n)
        assert peak <= table_bytes(fld, n), (fld.q, n, peak)
        mu, peak = _traced(tab.moebius_values, n)
        held = sum(a.nbytes for a in tab.squarefree)
        assert peak - held - mu.nbytes <= blocks, (fld.q, n, peak - held - mu.nbytes)
        assert peak - mu.nbytes <= flag_bytes(fld, n), (fld.q, n, peak)


def test_build_tables_budget(f2):
    # the gate reads table_bytes: one byte short refuses, the estimate builds
    need = table_bytes(f2, 12)
    message = f"^sieve tables to degree 12 needs {need} bytes, over the budget of {need - 1}$"
    with budget(need - 1), pytest.raises(BudgetError, match=message):
        build_tables(f2, 12)
    with budget(need):
        assert build_tables(f2, 12).max_degree == 12


def test_moebius_flags_budget(f2):
    # the flags gate reads flag_bytes before anything is allocated: one byte
    # short refuses with no flag built, the estimate builds every degree
    tab = build_tables(f2, 16)
    need = flag_bytes(f2, 16)
    message = f"^squarefree flags to degree 16 needs {need} bytes, over the budget of {need - 1}$"
    tracemalloc.start()
    try:
        with budget(need - 1), pytest.raises(BudgetError, match=message):
            tab.moebius_values(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tab.squarefree) == 1 and peak < 2**16 // 4  # degree 16's flags alone: 2^16
    with budget(need):
        assert int(tab.moebius_values(16).sum()) == 0
    assert len(tab.squarefree) == 17


def test_moebius_past_the_tables_raises_before_building(f3, monkeypatch):
    # mu past max_degree raises as lambda does, with no gate read and no flag built
    tab = build_tables(f3, 4)
    monkeypatch.setattr(tables_module, "check_budget", lambda *a: pytest.fail("gate read"))
    for read in (tab.liouville_values, tab.moebius_values):
        with pytest.raises(IndexError):
            read(5)
    assert len(tab.squarefree) == 1


def test_the_sieve_squares_each_degree_once(f2, monkeypatch):
    # build_tables(F_2, 18) runs one mul_monic_batch call per (m, d <= m/2)
    # and squares nothing: no row_mul call, no flag past degree 0. The first
    # moebius_values(18) marks P^2 M for every P of degree 1..9: one row_mul
    # batch of squares per degree, not one per (degree, m); reading mu again
    # builds nothing
    calls = {"row_mul": 0, "mul_monic_batch": 0}
    for name in calls:
        wrapped = getattr(tables_module, name)
        monkeypatch.setattr(tables_module, name, lambda *a, name=name, wrapped=wrapped: (
            calls.__setitem__(name, calls[name] + 1) or wrapped(*a)))
    tab = build_tables(f2, 18)
    assert calls == {"row_mul": 0, "mul_monic_batch": sum(m // 2 for m in range(19))}
    assert len(tab.squarefree) == 1
    tab.moebius_values(18)
    assert calls["row_mul"] == 9 and len(tab.squarefree) == 19
    tab.moebius_values(18), tab.moebius_values(7)
    assert calls["row_mul"] == 9


def test_table_bytes_is_its_closed_form():
    # 2 bytes per monic (a geometric sum), 8 per irreducible bound q^m/m, and
    # the top degree's mask, irreducible indices and blocks; the flags, 1
    # byte per monic, 24 per monic of degree n/2 and the blocks
    for q, (p, k) in ((2, (2, 1)), (3, (3, 1)), (16, (2, 4))):
        fld = make_field(p, k)
        for n in range(1, 61):
            held = 2 * q * (q**n - 1) // (q - 1) + sum(8 * q**m // m for m in range(1, n + 1))
            want = held + q**n + 8 * q**n // n + tables_module._SIEVE_SCRATCH
            assert table_bytes(fld, n) == want, (q, n)
            flags = sum(q**m for m in range(n + 1)) + 24 * q ** (n // 2)
            assert flag_bytes(fld, n) == flags + tables_module._SIEVE_SCRATCH, (q, n)
    assert table_bytes(make_field(2), 0) == table_bytes(make_field(2), 1)


def test_factor_links_budget(f2, f3):
    # the links gate reads links_bytes: one byte short refuses before
    # anything is built, the estimate builds and covers the measured peak
    for fld, m in ((f2, 16), (f3, 10)):
        tab = build_tables(fld, m)
        need = links_bytes(fld, m)
        message = f"^factor links of degree {m} needs {need} bytes, over the budget of {need - 1}$"
        with budget(need - 1), pytest.raises(BudgetError, match=message):
            tab.factor_links(m)
        assert m not in tab._links
        with budget(need):
            assert traced_peak(tab.factor_links, m) <= need
    f, need = padd(t_power(f3, 9), from_coeffs(f3, [1])), links_bytes(f3, 9)
    with budget(need - 1), pytest.raises(BudgetError, match="^factor links of degree 9 needs"):
        factor(f, sieve_irreducibles(f3, 4))
    with budget(need):
        assert expand(factor(f, sieve_irreducibles(f3, 4)), f3) == f


def test_omega_and_max_factor_degree_share_one_packed_array():
    # one int16 per monic: Omega in the low byte, the max factor degree in
    # the high one, read through two int8 views
    for p, k in ALL_FIELDS[:4]:
        tab = build_tables(make_field(p, k), 6)
        for m in range(tab.max_degree + 1):
            om, mf = tab.big_omega[m], tab.max_factor_degree[m]
            assert om.dtype == mf.dtype == np.int8 and om.strides == mf.strides == (2,)
            assert np.may_share_memory(om, tab._packed[m]) and np.may_share_memory(mf, tab._packed[m])
            packed = om.astype(np.int16) | mf.astype(np.int16) << 8
            assert np.array_equal(packed, tab._packed[m]), (p, k, m)
