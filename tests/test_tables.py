from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import brute_factor, enumerate_monic, traced_peak
from ffvar import tables as tables_module

from ffvar.arith import factor, pi_q, sieve_irreducibles
from ffvar.errors import BudgetError
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
    get_tables,
    links_bytes,
    mul_monic_batch,
    ResidueRing,
    reduce_monic_mod,
    residue_ring,
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
        deg, fac, cof, prod = tab.window_pairs(m)
        rows = [(d, int(up), u) for d in range(1, m + 1) for up in tab.irreducibles[d]
                for u in range(q ** (m - d))]
        assert list(zip(deg.tolist(), fac.tolist(), cof.tolist())) == rows
        assert prod.tolist() == [
            monic_index(monic_from_index(fld, d, up) * monic_from_index(fld, m - d, u))
            for d, up, u in rows
        ]
        distinct = [len(set(brute_factor(g))) for g in enumerate_monic(fld, m)]
        assert np.bincount(prod, minlength=q**m).tolist() == distinct
    assert tab.window_pairs(max_deg)[3] is tab.window_pairs(max_deg)[3]  # built once


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
        for p in tab.irreducible_polys(n):
            assert p.is_monic and p.degree == n
            assert len(brute_factor(p)) == 1


def test_liouville_column_sums_match_zeta_identity(f2, f3):
    # sum over monic degree-n of lambda is (-1)^n q^ceil(n/2)
    for fld, deg in ((f2, 10), (f3, 7)):
        tab = build_tables(fld, deg)
        for n in range(1, deg + 1):
            total = int(tab.liouville_values(n).sum())
            assert total == (-1) ** n * fld.q ** ((n + 1) // 2)


def test_moebius_column_sums_vanish(f2, f3):
    # 1/zeta = 1 - q x: degree-1 sum is -q, all higher degrees cancel exactly
    for fld in (f2, f3):
        tab = build_tables(fld, 6)
        assert int(tab.moebius_values(1).sum()) == -fld.q
        for n in range(2, 7):
            assert int(tab.moebius_values(n).sum()) == 0


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
                    fac = factor(g.scale(c), cache)
                    assert fac.unit == c and list(fac.factors) == expected, (q, g, c)
                keys = [(P.degree, monic_index(P)) for P, _ in fac]
                assert keys == sorted(set(keys))


# -- batched monic multiplication ---------------------------------------------


def _one_shot_products(fld, dp: int, up: int, md: int) -> np.ndarray:
    """Oracle: P * M for every monic M of degree md as one ring product mod
    t^m, m = dp + md, with no split."""
    q, m = fld.q, dp + md
    ring = residue_ring(fld, t_power(fld, m))
    return ring.mul(np.arange(q**md) + q**md, (up + q**dp) % q**m)


@pytest.mark.parametrize("p,k", ALL_FIELDS, ids=[str(p**k) for p, k in ALL_FIELDS])
def test_mul_monic_batch_matches_poly_product(p, k, monkeypatch):
    # up to 8 irreducible P of each degree 1..4 (all of them for q = 2)
    # and their squares as the squarefree pass builds them, one batch per
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
        polys = [monic_from_index(fld, dp, int(up)) for up in ups]
        squares = residue_ring(fld, t_power(fld, 2 * dp + 1)).square(ups + q**dp) - q ** (2 * dp)
        assert squares.tolist() == [monic_index(P * P) for P in polys]
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
                        expected_poly = P * monic_from_index(fld, md, int(u))
                        assert int(expected[i, u]) == monic_index(expected_poly), (q, P, md, u)
    assert {"several P", "split P"} <= seen


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
    ring = residue_ring(fld, t_power(fld, a + dp + 1))
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
    q = fld.q
    for d in range(1, m // 2 + 1):
        ups = irreducibles[d]
        mants = ups
        if power == 2:
            mants = residue_ring(fld, t_power(fld, 2 * d + 1)).square(ups + q**d) - q ** (2 * d)
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
    deg, fac, cof, prod = ([np.empty(0, np.int64)] for _ in range(4))
    for d in range(1, m + 1):
        ups, size = irreducibles[d], q ** (m - d)
        deg.append(np.full(len(ups) * size, d))
        fac.append(np.repeat(ups, size))
        cof.append(np.tile(np.arange(size), len(ups)))
        for up in ups.tolist():
            prod += [block for _, block in _per_p_products(fld, d, up, m - d)]
    return tuple(np.concatenate(c) for c in (deg, fac, cof, prod))


def _same_arrays(got, want) -> bool:
    return len(got) == len(want) and all(
        a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want)
    )


@pytest.mark.parametrize("p,k", ALL_FIELDS, ids=[str(p**k) for p, k in ALL_FIELDS])
def test_batched_sieve_matches_the_per_p_loop(p, k):
    # every degree with q^m <= 2^16 for the tables and factor links; the
    # window pairs run one per-P product per irreducible of every degree up
    # to m, so they are compared up to q^m <= 2^12
    fld = make_field(p, k)
    q = fld.q
    top = max(n for n in range(1, 17) if q**n <= 1 << 16)
    tab = build_tables(fld, top)
    want = _per_p_tables(fld, top)
    got = (tab.big_omega, tab.squarefree, tab.max_factor_degree, tab.irreducibles)
    for got_group, want_group in zip(got, want):
        assert _same_arrays(got_group, want_group)
    irr = want[3]
    for m in range(top + 1):
        assert _same_arrays(tab.factor_links(m), _per_p_links(fld, irr, m)), (q, m)
        if q**m <= 1 << 12:
            assert _same_arrays(tab.window_pairs(m), _per_p_pairs(fld, irr, m)), (q, m)


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
                assert int(got[u]) == _residue_code(f % modulus, q)


def test_reduce_monic_mod_general_modulus():
    # the ring path for every q <= 16: for k > 1 the F_p coordinates of each
    # coefficient must be carried correctly through the affine map
    rng = np.random.default_rng(5)
    for p, k in ALL_FIELDS:
        fld = make_field(p, k)
        q = fld.q
        moduli = [
            from_coeffs(fld, [1, 1]),
            from_coeffs(fld, [q - 1, 1]) ** 2,
            from_coeffs(fld, [0, 1]) * from_coeffs(fld, [1, 1]),
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
                    assert int(got[u]) == _residue_code(f % modulus, q), (q, modulus, n, u)


def _coordinates(fld, f: Poly, m: int) -> list[int]:
    """F_p coordinates of a residue: digit j*k + i is the x^i part of t^j."""
    return [(f.coeff(j) // fld.p**i) % fld.p for j in range(m) for i in range(fld.k)]


def test_residue_ring_table_grows_on_demand(f2, f3, f4):
    f9 = make_field(3, 2)
    cases = ((f2, [1, 1, 0, 1]), (f3, [2, 0, 1]), (f4, [3, 1, 2, 1]), (f2, [0, 0, 1]), (f9, [5, 0, 1]))
    for fld, coeffs in cases:
        modulus = from_coeffs(fld, coeffs)
        assert residue_ring(fld, modulus) is residue_ring(fld, modulus)
        ring, k, m = ResidueRing(fld, modulus), fld.k, modulus.degree
        built = ring.rows(len(ring.table)).copy()
        grown = ring.rows(len(built) + 4 * k)
        assert grown.shape == (len(built) + 4 * k, k * m) and len(ring.table) == len(grown)
        assert np.array_equal(grown[: len(built)], built)
        for j in range(len(grown) // k):
            for i in range(k):
                x_i = from_coeffs(fld, [fld.p**i])
                expected = _coordinates(fld, (x_i * t_power(fld, j)) % modulus, m)
                assert grown[j * k + i].tolist() == expected


def test_residue_ring_pow_squares_from_the_top_bit(f3, f4):
    # one map product per bit below the top, and one more per set bit
    for fld, coeffs in ((f3, [2, 1, 0, 1, 1]), (f4, [3, 1, 2, 1])):
        ring = ResidueRing(fld, from_coeffs(fld, coeffs))
        compose, products = ring._compose, []
        ring._compose = lambda x, y: products.append(1) or compose(x, y)
        for e, count in ((1, 0), (2, 1), (3, 2), (8, 3)):
            products.clear()
            ring.pow(5, e)
            assert len(products) == count, e
        assert ring.pow(5, 0) == 1
    # against repeated Poly products mod Q, for every q <= 16
    rng = np.random.default_rng(3)
    for p, k in ALL_FIELDS:
        fld = make_field(p, k)
        q = fld.q
        moduli = [
            from_coeffs(fld, [*rng.integers(0, q, size=3), 1]),
            from_coeffs(fld, [1, 1]) ** 2 * t_power(fld, 1),
        ]
        if (p, k) == (3, 1):
            moduli.append(from_coeffs(fld, [2, 1, 0, 1, 1]))
        if (p, k) == (2, 2):
            moduli.append(from_coeffs(fld, [3, 1, 2, 1]))
        for modulus in moduli:
            ring, m = ResidueRing(fld, modulus), modulus.degree
            for _ in range(10):
                a, e = int(rng.integers(0, q**m)), int(rng.integers(0, 40))
                base = from_coeffs(fld, [a // q**j % q for j in range(m)])
                expected = from_coeffs(fld, [1])
                for _ in range(e):
                    expected = (expected * base) % modulus
                assert ring.pow(a, e) == _residue_code(expected, q), (q, modulus, a, e)


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
    links = tab.factor_links(3)
    earlier = [list(group) for group in (tab.big_omega, tab.squarefree,
                                         tab.max_factor_degree, tab.irreducibles)]
    assert get_tables(f3, 5) is tab and tab.max_degree == 5
    assert tab.factor_links(3) is links
    fresh = build_tables(f3, 5)
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


def test_build_tables_scratch_memory_stays_bounded(cold_caches):
    # the product pass emits blocks of at most _CHUNK products, never a q^md
    # array, so a build peaks within 2 MiB of the tables it keeps, and
    # within the estimate that the budget gate reads
    for (p, k), n in (((2, 1), 18), ((3, 1), 11), ((2, 2), 8), ((5, 1), 8), ((2, 4), 5)):
        fld = make_field(p, k)
        tracemalloc.start()
        try:
            tab = build_tables(fld, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        groups = (tab.big_omega, tab.squarefree, tab.max_factor_degree, tab.irreducibles)
        held = sum(a.nbytes for group in groups for a in group)
        assert peak - held <= 2 << 20, (fld.q, n, peak - held)
        assert peak <= table_bytes(fld, n), (fld.q, n, peak)


def test_build_tables_budget(f2):
    # the gate reads table_bytes: one byte short refuses, the estimate builds
    need = table_bytes(f2, 12)
    message = f"^sieve tables to degree 12 needs {need} bytes, over the budget of {need - 1}$"
    with pytest.raises(BudgetError, match=message):
        build_tables(f2, 12, budget=need - 1)
    assert build_tables(f2, 12, budget=need).max_degree == 12


def test_factor_links_budget(f2, f3):
    # the links gate reads links_bytes: one byte short refuses before
    # anything is built, the estimate builds and covers the measured peak
    for fld, m in ((f2, 16), (f3, 10)):
        tab = build_tables(fld, m)
        need = links_bytes(fld, m)
        message = f"^factor links of degree {m} needs {need} bytes, over the budget of {need - 1}$"
        with pytest.raises(BudgetError, match=message):
            tab.factor_links(m, budget=need - 1)
        assert m not in tab._links
        assert traced_peak(tab.factor_links, m, budget=need) <= need
    f = t_power(f3, 9) + from_coeffs(f3, [1])
    with pytest.raises(BudgetError, match="^factor links of degree 9 needs"):
        factor(f, sieve_irreducibles(f3, 4), budget=links_bytes(f3, 9) - 1)
    assert factor(f, sieve_irreducibles(f3, 4), budget=links_bytes(f3, 9)).product(f3) == f


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
