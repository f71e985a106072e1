from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import IntervalKey, enumerate_monic, interval_key, interval_members, poly_gcd
from ffvar.errors import BudgetError, PreconditionError
from ffvar.fields import make_field
from ffvar.polys import (
    Poly,
    constant,
    from_coeffs,
    monic_from_index,
    monic_index,
    one,
    star,
    t_power,
    zero,
)

FIELDS = (make_field(2), make_field(3), make_field(2, 2))


def _coeff_lists(fld, max_degree=6, min_size=0):
    return st.lists(st.integers(0, fld.q - 1), min_size=min_size, max_size=max_degree + 1)


@st.composite
def poly_triples(draw):
    fld = draw(st.sampled_from(FIELDS))
    return tuple(from_coeffs(fld, draw(_coeff_lists(fld))) for _ in range(3))


# -- construction ------------------------------------------------------------


def test_trailing_zeros_are_stripped(f2):
    f = from_coeffs(f2, [1, 1, 0, 0])
    assert f.coeffs == (1, 1)
    assert f.degree == 1


def test_zero_polynomial_sentinel(f2):
    z = zero(f2)
    assert z.is_zero
    assert z.degree is None
    assert from_coeffs(f2, [0, 0, 0]) == z


def test_basic_constructors(f2, f3):
    assert one(f2).coeffs == (1,)
    assert constant(f3, 2).coeffs == (2,)
    assert t_power(f2, 3).coeffs == (0, 0, 0, 1)
    assert t_power(f2, 0) == one(f2)


# -- arithmetic oracles ------------------------------------------------------


def test_freshman_dream(f2):
    t1 = from_coeffs(f2, [1, 1])
    assert (t1 * t1).coeffs == (1, 0, 1)  # (t+1)^2 = t^2 + 1
    assert (t1 ** 4).coeffs == (1, 0, 0, 0, 1)


def test_product_oracle(f2, f3):
    t1 = from_coeffs(f2, [1, 1])
    quad = from_coeffs(f2, [1, 1, 1])
    assert (t1 * quad).coeffs == (1, 0, 0, 1)  # t^3 + 1
    a = from_coeffs(f3, [1, 1])
    b = from_coeffs(f3, [2, 1])
    assert (a * b).coeffs == (2, 0, 1)  # (t+1)(t+2) = t^2 + 2


def test_divmod_oracle(f2):
    num = from_coeffs(f2, [1, 1, 0, 1])  # t^3 + t + 1
    den = from_coeffs(f2, [1, 0, 1])  # t^2 + 1
    q, r = divmod(num, den)
    assert q == t_power(f2, 1)
    assert r == one(f2)


def test_division_by_zero_raises(f2):
    with pytest.raises(ZeroDivisionError):
        divmod(one(f2), zero(f2))


def test_monic_normalization(f3):
    f = from_coeffs(f3, [0, 1, 2])  # 2t^2 + t
    assert f.monic().coeffs == (0, 2, 1)  # t^2 + 2t
    with pytest.raises(PreconditionError):
        zero(f3).monic()


def test_evaluate(f3):
    f = from_coeffs(f3, [1, 1, 1])
    assert f.evaluate(2) == 1  # 4 + 2 + 1 = 7 = 1 mod 3
    assert f.evaluate(0) == 1


def test_str_forms(f2, f3):
    assert str(from_coeffs(f2, [1, 1, 0, 1])) == "t^3+t+1"
    assert str(zero(f2)) == "0"
    assert str(one(f2)) == "1"
    assert str(from_coeffs(f3, [0, 1, 2])) == "2*t^2+t"


def test_pow_rejects_negative_exponent(f2):
    with pytest.raises(PreconditionError):
        from_coeffs(f2, [1, 1]) ** -1


def test_mixed_field_operations_rejected(f2, f3):
    with pytest.raises(PreconditionError):
        one(f2) + one(f3)


# -- gcd ---------------------------------------------------------------------


def test_gcd_oracle(f2):
    # gcd(t(t+1)(t^2+t+1), t(t+1)^2) = t(t+1) = t^2 + t
    a = from_coeffs(f2, [0, 1]) * from_coeffs(f2, [1, 1]) * from_coeffs(f2, [1, 1, 1])
    b = from_coeffs(f2, [0, 1]) * from_coeffs(f2, [1, 1]) ** 2
    assert poly_gcd(a, b).coeffs == (0, 1, 1)


def test_gcd_with_zero(f3):
    f = from_coeffs(f3, [0, 2, 1])
    assert poly_gcd(f, zero(f3)) == f.monic()
    assert poly_gcd(zero(f3), f) == f.monic()
    with pytest.raises(PreconditionError):
        poly_gcd(zero(f3), zero(f3))


# -- monic indexing and enumeration ------------------------------------------


def test_enumeration_order_is_ascending_mantissa(f2):
    got = [str(g) for g in enumerate_monic(f2, 2)]
    assert got == ["t^2", "t^2+1", "t^2+t", "t^2+t+1"]


def test_enumeration_counts(f3):
    assert len(list(enumerate_monic(f3, 0))) == 1
    assert len(list(enumerate_monic(f3, 3))) == 27


def test_enumeration_budget(f2):
    with pytest.raises(BudgetError):
        list(enumerate_monic(f2, 30))


def test_monic_index_round_trip(f3):
    for n in (0, 1, 3):
        for u in range(f3.q**n):
            f = monic_from_index(f3, n, u)
            assert f.is_monic and f.degree == n
            assert monic_index(f) == u


def test_monic_index_rejects_non_monic(f3):
    with pytest.raises(PreconditionError):
        monic_index(from_coeffs(f3, [1, 2]))


# -- short intervals ---------------------------------------------------------


def test_interval_key_pinned(f2):
    g = monic_from_index(f2, 3, 5)  # t^3 + t^2 + 1
    key = interval_key(g, 1)
    assert key == IntervalKey(n=3, h=1, packed=1)
    members = [str(m) for m in interval_members(f2, key)]
    assert members == ["t^3+t^2", "t^3+t^2+1", "t^3+t^2+t", "t^3+t^2+t+1"]


def test_interval_members_share_key(f3):
    n, h = 3, 1
    for u in range(0, f3.q**n, 5):
        g = monic_from_index(f3, n, u)
        key = interval_key(g, h)
        members = list(interval_members(f3, key))
        assert len(members) == f3.q ** (h + 1)
        assert g in members
        assert all(interval_key(m, h) == key for m in members)


def test_intervals_partition_the_degree(f2):
    n, h = 4, 2
    seen = set()
    for g in enumerate_monic(f2, n):
        seen.add(interval_key(g, h).packed)
    assert seen == set(range(f2.q ** (n - h - 1)))


# -- involution ---------------------------------------------------------------


def test_star_pinned_values(f2):
    assert star(from_coeffs(f2, [1, 1, 0, 1])).coeffs == (1, 0, 1, 1)  # t^3+t^2+1
    assert star(from_coeffs(f2, [0, 1, 1])).coeffs == (1, 1)  # degree drops
    assert star(t_power(f2, 5)) == one(f2)
    assert star(one(f2)) == one(f2)


def test_star_rejects_zero(f2):
    with pytest.raises(PreconditionError):
        star(zero(f2))


def test_star_involution_on_nonzero_constant_term(f3):
    for u in range(f3.q**3):
        f = monic_from_index(f3, 3, u)
        if f.coeff(0) == 0:
            continue
        assert star(star(f)) == f


# -- algebraic laws (property-based) ------------------------------------------


@settings(max_examples=80, deadline=None)
@given(poly_triples())
def test_ring_laws(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == zero(a.field)


@settings(max_examples=80, deadline=None)
@given(poly_triples())
def test_divmod_invariant(triple):
    a, b, _ = triple
    if b.is_zero:
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


@settings(max_examples=60, deadline=None)
@given(poly_triples())
def test_gcd_divides_both(triple):
    a, b, _ = triple
    if a.is_zero and b.is_zero:
        return
    g = poly_gcd(a, b)
    assert g.is_monic
    assert (a % g).is_zero
    assert (b % g).is_zero


@st.composite
def unit_constant_pairs(draw):
    fld = draw(st.sampled_from(FIELDS))
    out = []
    for _ in range(2):
        coeffs = draw(_coeff_lists(fld, max_degree=5))
        c0 = draw(st.integers(1, fld.q - 1))
        out.append(from_coeffs(fld, [c0] + coeffs))
    return tuple(out)


@settings(max_examples=80, deadline=None)
@given(unit_constant_pairs())
def test_star_is_multiplicative(pair):
    f, g = pair
    assert star(f * g) == star(f) * star(g)
    assert star(star(f)) == f
