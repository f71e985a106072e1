from __future__ import annotations

import math

import pytest

from ffvar.errors import PreconditionError
from ffvar.fields import MAX_FIELD_SIZE, make_field, prime_factors, verify_field_axioms
from ffvar.polys import Poly, from_coeffs


def test_prime_field_shape(f2, f3):
    assert (f2.p, f2.k, f2.q) == (2, 1, 2)
    assert (f3.p, f3.k, f3.q) == (3, 1, 3)
    assert f2.modulus is None
    assert f3.modulus is None


def test_extension_moduli_are_the_smallest_irreducibles(f4):
    # coefficients ascending: (c0, c1, ..., 1)
    assert f4.modulus == (1, 1, 1)  # t^2 + t + 1, the only irreducible quadratic
    assert make_field(2, 3).modulus == (1, 1, 0, 1)  # t^3 + t + 1
    assert make_field(3, 2).modulus == (1, 0, 1)  # t^2 + 1
    assert make_field(2, 4).modulus == (1, 1, 0, 0, 1)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_extension_products_are_poly_products_mod_the_modulus(p, k):
    fld, prime = make_field(p, k), make_field(p)
    modulus = Poly(prime, fld.modulus)

    def element(code):
        return from_coeffs(prime, [code // p**i % p for i in range(k)])

    for a in range(fld.q):
        for b in range(fld.q):
            product = (element(a) * element(b)) % modulus
            code = sum(c * p**i for i, c in enumerate(product.coeffs))
            assert fld.mul(a, b) == fld.mul_table[a, b] == code, (a, b)


def test_make_field_rejects_bad_parameters():
    with pytest.raises(PreconditionError):
        make_field(4)
    with pytest.raises(PreconditionError):
        make_field(1)
    with pytest.raises(PreconditionError):
        make_field(2, 5)  # q = 32 > 16
    with pytest.raises(PreconditionError):
        make_field(17)


def test_make_field_is_cached(f2):
    assert make_field(2) is f2
    assert make_field(2, 2) is make_field(2, 2)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (2, 4), (13, 1)])
def test_axioms_exhaustively(p, k):
    verify_field_axioms(make_field(p, k))


def test_inverse_and_division(f4):
    for fld in (make_field(2), make_field(5), f4, make_field(3, 2)):
        for a in range(1, fld.q):
            assert fld.mul(a, fld.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            fld.inv(0)


def test_fermat_by_repeated_multiplication():
    # a^(q-1) = 1 on the multiplicative group
    fld = make_field(3, 2)
    for a in range(1, fld.q):
        acc = 1
        for _ in range(fld.q - 1):
            acc = fld.mul(acc, a)
        assert acc == 1


def test_f4_table_oracle(f4):
    # elements by code: 0, 1, t -> 2, t+1 -> 3, arithmetic mod t^2+t+1
    assert f4.mul(2, 2) == 3
    assert f4.mul(2, 3) == 1
    assert f4.mul(3, 3) == 2
    assert f4.add(2, 3) == 1
    assert f4.add(2, 2) == 0  # characteristic 2
    assert f4.inv(2) == 3


def test_neg_is_involution(f3):
    for fld in (f3, make_field(5), make_field(3, 2)):
        for a in range(fld.q):
            assert fld.neg(fld.neg(a)) == a
            assert fld.add(a, fld.neg(a)) == 0


def test_size_limit_constant():
    assert MAX_FIELD_SIZE == 16
    assert make_field(2, 4).q == 16


def test_prime_factors_multiply_back():
    assert prime_factors(1) == {} and prime_factors(0) == {}
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
    for n in range(2, 500):
        factors = prime_factors(n)
        assert math.prod(p**e for p, e in factors.items()) == n
        assert all(all(p % d for d in range(2, p)) for p in factors)
