from __future__ import annotations

import ast
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import finv, fmul, pmod, pmul, scalar_field_axioms
import ffvar.fields
import ffvar.tables
from ffvar.errors import PreconditionError
from ffvar.fields import FieldSpec, MAX_FIELD_SIZE, make_field, prime_factors, verify_field_axioms
from ffvar.polys import Poly, from_coeffs

ALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]


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
            product = pmod(pmul(element(a), element(b)), modulus)
            code = sum(c * p**i for i, c in enumerate(product.coeffs))
            assert fld.mul_table[a, b] == code, (a, b)


# sha256 of repr(modulus) and the four tables' bytes, first 16 hex digits,
# written down from the build on the F_p sieve and the residue ring F_p[x]/(P)
TABLE_DIGESTS = {
    (2, 1): "dedfea9f5262520a",
    (3, 1): "a6b2762c099e80bb",
    (2, 2): "836f1bcb5fafc8ec",
    (5, 1): "ac6aad74c2a1ae85",
    (7, 1): "612b397be658fd87",
    (2, 3): "2605787731767ea6",
    (3, 2): "9f0e228f65c5610c",
    (11, 1): "00619b46e516dd99",
    (13, 1): "e1e058bc2f3eb6c4",
    (2, 4): "f5b2d4876a2e53ec",
}


def _digest(fld: FieldSpec) -> str:
    h = hashlib.sha256(repr(fld.modulus).encode())
    for name in ("add_table", "mul_table", "neg_table", "inv_table"):
        h.update(getattr(fld, name).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("p,k", ALL_FIELDS)
def test_tables_match_the_ring_built_digests(p, k):
    fld = make_field(p, k)
    assert all(getattr(fld, name).dtype == np.uint8 for name in FieldSpec.__slots__[4:])
    assert _digest(fld) == TABLE_DIGESTS[p, k]


def test_fields_build_with_no_sieve_and_no_residue_ring(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a field build reached the sieve or a residue ring")

    monkeypatch.setattr(ffvar.tables, "build_tables", refuse)
    monkeypatch.setattr(ffvar.tables.ResidueRing, "__init__", refuse)
    # __wrapped__ builds each field anew and leaves the cached ones, which
    # the session's fixtures hold, as they are
    for p, k in ALL_FIELDS:
        assert _digest(make_field.__wrapped__(p, k)) == TABLE_DIGESTS[p, k]


def test_fields_import_no_ffvar_module_but_errors_and_records():
    # the bottom layer: no import of a module built on FieldSpec, lazy or not
    tree = ast.parse(Path(ffvar.fields.__file__).read_text())
    nodes = list(ast.walk(tree))
    imported = {(n.level, n.module) for n in nodes if isinstance(n, ast.ImportFrom)}
    imported |= {(0, a.name) for n in nodes if isinstance(n, ast.Import) for a in n.names}
    ours = {name for level, name in imported if level or name.split(".")[0] == "ffvar"}
    assert ours == {"errors", "records"}


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


@pytest.mark.parametrize("p,k", ALL_FIELDS)
def test_axioms_exhaustively(p, k):
    verify_field_axioms(make_field(p, k))
    scalar_field_axioms(make_field(p, k))


def _corrupted(fld: FieldSpec, table: str, at: tuple, value: int) -> FieldSpec:
    bad = getattr(fld, table).copy()
    bad[at] = value
    return FieldSpec(**{**{name: getattr(fld, name) for name in FieldSpec.__slots__}, table: bad})


def _failure(check, fld: FieldSpec) -> str | None:
    try:
        check(fld)
    except AssertionError as exc:
        return str(exc)
    return None


# one entry of F_5's tables per axiom class, and the first violation it makes
CORRUPTIONS = [
    ("add_table", (0, 0), 1, "identity fails at 0"),
    ("neg_table", (2,), 2, "negation fails at 2"),
    ("inv_table", (3,), 3, "inverse fails at 3"),
    ("add_table", (0, 1), 0, "commutativity fails at (0, 1)"),
    ("add_table", (1, 1), 0, "additive associativity fails at (1,1,2)"),
    ("mul_table", (3, 3), 0, "multiplicative associativity fails at (2,3,3)"),
    ("mul_table", (0, 0), 1, "distributivity fails at (0,0,0)"),
]


@pytest.mark.parametrize("table, at, value, message", CORRUPTIONS,
                         ids=[message.split(" fails")[0] for *_, message in CORRUPTIONS])
def test_axiom_check_names_the_first_violation(table, at, value, message):
    fld = _corrupted(make_field(5), table, at, value)
    assert _failure(scalar_field_axioms, fld) == message
    with pytest.raises(AssertionError) as caught:
        verify_field_axioms(fld)
    assert str(caught.value) == message


@pytest.mark.parametrize("p,k", [(3, 1), (2, 2), (5, 1)], ids=["3", "4", "5"])
def test_axiom_check_agrees_with_the_scalar_loops_on_every_one_entry_fault(p, k):
    # every value at every entry of each table: the broadcasts raise exactly
    # when the cubic loops do, on the same first violation
    fld = make_field(p, k)
    for table in ("add_table", "mul_table", "neg_table", "inv_table"):
        for at in np.ndindex(getattr(fld, table).shape):
            for value in range(fld.q):
                bad = _corrupted(fld, table, at, value)
                want = _failure(scalar_field_axioms, bad)
                assert _failure(verify_field_axioms, bad) == want, (table, at, value)


def test_inverse_and_division(f4):
    for fld in (make_field(2), make_field(5), f4, make_field(3, 2)):
        for a in range(1, fld.q):
            assert fld.mul_table[a, fld.inv_table[a]] == 1
            assert fmul(fld, a, finv(fld, a)) == 1
        with pytest.raises(ZeroDivisionError):
            finv(fld, 0)


def test_fermat_by_repeated_multiplication():
    # a^(q-1) = 1 on the multiplicative group
    fld = make_field(3, 2)
    for a in range(1, fld.q):
        acc = 1
        for _ in range(fld.q - 1):
            acc = fld.mul_table[acc, a]
        assert acc == 1


def test_f4_table_oracle(f4):
    # elements by code: 0, 1, t -> 2, t+1 -> 3, arithmetic mod t^2+t+1
    assert f4.mul_table[2, 2] == 3
    assert f4.mul_table[2, 3] == 1
    assert f4.mul_table[3, 3] == 2
    assert f4.add_table[2, 3] == 1
    assert f4.add_table[2, 2] == 0  # characteristic 2
    assert f4.inv_table[2] == 3


def test_neg_is_involution(f3):
    for fld in (f3, make_field(5), make_field(3, 2)):
        for a in range(fld.q):
            assert fld.neg_table[fld.neg_table[a]] == a
            assert fld.add_table[a, fld.neg_table[a]] == 0


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


def test_a_field_is_its_tables():
    # no scalar layer: every reader indexes the four numpy tables
    tables = ("add_table", "mul_table", "neg_table", "inv_table")
    assert FieldSpec.__slots__ == ("p", "k", "q", "modulus", *tables)
    for name in ("add", "sub", "mul", "neg", "inv", "add_rows", "mul_rows"):
        assert not hasattr(FieldSpec, name) and not hasattr(make_field(3, 2), name), name
