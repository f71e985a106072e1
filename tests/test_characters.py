from __future__ import annotations

import itertools
import math
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DirichletChar,
    brute_unit_count,
    characters_of,
    power_columns,
    principal_character,
    rotation_multiset_cancels,
    traced_peak,
)
from ffvar import characters as characters_module
from ffvar.characters import (
    basis_bytes,
    character_rotation_matrix,
    character_sums,
    character_value_matrix,
    count_even,
    enumerate_characters,
    even_characters,
    residue_code,
    rotation_rows_cancel,
    transform_bytes,
    unit_group_basis,
)
from ffvar.errors import BudgetError, PreconditionError
from ffvar.fields import make_field
from ffvar.polys import Poly, from_coeffs, t_power
from ffvar.tables import get_tables, residue_ring


def _code_poly(fld, m, code):
    return from_coeffs(fld, [(code // fld.q**j) % fld.q for j in range(m)])


def _dlog(basis, i):
    """Exponent vector of unit_codes[i]: its grid index unravelled."""
    return np.array(np.unravel_index(basis.grid_index[i], basis.orders), dtype=np.int64)


def _linear_power(modulus):
    """Q = (t + a)^m for some constant a: the moduli whose even characters
    are defined for every q (the constants are then a grid axis)."""
    fld, m = modulus.field, modulus.degree
    return any(modulus == from_coeffs(fld, [a, 1]) ** m for a in range(fld.q))


def _even_defined(basis):
    return basis.field.q == 2 or _linear_power(basis.modulus)


# -- unit group structure ------------------------------------------------------


def test_unit_group_mod_t_cubed_is_cyclic_of_order_four(f2):
    basis = unit_group_basis(f2, t_power(f2, 3))
    assert basis.generators == (3,)  # 1 + t
    assert basis.orders == (4,)
    assert basis.exponent == 4
    assert basis.phi == 4
    assert list(basis.unit_codes) == [1, 3, 5, 7]


def test_unit_group_mod_t_fourth_splits(f2):
    basis = unit_group_basis(f2, t_power(f2, 4))
    assert basis.orders == (4, 2)
    assert basis.phi == 8
    assert basis.exponent == 4


def test_unit_group_mod_t_squared_over_f3_is_cyclic(f3):
    basis = unit_group_basis(f3, t_power(f3, 2))
    assert basis.exponent == basis.phi == 6


def test_order_chain_and_phi(f2, f3, f4):
    cases = [
        (f2, t_power(f2, 5)),
        (f2, from_coeffs(f2, [0, 1, 0, 1])),  # t (t+1)^2
        (f3, t_power(f3, 3)),
        (f3, from_coeffs(f3, [1, 0, 1])),  # irreducible quadratic
        (f4, t_power(f4, 2)),
    ]
    for fld, modulus in cases:
        basis = unit_group_basis(fld, modulus)
        assert basis.phi == brute_unit_count(modulus)
        assert math.prod(basis.orders) == basis.phi
        assert basis.exponent == math.lcm(*basis.orders) if basis.orders else basis.exponent == 1
        # one grid cell per unit, no two units sharing a cell, and each
        # unit is the product of the generators raised to its cell's vector
        assert sorted(basis.grid_index.tolist()) == list(range(basis.phi))
        m = modulus.degree
        gens = [_code_poly(fld, m, g) for g in basis.generators]
        for i, code in enumerate(basis.unit_codes.tolist()):
            word = from_coeffs(fld, [1]) % modulus
            for g, x in zip(gens, _dlog(basis, i).tolist()):
                word = (word * _pow_mod(g, x, modulus)) % modulus
            assert word == _code_poly(fld, m, code), (modulus, code)


PRIME_POWERS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
                9: (3, 2), 11: (11, 1), 13: (13, 1), 16: (2, 4)}


def _primary_parts(orders):
    """Multiset of the prime-power factors of each cyclic order."""
    out = Counter()
    for o in orders:
        d = 2
        while o > 1:
            part = 1
            while o % d == 0:
                o //= d
                part *= d
            if part > 1:
                out[part] += 1
            d += 1
    return out


def _expected_primary_parts(fld, factors):
    """Primary parts of (F_q[t]/Q)^* for Q = prod P^e: per factor, the cyclic
    F_{q^d}^* and (Z/p^s_j)^(kd) for 1 <= j < e with p not dividing j, s_j
    the least s such that j p^s >= e (the principal units of the completion
    at P, which is F_{q^d}((P)), modulo P^e)."""
    p, k = fld.p, fld.k
    expected = Counter()
    for P, e in factors:
        d = P.degree
        expected += _primary_parts([fld.q**d - 1])
        for j in range(1, e):
            if j % p:
                s = 0
                while j * p**s < e:
                    s += 1
                expected[p**s] += k * d
    return expected


@pytest.mark.parametrize("q", sorted(PRIME_POWERS))
def test_t_power_unit_group_structure(q):
    """Primary decomposition of the unit group mod t^m, and mod general
    Q = prod P^e: the square of an irreducible quadratic, and mixed
    factorizations t^2 (t+1) and (t+1)^3 P. Each generator has its stated
    order and phi is Euler's function."""
    fld = make_field(*PRIME_POWERS[q])
    t, t1 = t_power(fld, 1), from_coeffs(fld, [1, 1])
    quad = get_tables(fld, 2).irreducible_polys(2)[0]
    cases = [[(t, m)] for m in range(1, 13) if q**m <= 4096]
    cases += [[(quad, 2)], [(t, 2), (t1, 1)]]
    if q**5 <= 1 << 16:
        cases.append([(t1, 3), (quad, 1)])
    for factors in cases:
        modulus = math.prod((P**e for P, e in factors), start=from_coeffs(fld, [1]))
        basis = unit_group_basis(fld, modulus)
        assert _primary_parts(basis.orders) == _expected_primary_parts(fld, factors), (q, modulus)
        # each generator has exactly its stated order, by Poly arithmetic mod Q
        one = from_coeffs(fld, [1]) % modulus
        for g, o in zip(basis.generators, basis.orders):
            g = _code_poly(fld, modulus.degree, g)
            assert _pow_mod(g, o, modulus) == one
            for part in _primary_parts([o]):
                ell = next(d for d in range(2, part + 1) if part % d == 0)
                assert _pow_mod(g, o // ell, modulus) != one, (q, modulus, o, ell)
        # phi is Euler's function of the factors, and the gcd count of units
        # where q^deg Q stays small
        assert basis.phi == math.prod((q**P.degree - 1) * q ** (P.degree * (e - 1)) for P, e in factors)
        if q**modulus.degree <= 4096:
            assert basis.phi == brute_unit_count(modulus), (q, modulus)


def _pow_mod(f, e, modulus):
    out = from_coeffs(f.field, [1]) % modulus
    while e:
        if e & 1:
            out = (out * f) % modulus
        f = (f * f) % modulus
        e >>= 1
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PRIME_POWERS)), st.data())
def test_dlog_is_a_homomorphism_by_poly_arithmetic(q, data):
    """dlog(a b) = dlog(a) + dlog(b) mod orders, and a = prod g_i^dlog_i(a),
    with every product taken by Poly multiplication mod Q (not the kernel)."""
    fld = make_field(*PRIME_POWERS[q])
    m = data.draw(st.integers(1, 4 if q <= 4 else 3 if q <= 13 else 2), label="m")
    lower = data.draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m), label="Q")
    modulus = from_coeffs(fld, lower + [1])
    basis = unit_group_basis(fld, modulus)
    i = data.draw(st.integers(0, basis.phi - 1), label="a")
    j = data.draw(st.integers(0, basis.phi - 1), label="b")
    a, b = (_code_poly(fld, m, int(basis.unit_codes[x])) for x in (i, j))
    ab = int(basis.unit_index(residue_code(a * b, basis.modulus)))
    assert ab >= 0
    orders = np.array(basis.orders, dtype=np.int64)
    want = (_dlog(basis, i) + _dlog(basis, j)) % orders
    assert _dlog(basis, ab).tolist() == want.tolist()
    word = from_coeffs(fld, [1]) % modulus
    for g, x in zip(basis.generators, _dlog(basis, i).tolist()):
        word = (word * _pow_mod(_code_poly(fld, m, g), x, modulus)) % modulus
    assert word == a


def test_basis_is_cached(f2):
    assert unit_group_basis(f2, t_power(f2, 3)) is unit_group_basis(f2, t_power(f2, 3))


def test_basis_cache_frees_the_last_basis_before_the_next_build(monkeypatch, f2):
    last = weakref.ref(unit_group_basis(f2, t_power(f2, 5)))
    build = characters_module._structural_basis

    def checked(field, modulus):
        assert last() is None, "the last basis is still alive during the next build"
        return build(field, modulus)

    monkeypatch.setattr(characters_module, "_structural_basis", checked)
    basis = unit_group_basis(f2, t_power(f2, 6))
    assert unit_group_basis(f2, t_power(f2, 6)) is basis


def test_degree_one_modulus_edge(f2, f3):
    b = unit_group_basis(f2, t_power(f2, 1))
    assert (b.phi, b.generators, b.exponent) == (1, (), 1)
    assert len(enumerate_characters(b)) == 1
    b = unit_group_basis(f3, t_power(f3, 1))
    assert (b.phi, b.orders) == (2, (2,))
    assert count_even(b) == 1


# -- character values -----------------------------------------------------------


def test_principal_character(f3):
    basis = unit_group_basis(f3, t_power(f3, 2))
    chi0 = principal_character(basis)
    assert chi0.is_principal and chi0.is_even
    for code in basis.unit_codes:
        assert chi0.rotation_numerator(int(code)) == 0
    assert chi0.evaluate(from_coeffs(f3, [1, 1])) == Fraction(0)
    assert chi0.evaluate(t_power(f3, 5)) is None  # shares the factor t
    assert chi0.value(t_power(f3, 5)) == 0j


def test_character_enumeration_counts(f2, f3):
    # one exponent row per grid cell in C order, which is the oracle's
    # lexicographic order; the principal character alone comes first
    for fld, m in ((f2, 4), (f3, 3)):
        basis = unit_group_basis(fld, t_power(fld, m))
        rows = enumerate_characters(basis)
        assert rows.shape == (basis.phi, len(basis.orders))
        assert rows.tolist() == [list(chi.exponents) for chi in characters_of(basis)]
        assert (rows.any(axis=1) == (np.arange(basis.phi) != 0)).all()


def test_character_multiplicativity(f2, f3):
    cases = [(f2, from_coeffs(f2, [0, 1, 0, 1])), (f3, t_power(f3, 2))]
    for fld, modulus in cases:
        basis = unit_group_basis(fld, modulus)
        m = modulus.degree
        for chi in characters_of(basis):
            for a in basis.unit_codes:
                for b in basis.unit_codes:
                    u = _code_poly(fld, m, int(a))
                    v = _code_poly(fld, m, int(b))
                    lhs = chi.evaluate(u * v)
                    rhs = (chi.evaluate(u) + chi.evaluate(v)) % 1
                    assert lhs == rhs


def test_rotation_denominators_divide_the_group_order(f2):
    basis = unit_group_basis(f2, t_power(f2, 4))
    for chi in characters_of(basis):
        for code in basis.unit_codes:
            rot = Fraction(chi.rotation_numerator(int(code)), basis.exponent)
            assert 0 <= rot < 1
            assert (rot * basis.phi).denominator == 1


def test_exponent_vector_validation(f2):
    basis = unit_group_basis(f2, t_power(f2, 3))
    with pytest.raises(PreconditionError):
        DirichletChar(basis, (1, 0))
    with pytest.raises(PreconditionError):
        DirichletChar(basis, (4,))
    with pytest.raises(PreconditionError):
        basis_chi = DirichletChar(basis, (1,))
        basis_chi.rotation_numerator(2)  # code 2 = t is not a unit


# -- evenness ---------------------------------------------------------------------


def test_all_characters_even_when_q_is_two(f2):
    basis = unit_group_basis(f2, t_power(f2, 4))
    assert count_even(basis) == basis.phi


def test_even_characters_ignore_constant_scaling(f3):
    basis = unit_group_basis(f3, t_power(f3, 2))
    evens = even_characters(basis)
    assert len(evens) == count_even(basis) == 3
    for exponents in evens.tolist():
        chi = DirichletChar(basis, tuple(exponents))
        for code in basis.unit_codes:
            u = _code_poly(f3, 2, int(code))
            assert chi.evaluate(u.scale(2)) == chi.evaluate(u)


def test_totient_formulas_for_t_powers():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        p, k = {4: (2, 2), 8: (2, 3), 9: (3, 2), 16: (2, 4)}.get(q, (q, 1))
        fld = make_field(p, k)
        m_max = 4 if q <= 4 else 3 if q == 5 else 2
        for m in range(1, m_max + 1):
            basis = unit_group_basis(fld, t_power(fld, m))
            assert basis.phi == q ** (m - 1) * (q - 1)
            assert count_even(basis) == q ** (m - 1), (q, m)
            prefix = [i < count_even(basis) for i in range(basis.phi)]
            assert [chi.is_even for chi in characters_of(basis)] == prefix


@pytest.mark.parametrize("q", sorted(PRIME_POWERS))
def test_constants_are_axis_zero_and_even_characters_the_prefix(q):
    # mod t^m and every (t + a)^m the nonzero constants are exactly the grid
    # cells (x, 0, ..., 0), so the characters trivial on them, by the scalar
    # oracle, are the first Phi/(q - 1) rows (all of them when q = 2)
    fld = make_field(*PRIME_POWERS[q])
    for a in range(q):
        for m in range(1, 5):
            if q**m > 4096:
                break
            basis = unit_group_basis(fld, from_coeffs(fld, [a, 1]) ** m)
            cells = basis.grid_index[basis.unit_index(np.arange(1, q))]
            grid = np.zeros(basis.phi, dtype=bool)
            grid[cells] = True
            if q > 2:
                axis = np.zeros(basis.orders, dtype=bool)
                axis[(slice(None), *(0,) * (len(basis.orders) - 1))] = True
                assert (grid == axis.ravel()).all(), (q, a, m)
            even = count_even(basis)
            assert even == basis.phi // (q - 1 if q > 2 else 1)
            if basis.phi <= 256 or m == 1:
                prefix = [i < even for i in range(basis.phi)]
                assert [chi.is_even for chi in characters_of(basis)] == prefix, (q, a, m)


# -- orthogonality ------------------------------------------------------------------


def test_row_orthogonality_exact(f2, f3):
    for fld, modulus in ((f2, t_power(f2, 4)), (f3, t_power(f3, 2)), (f2, from_coeffs(f2, [0, 1, 0, 1]))):
        basis = unit_group_basis(fld, modulus)
        chars = characters_of(basis)
        R = character_rotation_matrix(basis, enumerate_characters(basis))
        V = character_value_matrix(basis, enumerate_characters(basis))
        for i, chi in enumerate(chars):
            cancels = rotation_multiset_cancels(R[i].tolist(), basis.exponent)
            assert cancels == (not chi.is_principal)
            total = complex(V[i].sum())
            if chi.is_principal:
                assert total == pytest.approx(basis.phi)
            else:
                assert abs(total) < 1e-9


def test_column_orthogonality_exact(f3):
    basis = unit_group_basis(f3, t_power(f3, 3))
    R = character_rotation_matrix(basis, enumerate_characters(basis))
    one_col = int(np.where(basis.unit_codes == 1)[0][0])
    for j, code in enumerate(basis.unit_codes):
        cancels = rotation_multiset_cancels(R[:, j].tolist(), basis.exponent)
        assert cancels == (j != one_col)


def test_value_matrix_agrees_with_pointwise_values(f2):
    basis = unit_group_basis(f2, t_power(f2, 3))
    chars = characters_of(basis)
    V = character_value_matrix(basis, enumerate_characters(basis))
    for i, chi in enumerate(chars):
        for j, code in enumerate(basis.unit_codes):
            u = _code_poly(f2, 3, int(code))
            assert V[i, j] == pytest.approx(chi.value(u))


def test_even_value_matrix_shape(f3):
    basis = unit_group_basis(f3, t_power(f3, 3))
    assert basis.value_matrix("all").shape == (basis.phi, basis.phi)
    assert basis.value_matrix("even").shape == (count_even(basis), basis.phi)
    assert np.array_equal(basis.value_matrix("even"), basis.value_matrix("all")[: count_even(basis)])


# -- the FFT character-sum primitive against the dense reference ----------------

FIELDS_UP_TO_9 = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))


def _moduli(fld):
    """t^m for small m, plus two moduli coprime to t."""
    q = fld.q
    out = [t_power(fld, m) for m in range(1, 4 if q <= 5 else 3)]
    out.append(from_coeffs(fld, [1, 1, 1]))  # t^2 + t + 1
    out.append(from_coeffs(fld, [1, 1]) ** 2)  # (t + 1)^2
    return out


@pytest.mark.parametrize("p,k", FIELDS_UP_TO_9)
@pytest.mark.parametrize("kind", ["all", "even"])
def test_character_sums_match_dense_value_matrix(p, k, kind):
    fld = make_field(p, k)
    rng = np.random.default_rng(fld.q)
    for modulus in _moduli(fld):
        basis = unit_group_basis(fld, modulus)
        weights = rng.normal(size=fld.q**modulus.degree) + 1j * rng.normal(
            size=fld.q**modulus.degree
        )
        if kind == "even" and not _even_defined(basis):
            with pytest.raises(PreconditionError):
                character_sums(basis, weights, even_only=True)
            continue
        # the even sums are the dense matrix's prefix rows
        rows = count_even(basis) if kind == "even" else basis.phi
        V = basis.value_matrix("all")[:rows]
        assert np.array_equal(V, basis.value_matrix(kind))
        got = character_sums(basis, weights, even_only=kind == "even")
        assert np.allclose(got, V @ weights[basis.unit_codes], rtol=0, atol=1e-12 * basis.phi)
        # the sums of chi^k are the gather of the chi-sums at power_columns
        sums = character_sums(basis, weights)
        for power in (2, 3):
            got = sums[power_columns(basis, power)][:rows]
            want = V**power @ weights[basis.unit_codes]
            assert np.allclose(got, want, rtol=0, atol=1e-12 * basis.phi), (modulus, power)


@pytest.mark.parametrize("p,k", FIELDS_UP_TO_9)
def test_character_sums_stack_rows_with_their_own_powers(p, k):
    # a 2-D weights array is one grid per row, transformed together: each row
    # equals its own call, bit for bit. Row r's sums of chi^k_r, its gather at
    # power_columns(basis, k_r), are the chi-sums of its weights pushed along
    # u -> u^k_r by residue-ring arithmetic
    fld = make_field(p, k)
    rng = np.random.default_rng(fld.q)
    for modulus in _moduli(fld):
        basis = unit_group_basis(fld, modulus)
        ring, size = residue_ring(fld, modulus), fld.q**modulus.degree
        weights = rng.integers(-3, 4, size=(3, size))
        for even_only in (False, True)[: 1 + _even_defined(basis)]:
            rows = character_sums(basis, weights, even_only=even_only)
            for row, w in zip(rows, weights):
                assert np.array_equal(row, character_sums(basis, w, even_only=even_only))
        rows = character_sums(basis, weights)
        for row, w, e in zip(rows, weights, (1, 2, 6)):
            images = [ring.pow(u, e) for u in basis.unit_codes.tolist()]
            pushed = np.bincount(images, weights=w[basis.unit_codes], minlength=size)
            want = character_sums(basis, pushed)
            assert np.allclose(row[power_columns(basis, e)], want, rtol=0, atol=1e-9 * basis.phi), (modulus, e)


@pytest.mark.parametrize("p,k", FIELDS_UP_TO_9)
def test_power_columns_match_brute_character_powers(p, k):
    # chi^k(u) = chi(u)^k, by each oracle character's own scalar evaluation;
    # k = 2..4 shares a factor with some order on most of these bases
    fld = make_field(p, k)
    for modulus in _moduli(fld):
        basis = unit_group_basis(fld, modulus)
        chars = characters_of(basis)
        L = basis.exponent
        rot = np.array([[chi.rotation_numerator(c) for c in basis.unit_codes.tolist()] for chi in chars])
        for power in range(1, 5):
            columns = power_columns(basis, power)
            assert np.array_equal(rot[columns], power * rot % L), (modulus, power)


def test_character_sums_trivial_group(f2):
    basis = unit_group_basis(f2, t_power(f2, 1))  # (F_2[t]/t)^* = {1}
    assert basis.orders == () and basis.phi == 1
    weights = np.array([5, -3])
    assert list(character_sums(basis, weights)) == [-3]
    assert list(character_sums(basis, weights, even_only=True)) == [-3]
    assert count_even(basis) == 1
    assert list(power_columns(basis, 4)) == [0]


@pytest.mark.parametrize("p,k", FIELDS_UP_TO_9)
def test_even_mask_matches_is_even(p, k):
    # the even mask is the prefix of count_even rows: the oracle's is_even
    # marks exactly those. Where the constants are no grid axis (q > 2 and Q
    # not a power of a linear polynomial) the even characters are refused
    fld = make_field(p, k)
    for modulus in _moduli(fld):
        basis = unit_group_basis(fld, modulus)
        if not _even_defined(basis):
            for even_rows in (count_even, even_characters):
                with pytest.raises(PreconditionError):
                    even_rows(basis)
            continue
        expected = [chi.is_even for chi in characters_of(basis)]
        assert expected == [i < count_even(basis) for i in range(basis.phi)]
        assert even_characters(basis).tolist() == enumerate_characters(basis)[expected].tolist()


def test_even_sums_need_the_constants_as_an_axis():
    # t^2 + t + 1 is irreducible over F_5: its first generator has order 24,
    # and the constants are the cells of its fourth powers, not an axis
    fld = make_field(5)
    basis = unit_group_basis(fld, from_coeffs(fld, [1, 1, 1]))
    assert basis.orders == (24,)
    with pytest.raises(PreconditionError, match="constants"):
        character_sums(basis, np.ones(25), even_only=True)
    assert character_sums(basis, np.ones(25)).shape == (24,)


def test_even_transform_runs_on_the_cells_off_the_constants_axis(monkeypatch, f3):
    # mod t^m the even transform sums out axis 0 first and runs on q^(m-1)
    # cells per row
    basis = unit_group_basis(f3, t_power(f3, 6))
    shapes, ifftn = [], np.fft.ifftn

    def recorded(a, *args, **kwargs):
        shapes.append(a.shape)
        return ifftn(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifftn", recorded)
    weights = np.arange(2 * 3**6).reshape(2, 3**6) % 7
    sums = character_sums(basis, weights, even_only=True)
    assert sums.shape == (2, 3**5)
    assert [(s[0], math.prod(s[1:])) for s in shapes] == [(2, 3**5)]


def test_character_sums_peak_memory_stays_a_few_grids(f2):
    # the basis keeps one int64 per unit per array (no per-axis log table),
    # and one transform holds a few complex grids of phi cells, not a dozen
    basis = unit_group_basis(f2, t_power(f2, 16))
    assert all(np.ndim(value) <= 1 for value in vars(basis).values())
    weights = np.random.default_rng(0).integers(-1, 2, size=f2.q**16)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sums = character_sums(basis, weights, even_only=True)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(sums) == basis.phi
    assert peak < 6 * 16 * basis.phi


# t^m and moduli with repeated, several and one prime factor
GATE_MODULI = (
    ((2, 1), (0,) * 12),
    ((2, 1), (1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1)),
    ((3, 1), (0,) * 9),
    ((3, 1), (2, 0, 1, 1, 0, 1, 2, 2)),
    ((5, 1), (2, 3, 0, 1, 4)),
    ((2, 2), (1, 2, 3, 0, 1)),
)


def _gate_modulus(p, k, lower):
    fld = make_field(p, k)
    return fld, from_coeffs(fld, [*lower, 1])


@pytest.mark.parametrize("p,k,lower", [(*f, c) for f, c in GATE_MODULI])
def test_basis_and_transform_gates_refuse_one_byte_past_their_estimates(p, k, lower):
    fld, modulus = _gate_modulus(p, k, lower)
    need = basis_bytes(fld, modulus)
    message = f"^unit group mod .* needs {need} bytes, over the budget of {need - 1}$"
    with pytest.raises(BudgetError, match=message):
        unit_group_basis(fld, modulus, budget=need - 1)
    basis = unit_group_basis(fld, modulus, budget=need)
    for shape in ((), (3,)):
        weights = np.ones((*shape, fld.q**modulus.degree))
        rows = 3 if shape else 1
        need = transform_bytes(fld, modulus, rows)
        message = f"^character transform of {rows} x {basis.phi} needs {need} bytes, over"
        with pytest.raises(BudgetError, match=message):
            character_sums(basis, weights, budget=need - 1)
        assert character_sums(basis, weights, budget=need).shape == (*shape, basis.phi)


@pytest.mark.parametrize("p,k,lower", [(*f, c) for f, c in GATE_MODULI])
def test_basis_and_transform_estimates_cover_their_peaks(cold_caches, p, k, lower):
    # what the gates read is at least what a cold build and each kind of
    # transform (int and complex weights, 1 and 3 rows, even or all) peak at
    fld, modulus = _gate_modulus(p, k, lower)
    assert traced_peak(unit_group_basis, fld, modulus) <= basis_bytes(fld, modulus)
    basis = unit_group_basis(fld, modulus)
    rng = np.random.default_rng(0)
    for rows, dtype, even_only in ((1, np.int64, True), (1, complex, False), (3, np.int64, False)):
        if even_only and not _even_defined(basis):
            continue
        weights = rng.integers(-3, 4, size=(rows, fld.q**modulus.degree)).astype(dtype)
        peak = traced_peak(character_sums, basis, weights, even_only=even_only)
        assert peak <= transform_bytes(fld, modulus, rows), (rows, dtype, even_only)


# -- the exact cancellation predicate ---------------------------------------------


def test_rotation_multiset_cancels_cases():
    assert rotation_multiset_cancels([], 4)
    assert rotation_multiset_cancels([0, 2], 4)
    assert rotation_multiset_cancels([1, 3], 4)
    assert rotation_multiset_cancels([0, 0, 2, 2], 4)
    assert rotation_multiset_cancels([0, 1, 2, 3], 4)
    assert rotation_multiset_cancels([0, 1, 2], 3)
    assert rotation_multiset_cancels([0, 3], 6)
    assert not rotation_multiset_cancels([0], 4)
    assert not rotation_multiset_cancels([0, 1], 4)
    assert not rotation_multiset_cancels([0, 2, 2], 4)
    assert not rotation_multiset_cancels([0, 0, 2], 4)
    # sanity: accepted multisets really do sum to zero numerically
    for nums, L in [([0, 2], 4), ([1, 3], 4), ([0, 1, 2], 3), ([0, 3], 6)]:
        total = sum(np.exp(2j * np.pi * k / L) for k in nums)
        assert abs(total) < 1e-12


def _is_coset_copies(multiset, L):
    """Brute force: c >= 1 copies of one coset r + <L/d> of a subgroup of
    Z/L of order d > 1."""
    counts = Counter(k % L for k in multiset)
    for d in range(2, L + 1):
        if L % d or len(multiset) % d:
            continue
        c = len(multiset) // d
        for r in range(L // d):
            if counts == Counter({(r + i * (L // d)) % L: c for i in range(d)}):
                return True
    return False


@pytest.mark.parametrize("L", range(1, 13))
def test_rotation_rows_cancel_matches_brute_force_on_every_small_multiset(L):
    # every multiset of size <= 4 over Z/L, one row per multiset; the same rows
    # shifted by random multiples of L (negative ones too) must give the same
    rng = np.random.default_rng(L)
    for size in range(5):
        multisets = list(itertools.combinations_with_replacement(range(L), size))
        rows = np.array(multisets, dtype=np.int64).reshape(len(multisets), size)
        expected = [size == 0 or _is_coset_copies(row, L) for row in rows.tolist()]
        assert rotation_rows_cancel(rows, L).tolist() == expected
        shifted = rows + L * rng.integers(-3, 4, size=rows.shape)
        assert rotation_rows_cancel(shifted, L).tolist() == expected
        for row, want in zip(rows.tolist(), expected):
            assert rotation_multiset_cancels(row, L) == want


def test_rotation_rows_cancel_on_every_t_power_basis():
    # rows: only the trivial character fails to cancel; columns: only the
    # unit 1 fails (every character is 1 there)
    for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2)):
        fld = make_field(p, k)
        for m in range(1, 5 if fld.q < 9 else 3):
            basis = unit_group_basis(fld, t_power(fld, m))
            R = character_rotation_matrix(basis, enumerate_characters(basis))
            rows = rotation_rows_cancel(R, basis.exponent)
            cols = rotation_rows_cancel(R.T, basis.exponent)
            assert rows.tolist() == (np.arange(basis.phi) != 0).tolist()
            assert cols.tolist() == (basis.unit_codes != 1).tolist()
