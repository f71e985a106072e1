"""The record classes keep the semantics that generated dataclass methods gave
them: value equality and hashing on the right fields, immutability, pickle and
deepcopy round trips, per-instance mutable defaults, and the reprs."""

from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import numpy as np
import pytest

import ffvar
from ffvar.arith import FactorIndex, Factorization
from ffvar.bounds import BoundReport
from ffvar.fields import FieldSpec, make_field
from ffvar.polys import Poly, from_coeffs
from ffvar.tables import ArithTables, build_tables
from ffvar.variance import VarianceReport, WindowDefects

FROZEN = (FieldSpec, Poly, Factorization, VarianceReport, WindowDefects)


def _rebuilt(fld: FieldSpec, **changes) -> FieldSpec:
    return FieldSpec(**{**{name: getattr(fld, name) for name in FieldSpec.__slots__}, **changes})


def test_field_equality_and_hash_read_p_k_q_and_modulus_only(f2, f4):
    other_tables = _rebuilt(f4, mul_table=f4.mul_table.copy(), add_table=f4.add_table.copy())
    assert other_tables == f4 and hash(other_tables) == hash(f4)
    assert {f4: "a"}[other_tables] == "a"
    assert _rebuilt(f4, modulus=(1, 0, 1)) != f4
    assert _rebuilt(f2, q=3) != f2
    assert f2 != make_field(3) and f2 != (2, 1, 2, None)
    assert hash(f4) == hash((2, 2, 4, (1, 1, 1)))


def test_poly_equality_and_hash_read_field_and_coeffs(f2, f3):
    a, b = Poly(f3, (1, 2, 1)), from_coeffs(f3, [1, 2, 1, 0])
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != Poly(f3, (1, 2, 2)) and Poly(f2, (1, 1)) != Poly(f3, (1, 1))
    assert a != (f3, (1, 2, 1))
    assert len({a, b, Poly(f3, (1, 2))}) == 2


@pytest.mark.parametrize(
    "coeffs, stripped",
    [((), ()), ((0,), ()), ((0, 0, 0), ()), ((1, 0, 0), (1,)), ((0, 1, 0), (0, 1))],
)
def test_poly_strips_trailing_zeros(f3, coeffs, stripped):
    f = Poly(f3, coeffs)
    assert f.coeffs == stripped
    assert f.degree == (len(stripped) - 1 if stripped else None)


@pytest.mark.parametrize("make", [lambda: make_field(2, 2), lambda: Poly(make_field(3), (2, 1))])
def test_frozen_records_refuse_assignment_and_deletion(make):
    record = make()
    name = type(record).__slots__[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, name) == before


def test_frozen_records_take_their_fields_by_position_or_name():
    for report in (VarianceReport(2, 5, 1, "unit", None, 0.5),
                   VarianceReport(2, 5, 1, function="unit", charside=0.5, direct=None),
                   VarianceReport(q=2, n=5, h=1, function="unit", direct=None, charside=0.5)):
        assert (report.q, report.function, report.direct, report.charside) == (2, "unit", None, 0.5)
    for args, named in [((1,), {}), ((1, (), 2), {}), ((1,), {"unit": 1}),
                        ((1,), {"factors": (), "other": 2}), ((), {"factors": ()})]:
        with pytest.raises(TypeError):
            Factorization(*args, **named)


@pytest.mark.parametrize("roundtrip", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["deepcopy", "pickle"])
def test_fields_polys_and_tables_round_trip(roundtrip):
    f4 = make_field(2, 2)
    fld = roundtrip(f4)
    assert fld == f4 and fld is not f4 and str(fld) == "F_4=F_2^2"
    for name in FieldSpec.__slots__:
        assert np.array_equal(getattr(fld, name), getattr(f4, name)), name
    poly = Poly(f4, (3, 0, 2, 1))
    again = roundtrip(poly)
    assert again == poly and again.coeffs == (3, 0, 2, 1) and again.field == f4
    tables = build_tables(make_field(3), 5)
    tables.factor_links(4)
    copied = roundtrip(tables)
    assert copied.max_degree == 5 and copied.field == tables.field
    for name in ("big_omega", "squarefree", "max_factor_degree", "irreducibles", "_packed"):
        for a, b in zip(getattr(copied, name), getattr(tables, name), strict=True):
            assert np.array_equal(a, b), name
    assert all(map(np.array_equal, copied.factor_links(4), tables.factor_links(4)))
    copied.extend(6)  # the copy grows alone
    assert (copied.max_degree, tables.max_degree) == (6, 5)


def test_mutable_records_hold_per_instance_defaults(f2):
    a, b = BoundReport("x", {}, 1.0, 2.0, None), BoundReport("x", {}, 1.0, 2.0, None)
    a.extras["k"] = 1.0
    a.passed = True
    assert b.extras == {} and b.passed is None
    s, t = ArithTables(f2), ArithTables(f2)
    s.extend(2)
    s.factor_links(2)
    s.window_pairs(2)
    assert list(s._links) == list(s._pairs) == [2] and len(s._packed) == 3
    assert (t.max_degree, t._links, t._pairs, len(t._packed), len(t.big_omega)) == (0, {}, {}, 1, 1)


def test_reprs_and_strs(f2, f4):
    assert repr(f2) == "FieldSpec(p=2, k=1, q=2, modulus=None)"
    assert repr(f4) == "FieldSpec(p=2, k=2, q=4, modulus=(1, 1, 1))"
    assert repr(Poly(f2, (1, 1, 0))) == f"Poly(field={f2!r}, coeffs=(1, 1))"
    assert str(Poly(f2, (1, 1))) == "t+1" and str(f4) == "F_4=F_2^2"
    report = VarianceReport(2, 5, 1, "liouville", None, 0.5)
    assert repr(report) == (
        "VarianceReport(q=2, n=5, h=1, function='liouville', direct=None, charside=0.5)"
    )
    assert repr(Factorization(1, ())) == "Factorization(unit=1, factors=())"


@pytest.mark.parametrize("cls", [*FROZEN, BoundReport, ArithTables, FactorIndex],
                         ids=lambda c: c.__name__)
def test_record_instances_hold_no_dict(cls):
    assert cls.__dictoffset__ == 0


def test_no_class_in_the_package_is_a_dataclass():
    classes = [
        obj
        for info in pkgutil.iter_modules(ffvar.__path__)
        for obj in vars(importlib.import_module(f"ffvar.{info.name}")).values()
        if inspect.isclass(obj) and obj.__module__.startswith("ffvar")
    ]
    assert {FieldSpec, Poly, ArithTables, BoundReport, *FROZEN} <= set(classes)
    assert [cls.__qualname__ for cls in classes if dataclasses.is_dataclass(cls)] == []
