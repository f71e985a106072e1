from __future__ import annotations

import ast
import copy
import gc
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import one, padd, pmul, ppow, star, traced_peak

import ffvar.arith
import ffvar.bounds
import ffvar.characters
import ffvar.cli
import ffvar.tables
import ffvar.variance
from ffvar.cli import (
    EXIT_BUDGET,
    EXIT_FAILURE,
    EXIT_GAP,
    EXIT_OK,
    EXIT_PRECONDITION,
    ORTHOGONALITY_PHI,
    SUITES,
    _random_rows,
    _row_star,
    build_parser,
    involution_bytes,
    main,
)
from ffvar.errors import DEFAULT_BUDGET
from ffvar.fields import FieldSpec, make_field
from ffvar.polys import from_coeffs, t_power
from ffvar.tables import row_mul

PINNED_VARIANCE = (
    "q,N,h,function,variance_direct,variance_char,abs_gap,theorem_ratio\n"
    "2,3,1,liouville,4,4.0,0.0,0.00823045267489712\n"
)

PINNED_SWEEP = (
    "q,N,h,var_direct,var_char,bound_n5,ratio,largepf_ratio,smoothpf_ratio\n"
    "2,3,1,4,4.0,486.0,0.00823045267489712,0.0023148148148148147,0.041666666666666664\n"
    "2,3,2,16,,243.0,0.06584362139917696,,\n"
    "2,4,1,4,4.0,2048.0,0.001953125,0.00439453125,0.020833333333333332\n"
    "2,4,2,8,8.0,1024.0,0.0078125,0.001953125,0.125\n"
    "2,5,1,2,2.0,6250.0,0.00032,0.002125,0.010416666666666666\n"
    "2,5,2,8,8.0,3125.0,0.00256,0.0055,0.0375\n"
)


# -- variance subcommand -----------------------------------------------------------


def test_variance_pinned_row(capsys):
    assert main(["variance", "--N", "3", "--h", "1"]) == EXIT_OK
    assert capsys.readouterr().out == PINNED_VARIANCE


def test_variance_range_grid(capsys):
    assert main(["variance", "--N", "3:5", "--h", "0:2", "--function", "moebius"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    # h runs only up to N-2 in character mode: rows above that keep direct only
    assert out[0].startswith("q,N,h,")
    rows = [ln.split(",") for ln in out[1:]]
    assert len(rows) == 9  # (N,h) pairs with h < N
    for q, n, h, name, *_ in rows:
        assert (q, name) == ("2", "moebius")


def test_variance_direct_mode_and_unit_function(capsys):
    assert main(["variance", "--N", "3", "--h", "1", "--function", "unit", "--mode", "direct"]) == EXIT_OK
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[4] == "16"
    assert row[5] == ""  # no character column in direct mode


def test_variance_of_unit_reads_no_sieve_table(cold_caches, capsys):
    # the constant 1 needs no factorization on either route: a cold unit
    # command builds no tables, where liouville builds them to degree N
    argv = ["variance", "--function", "unit", "--mode", "both", "--p", "3", "--N", "6"]
    assert main([*argv, "--h", "0:5"]) == EXIT_OK
    assert ffvar.tables._TABLE_CACHE == {}
    assert capsys.readouterr().out == (
        "q,N,h,function,variance_direct,variance_char,abs_gap,theorem_ratio\n"
        "3,6,0,unit,9,9.0,0.0,\n"
        "3,6,1,unit,81,81.0,0.0,0.003472222222222222\n"
        "3,6,2,unit,729,729.0,0.0,0.041666666666666664\n"
        "3,6,3,unit,6561,6561.0,0.0,0.28125\n"
        "3,6,4,unit,59049,59049.0,0.0,1.5\n"
        "3,6,5,unit,531441,,,7.03125\n"
    )
    assert main([*argv, "--h", "1", "--function", "liouville"]) == EXIT_OK
    assert ffvar.tables._TABLE_CACHE[make_field(3)].max_degree == 6


def test_variance_character_mode_needs_room(capsys):
    rc = main(["variance", "--N", "3", "--h", "2", "--mode", "character"])
    assert rc == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "precondition" in err


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1e-6"])
def test_variance_tolerance_must_be_finite_and_positive(tolerance, capsys):
    # at nan no gap would exceed it (gap > nan is false), at inf none could
    rc = main(["variance", "--N", "4", "--h", "1", f"--tolerance={tolerance}"])
    assert rc == EXIT_PRECONDITION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "precondition: tolerance must be finite and > 0\n"


def test_variance_budget_exit(capsys):
    assert main(["variance", "--N", "12", "--h", "1", "--budget", "100"]) == EXIT_BUDGET
    assert "budget" in capsys.readouterr().err


def test_variance_out_file_repeat_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["variance", "--N", "2:6", "--h", "0:2", "--out", str(a)]) == EXIT_OK
    assert main(["variance", "--N", "2:6", "--h", "0:2", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_variance_unwritable_out_exits_one(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["variance", "--N", "3", "--h", "1", "--out", str(out)]) == EXIT_FAILURE
    assert capsys.readouterr().err.startswith("io: ")


def test_variance_memory_error_exits_four(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 512. GiB")

    monkeypatch.setattr(ffvar.variance, "variance_charside", exhausted)
    assert main(["variance", "--N", "3", "--h", "1"]) == EXIT_BUDGET
    assert capsys.readouterr().err == "budget: out of memory: Unable to allocate 512. GiB\n"


def test_variance_json_types(capsys):
    assert main(["variance", "--N", "3", "--h", "1", "--format", "json"]) == EXIT_OK
    (row,) = json.loads(capsys.readouterr().out)
    assert row["variance_direct"] == 4 and isinstance(row["variance_direct"], int)
    assert row["variance_char"] == 4.0 and isinstance(row["variance_char"], float)
    assert row["abs_gap"] == 0.0


def test_variance_gap_detection_exits_three(monkeypatch, capsys):
    # force a disagreement between the two routes to prove the tripwire fires
    monkeypatch.setattr(ffvar.variance, "variance_charside", lambda *a, **k: 99.0)
    rc = main(["variance", "--N", "3", "--h", "1"])
    assert rc == EXIT_GAP
    captured = capsys.readouterr()
    assert "gap" in captured.err
    # the offending row is still emitted for inspection
    assert captured.out.splitlines()[1].split(",")[5] == "99.0"


def test_sweep_gap_detection_exits_three(monkeypatch, capsys):
    # sweep compares its two routes as variance does, at its default
    # tolerance, once its rows and summary line are written
    monkeypatch.setattr(ffvar.variance, "variance_charside", lambda *a, **k: 99.0)
    assert main(["sweep", "--N", "3", "--h", "1"]) == EXIT_GAP
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].split(",")[4] == "99.0"
    summary, failure = captured.err.splitlines()
    assert summary.startswith("sweep: 1 rows;")
    assert failure.startswith("gap failure: q=2 N=3 h=1 f=liouville direct=4.0 char=99.0 gap=95.0")


@pytest.mark.parametrize("command, n, limit", [("variance", 30000, None), ("sweep", 3000, 640)])
def test_an_estimate_past_the_str_digit_limit_exits_four(capsys, command, n, limit):
    # the cell's estimate has more digits than the interpreter's int-to-str
    # limit (the default 4300, or the least allowed, 640, for a quicker
    # cell): refused with a power-of-two bound, not a traceback
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit or sys.int_info.default_max_str_digits)
    try:
        assert main([command, "--N", str(n), "--h", "1"]) == EXIT_BUDGET
    finally:
        sys.set_int_max_str_digits(old)
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"budget: cell N={n} h=1 needs at least 2^")


def _traced_main(argv, capsys):
    """(exit code, stdout, stderr, tracemalloc peak) of main(argv)."""
    codes = []
    peak = traced_peak(lambda: codes.append(main(argv)))
    return (codes[0], *capsys.readouterr(), peak)


@pytest.mark.parametrize(
    "command, wide, narrow",
    [
        ("variance", "0:100000000", "0:9"),
        ("variance --mode character", "0:100000000", "0:8"),
        ("sweep", "1:100000000", "1:9"),
    ],
)
def test_a_wide_h_range_costs_only_its_feasible_cells(capsys, command, wide, narrow):
    # N = 10 keeps h <= 9 (h <= 8 in character mode): the rest of the range
    # is clipped away by arithmetic, with no list as long as the range
    argv = [*command.split(), "--N", "10", "--h"]
    assert main([*argv, narrow]) == EXIT_OK  # warm the tables
    capsys.readouterr()
    rc, out, err, peak = _traced_main([*argv, narrow], capsys)
    assert rc == EXIT_OK
    got = _traced_main([*argv, wide], capsys)
    assert got[:3] == (rc, out, err)
    assert got[3] <= peak + (1 << 20)


def test_a_wide_n_range_refuses_at_its_first_cell_over_budget(capsys):
    # the cells are checked in grid order: N = 27 is the first over the
    # default budget, with the same message as for a range that ends at 30
    argv = ["variance", "--mode", "direct", "--h", "1", "--N"]
    assert main([*argv, "1:30"]) == EXIT_BUDGET
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("budget: cell N=27 h=1 needs ")
    got = _traced_main([*argv, "1:100000000"], capsys)
    assert got[:3] == (EXIT_BUDGET, "", err)
    assert got[3] < 1 << 20


BAD_RANGE = "precondition: bad range syntax (invalid literal for int() with base 10: 'x')\n"


def test_variance_bad_range_syntax(capsys):
    assert main(["variance", "--N", "x:3", "--h", "1"]) == EXIT_PRECONDITION
    assert capsys.readouterr().err == BAD_RANGE


@pytest.mark.parametrize(
    "args, flag, text", [(["--N", "5:3", "--h", "1"], "--N", "5:3"), (["--N", "5", "--h", "3:1"], "--h", "3:1")]
)
def test_variance_names_an_empty_range(capsys, args, flag, text):
    assert main(["variance", *args]) == EXIT_PRECONDITION
    assert capsys.readouterr().err == f"precondition: empty {flag} range {text}\n"


def test_variance_unknown_function_is_a_usage_error(capsys):
    # argparse checks the name against variance.FUNCTIONS, before any route
    with pytest.raises(SystemExit) as exc:
        main(["variance", "--N", "3", "--h", "1", "--function", "nope"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'nope'" in err and "'liouville', 'moebius', 'unit'" in err


def _forbid_routes(monkeypatch):
    """Fail the test if any route sieves a table or builds a basis."""

    def ran(*args, **kwargs):
        raise AssertionError("a route ran before the budget check")

    monkeypatch.setattr(ffvar.tables.ArithTables, "extend", ran)
    for builder in ("_t_power_basis", "_structural_basis"):
        monkeypatch.setattr(ffvar.characters, builder, ran)


def test_variance_refuses_past_the_unit_budget_before_sieving(monkeypatch, capsys):
    # F_2 N=25 h=1: the basis and transform mod t^24 put the cell past the
    # 1 GiB default (the direct route alone would fit); the refusal comes
    # before the sieve extends any table and before any basis is built
    need = ffvar.variance.cell_bytes(make_field(2), "liouville", 25, 1)
    assert ffvar.variance.cell_bytes(make_field(2), "liouville", 25, 1, "direct") < 1 << 30 < need
    _forbid_routes(monkeypatch)
    assert main(["variance", "--N", "25", "--h", "1"]) == EXIT_BUDGET
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"budget: cell N=25 h=1 needs {need} bytes, over the budget of {1 << 30}\n"


def test_moebius_cell_counts_its_flags_and_refuses_before_sieving(monkeypatch, capsys):
    # F_3 N=17 h=1 direct: the tables, values and interval sums fit the
    # 1 GiB default, mu's squarefree flags (1 byte per monic of each degree
    # <= 17) do not, and the refusal comes before any table is sieved
    fld = make_field(3)
    lam = ffvar.variance.cell_bytes(fld, "liouville", 17, 1, "direct")
    need = ffvar.variance.cell_bytes(fld, "moebius", 17, 1, "direct")
    assert lam <= DEFAULT_BUDGET < need == lam + ffvar.tables.flag_bytes(fld, 17)
    _forbid_routes(monkeypatch)
    argv = ["variance", "--mode", "direct", "--p", "3", "--N", "17", "--h", "1"]
    assert main([*argv, "--function", "moebius"]) == EXIT_BUDGET
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"budget: cell N=17 h=1 needs {need} bytes, over the budget of {1 << 30}\n"


@pytest.mark.parametrize("function, flags", [("liouville", 1), ("unit", None), ("moebius", 9)])
def test_only_moebius_builds_squarefree_flags(cold_caches, monkeypatch, capsys, function, flags):
    # both routes over F_3 to N = 8: lambda reads the tables and builds no
    # flag past degree 0 (no square is taken), the constant 1 builds no
    # tables, and mu flags every degree up to N
    squared = []
    row_mul = ffvar.tables.row_mul
    monkeypatch.setattr(ffvar.tables, "row_mul", lambda *a: squared.append(1) or row_mul(*a))
    argv = ["variance", "--mode", "both", "--p", "3", "--N", "8", "--h", "1:4"]
    assert main([*argv, "--function", function]) == EXIT_OK
    capsys.readouterr()
    tab = ffvar.tables._TABLE_CACHE.get(make_field(3))
    assert (None if tab is None else len(tab.squarefree)) == flags
    assert bool(squared) == (function == "moebius")


@pytest.mark.parametrize("command", ["variance", "sweep"])
def test_grid_refuses_its_last_cell_before_any_route(monkeypatch, capsys, command):
    # every cell's estimate is checked first: one byte short for the last
    # cell stops the grid with nothing sieved, built or written
    need = ffvar.variance.cell_bytes(make_field(2), "liouville", 12, 2)
    grid = [command, "--N", "10:12", "--h", "2"]
    _forbid_routes(monkeypatch)
    tracemalloc.start()
    try:
        rc = main([*grid, "--budget", str(need - 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (rc, out) == (EXIT_BUDGET, "")
    assert err == f"budget: cell N=12 h=2 needs {need} bytes, over the budget of {need - 1}\n"
    assert peak < 1 << 20
    monkeypatch.undo()
    assert main([*grid, "--budget", str(need)]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_variance_grid_holds_one_basis_at_a_time(cold_caches, capsys):
    # the bases mod t^18 and t^19 are dropped before the next one is built,
    # so a cold N=19:21 grid holds and peaks no higher than its last cell
    # alone, within 2 MiB (the held bases would add 6 MiB)
    measured = []
    for grid in ("19:21", "21"):
        cold_caches()
        tracemalloc.start()
        try:
            assert main(["variance", "--N", grid, "--h", "1"]) == EXIT_OK
            measured.append(tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    (held, peak), (alone_held, alone_peak) = measured
    assert held <= alone_held + (2 << 20)
    assert peak <= alone_peak + (2 << 20)


# -- sweep subcommand ----------------------------------------------------------------


def test_sweep_pinned_grid(capsys):
    assert main(["sweep", "--N", "3:5", "--h", "1:2"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == PINNED_SWEEP
    assert "max theorem ratio 0.06584362139917696 at (q=2, N=3, h=2)" in captured.err


def test_sweep_repeat_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["sweep", "--N", "3:7", "--h", "1:3", "--out", str(path)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_sweep_builds_one_basis_per_character_row(monkeypatch, capsys):
    # the variance route builds each row's basis; the window sums build none
    built = []
    build = ffvar.characters._t_power_basis
    monkeypatch.setattr(ffvar.characters, "_t_power_basis",
                        lambda field, modulus: built.append(modulus) or build(field, modulus))
    assert main(["sweep", "--N", "3:10", "--h", "1:3"]) == EXIT_OK
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(built) == sum(int(h) <= int(n) - 2 for _, n, h, *_ in rows) == 21


@pytest.mark.parametrize("p, n, h", [(2, 16, 1), (2, 16, 4), (3, 10, 1), (3, 10, 3)])
def test_cell_bytes_cover_a_sweep_row(cold_caches, capsys, p, n, h):
    # one row from cold: the tables, both variance routes and both window sums
    peak = traced_peak(main, ["sweep", "--p", str(p), "--N", str(n), "--h", str(h)])
    capsys.readouterr()
    assert peak <= ffvar.variance.cell_bytes(make_field(p), "liouville", n, h)


def test_sweep_json(capsys):
    assert main(["sweep", "--N", "3:4", "--h", "1:1", "--format", "json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert [r["N"] for r in rows] == [3, 4]
    assert rows[0]["var_direct"] == 4
    assert rows[0]["var_char"] == 4.0


def test_sweep_bad_range_syntax(capsys):
    assert main(["sweep", "--N", "x:3", "--h", "1"]) == EXIT_PRECONDITION
    assert capsys.readouterr().err == BAD_RANGE


def test_sweep_rejects_h_zero(capsys):
    assert main(["sweep", "--N", "3:5", "--h", "0:2"]) == EXIT_PRECONDITION


def test_sweep_rejects_empty_grid(capsys):
    assert main(["sweep", "--N", "5:3", "--h", "1:2"]) == EXIT_PRECONDITION
    assert "empty sweep grid" in capsys.readouterr().err


# -- cache subcommand ----------------------------------------------------------------


def test_cache_build_and_check(tmp_path, monkeypatch, capsys):
    # the count comes from the sieve tables, and no file is written
    monkeypatch.chdir(tmp_path)
    assert main(["cache", "--maxdeg", "7"]) == EXIT_OK
    assert capsys.readouterr() == ("q=2: 41 irreducibles up to degree 7\n", "")
    assert main(["cache", "--maxdeg", "7", "--check"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "q=2: 41 irreducibles up to degree 7; each degree's count equals the necklace formula\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_cache_check_catches_wrong_counts(monkeypatch, capsys):
    pi_q = ffvar.arith.pi_q
    monkeypatch.setattr(ffvar.arith, "pi_q", lambda fld, d: pi_q(fld, d) + (d == 5))
    assert main(["cache", "--maxdeg", "7"]) == EXIT_OK  # counted, not checked
    capsys.readouterr()
    assert main(["cache", "--maxdeg", "7", "--check"]) == EXIT_FAILURE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "count mismatch at degree 5: sieve has 6, necklace formula gives 7\n"


def test_cache_for_extension_field(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["cache", "--p", "2", "--k", "2", "--maxdeg", "4", "--check"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("q=4: 90 irreducibles up to degree 4;")
    assert list(tmp_path.iterdir()) == []


def test_cache_past_budget_or_below_degree_one_exits_before_sieving(capsys):
    assert main(["cache", "--maxdeg", "40"]) == EXIT_BUDGET
    assert capsys.readouterr().err.startswith("budget: sieve tables to degree 40 needs ")
    assert main(["cache", "--maxdeg", "0", "--check"]) == EXIT_PRECONDITION
    assert capsys.readouterr().err == "precondition: --maxdeg must be >= 1\n"


# -- verify subcommand ----------------------------------------------------------------


def test_verify_all_suites_pass(capsys, tmp_path):
    rc = main(["verify", "--n-max", "4", "--trials", "20", "--cache-dir", str(tmp_path)])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 16  # 2 field-independent suites + 7 suites x {q=2, q=3}
    assert all(ln.startswith("PASS ") for ln in lines)
    names = {ln.split()[1].rstrip(":") for ln in lines}
    assert "fields" in names and "mvt[q=3]" in names


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "fullsum", "--n-max", "5"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines and all("fullsum" in ln for ln in lines)


def test_verify_fault_injection_is_caught(capsys):
    rc = main(["verify", "--suite", "fullsum", "--n-max", "4", "--self-test-fault"])
    assert rc == EXIT_FAILURE
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "injected fault" in out


def test_fullsum_past_budget_exits_four_before_building(cold_caches, capsys):
    # F_16 at the default n-max 6 sums to degree 8: its gate refuses before
    # any degree is sieved, so no table is built or extended
    fld = make_field(2, 4)
    need = ffvar.tables.table_bytes(fld, 8)
    argv, codes = ["verify", "--p", "2", "--k", "4", "--suite", "fullsum"], []
    peak = traced_peak(lambda: codes.append(main(argv)))
    assert codes == [EXIT_BUDGET] and peak < 1 << 20
    assert fld not in ffvar.tables._TABLE_CACHE
    assert capsys.readouterr().err == (
        f"budget: sieve tables to degree 8 needs {need} bytes, over the budget of {1 << 30}\n"
    )


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope"]) == EXIT_PRECONDITION
    assert "choose from" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--suite", "fullsum", "--n-max", "-3"], "--n-max >= 2; got -3"),
        (["--suite", "ramare", "--n-max", "1"], "--n-max >= 2; got 1"),
        (["--suite", "mvt", "--trials", "0"], "--trials >= 1; got 0"),
        (["--trials", "-2"], "--trials >= 1; got -2"),
        (["--seed", "-1"], "--seed >= 0; got -1"),
    ],
)
def test_verify_rejects_vacuous_settings(args, message, capsys):
    # below these the suites would print PASS on nothing checked, or, for a
    # negative seed, die in numpy's generator after the first suites passed
    assert main(["verify", *args]) == EXIT_PRECONDITION
    out, err = capsys.readouterr()
    assert out == ""  # before any suite runs
    assert err == f"precondition: verify needs {message}\n"


def test_verify_smallest_n_max_checks_cases_in_every_suite(capsys):
    assert main(["verify", "--n-max", "2", "--trials", "1"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16 and all(ln.startswith("PASS ") for ln in lines)
    for ln in lines:
        if ln.startswith("PASS ramare"):
            assert int(ln.split(" on ")[1].split()[0]) > 0, ln
        if ln.startswith("PASS mvt"):
            assert int(ln.split(": ")[1].split()[0]) > 0, ln


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (13, 1), (2, 4)], ids=["8", "9", "13", "16"])
def test_verify_passes_every_suite_over_larger_fields(p, k, tmp_path, capsys):
    # fields and orthogonality build the given field beside F_2, F_3 and F_4,
    # not from q alone; orthogonality stays within its Phi cap
    argv = ["verify", "--p", str(p), "--k", str(k), "--n-max", "2", "--trials", "5"]
    assert main([*argv, "--cache-dir", str(tmp_path)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(SUITES) and all(ln.startswith("PASS ") for ln in lines)
    for line in lines:
        if line.startswith(("PASS fields", "PASS orthogonality")):
            assert line.endswith(f"q in [2, 3, 4, {p**k}]"), line


def test_verify_necklace_reads_no_cache_dir(tmp_path, capsys):
    # the counts come from the sieve tables: a file in --cache-dir is neither
    # read nor replaced, and a missing --cache-dir is not created
    args = ["verify", "--suite", "necklace", "--n-max", "4", "--cache-dir"]
    held = tmp_path / "held" / "ffsieve_p2_k1.txt"
    held.parent.mkdir()
    held.write_text("not a sieve file\n")
    for cache_dir in (held.parent, tmp_path / "missing" / "ffvar"):
        assert main([*args, str(cache_dir)]) == EXIT_OK
        assert capsys.readouterr() == (
            "PASS necklace[q=2]: sieve counts equal necklace formula up to degree 6\n", ""
        )
    assert list(tmp_path.iterdir()) == [held.parent]
    assert list(held.parent.iterdir()) == [held]
    assert held.read_text() == "not a sieve file\n"


def test_verify_runs_one_window_pass_per_cell(monkeypatch, capsys):
    # ramare and decomposition share each (field, n, h) pass within a verify
    # command; the next command holds nothing from it
    calls = Counter()
    window_defects = ffvar.variance.window_defects

    def counted(field, n, h):
        calls[field.q, n, h] += 1
        return window_defects(field, n, h)

    monkeypatch.setattr(ffvar.variance, "window_defects", counted)
    assert main(["verify", "--n-max", "6", "--trials", "5"]) == EXIT_OK
    assert calls == {(q, n, h): 1 for q in (2, 3) for n in range(2, 7) for h in range(1, n)}
    assert main(["verify", "--suite", "decomposition", "--n-max", "3"]) == EXIT_OK
    assert calls[2, 3, 1] == calls[2, 2, 1] == 2
    assert capsys.readouterr().out.count("PASS decomposition") == 3


def _python(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """A fresh interpreter on this checkout's sources, its output captured."""
    src = str(Path(ffvar.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": path}, cwd=cwd,
        capture_output=True, text=True,
    )


def test_parser_setup_loads_neither_json_nor_logging():
    # json is loaded by the JSON writer alone, and no module loads logging
    code = (
        "import sys, ffvar.cli; ffvar.cli.build_parser(); "
        "print(sorted({'json', 'logging'} & set(sys.modules)))"
    )
    out = _python("-c", code)
    assert (out.returncode, out.stdout) == (0, "[]\n")


FILE_IO = {"open", "read_text", "write_text", "read_bytes", "write_bytes", "mkdir"}


def _file_io_calls(node: ast.AST, where: str):
    """(enclosing function, called name) of each file I/O call under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in FILE_IO:
                yield where, name
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield from _file_io_calls(child, inner)


def test_only_the_out_writer_touches_files():
    # the sieve tables are the one source of irreducibles: no module reads,
    # writes or makes a file or directory but the --out writer
    package = Path(ffvar.cli.__file__).parent
    found = {
        (f"{path.stem}.{where}", name)
        for path in sorted(package.glob("*.py"))
        for where, name in _file_io_calls(ast.parse(path.read_text()), "<module>")
    }
    assert found == {("cli._write_rows", "write_text")}


# -- process entry -------------------------------------------------------------------


def test_main_leaves_the_collector_unfrozen(capsys):
    # main is the in-process API: only run, the process entry, freezes
    before = gc.get_freeze_count()
    assert main(["variance", "--N", "3", "--h", "1"]) == EXIT_OK
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize(
    "argv, code, prefix",
    [
        (["variance", "--N", "3:4", "--h", "1"], EXIT_OK, ""),
        (["variance", "--N", "3", "--h", "2", "--mode", "character"], EXIT_PRECONDITION,
         "precondition: "),
        (["variance", "--N", "25", "--h", "1"], EXIT_BUDGET, "budget: "),
    ],
)
def test_module_entry_matches_main(argv, code, prefix, capsys):
    # python -m ffvar.cli goes through run: same streams and exit code as main
    assert main(argv) == code
    want = capsys.readouterr()
    assert want.err.startswith(prefix) and want.err.count("\n") == (code != EXIT_OK)
    got = _python("-m", "ffvar.cli", *argv)
    assert (got.returncode, got.stdout, got.stderr) == (code, want.out, want.err)


def test_module_entry_writes_the_out_file_in_full(tmp_path):
    got = _python("-m", "ffvar.cli", "sweep", "--N", "3:5", "--h", "1:2", "--out", "s.csv",
                  cwd=tmp_path)
    assert got.returncode == EXIT_OK
    assert (tmp_path / "s.csv").read_text() == PINNED_SWEEP


@pytest.mark.parametrize("entry, frozen", [("run", True), ("main", False)])
def test_run_freezes_the_collector_before_exit(entry, frozen):
    code = (
        "import atexit, gc, sys; from ffvar import cli; "
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0)); "
        f"sys.argv[1:] = ['variance', '--N', '3', '--h', '1']; sys.exit(cli.{entry}())"
    )
    got = _python("-c", code)
    assert got.returncode == EXIT_OK
    assert got.stdout == PINNED_VARIANCE + f"frozen {frozen}\n"


def test_verify_specific_field(capsys):
    assert main(["verify", "--p", "3", "--suite", "ramare", "--n-max", "4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "q=3" in out


def test_verify_mvt_mentions_rng(capsys):
    assert main(["verify", "--suite", "mvt", "--trials", "10", "--seed", "3", "--p", "2"]) == EXIT_OK
    assert "numpy-default-rng" in capsys.readouterr().out


@pytest.mark.parametrize(
    "trials, split", [(1, [1, 0, 0, 0, 0]), (7, [2, 2, 1, 1, 1]), (100, [20] * 5)]
)
def test_verify_mvt_splits_trials_over_the_moduli(trials, split, monkeypatch, capsys):
    # the total is --trials; a modulus left with none is skipped, and each
    # modulus keeps its seed + i stream
    calls = []
    mvt_trial = ffvar.bounds.mvt_trial

    def recorded(field, modulus, n, *, seed, trials, distribution):
        calls.append((seed, trials, distribution))
        return mvt_trial(field, modulus, n, seed=seed, trials=trials, distribution=distribution)

    monkeypatch.setattr(ffvar.bounds, "mvt_trial", recorded)
    args = ["verify", "--suite", "mvt", "--n-max", "2", "--trials", str(trials), "--seed", "5"]
    assert main(args) == EXIT_OK
    kinds = ("signs", "phases")
    assert calls == [(5 + i, n, kinds[i % 2]) for i, n in enumerate(split) if n]
    assert capsys.readouterr().out.startswith(f"PASS mvt[q=2]: {trials} trials pass (")


def test_verify_mvt_past_budget_exits_four(capsys):
    # F_16 with n-max 6 draws q^8 = 2^32 coefficients at 64 bytes each, past
    # the 1 GiB default, and folds 20 of them mod t^2 at 16 bytes a residue
    rc = main(["verify", "--p", "2", "--k", "4", "--suite", "mvt", "--n-max", "6"])
    assert rc == EXIT_BUDGET
    assert capsys.readouterr().err == (
        f"budget: mvt of 20 draws of {16**8} coefficients needs "
        f"{64 * 16**8 + 16 * 20 * 16**2} bytes, over the budget of {1 << 30}\n"
    )


def test_verify_window_pairs_past_budget_exit_four(monkeypatch, capsys):
    # F_16 at n = 6 reads about 40 million window pairs, past the 1 GiB
    # default; each window suite checks its largest cell first, so no pairs
    # are built
    def built(*args):
        raise AssertionError("window pairs built before the budget check")

    monkeypatch.setattr(ffvar.tables.ArithTables, "window_pairs", built)
    need = ffvar.variance.window_bytes(make_field(2, 4), 6, 1)
    for suite in ("ramare", "decomposition"):
        rc = main(["verify", "--p", "2", "--k", "4", "--suite", suite, "--n-max", "6"])
        assert rc == EXIT_BUDGET
        assert capsys.readouterr().err == (
            f"budget: window pairs of degree 6 needs {need} bytes, over the budget of {1 << 30}\n"
        )


ALL_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4))
FIELD_IDS = [str(p**k) for p, k in ALL_FIELDS]
DRAW_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (2, 4))


@pytest.mark.parametrize("p,k", ALL_FIELDS, ids=FIELD_IDS)
def test_verify_mvt_moduli_are_the_ring_products(p, k, monkeypatch):
    # the fifth modulus is written by its coefficients (0, 1, 1 + 1, 1): it
    # must be the oracle ring's t (t + 1)^2 over every field
    fld, moduli = make_field(p, k), []
    monkeypatch.setattr(ffvar.bounds, "mvt_trial",
                        lambda _, modulus, *args, **kwargs: moduli.append(modulus) or [])
    SUITES["mvt"](build_parser().parse_args(["verify"]), fld)
    t, t1 = t_power(fld, 1), from_coeffs(fld, [1, 1])
    assert moduli == [t_power(fld, 2), t_power(fld, 3), t_power(fld, 4),
                      padd(pmul(t, t1), one(fld)), pmul(t, ppow(t1, 2))]


class _RecordingRng:
    """A numpy Generator that keeps every array its integers() returns."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), []

    def integers(self, *args, **kwargs):
        self.draws.append(self.rng.integers(*args, **kwargs))
        return self.draws[-1]


@pytest.mark.parametrize("p,k", DRAW_FIELDS)
def test_random_rows_same_seed_same_rows(p, k):
    fld = make_field(p, k)
    first = _random_rows(fld, np.random.default_rng(7), (2, 2000), 6)
    assert first.shape == (2, 2000, 7)
    assert np.array_equal(first, _random_rows(fld, np.random.default_rng(7), (2, 2000), 6))
    assert not np.array_equal(first, _random_rows(fld, np.random.default_rng(8), (2, 2000), 6))


@pytest.mark.parametrize("p,k", DRAW_FIELDS)
def test_random_rows_are_nonzero_and_zero_above_their_drawn_degree(p, k):
    # the draws alternate (degree bounds, coefficients); a row's bound is the
    # one of the last round that drew it, and each round redraws the rows
    # that came out all zero
    fld = make_field(p, k)
    rng = _RecordingRng(0)
    rows = _random_rows(fld, rng, (2, 2000), 6).reshape(-1, 7)
    assert rows.any(axis=1).all()
    assert rows.max() < fld.q
    bound, redo = np.full(len(rows), -1), np.arange(len(rows))
    for drawn, coeffs in zip(rng.draws[::2], rng.draws[1::2]):
        bound[redo] = drawn
        redo = redo[~coeffs.any(axis=1)]
    assert redo.size == 0 and bound.min() >= 0
    assert not rows[np.arange(7) > bound[:, None]].any()
    if fld.q == 2:  # about one row in six is zero on its first draw
        assert len(rng.draws) > 2


@pytest.mark.parametrize("p,k", DRAW_FIELDS)
def test_random_rows_reach_every_degree(p, k):
    fld = make_field(p, k)
    seen = set()
    for seed in range(3):
        rows = _random_rows(fld, np.random.default_rng(seed), (2, 2000), 6).reshape(-1, 7)
        seen.update((6 - np.argmax(rows[:, ::-1] != 0, axis=1)).tolist())
    assert seen == set(range(7))


@pytest.mark.parametrize("p,k", ALL_FIELDS, ids=FIELD_IDS)
def test_row_product_and_row_star_match_poly(p, k):
    fld = make_field(p, k)
    rng = np.random.default_rng(p * 100 + k)
    a, b = rng.integers(0, fld.q, size=(2, 300, 5), dtype=np.uint8)
    a[:40, 1:] = 0  # degree 0
    b[40:80, 1:] = 0
    a[80:120, 2:] = 0  # zero leading entries
    b[80:160, 3:] = 0
    a[160:200, :4] = 0  # t^4 times a constant
    a[200:210] = 0  # the zero polynomial, a factor only
    a[:200, 0] = np.maximum(a[:200, 0], 1)
    b[:, 0] = np.maximum(b[:, 0], 1)
    product = row_mul(fld, a, b)
    assert product.shape == (300, 9) and product.dtype == np.uint8
    for i in range(300):
        x, y = from_coeffs(fld, a[i].tolist()), from_coeffs(fld, b[i].tolist())
        assert from_coeffs(fld, product[i].tolist()) == pmul(x, y)
    nonzero = a[a.any(axis=1)]
    for rows in (nonzero, b, product[a.any(axis=1)]):
        starred = _row_star(rows)
        assert starred.shape == rows.shape
        for row, got in zip(rows, starred):
            assert from_coeffs(fld, got.tolist()) == star(from_coeffs(fld, row.tolist()))


def test_involution_suite_names_a_pair_whose_product_is_corrupted(monkeypatch, capsys):
    # a * b is computed before the two starred factors are multiplied; one
    # changed constant term of it breaks star(a b) = star(a) star(b) there alone
    fld, bad = make_field(3), 123
    calls, pair = [], []

    def corrupted(field, a, b):
        out = row_mul(field, a, b)
        if not calls:
            pair.extend(from_coeffs(fld, rows[bad].tolist()) for rows in (a, b))
            out[bad, 0] = field.add_table[out[bad, 0], 1]
        calls.append(1)
        return out

    monkeypatch.setattr(ffvar.cli, "row_mul", corrupted)
    rc = main(["verify", "--p", "3", "--suite", "involution", "--n-max", "4"])
    assert rc == EXIT_FAILURE
    assert capsys.readouterr().out == (
        f"FAIL involution[q=3]: star not multiplicative at ({pair[0]}, {pair[1]})\n"
    )


@pytest.mark.parametrize(
    "phi, index, row",
    [
        (8, 5, lambda n, L: np.zeros(n, dtype=np.int64)),  # t^4 over F_2: no longer cancels
        (2, 0, lambda n, L: np.arange(n) * (L // n)),  # t^2 over F_2: the trivial row cancels
    ],
)
def test_orthogonality_suite_names_a_corrupted_character(monkeypatch, capsys, phi, index, row):
    rotation_matrix = ffvar.characters.character_rotation_matrix

    def corrupted(basis, exponents):
        R = rotation_matrix(basis, exponents)
        if basis.field.q == 2 and basis.phi == phi:
            R[index] = row(basis.phi, basis.exponent)
        return R

    monkeypatch.setattr(ffvar.characters, "character_rotation_matrix", corrupted)
    rc = main(["verify", "--suite", "orthogonality"])
    assert rc == EXIT_FAILURE
    m = phi.bit_length()
    assert capsys.readouterr().out == (
        f"FAIL orthogonality: character orthogonality broken at q=2, m={m}, index {index}\n"
    )


def test_orthogonality_suite_reads_the_even_rows_off_the_rotation_matrix(monkeypatch, capsys):
    # a count_even that names a wrong prefix fails the suite: the even rows
    # come from the rotation numerators at the constants, not from count_even
    count_even = ffvar.characters.count_even
    monkeypatch.setattr(ffvar.characters, "count_even", lambda b: count_even(b) - (b.phi == 6))
    assert main(["verify", "--suite", "orthogonality"]) == EXIT_FAILURE
    assert capsys.readouterr().out == "FAIL orthogonality: even count wrong for q=3, m=2\n"


@pytest.mark.parametrize("min_phi, m", [(2, 2), (3, 3)])
def test_orthogonality_suite_catches_swapped_units(monkeypatch, capsys, min_phi, m):
    # the codes at the last two grid positions of every basis with at least
    # min_phi units swapped: the rotation numerators read the grid alone and
    # still cancel, but the grid no longer holds 1 at its origin (Phi = 2)
    # or the products by the generators (t^3 over F_2, Phi = 4)
    unit_group_basis = ffvar.characters.unit_group_basis

    def swapped(field, modulus):
        basis = copy.copy(unit_group_basis(field, modulus))
        if basis.phi >= min_phi:
            basis.unit_codes = basis.unit_codes.copy()
            basis.unit_codes[[-2, -1]] = basis.unit_codes[[-1, -2]]
        return basis

    monkeypatch.setattr(ffvar.characters, "unit_group_basis", swapped)
    assert main(["verify", "--suite", "orthogonality"]) == EXIT_FAILURE
    assert capsys.readouterr().out == (
        f"FAIL orthogonality: unit grid is not the ring's at q=2, m={m}\n"
    )


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (13, 1), (2, 4)], ids=["8", "9", "13", "16"])
def test_orthogonality_peak_is_bounded_by_its_phi_cap(p, k):
    # m = 1..4 only while Phi(t^m) <= 2^11: at most 24 bytes for each entry
    # of the largest Phi x Phi matrix, and 1 MiB besides
    args = build_parser().parse_args(["verify"])
    peak = traced_peak(SUITES["orthogonality"], args, make_field(p, k))
    assert peak <= 24 * ORTHOGONALITY_PHI**2 + (1 << 20)


@pytest.mark.parametrize("p,k", ALL_FIELDS, ids=FIELD_IDS)
def test_involution_suite_covers_every_q(p, k, capsys):
    # the array pass runs for every q <= 16 and counts each unit multiple of
    # each polynomial with a nonzero constant term, as the scalar loop did
    q = p**k
    n_max = max(n for n in range(1, 7) if q**n <= 4096)
    rc = main(["verify", "--p", str(p), "--k", str(k), "--suite", "involution",
               "--n-max", str(n_max)])
    checked = (q - 1) * (1 + sum(q**n - q ** (n - 1) for n in range(1, n_max + 1)))
    assert rc == EXIT_OK
    assert f"involution/symmetry on {checked} polynomials + 2000" in capsys.readouterr().out


def test_involution_suite_catches_an_asymmetric_lambda(monkeypatch):
    # lambda read from tables with one entry flipped: F = t^3 + t + 1 over
    # F_2 and its star t^3 + t^2 + 1 no longer agree
    fld = make_field(2)
    tables = copy.deepcopy(ffvar.cli.get_tables(fld, 4))
    tables.big_omega[3][0b011] += 1
    monkeypatch.setattr(ffvar.cli, "get_tables", lambda field, n: tables)
    args = build_parser().parse_args(["verify", "--n-max", "4"])
    with pytest.raises(AssertionError, match=r"lambda not star-symmetric at F = "):
        SUITES["involution"](args, fld)


@pytest.mark.parametrize("table", ["inv_table", "mul_table"])
@pytest.mark.parametrize("p,k", [(3, 1), (2, 2), (5, 1), (13, 1)], ids=["3", "4", "5", "13"])
def test_involution_suite_catches_a_corrupted_scaling(p, k, table, monkeypatch, capsys):
    # one wrong entry that a scaling by c reads (inv(2), or 2 (q - 1)) breaks
    # inv(c a) (c b) = inv(a) b, so the one pass at c = 1 no longer stands
    # for the other scalings and the suite fails, naming a c and an F
    fld = make_field(p, k)
    q, bad = fld.q, getattr(fld, table).copy()
    if table == "inv_table":
        bad[2] = bad[2] % (q - 1) + 1
    else:
        bad[2, q - 1] = (bad[2, q - 1] + 1) % q
    fields = {name: getattr(fld, name) for name in FieldSpec.__slots__}
    corrupted = FieldSpec(**{**fields, table: bad})
    monkeypatch.setattr(ffvar.cli, "make_field", lambda *a: corrupted)
    argv = ["verify", "--p", str(p), "--k", str(k), "--suite", "involution", "--n-max", "4"]
    assert main(argv) == EXIT_FAILURE
    out = capsys.readouterr().out
    assert out.startswith(f"FAIL involution[q={q}]: monic(star(") and " F = t^2+" in out


def test_involution_past_budget_exits_four_before_allocating(monkeypatch, capsys):
    # F_16 at n-max 7: about 268 million monics of degree 7
    def built(*args):
        raise AssertionError("tables built before the budget check")

    monkeypatch.setattr(ffvar.cli, "get_tables", built)
    need = involution_bytes(make_field(2, 4), 7)
    argv, codes = ["verify", "--p", "2", "--k", "4", "--suite", "involution", "--n-max", "7"], []
    peak = traced_peak(lambda: codes.append(main(argv)))
    assert codes == [EXIT_BUDGET] and peak < 1 << 20
    assert capsys.readouterr().err == (
        f"budget: involution pass to degree 7 needs {need} bytes, over the budget of {1 << 30}\n"
    )


@pytest.mark.parametrize("p,k,n", [(2, 2, 8), (3, 2, 5), (13, 1, 5)])
def test_involution_estimate_covers_its_peak(cold_caches, p, k, n):
    fld = make_field(p, k)
    args = build_parser().parse_args(["verify", "--n-max", str(n)])
    assert traced_peak(SUITES["involution"], args, fld) <= involution_bytes(fld, n)


def test_involution_random_pairs_are_capped_at_degree_eight(capsys):
    start = time.perf_counter()
    assert main(["verify", "--suite", "involution", "--n-max", "400"]) == EXIT_OK
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == (
        "PASS involution[q=2]: involution/symmetry on 256 polynomials + 2000 random products\n"
    )


def test_suite_registry_names():
    assert sorted(SUITES) == [
        "decomposition",
        "fields",
        "fullsum",
        "involution",
        "mvt",
        "necklace",
        "orthogonality",
        "ramare",
        "smooth",
    ]


# -- argument plumbing ------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [["variance", "--N", "3", "--h", "1"], ["sweep", "--N", "3", "--h", "1"], ["verify"], ["cache"]],
    ids=lambda argv: argv[0],
)
def test_every_command_runs_on_its_required_arguments(argv, tmp_path, monkeypatch, capsys):
    # each option a command reads must come from its own subparser: with no
    # defaults besides the parser's, a missing one fails only at run time
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_OK
    if argv == ["verify"]:  # every suite, each on q=2 and q=3 unless global
        lines = capsys.readouterr().out.splitlines()
        assert all(ln.startswith("PASS ") for ln in lines)
        assert {ln.split()[1].split("[")[0].rstrip(":") for ln in lines} == set(SUITES)


@pytest.mark.parametrize(
    "argv",
    [["variance", "--N", "3", "--h", "1"], ["sweep", "--N", "3", "--h", "1"], ["verify"], ["cache"]],
    ids=lambda argv: argv[0],
)
def test_each_subcommand_runs_its_handler(argv, monkeypatch):
    # the parsed namespace carries the command's cmd_* function, read when the
    # parser is built, so a rebinding of that name (as a tracer makes) runs
    name = f"cmd_{argv[0]}"
    assert build_parser().parse_args(argv).run is getattr(ffvar.cli, name)
    ran = []
    monkeypatch.setattr(ffvar.cli, name, lambda args: ran.append(args) or 17)
    assert main(argv) == 17
    assert [args.command for args in ran] == [argv[0]]


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
