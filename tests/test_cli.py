from __future__ import annotations

import copy
import json
import tracemalloc

import numpy as np
import pytest

import ffvar.bounds
import ffvar.characters
import ffvar.cli
import ffvar.tables
import ffvar.variance
from ffvar.arith import cache_file_name
from ffvar.cli import (
    EXIT_BUDGET,
    EXIT_FAILURE,
    EXIT_GAP,
    EXIT_OK,
    EXIT_PRECONDITION,
    SUITES,
    _random_rows,
    _row_mul,
    _row_star,
    build_parser,
    main,
)
from ffvar.fields import make_field
from ffvar.polys import from_coeffs, star

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


def test_variance_character_mode_needs_room(capsys):
    rc = main(["variance", "--N", "3", "--h", "2", "--mode", "character"])
    assert rc == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "precondition" in err


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


def _forbid_routes(monkeypatch):
    """Fail the test if any route sieves a table or builds a basis."""

    def ran(*args, **kwargs):
        raise AssertionError("a route ran before the budget check")

    monkeypatch.setattr(ffvar.tables.ArithTables, "extend", ran)
    monkeypatch.setattr(ffvar.characters, "_structural_basis", ran)


def test_variance_refuses_past_the_unit_budget_before_sieving(monkeypatch, capsys):
    # F_2 N=25 h=1: the basis and transform mod t^24 put the cell past the
    # 1 GiB default (the direct route alone would fit); the refusal comes
    # before the sieve extends any table and before any basis is built
    need = ffvar.variance.cell_bytes(make_field(2), 25, 1)
    assert ffvar.variance.cell_bytes(make_field(2), 25, 1, "direct") < 1 << 30 < need
    _forbid_routes(monkeypatch)
    assert main(["variance", "--N", "25", "--h", "1"]) == EXIT_BUDGET
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"budget: cell N=25 h=1 needs {need} bytes, over the budget of {1 << 30}\n"


@pytest.mark.parametrize("command", ["variance", "sweep"])
def test_grid_refuses_its_last_cell_before_any_route(monkeypatch, capsys, command):
    # every cell's estimate is checked first: one byte short for the last
    # cell stops the grid with nothing sieved, built or written
    need = ffvar.variance.cell_bytes(make_field(2), 12, 2)
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


def test_cache_build_and_check(tmp_path, capsys):
    assert main(["cache", "--maxdeg", "7", "--cache-dir", str(tmp_path)]) == EXIT_OK
    path = tmp_path / "ffsieve_p2_k1.txt"
    assert path.exists()
    assert main(["cache", "--maxdeg", "7", "--cache-dir", str(tmp_path), "--check"]) == EXIT_OK
    capsys.readouterr()
    # duplicate the first degree-1 entry: ordering is violated on line 3
    lines = path.read_text().splitlines()
    lines[2] = lines[1]
    path.write_text("\n".join(lines) + "\n")
    assert main(["cache", "--maxdeg", "7", "--cache-dir", str(tmp_path), "--check"]) == EXIT_FAILURE
    assert ":3:" in capsys.readouterr().err


def test_cache_env_var_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("FFVAR_CACHE_DIR", str(tmp_path))
    assert main(["cache", "--maxdeg", "4"]) == EXIT_OK
    assert (tmp_path / "ffsieve_p2_k1.txt").exists()


def test_cache_check_catches_wrong_counts(tmp_path, capsys):
    assert main(["cache", "--maxdeg", "5", "--cache-dir", str(tmp_path)]) == EXIT_OK
    path = tmp_path / "ffsieve_p2_k1.txt"
    # drop the last irreducible but keep the file structurally valid
    lines = path.read_text().splitlines()
    body = lines[1:-1]
    body = body[:-1]
    head = lines[0].replace(f"count={len(body) + 1}", f"count={len(body)}")
    path.write_text("\n".join([head] + body + [f"END {len(body)}"]) + "\n")
    assert main(["cache", "--maxdeg", "5", "--cache-dir", str(tmp_path), "--check"]) == EXIT_FAILURE


def test_cache_for_extension_field(tmp_path):
    from ffvar.fields import make_field

    assert main(["cache", "--p", "2", "--k", "2", "--maxdeg", "4", "--cache-dir", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / cache_file_name(make_field(2, 2))).exists()


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
    ],
)
def test_verify_rejects_vacuous_settings(args, message, capsys):
    # below these the suites would print PASS on nothing checked
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


def test_verify_necklace_ignores_a_deeper_cache_file(tmp_path, capsys):
    # the line names the degrees n-max asks for, not those the file holds
    args = ["verify", "--suite", "necklace", "--n-max", "4", "--cache-dir"]
    assert main([*args, str(tmp_path / "fresh")]) == EXIT_OK
    fresh = capsys.readouterr().out
    assert fresh.endswith("up to degree 6\n")
    assert main(["cache", "--maxdeg", "12", "--cache-dir", str(tmp_path / "full")]) == EXIT_OK
    capsys.readouterr()
    assert main([*args, str(tmp_path / "full")]) == EXIT_OK
    assert capsys.readouterr().out == fresh


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

    def recorded(field, modulus, n, cfg):
        calls.append((cfg.seed, cfg.trials))
        return mvt_trial(field, modulus, n, cfg)

    monkeypatch.setattr(ffvar.bounds, "mvt_trial", recorded)
    args = ["verify", "--suite", "mvt", "--n-max", "2", "--trials", str(trials), "--seed", "5"]
    assert main(args) == EXIT_OK
    assert calls == [(5 + i, n) for i, n in enumerate(split) if n]
    assert capsys.readouterr().out.startswith(f"PASS mvt[q=2]: {trials} trials pass (")


def test_verify_mvt_past_budget_exits_four(capsys):
    # F_16 with n-max 6 draws q^8 = 2^32 coefficients at 64 bytes each, past
    # the 1 GiB default
    rc = main(["verify", "--p", "2", "--k", "4", "--suite", "mvt", "--n-max", "6"])
    assert rc == EXIT_BUDGET
    assert capsys.readouterr().err == (
        f"budget: mvt draws of {16**8} coefficients needs {64 * 16**8} bytes, "
        f"over the budget of {1 << 30}\n"
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
    product = _row_mul(fld, a, b)
    assert product.shape == (300, 9) and product.dtype == np.uint8
    for i in range(300):
        x, y = from_coeffs(fld, a[i].tolist()), from_coeffs(fld, b[i].tolist())
        assert from_coeffs(fld, product[i].tolist()) == x * y
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
        out = _row_mul(field, a, b)
        if not calls:
            pair.extend(from_coeffs(fld, rows[bad].tolist()) for rows in (a, b))
            out[bad, 0] = field.add_table[out[bad, 0], 1]
        calls.append(1)
        return out

    monkeypatch.setattr(ffvar.cli, "_row_mul", corrupted)
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
    monkeypatch.delenv("FFVAR_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_OK
    if argv == ["verify"]:  # every suite, each on q=2 and q=3 unless global
        lines = capsys.readouterr().out.splitlines()
        assert all(ln.startswith("PASS ") for ln in lines)
        assert {ln.split()[1].split("[")[0].rstrip(":") for ln in lines} == set(SUITES)


def test_cache_dir_defaults_to_the_environment(monkeypatch):
    monkeypatch.setenv("FFVAR_CACHE_DIR", "from-env")
    for command in (["verify"], ["cache"]):
        assert build_parser().parse_args(command).cache_dir == "from-env"
        assert build_parser().parse_args([*command, "--cache-dir", "x"]).cache_dir == "x"
    monkeypatch.delenv("FFVAR_CACHE_DIR")
    assert build_parser().parse_args(["verify"]).cache_dir is None


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
