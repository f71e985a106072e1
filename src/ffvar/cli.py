"""Command-line front end: variance runs, verification suites, parameter
sweeps, and sieve-cache management.

build_parser is the one home of every option and its default; each command
reads the parsed namespace. Exit codes are the machine contract: main() maps
exceptions to them through ERROR_EXITS alone (the README tabulates them).
Identical configurations (including seeds) produce byte-identical CSV/JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import arith, bounds, characters, variance
from .errors import DEFAULT_BUDGET, BudgetError, IrreducibleCacheError, PreconditionError
from .errors import check_budget
from .fields import FieldSpec, make_field, verify_field_axioms
from .polys import from_coeffs, monic_from_index, t_power
from .tables import get_tables

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PRECONDITION = 2
EXIT_GAP = 3
EXIT_BUDGET = 4

RNG_DESCRIPTION = "numpy-default-rng"
BUDGET_HELP = "memory budget in bytes (default %(default)s); past it, exit 4"

# exception -> (stderr prefix, exit code) for every command; first match wins
ERROR_EXITS = (
    (BudgetError, "budget", EXIT_BUDGET),
    (MemoryError, "budget: out of memory", EXIT_BUDGET),
    (PreconditionError, "precondition", EXIT_PRECONDITION),
    (IrreducibleCacheError, "corrupt cache", EXIT_FAILURE),
    (OSError, "io", EXIT_FAILURE),
)


def _parse_range(text: str) -> tuple[int, ...]:
    """'3' -> (3,); '3:8' -> (3,...,8) inclusive."""
    lo, colon, hi = text.partition(":")
    try:
        return tuple(range(int(lo), int(hi if colon else lo) + 1))
    except ValueError as exc:
        raise PreconditionError(f"bad range syntax ({exc})")


def _csv_cell(x: Fraction | float | int | str | None) -> str:
    if x is None:
        return ""
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else repr(float(x))
    if isinstance(x, (int, str)):
        return str(x)
    return repr(float(x))


def _json_cell(x: Fraction | float | int | str | None):
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else float(x)
    return x


def _write_rows(args: argparse.Namespace, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """The rows as CSV or JSON (--format), to --out or else to stdout."""
    if args.format == "csv":
        text = "".join(",".join(map(_csv_cell, row)) + "\n" for row in [header, *rows])
    else:
        objs = [{key: _json_cell(v) for key, v in zip(header, row)} for row in rows]
        text = json.dumps(objs, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)


VARIANCE_HEADER = (
    "q",
    "N",
    "h",
    "function",
    "variance_direct",
    "variance_char",
    "abs_gap",
    "theorem_ratio",
)


def cmd_variance(args: argparse.Namespace) -> int:
    n_values, h_values = _parse_range(args.N), _parse_range(args.h)
    fld = make_field(args.p, args.k)
    for flag, text, values in (("--N", args.N, n_values), ("--h", args.h, h_values)):
        if not values:
            raise PreconditionError(f"empty {flag} range {text}")
    if args.tolerance <= 0:
        raise PreconditionError("tolerance must be > 0")
    handle = variance.get_function(args.function)
    room = 2 if args.mode == "character" else 1
    pairs = [(n, h) for n in n_values for h in h_values if 0 <= h <= n - room]
    if not pairs:
        need = "0 <= h <= N-2" if args.mode == "character" else "0 <= h < N"
        raise PreconditionError(f"no feasible (N, h) pairs in the grid (need {need})")
    for n, h in pairs:  # every cell's estimate, before the first route runs
        check_budget(variance.cell_bytes(fld, n, h, args.mode), args.budget, "cell N={} h={}", n, h)
    reports = [
        variance.variance_report(fld, handle, n, h, budget=args.budget, mode=args.mode)
        for n, h in pairs
    ]
    rows = [
        (
            rep.q,
            rep.n,
            rep.h,
            rep.function,
            rep.direct,
            rep.charside,
            rep.abs_gap,
            rep.theorem_ratio,
        )
        for rep in reports
    ]
    _write_rows(args, VARIANCE_HEADER, rows)
    if args.mode == "both":
        for rep in reports:
            gap = rep.abs_gap
            if gap is None:
                continue
            scale = max(1.0, abs(float(rep.direct)))
            if gap > args.tolerance * scale:
                print(
                    f"gap failure: q={rep.q} N={rep.n} h={rep.h} f={rep.function} "
                    f"direct={float(rep.direct)!r} char={rep.charside!r} gap={gap!r}",
                    file=sys.stderr,
                )
                return EXIT_GAP
    return EXIT_OK


SWEEP_HEADER = (
    "q",
    "N",
    "h",
    "var_direct",
    "var_char",
    "bound_n5",
    "ratio",
    "largepf_ratio",
    "smoothpf_ratio",
)


def cmd_sweep(args: argparse.Namespace) -> int:
    n_values, h_values = _parse_range(args.N), _parse_range(args.h)
    fld = make_field(args.p, args.k)
    pairs = [(n, h) for n in sorted(n_values) for h in sorted(h_values) if h < n]
    if not pairs:
        raise PreconditionError("empty sweep grid")
    if any(h < 1 for _, h in pairs):
        raise PreconditionError("sweep grid needs h >= 1")
    for n, h in pairs:  # every cell's estimate, before the first route runs
        check_budget(variance.cell_bytes(fld, n, h), args.budget, "cell N={} h={}", n, h)

    def one(pair: tuple[int, int]):
        n, h = pair
        rep = variance.variance_report(fld, "liouville", n, h, budget=args.budget)
        bound = bounds.theorem_rhs(fld.q, n, h)
        largepf = smoothpf = None
        if rep.charside is not None:
            largepf = bounds.large_factor_sum_ratio(fld, n, n, h, budget=args.budget).ratio
            smoothpf = bounds.smooth_sum_ratio(fld, n, n, h, budget=args.budget).ratio
        ratio = float(rep.direct) / bound
        return (fld.q, n, h, rep.direct, rep.charside, bound, ratio, largepf, smoothpf)

    rows = [one(p) for p in pairs]
    _write_rows(args, SWEEP_HEADER, rows)
    best = max(rows, key=lambda r: r[6])
    where = f"(q={best[0]}, N={best[1]}, h={best[2]})"
    print(
        f"sweep: {len(rows)} rows"
        + (f" -> {args.out}" if args.out else "")
        + f"; max theorem ratio {best[6]!r} at {where}",
        file=sys.stderr if args.out is None else sys.stdout,
    )
    return EXIT_OK


def cmd_cache(args: argparse.Namespace) -> int:
    fld = make_field(args.p, args.k)
    cache_dir = args.cache_dir or "."
    path = Path(cache_dir) / arith.cache_file_name(fld)
    if args.check:
        cache = arith.load_cache(fld, path)
        for d in range(1, cache.max_degree + 1):
            expected = arith.pi_q(fld, d)
            got = len(cache.by_degree[d])
            if got != expected:
                print(
                    f"count mismatch at degree {d}: file has {got}, "
                    f"necklace formula gives {expected}",
                    file=sys.stderr,
                )
                return EXIT_FAILURE
        print(f"{path}: ok ({sum(len(x) for x in cache.by_degree)} irreducibles)")
        return EXIT_OK
    cache = arith.sieve_irreducibles(
        fld, args.max_degree, cache_dir=cache_dir, budget=args.budget
    )
    total = sum(len(x) for x in cache.by_degree)
    print(f"{path}: {total} irreducibles up to degree {cache.max_degree}")
    return EXIT_OK


# -- verification suites


def _suite_fields(args: argparse.Namespace, fld: FieldSpec):
    qs = sorted({fld.q, 2, 3, 4})
    for q in qs:
        p, k = (q, 1) if q != 4 else (2, 2)
        verify_field_axioms(make_field(p, k))
    return f"axioms hold for q in {qs}"


def _monic_star(fld: FieldSpec, coeffs: np.ndarray) -> np.ndarray:
    """Coefficient rows (constant first) of star(F) scaled to monic, for the
    rows of F's coefficients, each with a nonzero constant term."""
    rev = coeffs[:, ::-1]
    return fld.mul_table[fld.inv_table[rev[:, -1:]], rev]


def _row_star(coeffs: np.ndarray) -> np.ndarray:
    """Coefficient rows (constant first) of star(F) for nonzero rows F: each
    row reversed about its own degree, zero above it."""
    width = coeffs.shape[-1]
    deg = width - 1 - np.argmax(coeffs[..., ::-1] != 0, axis=-1)
    src = deg[..., None] - np.arange(width)
    return np.take_along_axis(coeffs, np.maximum(src, 0), axis=-1) * (src >= 0)


def _row_mul(fld: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient rows (constant first) of the products of rows a and b, both
    of width w: a schoolbook product through the field tables, each
    coefficient of a times all of b per lookup, width 2w - 1."""
    width = a.shape[-1]
    out = np.zeros((*a.shape[:-1], 2 * width - 1), dtype=np.uint8)
    for i in range(width):
        part = out[..., i : i + width]
        part[...] = fld.add_table[part, fld.mul_table[a[..., i : i + 1], b]]
    return out


def _random_rows(fld: FieldSpec, rng, shape: tuple[int, ...], max_deg: int) -> np.ndarray:
    """Coefficient rows (constant first) of random nonzero polynomials, shape
    (*shape, max_deg + 1). Each row's degree bound is uniform in 0..max_deg
    and its coefficients uniform in [0, q) up to the bound, zero above; all-zero
    rows are drawn again, bound and coefficients together."""
    rows = np.zeros((int(np.prod(shape)), max_deg + 1), dtype=np.uint8)
    redo = np.arange(len(rows))
    while redo.size:
        bound = rng.integers(0, max_deg + 1, size=redo.size)
        draw = rng.integers(0, fld.q, size=(redo.size, max_deg + 1), dtype=np.uint8)
        draw[np.arange(max_deg + 1) > bound[:, None]] = 0
        rows[redo] = draw
        redo = redo[~draw.any(axis=1)]
    return rows.reshape(*shape, max_deg + 1)


def _suite_involution(args: argparse.Namespace, fld: FieldSpec):
    # per degree, every monic F with F(0) != 0 at once, for each unit c: star
    # of c F made monic, starred back, must give F again, and lambda must
    # agree on the mantissas of F and of monic(star(c F))
    max_deg = min(args.n_max, 8)
    tables = get_tables(fld, max_deg)
    q = fld.q
    checked = q - 1  # the nonzero constants, each its own star
    for n in range(1, max_deg + 1):
        place = q ** np.arange(n + 1)
        us = np.arange(q**n)
        us = us[us % q != 0]  # F(0) = 0: star is not an involution there
        coeffs = (us + q**n)[:, None] // place % q
        lam = tables.liouville_values(n)
        for c in range(1, q):
            stars = _monic_star(fld, fld.mul_table[c][coeffs])
            for bad, what in (
                ((_monic_star(fld, stars) != coeffs).any(axis=1), "star(star(F)) != F"),
                (lam[stars @ place - q**n] != lam[us], "lambda not star-symmetric"),
            ):
                if bad.any():
                    f = monic_from_index(fld, n, int(us[np.argmax(bad)])).scale(c)
                    raise AssertionError(f"{what} at F = {f}")
            checked += len(us)
    # star(a b) = star(a) star(b) on random pairs of nonzero polynomials
    a, b = _random_rows(fld, np.random.default_rng(args.seed), (2, 2000), args.n_max)
    lhs = _row_star(_row_mul(fld, a, b))
    bad = (lhs != _row_mul(fld, _row_star(a), _row_star(b))).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        x, y = (from_coeffs(fld, rows[i].tolist()) for rows in (a, b))
        raise AssertionError(f"star not multiplicative at ({x}, {y})")
    return f"involution/symmetry on {checked} polynomials + {len(bad)} random products"


def _suite_fullsum(args: argparse.Namespace, fld: FieldSpec):
    q = fld.q
    n_hi = min(args.n_max + 2, {2: 16, 3: 10}.get(q, 8))
    for n in range(0, n_hi + 1):
        got, note = arith.liouville_full_sum(fld, n), ""
        if args.self_test_fault and n == n_hi:
            # injected fault: one lambda value flipped
            got -= 2 * int(get_tables(fld, n).liouville_values(n)[q**n - 1])
            note = f" (injected fault at G = {monic_from_index(fld, n, q**n - 1)})"
        expected = (-1) ** n * q ** ((n + 1) // 2)
        if got != expected:
            raise AssertionError(f"full sum q={q} n={n}: got {got}, expected {expected}{note}")
    return f"closed form matches for q={q}, n <= {n_hi}"


def _suite_necklace(args: argparse.Namespace, fld: FieldSpec):
    # a cache file may hold deeper degrees; only 1..n_hi are checked and reported
    n_hi = min(args.n_max + 2, 10)
    cache = arith.sieve_irreducibles(fld, n_hi, cache_dir=args.cache_dir)
    for d in range(1, n_hi + 1):
        if cache.count(d) != arith.pi_q(fld, d):
            raise AssertionError(f"pi_q mismatch at q={fld.q}, degree {d}: sieve {cache.count(d)}")
    return f"sieve counts equal necklace formula up to degree {n_hi}"


def _suite_smooth(args: argparse.Namespace, fld: FieldSpec):
    n_hi = min(args.n_max, 7)
    tables = get_tables(fld, n_hi)
    for n in range(1, n_hi + 1):
        for h in range(1, n + 1):
            brute = int(np.count_nonzero(tables.max_factor_degree[n] <= h))
            dp = arith.count_smooth_exact(fld, h, n)
            if brute != dp:
                raise AssertionError(
                    f"smooth count mismatch q={fld.q} h={h} N={n}: dp {dp}, brute {brute}"
                )
            main, crude = arith.smooth_asymptotic_ratio(fld, h, n)
            if not (np.isfinite(main) and np.isfinite(crude)):
                raise AssertionError(f"non-finite smooth ratio at q={fld.q} h={h} N={n}")
            if h == n and main != 1.0:
                raise AssertionError(f"h=N ratio must be exactly 1, got {main!r}")
    return f"DP equals enumeration for q={fld.q}, N <= {n_hi}, all h"


def _suite_orthogonality(args: argparse.Namespace, fld: FieldSpec):
    qs = sorted({fld.q, 2, 3, 4})
    checked = 0
    for q in qs:
        p, k = (q, 1) if q != 4 else (2, 2)
        f = make_field(p, k)
        for m in range(1, 5):
            basis = characters.unit_group_basis(f, t_power(f, m))
            if basis.phi != q ** (m - 1) * (q - 1):
                raise AssertionError(f"phi(t^{m}) wrong for q={q}")
            R = characters.character_rotation_matrix(
                basis, characters.enumerate_characters(basis)
            )
            # the even rows, read off R: numerator 0 at every constant 1..q-1;
            # there are q^(m-1) of them, and they are the prefix count_even names
            even = np.flatnonzero(~R[:, basis.unit_index(np.arange(1, q))].any(axis=1))
            prefix = np.arange(characters.count_even(basis))
            if len(even) != q ** (m - 1) or not np.array_equal(even, prefix):
                raise AssertionError(f"even count wrong for q={q}, m={m}")
            # every row sum cancels but the trivial character's
            cancels = characters.rotation_rows_cancel(R, basis.exponent)
            bad = cancels != (np.arange(basis.phi) != 0)
            if bad.any():
                raise AssertionError(
                    f"character orthogonality broken at q={q}, m={m}, "
                    f"index {int(np.argmax(bad))}"
                )
            checked += basis.phi
    return f"exact cancellation for {checked} characters, q in {qs}"


def _suite_ramare(args: argparse.Namespace, fld: FieldSpec):
    n_hi = min(args.n_max, 8)
    checked = 0
    for n in range(n_hi, 1, -1):  # the largest cell first: its gate refuses before any pairs
        for h in range(1, n):
            check = variance.window_defects(fld, n, h)
            bad = np.flatnonzero(check.ramare)
            if bad.size:
                u = int(bad[0])
                defect = Fraction(int(check.ramare[u]), check.denominator)
                raise AssertionError(
                    f"recombination defect {defect} at q={fld.q} "
                    f"G={monic_from_index(fld, n, u)} h={h} n={n}"
                )
            checked += int(np.count_nonzero(~check.skipped))
    return f"defect 0 on {checked} (G, h) cases, n <= {n_hi}"


def _suite_decomposition(args: argparse.Namespace, fld: FieldSpec):
    n_hi = min(args.n_max, 8 if fld.q == 2 else 6)
    for n in range(n_hi, 1, -1):  # the largest cell first, as in ramare
        for h in range(1, n):
            worst = variance.decomposition_check(fld, n, h)
            if worst != 0:
                raise AssertionError(
                    f"decomposition defect {worst} at q={fld.q} n={n} h={h}"
                )
    return f"max defect 0 for q={fld.q}, n <= {n_hi}, all h"


def _suite_mvt(args: argparse.Namespace, fld: FieldSpec):
    moduli = [
        t_power(fld, 2),
        t_power(fld, 3),
        t_power(fld, 4),
        from_coeffs(fld, (1, 1, 1)),
        from_coeffs(fld, (0, 1)) * from_coeffs(fld, (1, 1)) ** 2,
    ]
    count = 0
    worst = 0.0
    for i, modulus in enumerate(moduli):
        # --trials split over the moduli, the first trials % 5 taking one more
        trials = args.trials // len(moduli) + (i < args.trials % len(moduli))
        if trials == 0:
            continue
        n = min(args.n_max + 2, 8)
        trial_cfg = bounds.TrialConfig(
            seed=args.seed + i, trials=trials, distribution="signs" if i % 2 == 0 else "phases"
        )
        for rep in bounds.mvt_trial(fld, modulus, n, trial_cfg):
            if not rep.passed:
                raise AssertionError("mean value theorem violated: " + rep.summary())
            worst = max(worst, rep.ratio)
            count += 1
    return (
        f"{count} trials pass (max ratio {worst:.4f}; rng={RNG_DESCRIPTION} "
        f"seed={args.seed})"
    )


SUITES: dict[str, Callable[[argparse.Namespace, FieldSpec], str]] = {
    "fields": _suite_fields,
    "involution": _suite_involution,
    "fullsum": _suite_fullsum,
    "necklace": _suite_necklace,
    "smooth": _suite_smooth,
    "orthogonality": _suite_orthogonality,
    "ramare": _suite_ramare,
    "decomposition": _suite_decomposition,
    "mvt": _suite_mvt,
}

# suites that already span several q internally; run once, not per field
_GLOBAL_SUITES = {"fields", "orthogonality"}


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite is not None and args.suite not in SUITES:
        raise PreconditionError(
            f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}"
        )
    # below these every suite would still print PASS, on nothing checked
    if args.n_max < 2:
        raise PreconditionError(f"verify needs --n-max >= 2; got {args.n_max}")
    if args.trials < 1:
        raise PreconditionError(f"verify needs --trials >= 1; got {args.trials}")
    if (args.p, args.k) == (2, 1) and not args.suite:
        fields = [make_field(2, 1), make_field(3, 1)]
    else:
        fields = [make_field(args.p, args.k)]
    names = [args.suite] if args.suite else list(SUITES)
    failures = 0
    for name in names:
        fn = SUITES[name]
        targets = fields[:1] if name in _GLOBAL_SUITES else fields
        for fld in targets:
            label = f"{name}[q={fld.q}]" if name not in _GLOBAL_SUITES else name
            try:
                detail = fn(args, fld)
                print(f"PASS {label}: {detail}")
            except AssertionError as exc:
                print(f"FAIL {label}: {exc}")
                failures += 1
    return EXIT_FAILURE if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffvar",
        description="Variance of the Liouville function in short intervals of F_q[t]",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field_args(sp):
        sp.add_argument("--p", type=int, default=2, help="field characteristic")
        sp.add_argument("--k", type=int, default=1, help="extension degree (q = p^k)")

    def add_budget(sp):
        sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=BUDGET_HELP)

    def add_rows_args(sp):
        sp.add_argument("--out")
        sp.add_argument("--format", default="csv", choices=["csv", "json"])
        add_budget(sp)

    def add_cache_dir(sp):
        sp.add_argument("--cache-dir", default=os.environ.get("FFVAR_CACHE_DIR"))

    sp = sub.add_parser("variance", help="compute interval variance one or both ways")
    add_field_args(sp)
    sp.add_argument("--N", required=True, help="degree or inclusive range a:b")
    sp.add_argument("--h", required=True, help="interval parameter or range a:b")
    sp.add_argument("--function", default="liouville", choices=sorted(variance.FUNCTIONS))
    sp.add_argument("--mode", default="both", choices=variance.MODES)
    sp.add_argument("--tolerance", type=float, default=1e-6)
    add_rows_args(sp)

    sp = sub.add_parser("verify", help="run the exact-identity verification suites")
    add_field_args(sp)
    sp.add_argument("--suite", help="run a single suite by name")
    sp.add_argument("--n-max", type=int, default=6)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=100)
    add_cache_dir(sp)
    sp.add_argument(
        "--self-test-fault",
        action="store_true",
        help="inject one flipped lambda value to prove the harness can fail",
    )

    sp = sub.add_parser("sweep", help="theorem-ratio sweep over an (N, h) grid")
    add_field_args(sp)
    sp.add_argument("--N", required=True, help="degree range a:b")
    sp.add_argument("--h", required=True, help="interval range a:b (h >= 1)")
    add_rows_args(sp)

    sp = sub.add_parser("cache", help="build or validate the irreducible sieve file")
    add_field_args(sp)
    sp.add_argument("--maxdeg", dest="max_degree", type=int, default=8)
    add_cache_dir(sp)
    sp.add_argument("--check", action="store_true", help="validate counts against pi_q")
    add_budget(sp)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "variance": cmd_variance,
        "verify": cmd_verify,
        "sweep": cmd_sweep,
        "cache": cmd_cache,
    }
    try:
        return commands[args.command](args)
    except Exception as exc:
        for kind, prefix, code in ERROR_EXITS:
            if isinstance(exc, kind):
                print(f"{prefix}: {exc}" if str(exc) else prefix, file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
