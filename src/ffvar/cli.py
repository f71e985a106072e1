"""Command-line front end: variance runs, verification suites, parameter
sweeps, and a check of the sieve's irreducible counts.

build_parser is the one home of every option and its default; each command
reads the parsed namespace. Exit codes are the machine contract: main() maps
exceptions to them through ERROR_EXITS alone (the README tabulates them).
Identical configurations (including seeds) produce byte-identical CSV/JSON.

main(argv) is the in-process API and leaves the garbage collector as it found
it. run() is the process entry of both the `ffvar` console script and
`python -m ffvar.cli`: it returns main()'s exit code and then freezes the
garbage collector's heap, so that the interpreter's collections at exit skip
the objects numpy and ffvar created at import.
"""

from __future__ import annotations

import argparse
import gc
import sys
from contextlib import nullcontext
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import arith, bounds, characters, variance
from .errors import DEFAULT_BUDGET, BudgetError, PreconditionError
from .errors import budget, check_budget
from .fields import FieldSpec, make_field, verify_field_axioms
from .polys import from_coeffs, monic_from_index, t_power
from .tables import ResidueRing, get_tables, row_mul, table_bytes

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PRECONDITION = 2
EXIT_GAP = 3
EXIT_BUDGET = 4

RNG_DESCRIPTION = "numpy-default-rng"
DEFAULT_TOLERANCE = 1e-6  # variance --tolerance, and sweep's gap check
BUDGET_HELP = "memory budget in bytes (default %(default)s); past it, exit 4"

# exception -> (stderr prefix, exit code) for every command; first match wins
ERROR_EXITS = (
    (BudgetError, "budget", EXIT_BUDGET),
    (MemoryError, "budget: out of memory", EXIT_BUDGET),
    (PreconditionError, "precondition", EXIT_PRECONDITION),
    (OSError, "io", EXIT_FAILURE),
)


def _parse_range(text: str) -> range:
    """'3' -> range(3, 4); '3:8' -> range(3, 9), 3..8 inclusive."""
    lo, colon, hi = text.partition(":")
    try:
        return range(int(lo), int(hi if colon else lo) + 1)
    except ValueError as exc:
        raise PreconditionError(f"bad range syntax ({exc})")


def _grid(n_values: range, h_values: range, room: int) -> tuple[range, Callable[[int], range]]:
    """The N of an (N, h) grid with a cell h <= N - room, and the h of one such
    N: ranges clipped by arithmetic, so no list grows with the flags' ranges."""
    ns = range(max(n_values.start, h_values.start + room), n_values.stop)
    return ns if h_values else range(0), lambda n: h_values[: n - room + 1 - h_values.start]


def _reports(fld: FieldSpec, f: str, mode: str, ns: range,
             hs: Callable[[int], range]) -> list[variance.VarianceReport]:
    """The reports of every cell of the grid, each cell's estimate checked
    against the budget before the first route runs."""
    for n in ns:
        for h in hs(n):
            check_budget(variance.cell_bytes(fld, f, n, h, mode), "cell N={} h={}", n, h)
    return [rep for n in ns for rep in variance.variance_reports(fld, f, n, hs(n), mode=mode)]


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
        import json  # loaded only here: most commands never write JSON

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
    if not np.isfinite(args.tolerance) or args.tolerance <= 0:  # gap > nan is never true
        raise PreconditionError("tolerance must be finite and > 0")
    room = 2 if args.mode == "character" else 1
    ns, hs = _grid(n_values, range(max(h_values.start, 0), h_values.stop), room)
    if not ns:
        need = "0 <= h <= N-2" if args.mode == "character" else "0 <= h < N"
        raise PreconditionError(f"no feasible (N, h) pairs in the grid (need {need})")
    reports = _reports(fld, args.function, args.mode, ns, hs)
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
    return _gap_exit(reports, args.tolerance)


def _gap_exit(reports: Sequence[variance.VarianceReport], tolerance: float) -> int:
    """EXIT_GAP, after a `gap failure` line on stderr, at the first report
    whose two routes differ by more than tolerance * max(1, |direct|); a
    report with one route has no gap. EXIT_OK if none does."""
    for rep in reports:
        gap = rep.abs_gap
        if gap is not None and gap > tolerance * max(1.0, abs(float(rep.direct))):
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
    ns, hs = _grid(n_values, h_values, 1)
    if not ns:
        raise PreconditionError("empty sweep grid")
    if h_values.start < 1:  # the first h of every row
        raise PreconditionError("sweep grid needs h >= 1")

    def one(rep: variance.VarianceReport):
        n, h = rep.n, rep.h
        bound = bounds.theorem_rhs(fld.q, n, h)
        largepf = smoothpf = None
        if rep.charside is not None:
            largepf, smoothpf = (r.ratio for r in bounds.window_sum_reports(fld, n, n, h))
        ratio = float(rep.direct) / bound
        return (fld.q, n, h, rep.direct, rep.charside, bound, ratio, largepf, smoothpf)

    reports = _reports(fld, "liouville", "both", ns, hs)
    rows = [one(rep) for rep in reports]
    _write_rows(args, SWEEP_HEADER, rows)
    best = max(rows, key=lambda r: r[6])
    where = f"(q={best[0]}, N={best[1]}, h={best[2]})"
    print(
        f"sweep: {len(rows)} rows"
        + (f" -> {args.out}" if args.out else "")
        + f"; max theorem ratio {best[6]!r} at {where}",
        file=sys.stderr if args.out is None else sys.stdout,
    )
    return _gap_exit(reports, DEFAULT_TOLERANCE)


def cmd_cache(args: argparse.Namespace) -> int:
    """Sieve to --maxdeg and count the irreducibles; with --check, each
    degree's count must equal the necklace formula. Writes no file."""
    fld = make_field(args.p, args.k)
    if args.max_degree < 1:
        raise PreconditionError("--maxdeg must be >= 1")
    irreducibles = get_tables(fld, args.max_degree).irreducibles[1 : args.max_degree + 1]
    counts = [len(ups) for ups in irreducibles]
    for d, got in enumerate(counts if args.check else (), start=1):
        if got != (expected := arith.pi_q(fld, d)):
            print(
                f"count mismatch at degree {d}: sieve has {got}, necklace formula gives {expected}",
                file=sys.stderr,
            )
            return EXIT_FAILURE
    checked = "; each degree's count equals the necklace formula" if args.check else ""
    print(f"q={fld.q}: {sum(counts)} irreducibles up to degree {args.max_degree}{checked}")
    return EXIT_OK


# -- verification suites


def _small_fields(fld: FieldSpec) -> list[FieldSpec]:
    """F_2, F_3, F_4 and the field verify was given, ascending by q."""
    fields = {f.q: f for f in (make_field(2), make_field(3), make_field(2, 2), fld)}
    return [fields[q] for q in sorted(fields)]


def _suite_fields(args: argparse.Namespace, fld: FieldSpec):
    fields = _small_fields(fld)
    for f in fields:
        verify_field_axioms(f)
    return f"axioms hold for q in {[f.q for f in fields]}"


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


def involution_bytes(fld: FieldSpec, n: int) -> int:
    """Peak bytes of the involution suite to degree n: the tables; per monic
    of degree n, its uint8 row and the starred one (2 (n+1)), then the
    larger of the star of the star with its comparison (2 (n+1)) and a
    starred mantissa with the column that builds it (16), and 2 for lambda;
    1 MiB for the random pairs."""
    row = n + 1
    return table_bytes(fld, n) + (2 * row + max(2 * row, 16) + 2) * fld.q**n + (1 << 20)


def _mantissas(fld: FieldSpec, rows: np.ndarray) -> np.ndarray:
    """Mantissas of the monic polynomials with uint8 coefficient rows `rows`
    (constant first), summed column by column, so that no int64 copy of the
    rows is made."""
    place = fld.q ** np.arange(rows.shape[1] - 1)
    mant = np.zeros(len(rows), np.int64)
    for j, worth in enumerate(place):
        mant += rows[:, j] * worth
    return mant


def _suite_involution(args: argparse.Namespace, fld: FieldSpec):
    # per degree, every monic F with F(0) != 0 at once, for each unit c: star
    # of c F made monic, starred back, must give F again, and lambda must
    # agree on the mantissas of F and of monic(star(c F))
    max_deg = min(args.n_max, 8)
    check_budget(involution_bytes(fld, max_deg), "involution pass to degree {}", max_deg)
    tables = get_tables(fld, max_deg)
    q, units = fld.q, np.arange(1, fld.q)
    # monic(star(c F)) = monic(star(F)) for all F and units c exactly when inv(c a) (c b)
    # = inv(a) b for units a, c and all b: checked once, so c = 1 stands for all q - 1
    mul, inv = fld.mul_table, fld.inv_table
    scaled = mul[inv[mul[units[:, None], units]][..., None], mul[units][:, None]]
    for c, a, b in np.argwhere(scaled != mul[inv[units]])[:1].tolist():  # the first (c, a, b)
        f = from_coeffs(fld, [a + 1, b, 1])
        raise AssertionError(f"monic(star({c + 1} F)) != monic(star(F)) at F = {f}")
    checked = q - 1  # the nonzero constants, each its own star
    for n in range(1, max_deg + 1):
        # F(0) = 0: star is not an involution there; the rest in mantissa order
        us = (np.arange(q ** (n - 1))[:, None] * q + np.arange(1, q)).ravel()
        coeffs = np.ones((len(us), n + 1), np.uint8)
        for j in range(n):
            coeffs[:, j] = us % q
            us //= q
        del us
        lam = tables.liouville_values(n)
        lam_f = lam.reshape(-1, q)[:, 1:].ravel()
        stars = _monic_star(fld, coeffs)
        for bad, what in (
            ((_monic_star(fld, stars) != coeffs).any(axis=1), "star(star(F)) != F"),
            (lam[_mantissas(fld, stars)] != lam_f, "lambda not star-symmetric"),
        ):
            if bad.any():
                f = from_coeffs(fld, coeffs[np.argmax(bad)].tolist())
                raise AssertionError(f"{what} at F = {f}")
        checked += (q - 1) * len(coeffs)
    # star(a b) = star(a) star(b) on random pairs of nonzero polynomials
    a, b = _random_rows(fld, np.random.default_rng(args.seed), (2, 2000), max_deg)
    lhs = _row_star(row_mul(fld, a, b))
    bad = (lhs != row_mul(fld, _row_star(a), _row_star(b))).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        x, y = (from_coeffs(fld, rows[i].tolist()) for rows in (a, b))
        raise AssertionError(f"star not multiplicative at ({x}, {y})")
    return f"involution/symmetry on {checked} polynomials + {len(bad)} random products"


def _suite_fullsum(args: argparse.Namespace, fld: FieldSpec):
    q = fld.q
    n_hi = min(args.n_max + 2, {2: 16, 3: 10}.get(q, 8))
    # the top degree's gate, before any degree is built
    check_budget(table_bytes(fld, n_hi), "sieve tables to degree {}", n_hi)
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
    # counts read off the sieve tables; --cache-dir is accepted but not read
    n_hi = min(args.n_max + 2, 10)
    for d, ups in enumerate(get_tables(fld, n_hi).irreducibles[1 : n_hi + 1], start=1):
        if len(ups) != arith.pi_q(fld, d):
            raise AssertionError(f"pi_q mismatch at q={fld.q}, degree {d}: sieve {len(ups)}")
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


# the largest Phi(t^m) the orthogonality suite checks: its Phi x Phi rotation
# numerators and their cancellation scratch take about 24 bytes an entry
ORTHOGONALITY_PHI = 1 << 11


def _suite_orthogonality(args: argparse.Namespace, fld: FieldSpec):
    fields = _small_fields(fld)
    checked = 0
    for f in fields:
        q = f.q
        for m in range(1, 5):
            phi = q ** (m - 1) * (q - 1)
            if phi > ORTHOGONALITY_PHI:
                break
            basis = characters.unit_group_basis(f, t_power(f, m))
            if basis.phi != phi:
                raise AssertionError(f"phi(t^{m}) wrong for q={q}")
            # the grid is the ring's: 1 at the origin, and a step along a
            # generator's axis is a product by that generator
            grid, ring = basis.unit_codes.reshape(basis.orders), ResidueRing(f, basis.modulus)
            products = (ring.mul(basis.unit_codes, g) for g in basis.generators)
            shifted = (np.roll(grid, -1, axis).ravel() for axis in range(grid.ndim))
            if grid.flat[0] != 1 or not all(map(np.array_equal, products, shifted)):
                raise AssertionError(f"unit grid is not the ring's at q={q}, m={m}")
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
    return f"exact cancellation for {checked} characters, q in {[f.q for f in fields]}"


@cache
def _window_cell(fld: FieldSpec, n: int, h: int) -> tuple[str | None, int, Fraction]:
    """ramare's first defect (or None) and case count, and decomposition's worst
    defect, from one window_defects pass: memoized until cmd_verify returns."""
    check = variance.window_defects(fld, n, h)
    fault = None
    for u in np.flatnonzero(check.ramare)[:1].tolist():  # the first defect, if any
        defect = Fraction(int(check.ramare[u]), check.denominator)
        g = monic_from_index(fld, n, u)
        fault = f"recombination defect {defect} at q={fld.q} G={g} h={h} n={n}"
    worst = Fraction(int(np.abs(check.decomposition).max()), check.denominator)
    return fault, int(np.count_nonzero(~check.skipped)), worst


def _suite_ramare(args: argparse.Namespace, fld: FieldSpec):
    n_hi = min(args.n_max, 8)
    checked = 0
    for n in range(n_hi, 1, -1):  # the largest cell first: its gate refuses before any pairs
        for h in range(1, n):
            fault, cases, _ = _window_cell(fld, n, h)
            if fault is not None:
                raise AssertionError(fault)
            checked += cases
    return f"defect 0 on {checked} (G, h) cases, n <= {n_hi}"


def _suite_decomposition(args: argparse.Namespace, fld: FieldSpec):
    n_hi = min(args.n_max, 8 if fld.q == 2 else 6)
    for n in range(n_hi, 1, -1):  # the largest cell first, as in ramare
        for h in range(1, n):
            worst = _window_cell(fld, n, h)[2]
            if worst != 0:
                raise AssertionError(f"decomposition defect {worst} at q={fld.q} n={n} h={h}")
    return f"max defect 0 for q={fld.q}, n <= {n_hi}, all h"


def _suite_mvt(args: argparse.Namespace, fld: FieldSpec):
    moduli = [
        t_power(fld, 2),
        t_power(fld, 3),
        t_power(fld, 4),
        from_coeffs(fld, (1, 1, 1)),
        from_coeffs(fld, (0, 1, int(fld.add_table[1, 1]), 1)),  # t (t + 1)^2
    ]
    count = 0
    worst = 0.0
    for i, modulus in enumerate(moduli):
        # --trials split over the moduli, the first trials % 5 taking one more
        trials = args.trials // len(moduli) + (i < args.trials % len(moduli))
        if trials == 0:
            continue
        n = min(args.n_max + 2, 8)
        distribution = "signs" if i % 2 == 0 else "phases"
        for rep in bounds.mvt_trial(
            fld, modulus, n, seed=args.seed + i, trials=trials, distribution=distribution
        ):
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
    if args.seed < 0:  # numpy refuses it, after the first suites have printed
        raise PreconditionError(f"verify needs --seed >= 0; got {args.seed}")
    if (args.p, args.k) == (2, 1) and not args.suite:
        fields = [make_field(2, 1), make_field(3, 1)]
    else:
        fields = [make_field(args.p, args.k)]
    names = [args.suite] if args.suite else list(SUITES)
    failures = 0
    try:
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
    finally:
        _window_cell.cache_clear()
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

    sp = sub.add_parser("variance", help="compute interval variance one or both ways")
    add_field_args(sp)
    sp.add_argument("--N", required=True, help="degree or inclusive range a:b")
    sp.add_argument("--h", required=True, help="interval parameter or range a:b")
    sp.add_argument("--function", default="liouville", choices=sorted(variance.FUNCTIONS))
    sp.add_argument("--mode", default="both", choices=variance.MODES)
    sp.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    add_rows_args(sp)
    sp.set_defaults(run=cmd_variance)

    sp = sub.add_parser("verify", help="run the exact-identity verification suites")
    add_field_args(sp)
    sp.add_argument("--suite", help="run a single suite by name")
    sp.add_argument("--n-max", type=int, default=6)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--cache-dir", help="accepted and not read")
    sp.add_argument(
        "--self-test-fault",
        action="store_true",
        help="inject one flipped lambda value to prove the harness can fail",
    )
    sp.set_defaults(run=cmd_verify)

    sp = sub.add_parser("sweep", help="theorem-ratio sweep over an (N, h) grid")
    add_field_args(sp)
    sp.add_argument("--N", required=True, help="degree range a:b")
    sp.add_argument("--h", required=True, help="interval range a:b (h >= 1)")
    add_rows_args(sp)
    sp.set_defaults(run=cmd_sweep)

    sp = sub.add_parser("cache", help="count the sieve's irreducibles up to --maxdeg")
    add_field_args(sp)
    sp.add_argument("--maxdeg", dest="max_degree", type=int, default=8)
    sp.add_argument("--check", action="store_true", help="validate counts against pi_q")
    add_budget(sp)
    sp.set_defaults(run=cmd_cache)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # --budget holds for the whole command; verify runs at the one in force
    limit = budget(args.budget) if "budget" in args else nullcontext()
    try:
        with limit:
            return args.run(args)
    except Exception as exc:
        for kind, prefix, code in ERROR_EXITS:
            if isinstance(exc, kind):
                print(f"{prefix}: {exc}" if str(exc) else prefix, file=sys.stderr)
                return code
        raise


def run() -> int:
    """main() on the process's arguments, for a process that exits when it
    returns. Freezing the heap spares it the full collections the interpreter
    runs at exit over everything imported (10-20 ms a command); what they
    would have collected is freed with the process."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
