"""Golden-output gate: compares a command's exit code and stdout with the
output stored for the same command at the commit that defined the benchmark.

* variance CSV: header, row count and exact columns (``variance_direct`` is an
  exact Fraction) byte for byte; float columns within ``REL_TOL`` relative.
  ``abs_gap`` is a rounding residue, so it is compared against the row's
  variance scale ``max(1, |variance_direct|)`` instead of itself.
* verify: every line must be a ``PASS`` line equal to the golden line.
* charsums: one ``pass`` report per expected (Q, N), ``rhs`` exact, ``lhs``
  within ``REL_TOL`` of the golden value (floor: ``rhs``).

Every command must exit 0.  ``python3 perfbench/checker.py`` runs the
self-test: perturbed outputs must each be refused.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import CHARSUMS_N_MAX, Command, charsums_command, golden_pool

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-9
FLOAT_COLUMNS = {"variance_char", "abs_gap", "theorem_ratio"}


def _close(got: str, want: str, floor: float) -> bool:
    if not got or not want:
        return got == want
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), floor)


def _check_csv(out: str, golden: str) -> str | None:
    got, want = out.splitlines(), golden.splitlines()
    if got[:1] != want[:1]:
        return f"header {got[:1]} differs from golden {want[:1]}"
    if len(got) != len(want):
        return f"{len(got) - 1} rows, golden has {len(want) - 1}"
    header = want[0].split(",")
    for i, (line, gline) in enumerate(zip(got[1:], want[1:]), start=1):
        cells, gcells = line.split(","), gline.split(",")
        if len(cells) != len(header):
            return f"row {i} has {len(cells)} cells, expected {len(header)}"
        row = dict(zip(header, gcells))
        scale = max(1.0, abs(float(row["variance_direct"] or 0)))
        for col, cell, gcell in zip(header, cells, gcells):
            if col in FLOAT_COLUMNS:
                ok = _close(cell, gcell, scale if col == "abs_gap" else 0.0)
            else:
                ok = cell == gcell
            if not ok:
                return f"row {i} {col}={cell!r}, golden {gcell!r}"
    return None


def _check_verify(out: str, golden: str) -> str | None:
    got, want = out.splitlines(), golden.splitlines()
    for line in got:
        if not line.startswith("PASS "):
            return f"suite did not pass: {line!r}"
    if len(got) != len(want):
        return f"{len(got)} suite lines, golden has {len(want)}"
    for line, gline in zip(got, want):
        if line != gline:
            return f"{line!r} differs from golden {gline!r}"
    return None


def _charsums_expected(cmd: Command) -> list[tuple[str, str]]:
    args = dict(zip(cmd.args[::2], cmd.args[1::2]))
    return [
        (modulus, str(n))
        for modulus in args["--moduli"].split(",")
        for n in range(1, CHARSUMS_N_MAX + 1)
    ]


class Golden:
    """Stored outputs of every command in ``workloads.golden_pool()``."""

    def __init__(self):
        self.texts: dict[str, str] = {}
        for name in ("variance.json", "verify.json"):
            self.texts.update(json.loads((GOLDEN_DIR / name).read_text()))
        self.reports: dict[tuple[str, str], list[str]] = {}
        for line in (GOLDEN_DIR / "charsums.txt").read_text().splitlines():
            modulus, n, *rest = line.split()
            self.reports[(modulus, n)] = rest

    def check(self, cmd: Command, returncode: int, out: str) -> str | None:
        """None when the output matches the golden one, else the reason."""
        if returncode != 0:
            return f"exit code {returncode}"
        if cmd.kind == "charsums":
            return self._check_charsums(cmd, out)
        golden = self.texts.get(cmd.key)
        if golden is None:
            return "no golden output for this command"
        if cmd.kind == "variance":
            return _check_csv(out, golden)
        return _check_verify(out, golden)

    def _check_charsums(self, cmd: Command, out: str) -> str | None:
        expected = _charsums_expected(cmd)
        lines = out.splitlines()
        if len(lines) != len(expected):
            return f"{len(lines)} reports, expected {len(expected)}"
        for line, key in zip(lines, expected):
            parts = line.split()
            if len(parts) != 5 or tuple(parts[:2]) != key:
                return f"report {line!r} where {' '.join(key)} was expected"
            golden = self.reports.get(key)
            if golden is None:
                return f"no golden report for {' '.join(key)}"
            lhs, rhs, verdict = parts[2:]
            glhs, grhs, gverdict = golden
            if verdict != "pass" or gverdict != "pass":
                return f"report {line!r} did not pass"
            if rhs != grhs or not _close(lhs, glhs, float(grhs)):
                return f"report {line!r} differs from golden {glhs} {grhs}"
        return None

    def charsums_output(self, moduli: list[str]) -> str:
        return "".join(
            f"{m} {n} {' '.join(self.reports[(m, str(n))])}\n"
            for m in moduli
            for n in range(1, CHARSUMS_N_MAX + 1)
        )


def _alter_direct_digit(csv: str) -> str:
    lines = csv.splitlines()
    cells = lines[1].split(",")
    col = lines[0].split(",").index("variance_direct")
    last = cells[col][-1]
    cells[col] = cells[col][:-1] + str((int(last) + 1) % 10)
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def self_test(golden: Golden) -> list[str]:
    """Names of the cases the checker got wrong: the stored outputs must
    pass, and each perturbation of them must be refused."""
    pool = golden_pool()
    var = next(c for c in pool if c.kind == "variance")
    ver = next(c for c in pool if c.kind == "verify")
    small = charsums_command([(4, 0), (5, 7)])
    var_out, ver_out = golden.texts[var.key], golden.texts[ver.key]
    sums_out = golden.charsums_output(["4:0", "5:7"])
    cases = [
        ("golden variance", var, 0, var_out, True),
        ("golden verify", ver, 0, ver_out, True),
        ("golden charsums", small, 0, sums_out, True),
        ("altered variance_direct digit", var, 0, _alter_direct_digit(var_out), False),
        ("dropped variance row", var, 0, var_out.rsplit("\n", 2)[0] + "\n", False),
        ("FAIL line in verify", ver, 0, ver_out.replace("PASS ", "FAIL ", 1), False),
        ("dropped charsums report", small, 0, sums_out.split("\n", 1)[1], False),
        ("FAIL charsums report", small, 0, sums_out.replace(" pass", " FAIL", 1), False),
        ("nonzero exit", var, 3, var_out, False),
    ]
    return [
        name
        for name, cmd, rc, out, should_pass in cases
        if (golden.check(cmd, rc, out) is None) != should_pass
    ]


if __name__ == "__main__":
    wrong = self_test(Golden())
    for name in wrong:
        print(f"checker self-test: mishandled case {name!r}", file=sys.stderr)
    print("checker self-test: " + ("FAILED" if wrong else "all perturbations refused"))
    sys.exit(1 if wrong else 0)
