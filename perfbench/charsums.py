"""Library driver for the ``charsums`` workload.

Runs ``bounds.von_mangoldt_char_sum_ratio`` for N = 1..``CHARSUMS_N_MAX`` over
F_``CHARSUMS_P`` (see ``workloads.py``) and a list of monic moduli given on the
command line, the way acceptance criterion
09 does: one sieve build up front, then one report per (Q, N).  Prints one
line per report::

    <deg Q>:<mantissa of Q> <N> <lhs!r> <rhs!r> <pass|FAIL>

Usage: python3 perfbench/charsums.py --moduli 4:0,4:1,5:17
Exit code 1 when any report fails its bound.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from ffvar.bounds import von_mangoldt_char_sum_ratio
from ffvar.fields import make_field
from ffvar.polys import monic_from_index
from ffvar.tables import get_tables
from workloads import CHARSUMS_N_MAX, CHARSUMS_P


def parse_moduli(text: str) -> list[tuple[int, int]]:
    return [tuple(int(x) for x in item.split(":")) for item in text.split(",")]


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="charsums")
    parser.add_argument("--moduli", required=True, help="comma list of deg:mantissa")
    args = parser.parse_args(argv)
    fld = make_field(CHARSUMS_P)
    get_tables(fld, CHARSUMS_N_MAX)  # one sieve build shared by every report
    failures = 0
    for deg, mantissa in parse_moduli(args.moduli):
        modulus = monic_from_index(fld, deg, mantissa)
        for n_total in range(1, CHARSUMS_N_MAX + 1):
            rep = von_mangoldt_char_sum_ratio(fld, modulus, n_total)
            failures += not rep.passed
            verdict = "pass" if rep.passed else "FAIL"
            print(f"{deg}:{mantissa} {n_total} {rep.lhs!r} {rep.rhs!r} {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
