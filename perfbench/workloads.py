"""The benchmark's workloads: which commands one iteration runs, per seed.

Each workload is a list of commands, each run in a fresh interpreter the way
a user runs ``ffvar``.  The seed only picks among inputs whose outputs are
stored in ``golden/`` and whose cost is the same, so any seed can be checked
and the run-to-run spread reflects the machine, not the inputs:

* variance workloads: the seed picks the arithmetic function of each command;
* verify: the seed is folded into one of ``VERIFY_SEEDS`` suite seeds;
* charsums: the seed picks, from each class of degree-4 and degree-5 moduli
  over F_3 with the same factorization pattern (``moduli.json``), a fixed
  number of members.  Moduli of one pattern have isomorphic unit groups, so
  the basis work is the same for every seed; ``t^d`` is a class of its own
  because it takes the fast reduction path.  Goldens cover every modulus.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

FUNCTIONS = ("liouville", "moebius", "unit")
VERIFY_SEEDS = 16
VERIFY_N_MAX = 6

# charsums: von Mangoldt character sums over F_3, N = 1..CHARSUMS_N_MAX, for
# CHARSUMS_PER_CLASS[d] seed-chosen moduli of each factorization pattern of
# degree d.
CHARSUMS_P = 3
CHARSUMS_N_MAX = 10
CHARSUMS_PER_CLASS = {4: 2, 5: 1}
MODULI_FILE = Path(__file__).resolve().parent / "moduli.json"

# (p, N, h-range) per command; both routes for variance-char, the direct
# route at the largest tables that keep one iteration a few seconds for
# variance-direct.
VARIANCE_CHAR_GRID = (("2", "13", "1:3"), ("3", "8", "1:3"))
VARIANCE_DIRECT_GRID = (("2", "18", "1:16"), ("3", "12", "1:10"), ("5", "8", "1:6"))


@dataclass(frozen=True)
class Command:
    """One program invocation.  ``kind`` selects the program (``ffvar`` or
    the ``charsums`` driver) and the output checker; ``args`` are its
    arguments, which also key its golden output."""

    kind: str
    args: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.args)


def _variance(mode: str, grid, rng: random.Random) -> list[Command]:
    return [
        Command(
            "variance",
            ("variance", "--mode", mode, "--p", p, "--N", n, "--h", h,
             "--function", rng.choice(FUNCTIONS)),
        )
        for p, n, h in grid
    ]


def variance_char(seed: int) -> list[Command]:
    return _variance("both", VARIANCE_CHAR_GRID, random.Random(seed))


def variance_direct(seed: int) -> list[Command]:
    return _variance("direct", VARIANCE_DIRECT_GRID, random.Random(seed))


def verify_command(suite_seed: int) -> Command:
    return Command(
        "verify", ("verify", "--n-max", str(VERIFY_N_MAX), "--seed", str(suite_seed))
    )


def verify(seed: int) -> list[Command]:
    return [verify_command(seed % VERIFY_SEEDS)]


def charsums_command(moduli: list[tuple[int, int]]) -> Command:
    return Command(
        "charsums",
        ("--moduli", ",".join(f"{d}:{u}" for d, u in moduli)),
    )


def charsums(seed: int) -> list[Command]:
    rng = random.Random(seed)
    classes = json.loads(MODULI_FILE.read_text())
    moduli = sorted(
        (deg, u)
        for deg, count in CHARSUMS_PER_CLASS.items()
        for members in classes[str(deg)]
        for u in rng.sample(members, min(count, len(members)))
    )
    return [charsums_command(moduli)]


WORKLOADS = {
    "variance-char": variance_char,
    "variance-direct": variance_direct,
    "verify": verify,
    "charsums": charsums,
}


def golden_pool() -> list[Command]:
    """Every command any seed can produce, so each has a stored output."""
    pool = [
        Command("variance", ("variance", "--mode", mode, "--p", p, "--N", n, "--h", h,
                             "--function", fn))
        for mode, grid in (("both", VARIANCE_CHAR_GRID), ("direct", VARIANCE_DIRECT_GRID))
        for p, n, h in grid
        for fn in FUNCTIONS
    ]
    pool += [verify_command(s) for s in range(VERIFY_SEEDS)]
    pool.append(
        charsums_command(
            [(deg, u) for deg in sorted(CHARSUMS_PER_CLASS) for u in range(CHARSUMS_P**deg)]
        )
    )
    return pool
