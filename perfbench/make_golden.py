"""Regenerates ``golden/`` from the current sources: runs every command any
seed can produce (``workloads.golden_pool()``) once and stores its output.
Also writes ``moduli.json``, the charsums moduli grouped by factorization
pattern, from which the charsums workload draws its seed-chosen sample.

Usage (from the repository root): python3 perfbench/make_golden.py

Only run this at a commit whose outputs are known to be right; the benchmark
treats these files as the reference.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import ROOT, Runner
from checker import GOLDEN_DIR
from workloads import CHARSUMS_P, CHARSUMS_PER_CLASS, MODULI_FILE, golden_pool


def write_moduli_classes() -> None:
    """moduli.json: for each charsums degree, the monic moduli over F_p grouped
    by the (degree, exponent) multiset of their factorization, with t^d on its
    own, as lists of mantissas."""
    sys.path.insert(0, str(ROOT / "src"))
    from ffvar.arith import factor, sieve_irreducibles
    from ffvar.fields import make_field
    from ffvar.polys import monic_from_index

    fld = make_field(CHARSUMS_P)
    classes: dict[str, list[list[int]]] = {}
    for deg in sorted(CHARSUMS_PER_CLASS):
        cache = sieve_irreducibles(fld, deg)
        groups: dict[str, list[int]] = {"t^d": [0]}  # mantissa 0 is t^d
        for u in range(1, CHARSUMS_P**deg):
            pattern = sorted((p.degree, e) for p, e in factor(monic_from_index(fld, deg, u), cache))
            groups.setdefault(str(pattern), []).append(u)
        classes[str(deg)] = [groups[key] for key in sorted(groups, key=str)]
    MODULI_FILE.write_text(json.dumps(classes) + "\n")


def main() -> int:
    write_moduli_classes()
    work = ROOT / ".perfbench" / "make-golden"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, None, time.perf_counter() + 3600)
    texts: dict[str, dict[str, str]] = {"variance": {}, "verify": {}}
    try:
        for cmd in golden_pool():
            wall, _, rc, out, err, _ = runner.execute(cmd)
            print(f"{wall:6.2f} s  exit {rc}  {cmd.key[:100]}", file=sys.stderr)
            if rc != 0:
                print(err, file=sys.stderr)
                return 1
            if cmd.kind == "charsums":
                (GOLDEN_DIR / "charsums.txt").write_text(out)
            else:
                texts[cmd.kind][cmd.key] = out
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for kind, outputs in texts.items():
        (GOLDEN_DIR / f"{kind}.json").write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
