"""Golden guard: four of the benchmark's commands run in-process and are
checked against the outputs stored in perfbench/golden with the benchmark's
own checker, so output drift fails here before it fails the benchmark.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import charsums  # noqa: E402
import make_golden  # noqa: E402
from checker import Golden  # noqa: E402
from workloads import MODULI_FILE, Command, charsums_command, verify_command  # noqa: E402

from ffvar import cli  # noqa: E402

VARIANCE = Command(
    "variance",
    ("variance", "--mode", "both", "--p", "3", "--N", "8", "--h", "1:3", "--function", "liouville"),
)
# the sieve's Omega and squarefree tables (P^2 * M products) on a third field
VARIANCE_DIRECT = Command(
    "variance",
    ("variance", "--mode", "direct", "--p", "5", "--N", "8", "--h", "1:6", "--function", "moebius"),
)


@pytest.fixture(scope="module")
def golden() -> Golden:
    return Golden()


@pytest.mark.parametrize(
    "cmd, run",
    [
        (verify_command(0), cli.main),
        (VARIANCE, cli.main),
        (VARIANCE_DIRECT, cli.main),
        (charsums_command([(4, 0), (5, 7)]), charsums.main),
    ],
    ids=["verify", "variance", "variance-direct", "charsums"],
)
def test_matches_golden_output(golden, cmd, run, capsys):
    returncode = run(list(cmd.args))
    assert golden.check(cmd, returncode, capsys.readouterr().out) is None


def test_golden_builder_recomputes_the_moduli_classes(monkeypatch, tmp_path):
    # make_golden.py's own pass, factor(monic, sieve_irreducibles(field, deg))
    # iterated as (P, e) pairs, groups every modulus of degrees 4 and 5 over
    # F_3 into the committed classes
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(make_golden, "MODULI_FILE", tmp_path / "moduli.json")
    make_golden.write_moduli_classes()
    got = json.loads((tmp_path / "moduli.json").read_text())
    assert got == json.loads(MODULI_FILE.read_text())
    for deg in (4, 5):  # the classes of one degree split all of its moduli
        assert sorted(u for group in got[str(deg)] for u in group) == list(range(3**deg))
