"""CLI reports compared byte-for-byte with the goldens in ``tests/golden``.

Each golden is the text report of one command on one shipped fixture,
named ``<tag>__<fixture stem>.txt``.  Commands that reject a fixture
(for example ``classify`` on a Lie fixture) have no golden.
"""

import pathlib

import pytest

from diffcoh.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

COMMANDS = {
    "check": ["check"],
    "cohomology3": ["cohomology", "--max-degree", "3"],
    "cohomology3-json": ["cohomology", "--max-degree", "3", "--format", "json"],
    "les3": ["les", "--max-degree", "3"],
    "les3-budget1": ["les", "--max-degree", "3", "--budget", "1"],
    "classify": ["classify"],
    "classify-budget1": ["classify", "--budget", "1"],
    "classify-semidirect": ["classify", "--mode", "semidirect-ops"],
    "vanest": ["vanest"],
    "vanest-seed1": ["vanest", "--seed", "1"],
}

CASES = sorted(p.stem for p in GOLDEN.glob("*.txt"))


def test_every_command_has_goldens():
    tags = {case.split("__")[0] for case in CASES}
    assert tags == set(COMMANDS)


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(case, capsys, monkeypatch):
    tag, stem = case.split("__")
    cmd = COMMANDS[tag]
    monkeypatch.chdir(ROOT)
    code = main([cmd[0], f"fixtures/{stem}.json", *cmd[1:]])
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert out.encode() == (GOLDEN / f"{case}.txt").read_bytes()
