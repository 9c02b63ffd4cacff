"""CLI reports pinned byte for byte.

Each ``*.out`` file under ``tests/data`` is the stdout the CLI printed for
the listed command before the certifiers were moved onto the shared
level-set record; the inputs sit next to it.  Commands run from inside
``tests/data`` so the ``input`` field of a report is the bare file name.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from qleontief.cli import main

DATA = Path(__file__).parent / "data"

CASES = {
    "min_grid.check.out": (["check", "--json", "min_grid.json"], 0),
    "plain_poset.check.out": (["check", "--json", "plain_poset.json"], 0),
    "corrupted.check.out": (["check", "--json", "corrupted.json"], 1),
    "decreasing_chain.check.out": (["check", "--json", "decreasing_chain.json"], 1),
    "leastless.check.out": (["check", "--json", "leastless.json"], 1),
    "tolerant_power.check.out": (["check", "--json", "tolerant_power.json"], 0),
    "classical.check.out": (["check", "--json", "classical.json"], 0),
    "corpus_n6_seed7_fault.out": (
        ["corpus", "--json", "--n", "6", "--seed", "7", "--inject-fault"],
        1,
    ),
}


@pytest.mark.parametrize("golden", sorted(CASES))
def test_report_matches_golden(golden, monkeypatch, capsys):
    argv, code = CASES[golden]
    monkeypatch.chdir(DATA)
    assert main(argv) == code
    assert capsys.readouterr().out == (DATA / golden).read_text(encoding="utf-8")
