"""CLI reports pinned byte for byte.

Each ``*.out`` file under ``tests/data`` is the stdout the CLI printed for
the listed command before a refactor of the code under it (the certifiers'
shared level-set record for ``check`` and ``corpus``, the down-set member
masks for the ``product3`` reports); the inputs sit next to it.  In the two
``product3`` ``maximize`` reports the ``localization`` certificate alone was
re-captured, when the vacuous localization check became one that can fail.
The ``efficient`` and ``maximize`` reports on ``classical.json`` and
``tolerant_power.json`` were captured when a gridded closed form began to
load as its table; the efficient points they list are the least grid point
at each level, checked by hand.  The ``efficient`` reports on
``plain_poset.json`` and on the whole of ``product3.json`` and the
``maximize`` report on ``plain_poset.json`` were captured before the
per-element interior table was deleted.  The ``corpus --n 8`` reports were
captured before ``check_charpar`` moved to point indices and the corpus
generator to integer half-steps.  The ``product4`` reports (``efficient``,
``maximize --downset`` with members, and ``refine`` from a start above the
result, on a 5^4 table) were captured before a product's tables were
multiplied from factor rows spread once, a table file was read into an index
column, and the maximum was read off the rank table.  Each ``*.txt`` file is
the text output (no ``--json``) of ``efficient``, ``maximize``, ``refine``
and ``check`` on ``product3.json``, ``corrupted.json`` and
``plain_poset.json``, captured before text lines were built only in text
mode.  The ``mix_*`` reports (``check``, ``efficient`` and ``maximize``
on four ``min_product`` files of two one-axis grids 0..2: x^2 with x^(1/2),
x^2 with 1.5x, 1.5x with x^2, and x^2 with x, and ``efficient --tolerance
0.5`` on the first) were captured before a table's scale was read off its
values alone, with no ``form`` on the exact scale.  Commands run from
inside ``tests/data`` so the ``input`` field of a report is the bare file
name.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from qleontief.cli import main
from qleontief.order import ProductSpace

DATA = Path(__file__).parent / "data"

CASES = {
    "min_grid.check.out": (["check", "--json", "min_grid.json"], 0),
    "plain_poset.check.out": (["check", "--json", "plain_poset.json"], 0),
    "plain_poset.efficient.out": (["efficient", "--json", "plain_poset.json"], 0),
    "plain_poset.maximize_generators.out": (
        ["maximize", "--json", "plain_poset.json", "--downset", "plain_poset_downset.json"],
        0,
    ),
    "corrupted.check.out": (["check", "--json", "corrupted.json"], 1),
    "decreasing_chain.check.out": (["check", "--json", "decreasing_chain.json"], 1),
    "leastless.check.out": (["check", "--json", "leastless.json"], 1),
    "tolerant_power.check.out": (["check", "--json", "tolerant_power.json"], 0),
    "classical.check.out": (["check", "--json", "classical.json"], 0),
    "classical.efficient.out": (["efficient", "--json", "classical.json"], 0),
    "classical.efficient_subset.out": (
        ["efficient", "--json", "classical.json", "--subset", "classical_subset.json"],
        0,
    ),
    "classical.maximize_generators.out": (
        ["maximize", "--json", "classical.json", "--downset", "classical_generators.json"],
        0,
    ),
    "tolerant_power.efficient.out": (["efficient", "--json", "tolerant_power.json"], 0),
    "corpus_n6_seed7_fault.out": (
        ["corpus", "--json", "--n", "6", "--seed", "7", "--inject-fault"],
        1,
    ),
    **{
        f"corpus_n8_seed{seed}{tag}.out": (
            ["corpus", "--json", "--n", "8", "--seed", str(seed), *flags], code
        )
        for seed in (0, 3, 42)
        for tag, flags, code in (("", [], 0), ("_fault", ["--inject-fault"], 1))
    },
    "product3.maximize_generators.out": (
        ["maximize", "--json", "product3.json", "--downset", "product3_generators.json"],
        0,
    ),
    "product3.maximize_members.out": (
        ["maximize", "--json", "product3.json", "--downset", "product3_members.json"],
        0,
    ),
    "product3.efficient.out": (["efficient", "--json", "product3.json"], 0),
    "product3.efficient_subset.out": (
        ["efficient", "--json", "product3.json", "--subset", "product3_members.json"],
        0,
    ),
    "product3.refine.out": (
        ["refine", "--json", "product3.json", "--sets", "product3_axis1.json",
         "product3_axis2.json", "product3_axis3.json", "--start", "product3_start.json",
         "--order", "3,1,2"],
        0,
    ),
    "product4.efficient.out": (["efficient", "--json", "product4.json"], 0),
    "product4.maximize_members.out": (
        ["maximize", "--json", "product4.json", "--downset", "product4_members.json"],
        0,
    ),
    "product4.refine.out": (
        ["refine", "--json", "product4.json", "--sets", "product4_axis1.json",
         "product4_axis2.json", "product4_axis3.json", "product4_axis4.json",
         "--start", "product4_start.json", "--order", "4,2,1,3"],
        0,
    ),
    **{
        f"{mix}.{name}.out": (argv[:1] + ["--json", f"{mix}.json"] + argv[1:], 0)
        for mix in ("mix_square_root", "mix_square_float", "mix_float_square", "mix_square_line")
        for name, argv in (("check", ["check"]), ("efficient", ["efficient"]),
                           ("maximize_generators", ["maximize", "--downset", "mix_downset.json"]))
    },
    "mix_square_root.efficient_tolerance.out": (
        ["efficient", "--json", "--tolerance", "0.5", "mix_square_root.json"], 0),
}


@pytest.mark.parametrize("golden", sorted(CASES))
def test_report_matches_golden(golden, monkeypatch, capsys):
    argv, code = CASES[golden]
    monkeypatch.chdir(DATA)
    assert main(argv) == code
    assert capsys.readouterr().out == (DATA / golden).read_text(encoding="utf-8")


REFINE3 = ["refine", "product3.json", "--sets", "product3_axis1.json", "product3_axis2.json",
           "product3_axis3.json"]

# text output (no --json), pinned in the ``*.txt`` files
TEXT_CASES = {
    "product3.efficient.txt": (["efficient", "product3.json"], 0),
    "product3.maximize_members.txt": (
        ["maximize", "product3.json", "--downset", "product3_members.json"], 0),
    "product3.refine.txt": (REFINE3 + ["--start", "product3_start.json", "--order", "3,1,2"], 0),
    "product3.refine_quiet.txt": (REFINE3 + ["--quiet"], 0),
    "corrupted.check.txt": (["check", "corrupted.json"], 1),
    "corrupted.check_quiet.txt": (["check", "--quiet", "corrupted.json"], 1),
    "plain_poset.check.txt": (["check", "plain_poset.json"], 0),
}


@pytest.mark.parametrize("golden", sorted(TEXT_CASES))
def test_text_matches_golden(golden, monkeypatch, capsys):
    argv, code = TEXT_CASES[golden]
    monkeypatch.chdir(DATA)
    assert main(argv) == code
    assert capsys.readouterr().out == (DATA / golden).read_text(encoding="utf-8")


PRODUCT_CALLS = {
    "product3.check": ["check", "--json", "product3.json"],
    **{golden[:-len(".out")]: CASES[golden][0] for golden in CASES if golden.startswith("product")},
}


@pytest.mark.parametrize("name", sorted(PRODUCT_CALLS))
def test_product_commands_build_no_product(name, monkeypatch, capsys):
    """Every order query of these commands is answered factor by factor:
    nothing calls ``as_poset``, and the product's rows stay unfilled."""
    builds = []
    as_poset = ProductSpace.as_poset
    monkeypatch.setattr(ProductSpace, "as_poset", lambda self: builds.append(self) or as_poset(self))
    monkeypatch.chdir(DATA)
    assert main(PRODUCT_CALLS[name]) == 0
    capsys.readouterr()
    assert builds == []
