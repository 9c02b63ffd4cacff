"""The benchmark's span tracer still hooks the library.

``perfbench/spans.py`` patches functions and methods by name; a renamed or
moved one would break ``perfbench/run.py --trace 1``.  This runs traced
commands so that such a break fails here too, and counts the walks over a
feasible set S (``maximize.argmax_members`` spans) that each command makes.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import qleontief as q
import qleontief.cli as cli
from qleontief.order import ProductSpace

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def traced(argv):
    """Run one CLI call under the tracer: (exit code, span names, tracer)."""
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    return code, [span[0] for span in tracer.spans], tracer


def test_traced_maximize_builds_no_product_table(capsys):
    original = ProductSpace.__dict__["as_poset"]
    code, names, tracer = traced(["maximize", str(DATA / "product3.json"),
                                  "--downset", str(DATA / "product3_members.json")])
    assert code == 0
    assert names.count("order.ProductSpace.as_poset") == 0
    assert "maximize.argmax_over_downset" in names
    assert tracer.counts["order.points"] == 3 * 3  # three chain factors, and no product
    assert ProductSpace.__dict__["as_poset"] is original


@pytest.mark.parametrize("argv, walks, records", [
    # one record; localization reads it
    (["maximize", "product3.json", "--downset", "product3_members.json"], 1, 1),
    # one record gives the default start, the maximum efficient_refinement
    # keeps and the largest efficient point
    (["refine", "product3.json", "--sets", "product3_axis1.json", "product3_axis2.json",
      "product3_axis3.json"], 1, 1),
    # 8 localization instances, one record each; one walk per refinement instance
    (["corpus", "--n", "8", "--seed", "3"], 16, 8),
])
def test_feasible_set_walks_per_command(argv, walks, records, monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    code, names, _ = traced(argv)
    assert code == 0
    assert names.count("maximize.argmax_members") == walks
    assert names.count("maximize.argmax_over_downset") == records


def test_as_poset_fills_the_product_itself():
    """The benchmark patches ``ProductSpace.as_poset`` by name, times it on
    fresh products, and hands its result to ``TabulatedUtility`` next to
    ``space=space``: it stays a method of the class that returns the product
    itself, with its rows filled."""
    assert "as_poset" in ProductSpace.__dict__
    space = q.grid_space(range(3), range(2))
    assert type(space) is ProductSpace and space._up is None
    assert space.as_poset() is space
    assert type(space) is ProductSpace and space._up is not None
    vals = {p: min(p) for p in space.points()}
    assert q.TabulatedUtility(space.as_poset(), vals, space=space).poset is space


@pytest.mark.parametrize("argv, fills", [
    (["corpus", "--n", "8", "--seed", "3"], True),
    (["check", "product3.json"], False),
    (["efficient", "product3.json"], False),
])
def test_only_the_corpus_fills_product_rows(argv, fills, monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    code, names, _ = traced(argv)
    assert code == 0
    assert ("order.ProductSpace.as_poset" in names) == fills
