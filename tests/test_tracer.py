"""The benchmark's span tracer still hooks the library.

``perfbench/spans.py`` patches functions and methods by name; a renamed or
moved one would break ``perfbench/run.py --trace 1``.  This runs one traced
``maximize`` so that such a break fails here too.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

import qleontief.cli as cli
from qleontief.order import ProductSpace

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_maximize_records_the_product_table_build(capsys):
    original = ProductSpace.__dict__["as_poset"]
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        code = cli.main(["maximize", str(DATA / "product3.json"),
                         "--downset", str(DATA / "product3_members.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    names = [span[0] for span in tracer.spans]
    assert names.count("order.ProductSpace.as_poset") == 1
    assert "maximize.argmax_over_downset" in names
    assert tracer.counts["order.points"] == 3 * 3 + 27  # three chain factors, then the product
    assert ProductSpace.__dict__["as_poset"] is original
