"""The README's library example runs as written."""
from __future__ import annotations

from fractions import Fraction as F
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    ns: dict = {}
    exec(compile(block, str(README), "exec"), ns)
    u = ns["u"]
    assert u.poset is ns["space"] and u.space is ns["space"]
    assert u.interior((2, 3)) == (2, 2)
    assert u.dual(F(2)) == (2, 2)
