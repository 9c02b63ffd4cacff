"""The README's library example runs as written, and its module table names
only what the package has."""
from __future__ import annotations

import builtins
import importlib
import re
from fractions import Fraction as F
from pathlib import Path

import qleontief

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


def inside_rows():
    """``(modules, names)`` per row of the "What is inside" table: the row's
    modules, and each backticked identifier of its contents (a call such as
    `level_set(lam)` names its function)."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## What is inside", 1)[1].split("\n## ", 1)[0]
    for line in section.splitlines():
        if line.startswith("| `"):
            head, contents = line[2:].split(" | ", 1)
            modules = [importlib.import_module(m) for m in re.findall(r"`([\w.]+)`", head)]
            yield modules, re.findall(r"`([A-Za-z_][\w.]*)(?:\(.*?\))?`", contents)


def resolves(name, modules) -> bool:
    """Whether the dotted ``name`` is an attribute of the package, of one of
    ``modules`` or of a class in one of them."""
    classes = [c for m in modules for c in vars(m).values() if isinstance(c, type)]
    for obj in (qleontief, *modules, *classes):
        try:
            for part in name.split("."):
                obj = getattr(obj, part)
        except AttributeError:
            continue
        return True
    return False


def test_inside_table_names_resolve():
    """A name deleted from the code must leave the table too; Python
    builtins such as `len` name language features, not the package."""
    rows = list(inside_rows())
    assert len(rows) == 7 and all(names for _, names in rows)
    missing = [(modules[0].__name__, name) for modules, names in rows for name in names
               if name not in vars(builtins) and not resolves(name, modules)]
    assert missing == []
