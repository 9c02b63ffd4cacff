"""The record types: their constructors, truth values and immutability, and
what ``import qleontief.cli`` loads."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qleontief as q
from qleontief.maximize import RefinementStep, RefinementTrace


# Each type with the arguments it needs and the defaults of the rest.
RECORDS = [
    (q.OrderReport, {"ok": True}, {"axiom": None, "witness": ()}),
    (q.Certificate, {"ok": True, "prop": "regular"},
     {"witnesses": (), "dual_table": None, "detail": "", "utility": None, "data": {}}),
    (q.ArgmaxResult, {"value": 1, "maximizers": ("a",)},
     {"largest_efficient": None, "maximal_maximizer": None}),
    (RefinementStep, {"axis": 0, "before": "b", "after": "a"}, {}),
    (RefinementTrace, {"start": ("1",), "steps": (), "result": ("0",), "order": (0,),
                       "checks": {"maximizer": True}}, {}),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, required, defaults", RECORDS, ids=IDS)
def test_record_builds_by_position_and_by_keyword(cls, required, defaults):
    by_keyword = cls(**required)
    by_position = cls(*required.values())
    assert by_keyword == by_position
    for name, value in {**required, **defaults}.items():
        assert getattr(by_keyword, name) == value
    assert cls(*required.values(), *defaults.values()) == by_keyword


@pytest.mark.parametrize("cls, required, defaults", RECORDS, ids=IDS)
def test_record_refuses_assignment(cls, required, defaults):
    record = cls(**required)
    name = next(iter(required))
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("cls", [q.OrderReport, q.Certificate])
def test_verdict_truth_follows_ok(cls):
    args = () if cls is q.OrderReport else ("regular",)
    assert bool(cls(True, *args)) and not bool(cls(False, *args))


def test_certificates_made_without_data_do_not_share_it():
    a, b = q.Certificate(True, "charpar"), q.Certificate(True, "charpar")
    assert a.data == b.data == {} and a.data is not b.data
    data = {"points_checked": 3}
    assert q.Certificate(True, "charpar", data=data).data is data


def test_record_to_json_is_unchanged():
    assert q.Certificate(False, "isotone", ("a", "b"), detail="d", data={"k": 1}).to_json() == {
        "verdict": "fail", "property": "isotone", "witnesses": ["a", "b"],
        "detail": "d", "data": {"k": 1}}
    step = RefinementStep(1, ("2", "2"), ("2", "1"))
    assert step.to_json() == {"axis": 2, "from": ["2", "2"], "to": ["2", "1"]}
    trace = RefinementTrace(("2", "2"), (step,), ("2", "1"), (1, 0), {"maximizer": True})
    assert trace.to_json() == {"start": ["2", "2"], "steps": [step.to_json()],
                               "result": ["2", "1"], "order": [2, 1],
                               "checks": {"maximizer": True}}


LOADED = """\
import sys
before = set(sys.modules)
import qleontief.cli
added = set(sys.modules) - before
print(" ".join(sorted(added)))
from qleontief import corpus
corpus.derive_rng(0, "tag")
print("hashlib" in sys.modules)
"""


def test_cli_import_loads_no_record_or_hash_machinery():
    src = str(Path(q.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", LOADED], capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout.splitlines()
    added = set(out[0].split())
    assert not {"dataclasses", "inspect", "hashlib"} & added
    assert "qleontief.corpus" in added
    assert out[1] == "True"
