import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qleontief import cli, maximize, oracle
from qleontief.cli import main
from qleontief.order import MAX_POINTS


def chain_json(n):
    els = [str(i) for i in range(n)]
    return {"elements": els, "covers": [[els[i], els[i + 1]] for i in range(n - 1)]}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def as_tables(form):
    """``form`` with each classical leaf (integer grid axes of step 1) replaced
    by the table file of its values min_i a_i x_i: the equivalent tabulated input."""
    if form.get("type") == "classical":
        coords = [[str(t) for t in range(int(ax["lo"]), int(ax["hi"]) + 1)]
                  for ax in form["box"]["axes"]]
        a = [Fraction(c) for c in form["a"]]
        values = {",".join(x): str(min(c * int(t) for c, t in zip(a, x))) for x in product(*coords)}
        chains = [{"elements": els, "covers": [list(p) for p in zip(els, els[1:])]} for els in coords]
        return {"type": "tabulated", "poset": {"product": chains}, "values": values}
    if "base" in form:
        return {**form, "base": as_tables(form["base"])}
    if "factors" in form:
        return {**form, "factors": [as_tables(f) for f in form["factors"]]}
    return form


@pytest.fixture
def min_grid_utility(tmp_path):
    poset = {"product": [chain_json(4), chain_json(4)]}
    values = {f"{a},{b}": str(min(a, b)) for a in range(4) for b in range(4)}
    return write(tmp_path, "min.json", {"type": "tabulated", "poset": poset, "values": values})


@pytest.fixture
def sum_utility(tmp_path):
    poset = {"product": [chain_json(2), chain_json(2)]}
    values = {f"{a},{b}": str(a + b) for a in range(2) for b in range(2)}
    return write(tmp_path, "sum.json", {"type": "tabulated", "poset": poset, "values": values})


class TestCheck:
    def test_min_grid_passes(self, min_grid_utility, capsys):
        assert main(["check", min_grid_utility]) == 0
        out = capsys.readouterr().out
        assert "PASS quasi-leontief" in out
        assert "PASS galois-adjunction" in out
        assert "PASS meet-homomorphism" in out

    def test_sum_fails_with_witness(self, sum_utility, capsys):
        assert main(["check", sum_utility]) == 1
        out = capsys.readouterr().out
        assert "FAIL quasi-leontief" in out
        assert "['0', '1']" in out and "['1', '0']" in out

    def test_truncated_json_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"type": "tabulated", ')
        assert main(["check", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("where", ["utility", "downset", "nested-poset"])
    def test_directory_path_is_input_error(self, where, tmp_path, capsys):
        folder = tmp_path / "folder"
        folder.mkdir()
        ok = write(tmp_path, "ok.json", {"poset": chain_json(2), "values": {"0": "0", "1": "1"}})
        argv = {
            "utility": ["check", str(folder)],
            "downset": ["maximize", ok, "--downset", str(folder)],
            "nested-poset": ["check", write(tmp_path, "u.json", {"poset": str(folder), "values": {}})],
        }[where]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {folder}: Is a directory\n"

    @pytest.mark.parametrize("raw, fault", [
        ("9" * 5000, "integer string conversion"),  # past Python's int-string limit
        ("[" * 100000 + "]" * 100000, "arrays or objects nested too deeply"),
    ], ids=["long-int", "deep-array"])
    def test_json_past_the_parser_limits_is_input_error(self, raw, fault, tmp_path, capsys):
        u = tmp_path / "u.json"
        u.write_text(f'{{"poset": {json.dumps(chain_json(2))}, "values": {{"0": "0", "1": {raw}}}}}')
        s = tmp_path / "s.json"
        s.write_text(f'{{"members": [{raw}]}}')
        ok = write(tmp_path, "ok.json", {"poset": chain_json(2), "values": {"0": "0", "1": "1"}})
        for argv, path in ((["check", str(u)], u), (["maximize", ok, "--downset", str(s)], s)):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ") and fault in err and err.count("\n") == 1

    @pytest.mark.parametrize("files, top", [
        ({"p.json": "p.json", "u.json": {"poset": "p.json", "values": {"0": "0"}}}, "p.json"),
        ({"b.json": "b.json", "u.json": {"type": "affine", "base": "b.json", "a": "1", "b": "0"}}, "b.json"),
        ({"u.json": {"type": "affine", "base": "u.json", "a": "1", "b": "0"}}, "u.json"),
        ({"p.json": {"product": [chain_json(2), "q.json"]}, "q.json": "p.json",
          "u.json": {"poset": "p.json", "values": {}}}, "p.json"),
    ], ids=["poset-path", "affine-base-path", "affine-base-object", "product-factor-path"])
    def test_path_leading_back_to_itself_is_input_error(self, files, top, tmp_path, capsys):
        for name, obj in files.items():
            write(tmp_path, name, obj)
        assert main(["check", str(tmp_path / "u.json")]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / top}: the path leads back to itself\n"

    def test_list_values_is_input_error(self, tmp_path, capsys):
        bad = write(tmp_path, "list.json", {"poset": chain_json(2), "values": ["1", "2"]})
        assert main(["check", bad]) == 2
        assert "error: tabulated 'values' must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("poset, values, point", [
        (chain_json(2), {"0": "1", " 0": "0", "1": "1"}, "0"),
        ({"product": [chain_json(2), chain_json(2)]},
         {"0,0": "0", "0,1": "0", "1,0": "0", "1,1": "1", "0, 0": "1"}, "0,0"),
    ])
    def test_point_named_twice_is_input_error(self, poset, values, point, tmp_path, capsys):
        bad = write(tmp_path, "twice.json", {"poset": poset, "values": values})
        assert main(["check", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: point '{point}' is named twice") and err.count("\n") == 1

    def test_repeated_key_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "twice.json"
        bad.write_text('{"poset": {"elements": ["a", "b"], "covers": [["a", "b"]]},'
                       ' "values": {"a": "5", "b": "1", "a": "0"}}')
        assert main(["check", str(bad)]) == 2
        assert capsys.readouterr().err == "error: key 'a' is named twice in one object\n"

    def test_list_poset_element_is_input_error(self, tmp_path, capsys):
        poset = {"elements": [["0"], "1"], "covers": [[["0"], "1"]]}
        bad = write(tmp_path, "elem.json", {"poset": poset, "values": {"0": "0", "1": "1"}})
        assert main(["check", bad]) == 2
        err = capsys.readouterr().err
        assert err == "error: poset needs an 'elements' list of strings or numbers\n"

    @pytest.mark.parametrize("command", ["check", "efficient", "maximize"])
    def test_null_poset_element_is_input_error(self, command, tmp_path, capsys):
        # null would read as None, which stands for "no element"
        poset = {"elements": [None, "a"], "covers": [[None, "a"]]}
        bad = write(tmp_path, "null.json", {"poset": poset, "values": {"None": "0", "a": "1"}})
        s = write(tmp_path, "s.json", {"generators": ["a"]})
        extra = ["--downset", s] if command == "maximize" else []
        assert main([command, bad, *extra]) == 2
        assert capsys.readouterr().err == "error: poset needs an 'elements' list of strings or numbers\n"

    @pytest.mark.parametrize("command", ["check", "maximize"])
    def test_price_matrix_form_is_input_error(self, command, tmp_path, capsys):
        bad = write(tmp_path, "price.json", {"type": "price_matrix", "P": [[2.0, 0.0], [0.0, 4.0]]})
        s = write(tmp_path, "s.json", {"generators": [[1.0, 1.0]]})
        extra = ["--downset", s] if command == "maximize" else []
        assert main([command, bad, *extra]) == 2
        assert capsys.readouterr() == (
            "", "error: the price_matrix form is no longer read: give the utility as a table\n")

    @pytest.mark.parametrize("box", [{"axes": "x"}, []])
    def test_malformed_box_is_input_error(self, box, tmp_path, capsys):
        bad = write(tmp_path, "box.json", {"type": "classical", "a": ["1"], "box": box})
        assert main(["check", bad]) == 2
        assert capsys.readouterr().err == "error: box needs a nonempty 'axes' list\n"

    def test_box_axis_not_an_object_is_input_error(self, tmp_path, capsys):
        bad = write(tmp_path, "box.json", {"type": "classical", "a": ["1"], "box": {"axes": ["0"]}})
        assert main(["check", bad]) == 2
        assert capsys.readouterr().err == "error: box 'axes' must be a list of objects\n"

    @pytest.mark.parametrize("generator, keys", [
        (["c0", ["0"]], ["0"]), (["c0", ["1"]], ["0"]), (["c1", ["0"]], ["0.0"]),
    ])
    def test_restriction_prints_levels_its_points_hold(self, generator, keys, tmp_path, capsys):
        """A restriction's dual table is keyed by the value its first point at
        each level holds, not by an equal value of a point cut away: here
        Fraction(0) at (c0, 0), where (c2, 0) above it holds 0.0."""
        with open(os.path.join(os.path.dirname(__file__), "data", "restrict_mix.json")) as f:
            obj = json.load(f)
        obj["downset"] = {"generators": [generator]}
        assert main(["check", "--json", write(tmp_path, "r.json", obj)]) == 0
        tables = [c["dual_table"] for c in json.loads(capsys.readouterr().out)["certificates"] if "dual_table" in c]
        assert [list(t) for t in tables] == [keys, keys]

    def test_json_report_structure(self, min_grid_utility, capsys):
        assert main(["check", "--json", min_grid_utility]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == 1
        assert report["ok"] is True
        props = {c["property"] for c in report["certificates"]}
        assert "quasi-leontief" in props and "regular" in props


class TestToleranceFlag:
    @pytest.mark.parametrize("raw", ["-1", "nan"])
    def test_negative_or_nan_is_a_usage_error(self, raw, capsys):
        u = os.path.join(os.path.dirname(__file__), "data", "tolerant_power.json")
        with pytest.raises(SystemExit) as exc:
            main(["check", "--tolerance", raw, u])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.endswith(
            f"error: argument --tolerance: must be a nonnegative number: '{raw}'\n")

    @pytest.mark.parametrize("command", ["efficient", "maximize", "refine"])
    def test_a_tolerance_that_chains_the_values_is_refused(self, command, tmp_path, capsys):
        """At tolerance 1 the values 0, 1, ..., 4 of the power form chain, and
        the scale orders no maximum; at 0.5 they lie apart."""
        u = os.path.join(os.path.dirname(__file__), "data", "tolerant_power.json")
        extra = []
        if command == "maximize":
            extra = ["--downset", write(tmp_path, "s.json", {"generators": [[2.0, 3.0], [1.0, 4.0]]})]
        elif command == "refine":
            extra = ["--sets", write(tmp_path, "s1.json", {"members": [0.0, 1.0, 2.0]}),
                     write(tmp_path, "s2.json", {"members": [0.0, 1.0, 2.0, 3.0]})]
        assert main([command, "--tolerance", "1", u, *extra]) == 2
        assert capsys.readouterr() == (
            "", "error: the tolerance chains the attained values 0.0 ~ 1.0 ~ 2.0 but not 0.0 ~ 2.0\n")
        assert main([command, "--tolerance", "0.5", u, *extra]) == 0


class TestEfficient:
    def test_tabulated_diagonal(self, min_grid_utility, capsys):
        assert main(["efficient", "--json", min_grid_utility]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["points"] == [["0", "0"], ["1", "1"], ["2", "2"], ["3", "3"]]

    def test_with_subset(self, min_grid_utility, tmp_path, capsys):
        subset = write(tmp_path, "s.json", {"generators": ["2,3"]})
        assert main(["efficient", "--json", min_grid_utility, "--subset", subset]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["points"] == [["0", "0"], ["1", "1"], ["2", "2"]]

    def test_closed_form_grid(self, tmp_path, capsys):
        u = write(
            tmp_path,
            "classical.json",
            {
                "type": "classical",
                "a": ["1", "2"],
                "box": {"axes": [{"lo": "0", "hi": "4", "step": "1"}] * 2},
            },
        )
        assert main(["efficient", "--json", u]) == 0
        report = json.loads(capsys.readouterr().out)
        # the grid is the domain: the least grid point at each level
        assert report["points"] == [["0", "0"], ["1", "1"], ["2", "1"], ["3", "2"], ["4", "2"]]


class TestMaximize:
    def test_grid_example(self, min_grid_utility, tmp_path, capsys):
        s = write(tmp_path, "s.json", {"generators": [["2", "3"]]})
        assert main(["maximize", "--json", min_grid_utility, "--downset", s]) == 0
        report = json.loads(capsys.readouterr().out)
        res = report["result"]
        assert res["value"] == "2"
        assert res["maximizers"] == [["2", "2"], ["2", "3"]]
        assert res["largest_efficient"] == ["2", "2"]
        assert res["maximal_maximizer"] == ["2", "3"]
        assert report["localization"]["verdict"] == "pass"

    def test_argmax_computed_once(self, min_grid_utility, tmp_path, capsys, monkeypatch):
        from qleontief import maximize

        calls = []
        original = maximize.argmax_over_downset

        def counted(u, S):
            calls.append(S)
            return original(u, S)

        monkeypatch.setattr(cli, "argmax_over_downset", counted)
        monkeypatch.setattr(maximize, "argmax_over_downset", counted)
        s = write(tmp_path, "s.json", {"generators": [["2", "3"]]})
        assert main(["maximize", "--json", min_grid_utility, "--downset", s]) == 0
        assert len(calls) == 1

    def test_values_on_the_tolerance_boundary(self, tmp_path, capsys):
        """0.01 x on the points 89 and 90: 0.89 + 0.01 rounds to 0.9 though
        0.9 - 0.89 rounds above 0.01, so the scale counts 0.89 and 0.9 equal,
        and both points maximize, as the level set S & up(89) says."""
        u = write(tmp_path, "u.json", {"type": "classical", "a": [0.01], "box": {
            "axes": [{"lo": 89.0, "hi": 90.0, "step": 1.0}]}})
        s = write(tmp_path, "s.json", {"members": [[89.0], [90.0]]})
        assert main(["maximize", "--json", "--tolerance", "0.01", u, "--downset", s]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["maximizers"] == [[89.0], [90.0]]
        assert report["result"]["largest_efficient"] == [89.0]
        assert report["localization"]["verdict"] == "pass"
        assert main(["maximize", "--tolerance", "0.01", u, "--downset", s]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "maximizers [[89.0], [90.0]]" in lines and "PASS argmax-localization" in lines


class TestMaximizeClosedForm:
    def test_members_downset_rejected_for_continuous_box(self, tmp_path):
        u = write(
            tmp_path,
            "classical.json",
            {
                "type": "classical",
                "a": ["1", "1"],
                "box": {"axes": [{"lo": "0", "hi": "5"}, {"lo": "0", "hi": "5"}]},
            },
        )
        s = write(tmp_path, "members.json", {"members": [["0", "0"]]})
        assert main(["maximize", u, "--downset", s]) == 2


class TestRefine:
    def test_two_step_trace(self, min_grid_utility, tmp_path, capsys):
        s1 = write(tmp_path, "s1.json", {"members": ["0", "1", "2"]})
        s2 = write(tmp_path, "s2.json", {"members": ["0", "1", "2", "3"]})
        start = write(tmp_path, "x.json", {"point": ["2", "3"]})
        rc = main(
            ["refine", "--json", min_grid_utility, "--sets", s1, s2, "--start", start]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trace"]["result"] == ["2", "2"]
        assert len(report["trace"]["steps"]) == 2
        assert report["trace"]["checks"] == {
            "argmax": True,
            "dominated": True,
            "efficient": True,
        }
        assert report["largest_efficient"] == ["2", "2"]
        assert report["refined_equals_largest_efficient"] is True

    def test_order_flag_keeps_postconditions(self, min_grid_utility, tmp_path, capsys):
        s1 = write(tmp_path, "s1.json", {"members": ["0", "1", "2"]})
        s2 = write(tmp_path, "s2.json", {"members": ["0", "1", "2", "3"]})
        start = write(tmp_path, "x.json", {"point": ["2", "3"]})
        rc = main(
            [
                "refine",
                "--json",
                min_grid_utility,
                "--sets",
                s1,
                s2,
                "--start",
                start,
                "--order",
                "2,1",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trace"]["order"] == [2, 1]
        assert report["trace"]["result"] == ["2", "2"]
        assert report["trace"]["checks"]["efficient"] is True

    def test_non_maximizer_start_exits_one(self, min_grid_utility, tmp_path, capsys):
        s1 = write(tmp_path, "s1.json", {"members": ["0", "1", "2"]})
        s2 = write(tmp_path, "s2.json", {"members": ["0", "1", "2", "3"]})
        start = write(tmp_path, "x.json", {"point": ["1", "1"]})
        rc = main(["refine", min_grid_utility, "--sets", s1, s2, "--start", start])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_computed_start_when_absent(self, min_grid_utility, tmp_path, capsys):
        s1 = write(tmp_path, "s1.json", {"members": ["0", "1", "2"]})
        s2 = write(tmp_path, "s2.json", {"members": ["0", "1", "2", "3"]})
        rc = main(["refine", "--json", min_grid_utility, "--sets", s1, s2])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trace"]["result"] == ["2", "2"]

    def test_start_on_an_empty_feasible_set(self, min_grid_utility, tmp_path, capsys):
        # the record of the maximum is read before the start, so an empty S is
        # bad input with or without --start
        s = write(tmp_path, "s.json", {"members": []})
        start = write(tmp_path, "x.json", {"point": ["3", "3"]})
        assert main(["refine", min_grid_utility, "--sets", s, s, "--start", start]) == 2
        assert capsys.readouterr() == ("", "error: empty down-set\n")

    def test_start_outside_a_nonempty_set(self, min_grid_utility, tmp_path, capsys):
        s1 = write(tmp_path, "s1.json", {"members": ["0", "1", "2"]})
        s2 = write(tmp_path, "s2.json", {"members": ["0", "1", "2", "3"]})
        start = write(tmp_path, "x.json", {"point": ["3", "3"]})
        error = "start ('3', '3') is outside the feasible product"
        assert main(["refine", min_grid_utility, "--sets", s1, s2, "--start", start]) == 1
        assert capsys.readouterr() == (f"FAIL refinement: {error}\n", "")
        assert main(["refine", "--json", min_grid_utility, "--sets", s1, s2, "--start", start]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "command": "refine", "error": error, "input": min_grid_utility, "ok": False, "schema": 1}

    def test_product_downset_built_once(self, min_grid_utility, tmp_path, capsys, monkeypatch):
        calls = []
        original = maximize.product_downset

        def counted(space, sets):
            calls.append(sets)
            return original(space, sets)

        monkeypatch.setattr(cli, "product_downset", counted)
        monkeypatch.setattr(maximize, "product_downset", counted)
        s1 = write(tmp_path, "s1.json", {"members": ["0", "1", "2"]})
        s2 = write(tmp_path, "s2.json", {"members": ["0", "1", "2", "3"]})
        assert main(["refine", "--json", min_grid_utility, "--sets", s1, s2]) == 0
        assert len(calls) == 1


class TestDecompose:
    def test_min_identity_on_subset(self, min_grid_utility, tmp_path, capsys):
        upper = write(tmp_path, "xbar.json", {"point": ["3", "3"]})
        subset = write(tmp_path, "s.json", {"generators": ["2,2"]})
        rc = main(
            [
                "decompose",
                "--json",
                min_grid_utility,
                "--upper",
                upper,
                "--subset",
                subset,
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["identity"]["ok"] is True
        assert len(report["factors"]) == 2
        assert report["factors"][0]["2"] == "2"

    def test_bad_upper_bound_is_input_error(self, min_grid_utility, tmp_path):
        upper = write(tmp_path, "xbar.json", {"point": ["1", "1"]})
        subset = write(tmp_path, "s.json", {"generators": ["2,2"]})
        rc = main(
            ["decompose", min_grid_utility, "--upper", upper, "--subset", subset]
        )
        assert rc == 2

    def test_failing_min_identity(self, tmp_path, capsys):
        """Frozen at (1,1), both axis utilities of the 2x2 table are 1
        everywhere, so their min misses u(0,0) = 0."""
        u = write(tmp_path, "u.json", NOT_QL_2X2)
        upper = write(tmp_path, "xbar.json", {"point": ["1", "1"]})
        subset = write(tmp_path, "s.json", {"members": ["0,0", "0,1", "1,0", "1,1"]})
        assert main(["decompose", "--json", u, "--upper", upper, "--subset", subset]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["identity"] == {"ok": False, "violations": [
            {"point": ["0", "0"], "value": "0", "min_form": "1"}]}
        assert main(["decompose", u, "--upper", upper, "--subset", subset]) == 1
        assert capsys.readouterr().out == "2 axis utilities\nFAIL min-identity on subset\n"


# u(0,0) = 0 and 1 elsewhere on two 2-chains: individually but not globally
# quasi-Leontief, as the level set at 1 has no least element.
NOT_QL_2X2 = {"poset": {"product": [chain_json(2), chain_json(2)]},
              "values": {"0,0": "0", "0,1": "1", "1,0": "1", "1,1": "1"}}
# a min_product whose first factor falls from u(a) = 1 to u(b) = 0 with a < b
NOT_QL_FACTOR = {"type": "min_product", "factors": [
    {"poset": {"elements": ["a", "b"], "covers": [["a", "b"]]}, "values": {"a": "1", "b": "0"}},
    {"poset": {"elements": ["c"], "covers": []}, "values": {"c": "0"}}]}


class TestCertificationFailure:
    """A command that needs a certified table and is given one that fails
    reports the failing certificate as ``check`` does: a JSON report with
    ``ok: false`` under ``--json``, else ``check``'s FAIL line.  Exit 1."""

    def argv(self, command, tmp_path, utility):
        u = write(tmp_path, "u.json", utility)
        extra = {"maximize": ["--downset", write(tmp_path, "s.json", {"generators": ["1,1"]})]}
        return [command, u, *extra.get(command, [])]

    @pytest.mark.parametrize("command, utility", [
        ("efficient", NOT_QL_2X2), ("maximize", NOT_QL_2X2), ("check", NOT_QL_FACTOR)])
    def test_json_report(self, command, utility, tmp_path, capsys):
        argv = self.argv(command, tmp_path, utility)
        assert main([*argv, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        (cert,) = report.pop("certificates")
        assert report == {"schema": 1, "command": command, "input": argv[1], "ok": False}
        assert cert["verdict"] == "fail" and cert["property"] == "quasi-leontief"
        assert len(cert["witnesses"]) == 2

    @pytest.mark.parametrize("command", ["efficient", "maximize"])
    def test_text_is_the_check_line(self, command, tmp_path, capsys):
        argv = self.argv(command, tmp_path, NOT_QL_2X2)
        assert main(["check", argv[1]]) == 1
        line = capsys.readouterr().out
        assert line == ("FAIL quasi-leontief: for ('0', '1'): level set at Fraction(1, 1) has no "
                        "least element witnesses=[['0', '1'], ['1', '0']]\n")
        assert main(argv) == 1
        assert capsys.readouterr().out == line

    def test_text_for_a_failing_factor(self, tmp_path, capsys):
        assert main(self.argv("check", tmp_path, NOT_QL_FACTOR)) == 1
        assert capsys.readouterr().out == (
            "FAIL quasi-leontief: for 'a': level set at Fraction(1, 1) is not the up-set of 'a': "
            "'b' lies above it with a smaller value witnesses=['a', 'b']\n")


    @pytest.mark.parametrize("flags, out", [
        (["--json"], None),
        ([], "FAIL quasi-leontief: planted witnesses=['a', 'b']\n"),
    ])
    def test_corpus_reports_a_failing_certification(self, flags, out, monkeypatch, capsys):
        """``corpus`` reads no utility file, so its report has a null input."""
        def refuse(u):
            raise oracle.CertificationError(
                oracle.Certificate(False, "quasi-leontief", ("a", "b"), detail="planted"))

        monkeypatch.setattr(oracle, "require_certified", refuse)
        assert main(["corpus", "--n", "1", "--seed", "3", *flags]) == 1
        got = capsys.readouterr().out
        if out is not None:
            assert got == out
            return
        report = json.loads(got)
        (cert,) = report.pop("certificates")
        assert report == {"schema": 1, "command": "corpus", "input": None, "ok": False}
        assert (cert["verdict"], cert["witnesses"]) == ("fail", ["a", "b"])


class TestModuleEntry:
    def test_python_dash_m(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run([sys.executable, "-m", "qleontief", "check", "--quiet",
                               os.path.join(root, "tests", "data", "min_grid.json")],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[0] == "PASS quasi-leontief"


class TestCorpus:
    def test_small_run_passes(self, capsys):
        assert main(["corpus", "--n", "10", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "PASS corpus (0 inconsistencies)" in out

    def test_reports_are_byte_identical(self, capsys):
        assert main(["corpus", "--json", "--n", "6", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["corpus", "--json", "--n", "6", "--seed", "7"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_zero_instances_pass(self, capsys):
        assert main(["corpus", "--json", "--n", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(s["instances"] == 0 for s in report["suites"])

    @pytest.mark.parametrize("raw", ["-3", "-1"])
    def test_negative_count_is_a_usage_error(self, raw, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["corpus", "--json", "--n", raw])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.endswith(
            f"error: argument --n: must be a nonnegative integer: '{raw}'\n")

    def test_injected_fault_exits_one(self, capsys):
        rc = main(["corpus", "--json", "--n", "8", "--seed", "42", "--inject-fault"])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        triangle = report["suites"][0]
        assert triangle["name"] == "characterization-triangle"
        assert triangle["inconsistencies"] >= 1
        assert any(
            f["property"] == "galois-adjunction" for f in triangle["failures"]
        )

    @pytest.mark.parametrize("argv", [["--n", "8", "--seed", "10"], ["--n", "8", "--seed", "12"],
                                      ["--n", "8", "--seed", "28"], ["--n", "1", "--seed", "1"],
                                      ["--n", "0"]])
    def test_a_fault_no_instance_takes_exits_two(self, argv, capsys):
        """No regular triangle instance takes the fault: the run tests nothing
        and says so, rather than pass."""
        assert main(["corpus", "--json", *argv]) == 0
        capsys.readouterr()
        assert main(["corpus", "--json", *argv, "--inject-fault"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --inject-fault: no regular characterization-triangle "
                                "instance took the fault\n")

    def test_env_seed_is_ignored(self, capsys, monkeypatch):
        """Only ``--seed`` sets the seed; without it the corpus runs seed 42."""
        monkeypatch.setenv("QL_SEED", "123")
        assert main(["corpus", "--json", "--n", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 42

    def test_quiet_keeps_only_verdict_lines(self, min_grid_utility, capsys):
        assert main(["check", "--quiet", min_grid_utility]) == 0
        out = capsys.readouterr().out
        assert out.strip()
        assert all(
            line.startswith(("PASS", "FAIL")) for line in out.strip().splitlines()
        )

    def test_suite_names(self, capsys):
        assert main(["corpus", "--json", "--n", "1", "--seed", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in report["suites"]] == [
            "characterization-triangle",
            "charpar",
            "argmax-localization",
            "refinement",
        ]

    @staticmethod
    def failing(prop, calls):
        """A certifier that fails every call, with a detail naming the call."""
        def fake(*args):
            calls.append(args)
            return oracle.Certificate(False, prop, detail=f"call {len(calls)}")
        return fake

    def run_failing(self, capsys, suite):
        """The report of a 3-instance run that must fail in ``suite`` alone."""
        assert main(["corpus", "--json", "--n", "3", "--seed", "11"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert not report["ok"]
        assert [s["name"] for s in report["suites"] if s["failures"]] == [suite]
        (failing,) = (s for s in report["suites"] if s["name"] == suite)
        assert failing["inconsistencies"] == len(failing["failures"])
        return failing["failures"]

    def test_triangle_records_an_equivalence_failure(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(oracle, "check_characterization_equivalence",
                            self.failing("characterization-equivalence", calls))
        assert self.run_failing(capsys, "characterization-triangle") == [
            {"instance": i, "property": "characterization-equivalence", "detail": f"call {i + 1}"}
            for i in range(3)]

    def test_charpar_records_its_certificate(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "check_charpar", self.failing("charpar", calls))
        assert self.run_failing(capsys, "charpar") == [
            {"instance": i, "property": "charpar", "detail": f"call {i + 1}"} for i in range(3)]

    def test_localization_records_a_maximization_failure(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "check_argmax_localization",
                            self.failing("argmax-localization", calls))
        assert self.run_failing(capsys, "argmax-localization") == [
            {"instance": i, "property": "maximization", "detail": f"call {i + 1}"} for i in range(3)]

    def test_refinement_records_each_failing_start(self, monkeypatch, capsys):
        """One record per maximizer the refinement starts from; an instance is
        told apart by its argmax record, which all of its starts share."""
        results, starts = [], []

        def fake(u, S, x_star, res, order=None):
            if not results or results[-1] is not res:
                results.append(res)
            starts.append((len(results) - 1, x_star))
            raise oracle.InconsistencyError(f"start {x_star}")

        monkeypatch.setattr(cli, "efficient_refinement", fake)
        assert self.run_failing(capsys, "refinement") == [
            {"instance": i, "property": "refinement", "detail": f"start {x}"} for i, x in starts]
        assert [i for i, _ in starts][-1] == 2 and len(starts) > 3  # some instance has two maximizers


class TestParserReuse:
    """``main`` builds its parser once per process; successive calls that mix
    subcommands and flags answer as each call does on a fresh parser."""

    def argvs(self, tmp_path):
        data = os.path.join(os.path.dirname(__file__), "data")
        power = os.path.join(data, "tolerant_power.json")
        plain = os.path.join(data, "plain_poset.json")
        downset = write(tmp_path, "d.json", {"generators": ["b", "c"]})
        return [
            ["check", "--json", power],
            ["corpus", "--n", "1", "--seed", "3"],
            ["check", "--quiet", "--tolerance", "1e-12", power],
            ["efficient", plain],
            ["maximize", "--json", plain, "--downset", downset],
            ["corpus", "--n", "-1"],
            ["check", "--tolerance", "-1", power],
            ["efficient", "--json", "--quiet", plain],
            ["check", power],
        ]

    @staticmethod
    def call(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_successive_calls_match_single_calls(self, tmp_path, capsys):
        argvs = self.argvs(tmp_path)
        single = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            single.append(self.call(argv, capsys))
        cli.build_parser.cache_clear()
        assert [self.call(argv, capsys) for argv in argvs] == single
        assert cli.build_parser.cache_info().misses == 1
        assert [code for code, _, _ in single] == [0, 0, 0, 0, 0, 2, 2, 0, 0]


class TestCertificationFailureExitCodes:
    def test_efficient_on_noncertifiable_utility_exits_one(self, sum_utility, capsys):
        assert main(["efficient", sum_utility]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_maximize_on_noncertifiable_utility_exits_one(self, sum_utility, tmp_path, capsys):
        s = write(tmp_path, "s.json", {"generators": ["1,1"]})
        assert main(["maximize", sum_utility, "--downset", s]) == 1
        assert "FAIL" in capsys.readouterr().out


def disagree(*args, **kwargs):
    raise oracle.InconsistencyError("certifiers disagree")


class TestInternalInconsistencyExitCode:
    @pytest.fixture
    def broken_certifiers(self, monkeypatch):
        monkeypatch.setattr(oracle, "certify_quasi_leontief", disagree)
        monkeypatch.setattr(oracle, "check_characterization_equivalence", disagree)

    @pytest.mark.parametrize("command", ["check", "efficient", "maximize", "corpus"])
    def test_exits_three(self, command, broken_certifiers, min_grid_utility, tmp_path, capsys):
        s = write(tmp_path, "s.json", {"generators": ["1,1"]})
        argv = {
            "check": ["check", min_grid_utility],
            "efficient": ["efficient", min_grid_utility],
            "maximize": ["maximize", min_grid_utility, "--downset", s],
            "corpus": ["corpus", "--n", "1"],
        }[command]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == "internal error: certifiers disagree\n"
        assert captured.out == ""

    def test_refine_keeps_its_failure_report(self, monkeypatch, min_grid_utility, tmp_path, capsys):
        monkeypatch.setattr(cli, "efficient_refinement", disagree)
        s1 = write(tmp_path, "s1.json", {"members": ["0", "1"]})
        s2 = write(tmp_path, "s2.json", {"members": ["0", "1"]})
        assert main(["refine", "--json", min_grid_utility, "--sets", s1, s2]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False and report["error"] == "certifiers disagree"


class TestClosedFormCheck:
    def test_power_form_tabulates_and_certifies(self, tmp_path, capsys):
        u = write(
            tmp_path,
            "power.json",
            {
                "type": "power",
                "a": [1.0, 1.0],
                "alpha": [2.0, 1.0],
                "box": {
                    "axes": [
                        {"lo": 0.0, "hi": 2.0, "step": 1.0},
                        {"lo": 0.0, "hi": 4.0, "step": 1.0},
                    ]
                },
            },
        )
        assert main(["check", u]) == 0
        assert "PASS quasi-leontief" in capsys.readouterr().out
        assert main(["check", "--tolerance", "1e-12", u]) == 0

    def test_continuous_box_cannot_be_checked(self, tmp_path, capsys):
        u = write(
            tmp_path,
            "cont.json",
            {
                "type": "classical",
                "a": ["1", "1"],
                "box": {"axes": [{"lo": "0", "hi": "1", "step": "1"}, {"lo": "0", "hi": "1"}]},
            },
        )
        assert main(["check", u]) == 2
        assert capsys.readouterr() == ("", STEPLESS_AXIS_ERR.format(2))


class TestMinProductFile:
    """A min-product of tabulated factors runs as its table on the product."""

    @pytest.fixture
    def files(self, tmp_path):
        a, b = ["0", "1", "2"], ["0", "2", "3"]

        def factor(vals):
            return {"type": "tabulated", "poset": chain_json(3),
                    "values": {str(t): v for t, v in enumerate(vals)}}

        table = {f"{i},{j}": str(min(int(a[i]), int(b[j]))) for i in range(3) for j in range(3)}
        return {
            "min": write(tmp_path, "min.json", {"type": "min_product",
                                                "factors": [factor(a), factor(b)]}),
            "table": write(tmp_path, "table.json", {"type": "tabulated", "poset": {
                "product": [chain_json(3), chain_json(3)]}, "values": table}),
            "downset": write(tmp_path, "downset.json", {"generators": ["2,1", "1,2"]}),
            "axis1": write(tmp_path, "axis1.json", {"members": ["0", "1"]}),
            "axis2": write(tmp_path, "axis2.json", {"members": ["0", "1", "2"]}),
        }

    @pytest.mark.parametrize("args", [
        ["check"],
        ["efficient"],
        ["maximize", "--downset", "downset"],
        ["refine", "--sets", "axis1", "axis2"],
    ])
    def test_report_equals_the_tabulated_product(self, args, files, capsys):
        reports = []
        for utility in ("min", "table"):
            argv = [args[0], "--json", files[utility], *(files.get(a, a) for a in args[1:])]
            assert main(argv) == 0
            report = json.loads(capsys.readouterr().out)
            assert report.pop("input") == files[utility]
            reports.append(report)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("args, code", [
        (["check"], 0),
        (["efficient"], 0),
        # the restricted domain is an induced poset of tuples: arrays and "a,b"
        # keys name its points as they do on the product, the Python form does not
        (["maximize", "--downset", {"generators": [["2", "1"], ["1", "2"]]}], 0),
        (["maximize", "--downset", {"generators": [["1", "1"]]}], 0),
        (["maximize", "--downset", {"generators": ["1,1"]}], 0),
        (["maximize", "--downset", {"generators": ["('1', '1')"]}], 2),
    ])
    def test_restriction_runs_as_the_restricted_table(self, args, code, files, tmp_path, capsys):
        downset = {"generators": [["2", "1"], ["1", "2"]]}
        outputs = []
        for utility in ("min", "table"):
            path = write(tmp_path, f"restricted-{utility}.json",
                         {"type": "restrict", "base": files[utility], "downset": downset})
            extra = [write(tmp_path, "s.json", a) if isinstance(a, dict) else a for a in args[1:]]
            assert main([args[0], path, *extra]) == code
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert code == 0 or outputs[0].err == "error: unknown element \"('1', '1')\"\n"

    def test_nested_product_runs_as_its_table(self, tmp_path, capsys):
        u = write(tmp_path, "nested.json", NESTED_MIN_PRODUCT)
        s = write(tmp_path, "s.json", {"generators": [[["1", "2"], "1"]]})
        assert main(["check", u]) == 0
        capsys.readouterr()
        assert main(["efficient", "--json", u]) == 0
        assert json.loads(capsys.readouterr().out)["points"] == [[[t, t], t] for t in "012"]
        assert main(["maximize", "--json", u, "--downset", s]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["largest_efficient"] == [["1", "1"], "1"]
        # a gridded closed form is a table, so it mixes with tables
        reports = []
        for factor in (CLASSICAL1, {**CHAIN3, "poset": {"product": [chain_json(3)]}}):
            mixed = write(tmp_path, "mixed.json", {"type": "min_product", "factors": [CHAIN3, factor]})
            assert main(["check", "--json", mixed]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_nested_product_keys(self, tmp_path, capsys):
        u = write(tmp_path, "nested.json", NESTED_MIN_PRODUCT)
        for gens in (["1,2,1"], [[["1", "2"], "1"]], [["1,2", "1"]]):
            s = write(tmp_path, "s.json", {"generators": gens})
            assert main(["maximize", "--json", u, "--downset", s]) == 0
            result = json.loads(capsys.readouterr().out)["result"]
            assert result["maximal_maximizer"] == [["1", "2"], "1"]
        s = write(tmp_path, "s.json", {"generators": ["1,2"]})
        assert main(["maximize", u, "--downset", s]) == 2
        assert capsys.readouterr().err == "error: point '1,2' has wrong arity\n"

    def test_nested_product_decomposes(self, tmp_path, capsys):
        # the first axis slice is itself a product, read point by point
        u = write(tmp_path, "nested.json", NESTED_MIN_PRODUCT)
        s = write(tmp_path, "s.json", {"generators": [[["1", "2"], "1"]]})
        upper = write(tmp_path, "upper.json", [["2", "2"], "2"])
        assert main(["decompose", "--json", u, "--subset", s, "--upper", upper]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["identity"] == {"ok": True, "violations": []}
        assert report["factors"] == [
            {f"{a},{b}": str(min(int(a), int(b))) for a in "012" for b in "012"},
            {t: t for t in "012"},
        ]

    def test_nested_closed_form_restriction(self, tmp_path, capsys):
        u = write(tmp_path, "u.json", NESTED_RESTRICT)
        s = write(tmp_path, "s.json", {"generators": [["1"]]})
        assert main(["maximize", "--json", u, "--downset", s]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert (result["value"], result["maximizers"]) == ("1", [["1"]])

    @pytest.mark.parametrize("wrapper", [
        {"type": "affine", "a": "2", "b": "1"},
        {"type": "restrict", "downset": {"generators": [["1", "1"]]}},
    ])
    def test_closed_form_factors_run_as_the_tabulated_file(self, wrapper, tmp_path, capsys):
        def classical(a):
            return {"type": "classical", "a": [a], "box": {"axes": [GRID_BOX["axes"][0]]}}

        forms = {"type": "min_product", "factors": [classical("1"), classical("2")]}
        s = write(tmp_path, "s.json", {"generators": [["1", "1"]]})
        reports = []
        for base in (forms, as_tables(forms)):
            u = write(tmp_path, "u.json", {**wrapper, "base": base})
            assert main(["maximize", "--json", u, "--downset", s]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]


class TestThreeFactorWalkthrough:
    @pytest.fixture
    def bundle(self, tmp_path):
        chain = {
            "elements": ["1", "2", "3", "4"],
            "covers": [["1", "2"], ["2", "3"], ["3", "4"]],
        }
        poset = {"product": [chain, chain, chain]}
        values = {
            f"{a},{b},{c}": str(min(a * c, b))
            for a in range(1, 5)
            for b in range(1, 5)
            for c in range(1, 5)
        }
        u = write(tmp_path, "u3.json", {"type": "tabulated", "poset": poset, "values": values})
        sets = [
            write(tmp_path, f"s{i}.json", {"members": ["1", "2", "3"]})
            for i in range(3)
        ]
        start = write(tmp_path, "start.json", {"point": ["3", "3", "3"]})
        return u, sets, start

    def test_refine_lands_on_the_product_locus(self, bundle, capsys):
        u, sets, start = bundle
        rc = main(["refine", "--json", u, "--sets", *sets, "--start", start])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        x = [int(c) for c in report["trace"]["result"]]
        assert x[0] * x[2] == x[1]
        assert min(x[0] * x[2], x[1]) == 3
        assert report["trace"]["checks"]["efficient"] is True

    def test_order_permutations_all_satisfy_postconditions(self, bundle, capsys):
        u, sets, start = bundle
        for order in ("1,2,3", "3,2,1", "2,3,1"):
            rc = main(["refine", "--json", u, "--sets", *sets, "--start", start, "--order", order])
            assert rc == 0
            report = json.loads(capsys.readouterr().out)
            x = [int(c) for c in report["trace"]["result"]]
            assert min(x[0] * x[2], x[1]) == 3
            assert report["trace"]["checks"]["efficient"] is True


GRID_BOX = {"axes": [{"lo": "0", "hi": "2", "step": "1"}] * 2}
CONTINUOUS_BOX = {"axes": [{"lo": "0", "hi": "2"}] * 2}
STEPLESS_AXIS_ERR = "error: box axis {} has no 'step': a closed form is read as its table on a grid\n"
CHAIN3 = {"type": "tabulated", "poset": chain_json(3), "values": {"0": "0", "1": "1", "2": "2"}}
NESTED_MIN_PRODUCT = {"type": "min_product", "factors": [
    {"type": "min_product", "factors": [CHAIN3, CHAIN3]}, CHAIN3]}
CLASSICAL1 = {"type": "classical", "a": ["1"], "box": {"axes": [GRID_BOX["axes"][0]]}}
NESTED_RESTRICT = {"type": "restrict", "downset": {"generators": [["1"]]}, "base": {
    "type": "restrict", "downset": {"generators": [["1"]]}, "base": {
        "type": "classical", "a": ["1"], "box": {"axes": [GRID_BOX["axes"][0]]}}}}

CLASSICAL2 = {"type": "classical", "a": ["1", "3/2"], "box": GRID_BOX}


class TestGriddedCombinators:
    """A gridded closed form is its table: ``affine``, ``restrict`` and
    ``min_product`` of such forms report what the same combinator of their
    table files reports."""

    FORMS = {
        "affine": ({"type": "affine", "a": "2", "b": "1", "base": CLASSICAL2}, ["2,1"]),
        "restrict": ({"type": "restrict", "downset": {"generators": [["2", "1"], ["1", "2"]]},
                      "base": CLASSICAL2}, ["2,1"]),
        # a 2-axis x 1-axis product: "a,b,c" keys name its points
        "min_product": ({"type": "min_product", "factors": [CLASSICAL2, CLASSICAL1]}, ["2,1,1"]),
    }

    @pytest.mark.parametrize("command", ["check", "efficient", "maximize"])
    @pytest.mark.parametrize("name", sorted(FORMS))
    def test_report_equals_the_tabulated_file(self, name, command, tmp_path, capsys):
        form, gens = self.FORMS[name]
        extra = ["--downset", write(tmp_path, "s.json", {"generators": gens})]
        reports = []
        for stem, obj in (("forms", form), ("tables", as_tables(form))):
            u = write(tmp_path, f"{stem}.json", obj)
            assert main([command, "--json", u, *(extra if command == "maximize" else [])]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report.pop("input") == u
            reports.append(report)
        assert reports[0] == reports[1]

    def test_off_grid_restrict_generator(self, tmp_path, capsys):
        u = write(tmp_path, "u.json", {"type": "restrict", "base": CLASSICAL2,
                                       "downset": {"generators": [["1/2", "1"]]}})
        assert main(["check", u]) == 2
        assert capsys.readouterr().err == "error: unknown element '1/2'\n"


CONTINUOUS1 = {"type": "classical", "a": ["1"], "box": {"axes": [CONTINUOUS_BOX["axes"][0]]}}
CONTINUOUS_MIN_PRODUCT = {"type": "min_product", "factors": [CONTINUOUS1, CONTINUOUS1]}


class TestContinuousMinProduct:
    """A closed form is read only as its table on a grid, so a ``min_product``
    with a factor on a box without steps is refused at load, in every
    command and inside any wrapper, with the line that names the axis."""

    FORMS = {
        "continuous": CONTINUOUS_MIN_PRODUCT,
        "mixed": {"type": "min_product", "factors": [CHAIN3, CONTINUOUS1]},
        "gridded-and-continuous": {"type": "min_product", "factors": [CLASSICAL1, CONTINUOUS1]},
        "affine": {"type": "affine", "a": "2", "b": "1", "base": CONTINUOUS_MIN_PRODUCT},
        "restrict": {"type": "restrict", "downset": {"generators": [[["1"], ["1"]]]},
                     "base": CONTINUOUS_MIN_PRODUCT},
    }
    ERR = STEPLESS_AXIS_ERR.format(1)

    @pytest.mark.parametrize("command", ["check", "efficient", "maximize", "refine"])
    @pytest.mark.parametrize("name", sorted(FORMS))
    def test_refused_at_load(self, name, command, tmp_path, capsys):
        u = write(tmp_path, "u.json", self.FORMS[name])
        s = write(tmp_path, "s.json", {"generators": [["1", "1"]]})
        extra = {"maximize": ["--downset", s], "refine": ["--sets", s, s]}.get(command, [])
        assert main([command, u, *extra]) == 2
        assert capsys.readouterr() == ("", self.ERR)


class TestHostileShapes:
    """JSON values of the wrong shape are input errors (exit 2), not tracebacks."""

    @pytest.mark.parametrize("utility, err", [
        ({"type": "classical", "a": 5, "box": GRID_BOX}, "'a' must be a list"),
        ({"type": "power", "a": ["1", "1"], "alpha": 2, "box": GRID_BOX},
         "'alpha' must be a list"),
        ({"type": "restrict", "downset": {"generators": 5},
          "base": {"type": "classical", "a": ["1", "1"], "box": GRID_BOX}},
         "'generators' must be a list"),
        ({"type": "restrict", "downset": 7,
          "base": {"type": "classical", "a": ["1", "1"], "box": GRID_BOX}},
         "down-set needs 'generators' or 'members'"),
        ({"type": "min_product", "factors": 5}, "'factors' must be a list"),
    ])
    def test_utility_field(self, utility, err, tmp_path, capsys):
        assert main(["check", write(tmp_path, "u.json", utility)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize("box", [GRID_BOX, CONTINUOUS_BOX])
    @pytest.mark.parametrize("downset", [7, {"generators": 5}, {"members": 5}])
    def test_downset_file(self, box, downset, tmp_path, capsys):
        u = write(tmp_path, "u.json", {"type": "classical", "a": ["1", "1"], "box": box})
        s = write(tmp_path, "s.json", downset)
        assert main(["maximize", u, "--downset", s]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_empty_feasible_set_without_start(self, min_grid_utility, tmp_path, capsys):
        s = write(tmp_path, "s.json", {"members": []})
        assert main(["refine", min_grid_utility, "--sets", s, s]) == 2
        assert capsys.readouterr().err == "error: empty down-set\n"


class TestLargeProduct:
    """``check``, ``efficient`` and ``maximize`` on a 10^4 table of
    u(x) = min_i a_i x_i, checked against closed-form answers: a point is
    efficient iff it is the least one at its level, x = (ceil(u(x)/a_i))_i,
    and the largest efficient point of a down-set is (ceil(max/a_i))_i.
    Every certificate of ``check`` passes.  Each call has a time budget."""

    A = (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(1))
    BUDGET = 5.0

    @classmethod
    def least_at(cls, lam):
        return tuple(-(-lam // c) for c in cls.A)

    @pytest.fixture(scope="class")
    def table(self, tmp_path_factory):
        values = {x: min(c * t for c, t in zip(self.A, x)) for x in product(range(10), repeat=4)}
        path = tmp_path_factory.mktemp("large") / "u.json"
        path.write_text(json.dumps({"poset": {"product": [chain_json(10)] * 4}, "values": {
            ",".join(map(str, x)): str(v) for x, v in values.items()}}))
        return str(path), values

    def timed(self, argv, capsys):
        t0 = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - t0
        assert seconds < self.BUDGET, f"{argv[0]} took {seconds:.2f}s, budget {self.BUDGET}s"
        assert code == 0
        return json.loads(capsys.readouterr().out)

    def test_check(self, table, capsys):
        path, _ = table
        report = self.timed(["check", "--json", path], capsys)
        verdicts = {c["property"]: c["verdict"] for c in report["certificates"]}
        assert set(verdicts.values()) == {"pass"} and "meet-homomorphism" in verdicts

    def test_efficient(self, table, capsys):
        path, values = table
        report = self.timed(["efficient", "--json", path], capsys)
        points = [x for x in values if self.least_at(values[x]) == x]  # already in index order
        points.sort(key=lambda x: values[x])
        assert report["points"] == [[str(t) for t in x] for x in points]

    def test_maximize(self, table, tmp_path, capsys):
        path, values = table
        gens = [(9, 3, 3, 3), (3, 3, 3, 9)]
        s = write(tmp_path, "s.json", {"generators": [",".join(map(str, g)) for g in gens]})
        report = self.timed(["maximize", "--json", path, "--downset", s], capsys)
        members = [x for x in values if any(all(a <= b for a, b in zip(x, g)) for g in gens)]
        best = max(values[x] for x in members)
        assert report["result"]["value"] == str(best)
        assert report["result"]["maximizers"] == [
            [str(t) for t in x] for x in members if values[x] == best]
        assert report["result"]["largest_efficient"] == [str(t) for t in self.least_at(best)]
        assert report["localization"]["verdict"] == "pass"


class TestBounds:
    """Inputs whose domain or numbers are too large to enumerate or compute
    are refused (exit 2) before the work starts."""

    @staticmethod
    def timed_check(path, capsys):
        t0 = time.perf_counter()
        code = main(["check", path])
        return code, time.perf_counter() - t0, capsys.readouterr().err

    def test_huge_grid_box(self, tmp_path, capsys):
        box = {"axes": [{"lo": "0", "hi": "1000000000", "step": "1"},
                        {"lo": "0", "hi": "2", "step": "1"}]}
        u = write(tmp_path, "u.json", {"type": "classical", "a": ["1", "1"], "box": box})
        code, seconds, err = self.timed_check(u, capsys)
        assert code == 2 and seconds < 1
        assert err == f"error: domain has 1000000001 points, over the limit of {MAX_POINTS}\n"

    def test_huge_product(self, tmp_path, capsys):
        u = write(tmp_path, "u.json", {"poset": {"product": [chain_json(2)] * 17}, "values": {}})
        code, seconds, err = self.timed_check(u, capsys)
        assert code == 2 and seconds < 1
        assert err == ("error: invalid utility: domain has 131072 points, "
                       f"over the limit of {MAX_POINTS}\n")

    @pytest.mark.parametrize("alpha, err", [
        (["1000000000", "1"], "exact power 2^1000000000 has about 1000000000 bits, "
                              "over the limit of 4096"),
        (["1000000000/3", "1"], "the power form at (Fraction(2, 1), Fraction(0, 1)) "
                                "overflows a float"),
        (["2000", "2000"], "the power form at (Fraction(2, 1), Fraction(2, 1)) "
                           "overflows a float"),
    ])
    def test_huge_power(self, alpha, err, tmp_path, capsys):
        u = write(tmp_path, "u.json", {"type": "power", "a": ["1", "1"], "alpha": alpha,
                                       "box": GRID_BOX})
        code, seconds, got = self.timed_check(u, capsys)
        assert code == 2 and seconds < 1
        assert got == f"error: {err}\n"

    with open(os.path.join(os.path.dirname(__file__), "data", "tolerant_power.json")) as f:
        TOLERANT_POWER = json.load(f)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("form, gens, err", [
        ({"type": "power", "a": [1e300, 1e300], "alpha": [2.0, 2.0],
          "box": {"axes": [{"lo": 0.0, "hi": 1e10, "step": 1e10}] * 2}}, [[1e10, 1e10]],
         "the power form at (10000000000.0, 10000000000.0) overflows a float"),
        ({"type": "affine", "a": 1e308, "b": 0.0, "base": TOLERANT_POWER}, [[2.0, 4.0]],
         "invalid utility: the affine transform at (2.0, 2.0) overflows a float"),
        ({"type": "classical", "a": ["2", "2"],
          "box": {"axes": [{"lo": 0.0, "hi": 1.5e308, "step": 0.5e308}] * 2}}, None,
         "the power form at (1e+308, 1e+308) overflows a float"),
    ], ids=["power", "affine-table", "classical-grid"])
    def test_values_overflowing_a_float(self, form, gens, err, tmp_path, capsys):
        """A value that leaves the float range is bad input, not Infinity in
        the report nor a point lost from the efficient set."""
        u = write(tmp_path, "u.json", form)
        if gens is None:
            argv = ["efficient", "--json", u]
        else:
            argv = ["maximize", "--json", u, "--downset",
                    write(tmp_path, "gens.json", {"generators": gens})]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")


@pytest.mark.parametrize("command", ["check", "efficient"])
def test_oversized_grid_is_refused_before_an_axis_is_built(command, tmp_path, capsys, monkeypatch):
    from qleontief.order import FinitePoset

    chains = []
    monkeypatch.setattr(FinitePoset, "chain", classmethod(lambda cls, values: chains.append(values)))
    box = {"axes": [{"lo": "0", "hi": "40000", "step": "1"}, {"lo": "0", "hi": "2", "step": "1"}]}
    u = write(tmp_path, "u.json", {"type": "classical", "a": ["1", "1"], "box": box})
    assert main([command, u]) == 2
    assert capsys.readouterr().err == f"error: domain has 120003 points, over the limit of {MAX_POINTS}\n"
    assert chains == []


NAN, INF = float("nan"), float("inf")
GRID_BOX_4 = {"axes": [{"lo": "0", "hi": "3", "step": "1"}] * 2}


class TestNonFiniteNumbers:
    """JSON's NaN and Infinity are input errors (exit 2, one line), wherever
    a number is read: a NaN value has no place in the sorted values that
    every level set is read from."""

    CASES = {
        "classical-nan": ({"type": "classical", "a": [NAN, 1.0], "box": GRID_BOX_4}, "nan"),
        "classical-inf": ({"type": "classical", "a": [INF, 1.0], "box": GRID_BOX_4}, "inf"),
        "power-alpha-inf": ({"type": "power", "a": ["1", "1"], "alpha": [INF, 1.0],
                             "box": GRID_BOX_4}, "inf"),
        "affine-nan": ({"type": "affine", "a": NAN, "b": "0", "base": CHAIN3}, "nan"),
        "box-bound-inf": ({"type": "classical", "a": ["1", "1"], "box": {"axes": [
            {"lo": "0", "hi": INF, "step": "1"}, {"lo": "0", "hi": "3", "step": "1"}]}}, "inf"),
    }

    @pytest.mark.parametrize("command", ["check", "efficient"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_exits_two(self, name, command, tmp_path, capsys):
        utility, shown = self.CASES[name]
        assert main([command, write(tmp_path, "u.json", utility)]) == 2
        assert capsys.readouterr() == ("", f"error: not a finite number: {shown}\n")

    def test_maximize_generator(self, tmp_path, capsys):
        # a grid point is named, not read as a number, so NaN names no point
        u = write(tmp_path, "u.json", {"type": "classical", "a": ["1", "1"], "box": GRID_BOX_4})
        s = write(tmp_path, "s.json", {"generators": [[NAN, "1"]]})
        assert main(["maximize", u, "--downset", s]) == 2
        assert capsys.readouterr() == ("", "error: unknown element nan\n")


class TestExactPowerGrid:
    """A gridded ``power`` form whose values are all ints or Fractions is
    tabulated on the exact scale, as its ``classical`` twin is: no tolerance
    merges its values, and ``--tolerance`` leaves it alone."""

    @staticmethod
    def form(kind, a, axes, alpha=None):
        form = {"type": kind, "a": a, "box": {"axes": [{"lo": "0", "hi": str(axes[0] - 1),
                                                          "step": "1"}] * len(axes)}}
        return form if alpha is None else dict(form, alpha=alpha)

    @pytest.mark.parametrize("flags", [[], ["--tolerance", "1"]])
    def test_tiny_coefficients_keep_every_level(self, flags, tmp_path, capsys):
        a = ["1/10000000000000"] * 2
        got = []
        for stem, form in (("power", self.form("power", a, [4, 4], ["1", "1"])),
                           ("classical", self.form("classical", a, [4, 4]))):
            assert main(["efficient", "--json", *flags, write(tmp_path, f"{stem}.json", form)]) == 0
            got.append(json.loads(capsys.readouterr().out)["points"])
        assert got[0] == got[1] == [[str(t)] * 2 for t in range(4)]

    def test_values_past_two_to_the_53(self, tmp_path, capsys):
        u = write(tmp_path, "u.json", self.form("power", [BIG], [3], ["1"]))
        assert main(["check", "--quiet", u]) == 0
        assert capsys.readouterr().err == ""
        assert main(["efficient", "--json", u]) == 0
        assert json.loads(capsys.readouterr().out)["points"] == [["0"], ["1"], ["2"]]

    def test_min_product_with_a_classical_grid(self, tmp_path, capsys):
        u = write(tmp_path, "u.json", {"type": "min_product", "factors": [
            self.form("power", ["1"], [3], ["2"]), self.form("classical", ["1"], [3])]})
        assert main(["efficient", "--json", u]) == 0
        # each factor is a one-axis grid, so a point is a pair of 1-tuples
        assert json.loads(capsys.readouterr().out)["points"] == [[[t], [t]] for t in "012"]

    @pytest.mark.parametrize("first, second, points", [
        # x^2 is exact, x^(1/2) is not: both read on the tolerant scale
        (("power", ["1"], [3], ["2"]), ("power", ["1"], [3], ["1/2"]), ["00", "11", "22"]),
        # a float coefficient keeps the classical grid tolerant
        (("power", ["1"], [3], ["2"]), ("classical", [1.5], [3]), ["00", "11", "21", "22"]),
        (("classical", [1.5], [3]), ("power", ["1"], [3], ["2"]), ["00", "11", "12", "22"]),
    ])
    def test_min_product_with_a_tolerant_grid(self, first, second, points, tmp_path, capsys):
        u = write(tmp_path, "u.json", {"type": "min_product",
                                       "factors": [self.form(*first), self.form(*second)]})
        assert main(["efficient", "--json", u]) == 0
        assert json.loads(capsys.readouterr().out)["points"] == [[[x], [y]] for x, y in points]

    @pytest.mark.parametrize("first, point", [
        (("classical", ["1"], [3]), lambda t: [t]),
        ({"type": "min_product", "factors": [("power", ["1"], [3], ["2"]), ("classical", ["1"], [3])]},
         lambda t: [[t], [t]]),
    ], ids=["table", "product"])
    def test_exact_grid_with_a_tolerant_grid_loads(self, first, point, tmp_path, capsys):
        """A table exact in its own right, alone or inside a product, next to
        a tolerant one: the product takes floats from x^(1/2), so it is on
        that factor's tolerant scale, where ``--tolerance`` merges 1 and 2^(1/2)."""
        if isinstance(first, dict):
            first = dict(first, factors=[self.form(*f) for f in first["factors"]])
        else:
            first = self.form(*first)
        u = write(tmp_path, "u.json", {"type": "min_product", "factors": [
            first, self.form("power", ["1"], [3], ["1/2"])]})
        assert main(["check", "--quiet", u]) == 0
        assert capsys.readouterr().err == ""
        for flags, top in (([], 3), (["--tolerance", "0.5"], 2)):
            assert main(["efficient", "--json", *flags, u]) == 0
            assert json.loads(capsys.readouterr().out)["points"] == [[point(t), [t]] for t in "012"[:top]]


class TestScaleRule:
    """A loaded table is exact iff every value is an int or a Fraction, else
    on the first tolerant scale among its inputs, where ``--tolerance`` applies."""

    def efficient(self, u, capsys, *flags):
        assert main(["efficient", "--json", *flags, u]) == 0
        return json.loads(capsys.readouterr().out)["points"]

    def test_float_grid_of_a_rational_form_is_tolerant(self, tmp_path, capsys):
        """x on 0..0.3 by 0.1 holds floats, and its top point is 0.3 itself."""
        u = write(tmp_path, "u.json", {"type": "classical", "a": ["1", "1"], "box": {"axes": [
            {"lo": 0.0, "hi": 0.3, "step": 0.1}, {"lo": "0", "hi": "3", "step": "1"}]}})
        assert main(["check", "--quiet", u]) == 0
        assert capsys.readouterr().err == ""
        assert self.efficient(u, capsys) == [[0.0, "0"], [0.1, "1"], [0.2, "1"], [0.3, "1"]]
        assert self.efficient(u, capsys, "--tolerance", "0.5") == [[0.0, "0"]]

    def test_float_affine_of_an_exact_table_is_tolerant(self, tmp_path, capsys):
        base = {"poset": chain_json(3), "values": {"0": "0", "1": "1", "2": "2"}}
        u = write(tmp_path, "u.json", {"type": "affine", "a": 0.1, "b": "0", "base": base})
        assert main(["check", "--quiet", u]) == 0
        assert capsys.readouterr().err == ""
        assert self.efficient(u, capsys) == ["0", "1", "2"]
        assert self.efficient(u, capsys, "--tolerance", "0.5") == ["0"]

    def test_tolerant_factor_that_never_wins_the_min_is_exact(self, tmp_path, capsys):
        """10.5y on 1..2 never falls below x^2 on 0..2, so every value is an
        int or a Fraction: a tolerance of 1 does not merge 0, 1 and 4."""
        square = TestExactPowerGrid.form("power", ["1"], [3], ["2"])
        wide = {"type": "classical", "a": [10.5], "box": {"axes": [{"lo": "1", "hi": "2", "step": "1"}]}}
        u = write(tmp_path, "u.json", {"type": "min_product", "factors": [square, wide]})
        assert self.efficient(u, capsys, "--tolerance", "1") == [[[t], ["1"]] for t in "012"]


# Small JSON values: bounded numbers and a few tokens, so that no drawn
# exponent or coefficient can make a value table expensive to build.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3)
    | st.sampled_from(["0", "1", "2", "1/2", "-1", "x", "0,1", "2,2", "1,2,0", ""]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["generators", "members", "point", "a"]), inner,
                      max_size=2),
    max_leaves=6,
)


# Large exact numbers, as JSON integers and "p/q" strings, for coefficients and
# exponents: the size guards must refuse what is too large to compute.
big_numbers = st.integers(-10**20, 10**20) | st.builds(
    "{}/{}".format, st.integers(-10**20, 10**20), st.integers(1, 10**6))
coefficient_values = json_values | st.lists(big_numbers | json_values, min_size=1, max_size=3)


BIG = "100000000000000000001"  # 10**20 + 1, which a float does not hold


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


class TestFuzzedFields:
    """Arbitrary JSON values in one field or file of a fixed 3x3 problem
    (small ones, and large exact numbers for the coefficients and exponents)
    keep the exit-code contract; an uncaught exception, the only way to a
    traceback, fails the test."""

    @staticmethod
    def files(root, **objs):
        paths = {}
        for name, obj in objs.items():
            paths[name] = os.path.join(root, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        return paths

    @given(st.sampled_from(["classical-a", "power-a", "power-alpha"]), coefficient_values)
    @example("power-a", [BIG, BIG])  # exact values past 2**53
    @example("power-a", [BIG, 1e20])  # ints past 2**53 among floats, on the tolerant scale
    @settings(max_examples=150, deadline=2000)
    def test_coefficients(self, field, value):
        kind, name = field.split("-")
        utility = {"type": kind, "a": ["1", "2"], "box": GRID_BOX}
        if kind == "power":
            utility["alpha"] = ["1", "2"]
        utility[name] = value
        with tempfile.TemporaryDirectory() as root:
            p = self.files(root, u=utility)
            assert run_quietly(["check", p["u"]]) in (0, 1, 2)

    @given(st.sampled_from([GRID_BOX, CONTINUOUS_BOX]), json_values)
    @settings(max_examples=150)
    def test_downset_file(self, box, value):
        with tempfile.TemporaryDirectory() as root:
            p = self.files(root, u={"type": "classical", "a": ["1", "2"], "box": box}, s=value)
            assert run_quietly(["maximize", p["u"], "--downset", p["s"]]) in (0, 1, 2)

    @given(json_values)
    @settings(max_examples=150)
    def test_point_file(self, value):
        with tempfile.TemporaryDirectory() as root:
            p = self.files(root, u={"type": "classical", "a": ["1", "2"], "box": GRID_BOX},
                           s={"members": ["0", "1"]}, x=value)
            argv = ["refine", p["u"], "--sets", p["s"], p["s"], "--start", p["x"]]
            assert run_quietly(argv) in (0, 1, 2)

    @given(st.sampled_from(["elements", "covers", "leq"]), json_values)
    @settings(max_examples=150, deadline=2000)
    def test_poset_field(self, field, value):
        """One field of a 3-chain's poset; ``leq`` stands in for ``covers``."""
        order = "leq" if field == "leq" else "covers"
        poset = {"elements": ["0", "1", "2"], order: [["0", "1"], ["1", "2"]]}
        poset[field] = value
        with tempfile.TemporaryDirectory() as root:
            p = self.files(root, u={"poset": poset, "values": {"0": "0", "1": "1", "2": "2"}})
            for command in ("check", "efficient"):
                assert run_quietly([command, p["u"]]) in (0, 1, 2)

    @given(json_values)
    @settings(max_examples=150, deadline=2000)
    def test_subset_file(self, value):
        with tempfile.TemporaryDirectory() as root:
            p = self.files(root, u={"type": "classical", "a": ["1", "2"], "box": GRID_BOX}, s=value)
            assert run_quietly(["efficient", p["u"], "--subset", p["s"]]) in (0, 1, 2)

    @given(json_values, st.sampled_from([{"members": ["0", "1"]}, {"generators": ["2"]}]))
    @settings(max_examples=150, deadline=2000)
    def test_sets_file(self, value, other):
        with tempfile.TemporaryDirectory() as root:
            p = self.files(root, u={"type": "classical", "a": ["1", "2"], "box": GRID_BOX},
                           s=value, t=other)
            assert run_quietly(["refine", p["u"], "--sets", p["s"], p["t"]]) in (0, 1, 2)
            assert run_quietly(["refine", p["u"], "--sets", p["t"], p["s"]]) in (0, 1, 2)

    @given(json_values)
    @settings(max_examples=150, deadline=2000)
    def test_upper_point_file(self, value):
        with tempfile.TemporaryDirectory() as root:
            p = self.files(root, u={"type": "classical", "a": ["1", "2"], "box": GRID_BOX},
                           s={"generators": ["1,1"]}, x=value)
            assert run_quietly(["decompose", p["u"], "--upper", p["x"], "--subset", p["s"]]) in (0, 1, 2)


MIN_GRID = os.path.join(os.path.dirname(__file__), "data", "min_grid.json")

# Raw flag strings: arbitrary text, and comma-joined tokens that are near misses
# of a number (signs, spaces, empty parts, other digit scripts, other bases).
flag_strings = st.text(max_size=8) | st.lists(
    st.sampled_from(["1", "2", "0", "3", "-1", "+2", " 2", "٢", "0x1", "1e0", "1.5", "inf", "nan", ""]),
    max_size=3,
).map(",".join)

# Raw integer strings: arbitrary text, and near misses of an integer glued
# from signs, spaces, underscores, other digit scripts and other notations.
int_strings = st.text(max_size=6) | st.lists(
    st.sampled_from(["0", "1", "2", "9", "-", "+", " ", "_", "٢", "0x", "e", ".", "inf"]),
    max_size=4,
).map("".join)


def run_flag(argv):
    """(exit code, stdout, stderr) of one in-process call; argparse's usage
    error exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_input_error(err, flag):
    """One ``error:`` line, or argparse's usage (wrapped onto indented lines
    when long) and its error on ``flag``."""
    lines = err.splitlines()
    assert (len(lines) == 1 and lines[0].startswith("error: ")
            or len(lines) >= 2 and lines[0].startswith("usage: ")
            and all(line.startswith(" ") for line in lines[1:-1])
            and lines[-1].startswith(f"qleontief {flag[0]}: error: argument {flag[1]}: ")), err


class TestFuzzedFlags:
    """The raw string of a flag exits 0 or 2, never with a traceback: 0 exactly
    when the flag reads as a number of the right kind, else one error line."""

    @given(flag_strings)
    @example("1,,2")
    @example("2,1,")
    @example("0x1,2")
    @example("٢,1")
    @settings(max_examples=150, deadline=2000)
    def test_refine_order(self, raw):
        with tempfile.TemporaryDirectory() as root:
            s = TestFuzzedFields.files(root, s={"members": ["0", "1", "2", "3"]})["s"]
            code, out, err = run_flag(["refine", "--json", MIN_GRID, "--sets", s, s, f"--order={raw}"])
        try:
            order = [int(tok) for tok in raw.split(",")]
        except ValueError:
            order = None
        if order is not None and sorted(order) == [1, 2]:
            assert code == 0 and json.loads(out)["trace"]["order"] == order
        else:
            assert code == 2 and out == ""
            assert_input_error(err, ("refine", "--order"))

    @given(flag_strings)
    @example("1e400")
    @example("-0")
    @example("--")
    @settings(max_examples=150, deadline=2000)
    def test_check_tolerance(self, raw):
        code, out, err = run_flag(["check", MIN_GRID, f"--tolerance={raw}"])
        try:
            ok = float(raw) >= 0
        except ValueError:
            ok = False
        if ok:
            assert code == 0 and err == ""  # an exact table ignores the tolerance
        else:
            assert code == 2 and out == ""
            assert_input_error(err, ("check", "--tolerance"))

    @given(int_strings, int_strings)
    @example("0", "-7")
    @example("1_0", "0")
    @example("٢", "+3")
    @example(" 1", "9" * 30)
    @example("-0", "1.0")
    @example("--", "0")  # argparse alone read --n=-- as an empty list
    @example("0", "--")
    @settings(max_examples=100, deadline=2000)
    def test_corpus_n_and_seed(self, n_raw, seed_raw):
        n, seed = read_int(n_raw), read_int(seed_raw)
        assume(n is None or n <= CORPUS_FUZZ_MAX_N)  # bounded run time
        code, out, err = run_flag(["corpus", f"--n={n_raw}", f"--seed={seed_raw}"])
        assert "Traceback" not in err
        if n is not None and n >= 0 and seed is not None:
            assert code == 0 and err == "" and out.endswith("PASS corpus (0 inconsistencies)\n")
        else:
            assert code == 2 and out == ""
            assert_input_error(err, ("corpus", "--n" if n is None or n < 0 else "--seed"))

    def test_a_file_flag_given_two_dashes(self):
        code, out, err = run_flag(["maximize", MIN_GRID, "--downset=--"])
        assert (code, out) == (2, "") and err == "error: --: no such file\n"


# The largest ``corpus --n`` the fuzzed flags run; every larger count is rejected.
CORPUS_FUZZ_MAX_N = 3


def read_int(raw):
    """``raw`` as argparse's ``int`` reads it, or None."""
    try:
        return int(raw)
    except ValueError:
        return None


# Point tokens for the domains of ``nested_forms``: factor ids, one- and two-axis
# points, comma-joined product keys, and the Python form of a tuple, which names no point.
nested_points = st.lists(st.sampled_from(
    ["0", "1", ["1"], ["1", "1"], "1,1", ["2", "0"], ["1", "1", "1"], "('1', '1')"]),
    min_size=1, max_size=2)


def nested_forms():
    """``affine``, ``restrict`` and ``min_product`` nested up to depth 2 over
    tabulated chains and one-axis classical forms, gridded or on an axis
    without a step, which is refused at load."""
    chains = st.builds(
        lambda k, vals: {"type": "tabulated", "poset": chain_json(k),
                         "values": {str(i): v for i, v in enumerate(sorted(vals)[:k])}},
        st.integers(2, 3), st.lists(st.sampled_from(["0", "1/2", "1", "2"]), min_size=3, max_size=3))
    axis = st.sampled_from([{"lo": "0", "hi": "2", "step": "1"}, {"lo": "1", "hi": "3", "step": "1"},
                            {"lo": "0", "hi": "2"}])
    classical = st.builds(lambda a, ax: {"type": "classical", "a": [a], "box": {"axes": [ax]}},
                          st.sampled_from(["1", "2", "1/2"]), axis)

    def wrap(inner):
        return (st.builds(lambda a, b, base: {"type": "affine", "a": a, "b": b, "base": base},
                          st.sampled_from(["2", "1/2"]), st.sampled_from(["0", "1"]), inner)
                | st.builds(lambda g, base: {"type": "restrict", "base": base, "downset": {"generators": g}},
                            nested_points, inner)
                | st.builds(lambda fs: {"type": "min_product", "factors": fs},
                            st.lists(inner, min_size=1, max_size=2)))

    leaves = chains | classical
    depth1 = wrap(leaves)
    return depth1 | wrap(leaves | depth1)


class TestNestedCombinators:
    """Every nesting keeps the exit-code contract in ``check``, ``efficient``
    and ``maximize``: no traceback, and a bounded time per example."""

    @given(nested_forms(), st.sampled_from(["generators", "members"]), nested_points)
    @example(NESTED_RESTRICT, "generators", [["1"]])
    @example(NESTED_MIN_PRODUCT, "generators", [[["1", "2"], "1"]])
    @settings(max_examples=150, deadline=5000)
    def test_commands(self, form, kind, downset):
        with tempfile.TemporaryDirectory() as root:
            p = TestFuzzedFields.files(root, u=form, s={kind: downset})
            for argv in (["check", p["u"]], ["efficient", p["u"]],
                         ["maximize", p["u"], "--downset", p["s"]]):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
