import contextlib
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

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

    def test_list_values_is_input_error(self, tmp_path, capsys):
        bad = write(tmp_path, "list.json", {"poset": chain_json(2), "values": ["1", "2"]})
        assert main(["check", bad]) == 2
        assert "error: tabulated 'values' must be an object" in capsys.readouterr().err

    def test_list_poset_element_is_input_error(self, tmp_path, capsys):
        poset = {"elements": [["0"], "1"], "covers": [[["0"], "1"]]}
        bad = write(tmp_path, "elem.json", {"poset": poset, "values": {"0": "0", "1": "1"}})
        assert main(["check", bad]) == 2
        err = capsys.readouterr().err
        assert err == "error: poset needs an 'elements' list of strings or numbers\n"

    def test_non_numeric_price_entry_is_input_error(self, tmp_path, capsys):
        bad = write(tmp_path, "price.json", {"type": "price_matrix", "P": [["1", "x"], ["0", "1"]]})
        assert main(["check", bad]) == 2
        assert capsys.readouterr().err == "error: not a rational: 'x'\n"

    @pytest.mark.parametrize("box", [{"axes": "x"}, []])
    def test_malformed_box_is_input_error(self, box, tmp_path, capsys):
        bad = write(tmp_path, "box.json", {"type": "classical", "a": ["1"], "box": box})
        assert main(["check", bad]) == 2
        assert capsys.readouterr().err == "error: box needs a nonempty 'axes' list\n"

    def test_box_axis_not_an_object_is_input_error(self, tmp_path, capsys):
        bad = write(tmp_path, "box.json", {"type": "classical", "a": ["1"], "box": {"axes": ["0"]}})
        assert main(["check", bad]) == 2
        assert capsys.readouterr().err == "error: box 'axes' must be a list of objects\n"

    def test_json_report_structure(self, min_grid_utility, capsys):
        assert main(["check", "--json", min_grid_utility]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == 1
        assert report["ok"] is True
        props = {c["property"] for c in report["certificates"]}
        assert "quasi-leontief" in props and "regular" in props


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
        assert report["points"] == [["0", "0"], ["2", "1"], ["4", "2"]]


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


class TestMaximizeClosedForm:
    def test_generator_reduction_on_continuous_box(self, tmp_path, capsys):
        u = write(
            tmp_path,
            "classical.json",
            {
                "type": "classical",
                "a": ["1", "2"],
                "box": {"axes": [{"lo": "0", "hi": "5"}, {"lo": "0", "hi": "5"}]},
            },
        )
        s = write(tmp_path, "gens.json", {"generators": [["4", "1"], ["1", "4"]]})
        assert main(["maximize", "--json", u, "--downset", s]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["value"] == "2"
        assert report["result"]["maximizers"] == [["4", "1"]]

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

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("QL_SEED", "123")
        assert main(["corpus", "--json", "--n", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 123

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

    def test_continuous_box_cannot_be_checked(self, tmp_path):
        u = write(
            tmp_path,
            "cont.json",
            {
                "type": "classical",
                "a": ["1"],
                "box": {"axes": [{"lo": "0", "hi": "1"}]},
            },
        )
        assert main(["check", u]) == 2


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


class TestHostileShapes:
    """JSON values of the wrong shape are input errors (exit 2), not tracebacks."""

    @pytest.mark.parametrize("utility, err", [
        ({"type": "classical", "a": 5, "box": GRID_BOX}, "'a' must be a list"),
        ({"type": "power", "a": ["1", "1"], "alpha": 2, "box": GRID_BOX},
         "'alpha' must be a list"),
        ({"type": "restrict", "downset": {"generators": 5},
          "base": {"type": "classical", "a": ["1", "1"], "box": CONTINUOUS_BOX}},
         "down-set 'generators' must be a list of points"),
        ({"type": "restrict", "downset": 7,
          "base": {"type": "classical", "a": ["1", "1"], "box": CONTINUOUS_BOX}},
         "closed-form restriction needs generators"),
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
big_numbers = st.integers(-10**12, 10**12) | st.builds(
    "{}/{}".format, st.integers(-10**12, 10**12), st.integers(1, 10**6))
coefficient_values = json_values | st.lists(big_numbers | json_values, min_size=1, max_size=3)


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


class TestFuzzedFields:
    """Arbitrary JSON values in one field of a fixed 3x3 problem (small ones,
    and large exact numbers for the coefficients and exponents) keep the
    exit-code contract; an uncaught exception fails the test."""

    @staticmethod
    def files(root, **objs):
        paths = {}
        for name, obj in objs.items():
            paths[name] = os.path.join(root, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        return paths

    @given(st.sampled_from(["classical-a", "power-a", "power-alpha"]), coefficient_values)
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
