import json

import pytest

from qleontief.cli import main


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
