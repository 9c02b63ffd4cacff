import json
from fractions import Fraction as F

import pytest

import qleontief as q
from qleontief import io


class TestRationals:
    def test_parse_forms(self):
        assert io.parse_rational("3/2") == F(3, 2)
        assert io.parse_rational("4") == F(4)
        assert io.parse_rational(7) == F(7)

    def test_rejects_floats_and_garbage(self):
        with pytest.raises(io.InputError):
            io.parse_rational(1.5)
        with pytest.raises(io.InputError):
            io.parse_rational("x/y")
        with pytest.raises(io.InputError):
            io.parse_rational("1/0")

    def test_encode_round_trip(self):
        for v in (F(3, 2), F(-1, 4), F(5)):
            assert io.parse_rational(io.encode_value(v)) == v


class TestPosetFiles:
    def test_covers_form(self):
        p = io.poset_from_json(
            {"elements": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"]]}
        )
        assert p.leq("a", "c")

    def test_leq_form(self):
        pairs = [["a", "a"], ["b", "b"], ["a", "b"]]
        p = io.poset_from_json({"elements": ["a", "b"], "leq": pairs})
        assert p.leq("a", "b") and not p.leq("b", "a")

    def test_invalid_relation_is_input_error(self):
        with pytest.raises(io.InputError, match="transitivity"):
            io.poset_from_json(
                {
                    "elements": ["a", "b", "c"],
                    "leq": [["a", "a"], ["b", "b"], ["c", "c"], ["a", "b"], ["b", "c"]],
                }
            )

    @pytest.mark.parametrize("covers", [[["a", ["b"]]], [["a", "b", "c"]], [{"a": "b"}], "ab"])
    def test_malformed_pairs_are_input_errors(self, covers):
        with pytest.raises(io.InputError, match="'covers' must be a list of element pairs"):
            io.poset_from_json({"elements": ["a", "b", "c"], "covers": covers})

    def test_product_form(self):
        space = io.poset_from_json(
            {
                "product": [
                    {"elements": ["0", "1"], "covers": [["0", "1"]]},
                    {"elements": ["0", "1"], "covers": [["0", "1"]]},
                ]
            }
        )
        assert isinstance(space, q.ProductSpace)
        assert len(space) == 4

    def test_poset_by_path(self, tmp_path):
        sub = tmp_path / "chain.json"
        sub.write_text(json.dumps({"elements": ["0", "1"], "covers": [["0", "1"]]}))
        p = io.poset_from_json(str(sub.name), base_dir=str(tmp_path))
        assert p.leq("0", "1")


class TestDownsetAndPoints:
    def setup_method(self):
        self.space = io.poset_from_json(
            {
                "product": [
                    {"elements": ["0", "1", "2"], "covers": [["0", "1"], ["1", "2"]]},
                    {"elements": ["0", "1", "2"], "covers": [["0", "1"], ["1", "2"]]},
                ]
            }
        )

    def test_generators_comma_form(self):
        s = io.downset_from_json({"generators": ["1,2"]}, self.space)
        assert ("1", "2") in s.members()
        assert ("0", "0") in s.members()

    def test_members_validated(self):
        with pytest.raises(io.InputError, match="comprehensive"):
            io.downset_from_json({"members": ["2,2"]}, self.space)

    def test_exact_id_wins_over_string_form(self):
        poset = io.poset_from_json({"elements": ["1", 1, "b"], "covers": []})
        assert io.resolve_element(poset, 1) == 1 and io.resolve_element(poset, "1") == "1"
        assert io.resolve_element(poset, " b ") == "b"

    def test_shared_string_form_is_ambiguous(self):
        poset = io.poset_from_json({"elements": ["1", 1], "covers": []})
        with pytest.raises(io.InputError, match=r"^ambiguous element ' 1': matches '1', 1$"):
            io.resolve_element(poset, " 1")
        with pytest.raises(io.InputError, match=r"^unknown element \['1'\]$"):
            io.resolve_element(poset, ["1"])

    def test_point_forms(self):
        assert io.point_from_json({"point": ["1", "2"]}, self.space) == ("1", "2")
        assert io.point_from_json({"point": "1,2"}, self.space) == ("1", "2")
        with pytest.raises(io.InputError):
            io.point_from_json({"point": ["9", "9"]}, self.space)


class TestUtilityFiles:
    def test_tabulated_requires_full_table(self):
        obj = {
            "type": "tabulated",
            "poset": {"elements": ["a", "b"], "covers": [["a", "b"]]},
            "values": {"a": "0"},
        }
        with pytest.raises(io.InputError):
            io.utility_from_json(obj)

    def test_power_form(self):
        u = io.utility_from_json(
            {
                "type": "power",
                "a": ["1", "1"],
                "alpha": ["2", "1"],
                "box": {"axes": [{"lo": "0", "hi": "9"}, {"lo": "0", "hi": "9"}]},
            }
        )
        assert u.value((F(3), F(4))) == 4

    def test_price_matrix_form(self):
        u = io.utility_from_json({"type": "price_matrix", "P": [[2.0, 0.0], [0.0, 4.0]]})
        assert u.x_P == pytest.approx((0.5, 0.25))

    def test_affine_over_classical(self):
        u = io.utility_from_json(
            {
                "type": "affine",
                "a": "2",
                "b": "5",
                "base": {
                    "type": "classical",
                    "a": ["1", "2"],
                    "box": {"axes": [{"lo": "0", "hi": "4"}] * 2},
                },
            }
        )
        assert u.value((F(4), F(1))) == 9

    def test_min_product_of_tabulated_chains(self):
        chain = {"elements": ["0", "1", "2"], "covers": [["0", "1"], ["1", "2"]]}
        obj = {
            "type": "min_product",
            "factors": [
                {"type": "tabulated", "poset": chain, "values": {"0": "0", "1": "1", "2": "2"}},
                {"type": "tabulated", "poset": chain, "values": {"0": "0", "1": "1", "2": "2"}},
            ],
        }
        u = io.utility_from_json(obj)
        assert u.value(("1", "2")) == 1
        assert u.dual(F(2)) == ("2", "2")

    def test_restrict_over_tabulated(self):
        chain = {"elements": ["0", "1", "2"], "covers": [["0", "1"], ["1", "2"]]}
        obj = {
            "type": "restrict",
            "base": {
                "type": "tabulated",
                "poset": chain,
                "values": {"0": "0", "1": "1", "2": "2"},
            },
            "downset": {"members": ["0", "1"]},
        }
        u = io.utility_from_json(obj)
        assert set(u.poset.elements) == {"0", "1"}

    def test_unknown_type(self):
        with pytest.raises(io.InputError, match="unknown utility type"):
            io.utility_from_json({"type": "mystery"})


class TestDeterministicReports:
    def test_dumps_sorted_and_stable(self):
        a = io.dumps_report({"b": 1, "a": [2, 1]})
        b = io.dumps_report({"a": [2, 1], "b": 1})
        assert a == b
        assert a.endswith("\n")
