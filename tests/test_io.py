import contextlib
import json
import math
import operator
import os
import random
import tempfile
from fractions import Fraction as F
from io import StringIO
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qleontief as q
from qleontief import io
from qleontief.cli import main
from qleontief.leontief import _Ranks
from qleontief.order import MAX_POINTS, elem_key


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

    @staticmethod
    def assert_parses_as_fraction(raw):
        """``parse_rational`` gives ``Fraction``'s reading of the string, or
        refuses it where ``Fraction`` does."""
        try:
            want = F(raw)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(io.InputError, match=r"^not a rational: "):
                io.parse_rational(raw)
        else:
            got = io.parse_rational(raw)
            assert type(got) is F and got == want

    @given(st.one_of(
        st.text(st.sampled_from("0123456789/-+ ._e\u0663\u0669\uff11\u00b2"), max_size=8),
        st.tuples(st.integers(0, 10 ** 30), st.integers(0, 10 ** 30)).map(lambda p: f"{p[0]}/{p[1]}"),
    ))
    @settings(max_examples=300, deadline=None)
    def test_parse_matches_fraction_on_strings(self, raw):
        """Decimal digit strings, with a slash or without, take ``int``: the
        value and every refusal are ``Fraction``'s, Unicode digits included."""
        self.assert_parses_as_fraction(raw)

    @pytest.mark.parametrize("raw", ["7" * 5000, "1/" + "3" * 5000, "1e10000", "0/0", "00012/0008", "\u0663/\u0669"])
    def test_parse_matches_fraction_at_the_edges(self, raw):
        """Past the int-string digit limit both refuse; a zero denominator is refused."""
        self.assert_parses_as_fraction(raw)

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

    @pytest.mark.parametrize("covers", [[["a", ["b"]]], [["a", "b", "c"]], [{"a": "b"}], "ab",
                                        [["a", "b"], ["b", None]], [["a", "b"], ["c"]], [["a", "b"], "bc"],
                                        [["a", "b"], ["b", {"c": 1}]]])
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
        assert ("1", "2") in s
        assert ("0", "0") in s

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
                "box": {"axes": [{"lo": "0", "hi": "9", "step": "1"}] * 2},
            }
        )
        assert u.value((F(3), F(4))) == 4

    def test_price_matrix_form_is_refused(self):
        with pytest.raises(io.InputError, match="the price_matrix form is no longer read"):
            io.utility_from_json({"type": "price_matrix", "P": [[2.0, 0.0], [0.0, 4.0]]})

    def test_affine_over_classical(self):
        u = io.utility_from_json(
            {
                "type": "affine",
                "a": "2",
                "b": "5",
                "base": {
                    "type": "classical",
                    "a": ["1", "2"],
                    "box": {"axes": [{"lo": "0", "hi": "4", "step": "1"}] * 2},
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
        assert isinstance(u.poset, q.ProductSpace) and not u.certified
        assert u.value(("1", "2")) == 1
        assert q.require_certified(u).dual(F(2)) == ("2", "2")

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

    @pytest.mark.parametrize("poset, keys, point", [
        ({"elements": ["a", "b"], "covers": []}, ["a", " a", "b"], "a"),
        ({"product": [{"elements": ["0", "1"], "covers": []}] * 2},
         ["0,0", "0,1", "1,0", "1,1", "0, 0"], "0,0"),
    ])
    def test_point_named_twice(self, poset, keys, point):
        obj = {"poset": poset, "values": {k: str(i) for i, k in enumerate(keys)}}
        with pytest.raises(io.InputError, match=rf"^point '{point}' is named twice in 'values'"):
            io.utility_from_json(obj)

    @pytest.mark.parametrize("text, key", [
        ('{"poset": {"elements": ["a", "b"], "covers": []}, "values": {"a": "5", "b": "1", "a": "0"}}', "a"),
        ('{"poset": {"elements": ["a"], "elements": ["a", "b"], "covers": []}, "values": {}}', "elements"),
    ])
    def test_repeated_key_refused_at_load(self, text, key, tmp_path):
        # json.load alone would keep the last value of a repeated key
        path = tmp_path / "twice.json"
        path.write_text(text)
        with pytest.raises(io.InputError, match=rf"^key '{key}' is named twice in one object$"):
            io.load_json(str(path))

    def test_product_keys_read_by_lookup_or_resolver(self):
        # "a" and "b" parts hit an element at once; "0", " b" and "1 " take the resolver
        poset = {"product": [{"elements": ["a", "b"], "covers": []},
                             {"elements": [0, 1], "covers": []}]}
        values = {"a,0": "0", "a,1 ": "1", " b,0": "2", "b,1": "3"}
        u = io.utility_from_json({"poset": poset, "values": values})
        assert u.values == {("a", 0): 0, ("a", 1): 1, ("b", 0): 2, ("b", 1): 3}
        assert all(isinstance(c, int) for _, c in u.values)

    @pytest.mark.parametrize("raw, err", [
        (True, "not a rational: True"),
        (1.5, "floats are not exact rationals: 1.5"),
        (["1"], r"not a rational: \['1'\]"),
    ])
    def test_cached_values_keep_their_errors(self, raw, err):
        # 1 is parsed and cached first: true must not be read as it
        obj = {"poset": {"elements": ["a", "b"], "covers": []}, "values": {"a": 1, "b": raw}}
        with pytest.raises(io.InputError, match=rf"^{err}$"):
            io.utility_from_json(obj)

    def test_equal_values_share_one_rank(self):
        poset = {"elements": ["a", "b", "c", "d"], "covers": []}
        u = io.utility_from_json({"poset": poset, "values": {"a": "1", "b": 1, "c": "2/2", "d": "3"}})
        assert u.image() == (F(1), F(3))
        assert u._ranks().rank == [0, 0, 0, 1]

    def test_each_distinct_value_is_parsed_once(self, monkeypatch):
        chain = {"elements": [str(t) for t in range(6)],
                 "covers": [[str(t), str(t + 1)] for t in range(5)]}
        points = list(product(range(6), repeat=4))
        values = {",".join(map(str, p)): str(min(p[0], 2 * p[1], 3 * p[2], p[3])) for p in points}
        parse, parsed = io.parse_rational, []
        monkeypatch.setattr(io, "parse_rational", lambda raw: parsed.append(raw) or parse(raw))
        u = io.utility_from_json({"poset": {"product": [chain] * 4}, "values": values})
        assert len(u.values) == 1296
        assert sorted(parsed) == sorted(set(values.values()))
        assert u.value(("5", "5", "5", "5")) is u.value(("5", "3", "2", "5"))

    def test_unknown_type(self):
        with pytest.raises(io.InputError, match="unknown utility type"):
            io.utility_from_json({"type": "mystery"})


class TestDeterministicReports:
    def test_dumps_sorted_and_stable(self):
        a = io.dumps_report({"b": 1, "a": [2, 1]})
        b = io.dumps_report({"a": [2, 1], "b": 1})
        assert a == b
        assert a.endswith("\n")


def ref_dumps_report(obj):
    """The report writer's contract: ``json.dumps`` with sorted keys, an
    indent of 2 and no blank before a comma, then a newline."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def written(dump, obj):
    """What ``dump`` makes of obj: its text, or the type of what it raised."""
    try:
        return dump(obj)
    except Exception as exc:
        return type(exc)


JSON_STRINGS = st.text(st.one_of(
    st.characters(exclude_categories=()),  # lone surrogates included
    st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfff\U0001f600é'),
), max_size=8)
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(2 ** 64, 2 ** 200), st.integers(-(2 ** 200), -(2 ** 64)),
    st.floats(), st.sampled_from([0.0, -0.0, 5e-324, 1.7e308, math.nan, math.inf, -math.inf]),
    JSON_STRINGS,
)


def json_trees(leaves):
    return st.recursive(leaves, lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(JSON_STRINGS, kids, max_size=4),
    ), max_leaves=20)


@given(json_trees(JSON_SCALARS))
@settings(max_examples=200, deadline=None)
def test_report_writer_matches_json_dumps(obj):
    assert written(io.dumps_report, obj) == written(ref_dumps_report, obj)


@given(json_trees(st.one_of(JSON_SCALARS, st.fractions(), st.sets(st.integers(), max_size=2))))
@settings(max_examples=100, deadline=None)
def test_report_writer_refuses_what_json_dumps_refuses(obj):
    assert written(io.dumps_report, obj) == written(ref_dumps_report, obj)


@given(st.dictionaries(st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.fractions(),
                                 st.tuples(st.integers())), JSON_SCALARS, max_size=4))
@settings(max_examples=100, deadline=None)
def test_report_writer_writes_scalar_keys_as_json_dumps(obj):
    assert written(io.dumps_report, obj) == written(ref_dumps_report, obj)


def test_report_writer_writes_shared_objects_as_json_dumps():
    """A dict and a list held twice, once at one depth and once at two."""
    table, point = {"1/2": ["a", "b"], "1": [0, 1.5, None]}, ["x", {"k": []}]
    same_depth = {"first": {"table": table, "point": point}, "second": {"table": table, "point": point}}
    other_depths = {"table": table, "point": point, "certificates": [{"table": table, "point": [point]}]}
    for report in (same_depth, other_depths, [table, table, [table]]):
        assert io.dumps_report(report) == ref_dumps_report(report)


@pytest.mark.parametrize("golden", sorted(p.name for p in (Path(__file__).parent / "data").glob("*.out")))
def test_report_writer_rewrites_every_golden(golden):
    text = (Path(__file__).parent / "data" / golden).read_text(encoding="utf-8")
    obj = json.loads(text)
    assert io.dumps_report(obj) == ref_dumps_report(obj) == text


def ref_load_table(obj):
    """The loader that keys each value by its point: every key read to its
    element of a plain poset or a product, in file order, the values gathered
    in a dict, and the table made from that, which names a missing point."""
    space = io.poset_from_json(obj["poset"])
    values = {}
    for key, raw in obj["values"].items():
        e = io.resolve_element(space, key)
        if e in values:
            raise io.InputError(f"point {elem_key(e)!r} is named twice in 'values' (again as {key!r})")
        values[e] = io.parse_rational(raw)
    try:
        return q.TabulatedUtility(space, values)
    except q.UtilityError as exc:
        raise io.InputError(f"invalid utility: {exc}") from None


def load_outcome(load, obj):
    """The error text, or each (point, value, type of value) and the image."""
    try:
        u = load(obj)
    except io.InputError as exc:
        return str(exc)
    return [(e, v, type(v)) for e, v in u.values.items()], u.image()


FACTORS = [
    {"elements": ["0", "1", "2"], "covers": [["0", "1"], ["1", "2"]]},
    {"elements": [0, 1], "covers": [[0, 1]]},
    {"elements": ["lo", "l", "r"], "covers": [["lo", "l"], ["lo", "r"]]},
    {"elements": ["a", 1, "1.5"], "covers": []},
    {"elements": ["a,b", "c"], "covers": [["a,b", "c"]]},  # no key names "a,b"
    {"product": [{"elements": ["0", "1"], "covers": [["0", "1"]]}]},  # refused as a factor
]


def factor_ids(factor):
    return factor["elements"] if "elements" in factor else [
        ",".join(p) for p in product(*map(factor_ids, factor["product"]))]


FAULTS = ["twice", "missing", "unknown", "arity", "value"]
BAD_VALUES = ["x", "1/0", True, 1.0, 1.5, None, ["1"]]


def value_files(seed):
    """Tables on plain posets and on products of one to three factors, with
    string, numeric and comma-bearing ids, keyed in several spellings and
    orders: every key spelled as the space enumerates its points, every key
    spelled with blanks, or a mix.  Some have one or two faults: a point
    named twice, a point missing, an unknown coordinate, a wrong arity or a
    bad value, which may sit on a faulty key."""
    rng = random.Random(seed)
    if rng.random() < 0.3:  # a plain poset, its points read as 1-tuples
        poset = rng.choice(FACTORS[:5])
        factors, points = [poset], [(e,) for e in poset["elements"]]
    else:
        factors = [rng.choice(FACTORS[:4] * 3 + FACTORS[4:]) for _ in range(rng.randint(1, 3))]
        poset, points = {"product": factors}, list(product(*map(factor_ids, factors)))
    spell = [lambda cs: ",".join(cs), lambda cs: " " + ",".join(cs), lambda cs: ", ".join(cs)]
    spellings = rng.choice([spell[:1], spell, spell[1:]])
    keys = [rng.choice(spellings)([str(c) for c in p]) for p in points]
    faults = rng.choice([[], [], *([f] for f in FAULTS), rng.sample(FAULTS, 2)])
    if "twice" in faults:
        keys.append(rng.choice(spell[1:])([str(c) for c in rng.choice(points)]))
    if "missing" in faults:
        keys.pop(rng.randrange(len(keys)))
    if "unknown" in faults:
        keys.append(",".join(["9"] * len(factors)))
    if "arity" in faults:
        keys.append(",".join(["0"] * (len(factors) + 1)))
    rng.shuffle(keys)
    values = {k: rng.choice(["0", "1/2", 1, "2/2", "3"]) for k in keys}
    if "value" in faults:
        bad = rng.choice(BAD_VALUES)
        if bad == 1:  # true or 1.0 next to the int 1, which equals it
            values = dict.fromkeys(keys, 1)
        values[rng.choice(keys)] = bad
    return {"poset": poset, "values": values}


@pytest.mark.parametrize("seed", range(150))
def test_column_load_matches_the_keyed_loader(seed):
    obj = value_files(seed)
    assert load_outcome(io.utility_from_json, obj) == load_outcome(ref_load_table, obj)


@pytest.mark.parametrize("seed", range(150))
def test_loaded_rank_table_is_the_columns(seed):
    """The rank table the loader makes is the one ``_Ranks`` makes of the
    loaded column, down to which of two equal values stands in the image."""
    obj = value_files(seed)
    try:
        u = io.utility_from_json(obj)
    except io.InputError:
        return
    got, fresh = u._rank_table, _Ranks(u.column)
    assert (got.rank, got.suffix, got.lo) == (fresh.rank, fresh.suffix, fresh.lo)
    assert len(got.image) == len(fresh.image) and all(map(operator.is_, got.image, fresh.image))


@pytest.mark.parametrize("values, err", [
    ({"0,0": "1", "0,1": "2", "1,0": "3", "1, 1": "4", "1,1": "5"},
     "point '1,1' is named twice in 'values' (again as '1,1')"),
    ({"0,0": "1", "1,1": "2", "1,0": "3"}, "invalid utility: no value for element ('0', 1)"),
    ({"0,0": "1", "0,7": "2"}, "unknown element '7'"),
    ({"0,0": "1", "0": "2"}, "point '0' has wrong arity"),
])
def test_column_load_errors(values, err):
    # string ids on the first axis, numeric ids on the second
    obj = {"poset": {"product": [{"elements": ["0", "1"], "covers": [["0", "1"]]}, FACTORS[1]]},
           "values": values}
    with pytest.raises(io.InputError) as exc:
        io.utility_from_json(obj)
    assert str(exc.value) == err == load_outcome(ref_load_table, obj)


def test_locate_reads_nested_product_points():
    chain, vee, pair = (q.FinitePoset.chain(["0", "1"]),
                        q.FinitePoset.from_covers(["lo", "l", "r"], [("lo", "l"), ("lo", "r")]),
                        q.FinitePoset.antichain(["p", 3]))
    space = q.ProductSpace([q.ProductSpace([chain, vee]), pair, q.ProductSpace([pair])])
    locate, width = io._reader(space)
    assert width == 4
    for i, x in enumerate(space):
        (c, v), a, (b,) = x
        for token in (elem_key(x), f"{c}, {v},{a},{b}", [[c, v], a, [b]], [f"{c},{v}", str(a), str(b)]):
            assert locate(token) == i
            assert io.resolve_element(space, token) == x


def test_canonical_keys_are_read_without_locate(monkeypatch):
    """A 6^4 table keyed as the product enumerates its points calls the
    product's ``locate`` for no key; keyed with ", " it calls it once per
    key, and both give the same column and image."""
    chain = {"elements": [str(t) for t in range(6)], "covers": [[str(t), str(t + 1)] for t in range(5)]}
    canonical = {",".join(map(str, p)): str(min(p[0], 2 * p[1], 3 * p[2], p[3]))
                 for p in product(range(6), repeat=4)}
    spaced = {k.replace(",", ", "): v for k, v in canonical.items()}
    reader, located = io._reader, []

    def spied(space):
        locate, width = reader(space)
        if not isinstance(space, q.ProductSpace):  # a factor's reader
            return locate, width
        return (lambda raw: located.append(raw) or locate(raw)), width

    monkeypatch.setattr(io, "_reader", spied)
    loads = []
    for values in (canonical, spaced):
        located.clear()
        u = io.utility_from_json({"poset": {"product": [chain] * 4}, "values": values})
        loads.append((list(located), u.column, u.image()))
    assert loads[0][0] == [] and loads[1][0] == list(spaced)
    assert loads[0][1:] == loads[1][1:]


def test_oversized_product_makes_no_key(tmp_path, monkeypatch):
    made = []
    for maker in ("_canonical_keys", "_key_index"):
        monkeypatch.setattr(io, maker, lambda space, *keys: made.append(space) or {})
    chain = {"elements": ["0", "1"], "covers": [["0", "1"]]}
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"poset": {"product": [chain] * 17}, "values": {",".join("0" * 17): "1"}}))
    code, out, err = run_cli(["check", str(path)])
    assert (code, out, made) == (2, "", [])
    assert err == f"error: invalid utility: domain has 131072 points, over the limit of {MAX_POINTS}\n"


def ref_downset(obj, space):
    """The mask of a down-set file, each token read to its point by
    ``ref_point`` and the set made by ``DownSet.from_generators`` or
    ``from_members`` on those points; or the error text."""
    field = "generators" if "generators" in obj else "members"
    make = q.DownSet.from_generators if field == "generators" else q.DownSet.from_members
    try:
        return make(space, [ref_point(space, t) for t in obj[field]]).mask
    except io.InputError as exc:
        return str(exc)
    except q.OrderError as exc:
        return f"invalid down-set: {exc}"


@pytest.mark.parametrize("seed", range(60))
def test_downset_file_matches_the_point_reader(seed):
    """Generators and members as canonical keys, spaced keys and arrays,
    some naming an unknown point, and member lists that are closed or not."""
    rng = random.Random(seed)
    plain = [f for f in FACTORS if "elements" in f]
    space = io.poset_from_json({"product": [rng.choice(plain) for _ in range(rng.randint(1, 3))]})
    points = list(space.points())
    spell = [lambda p: ",".join(map(str, p)), lambda p: " " + ", ".join(map(str, p)),
             list, lambda p: [str(c) for c in p]]
    field = rng.choice(["generators", "members"])
    chosen = rng.sample(points, rng.randint(0, min(3, len(points))))
    if field == "members" and rng.random() < 0.6:  # closed, or closed minus one point
        chosen = sorted(q.DownSet.from_generators(space, chosen), key=points.index)
        if chosen and rng.random() < 0.3:
            chosen.pop(rng.randrange(len(chosen)))
    tokens = [rng.choice(spell)(p) for p in chosen]
    if rng.random() < 0.2:
        tokens.insert(rng.randint(0, len(tokens)), ",".join(["9"] * len(space.factors)))
    obj = {field: tokens}
    try:
        got = io.downset_from_json(obj, space).mask
    except io.InputError as exc:
        got = str(exc)
    assert got == ref_downset(obj, space)


# -- fuzzed product keys --------------------------------------------------------
# Chains with string ids, JSON-number ids, mixed ids, and ids that a blank
# makes ambiguous (1 and "1").
ID_CHAINS = [["0", "1", "2"], [0, 1, 2], ["a", 1, "1.5"], [1, "1"]]
BLANKS = ["{}", " {}", "{} ", " {} "]


def ref_point(space, token):
    """The point a product token names, each part read by ``resolve_element``
    on its own factor: a string's comma parts, or an array's entries."""
    parts = token.split(",") if isinstance(token, str) else token
    if not isinstance(parts, list) or len(parts) != len(space.factors):
        raise io.InputError(f"point {token!r} has wrong arity")
    return tuple(io.resolve_element(f, c) for f, c in zip(space.factors, parts))


def ref_column(obj):
    """The value column of a table file, each key placed by the position of
    its point in ``points()``."""
    space = io.poset_from_json(obj["poset"])
    points = list(space.points())
    column = [None] * len(points)
    for key, raw in obj["values"].items():
        p = ref_point(space, key)
        i = points.index(p)
        if column[i] is not None:
            raise io.InputError(f"point {elem_key(p)!r} is named twice in 'values' (again as {key!r})")
        column[i] = io.parse_rational(raw)
    if None in column:
        raise io.InputError(f"invalid utility: no value for element {points[column.index(None)]!r}")
    return column


def chain_json(ids):
    return {"elements": ids, "covers": [[a, b] for a, b in zip(ids, ids[1:])]}


def spelled(draw, chain):
    """A part naming an element of ``chain``: its id, or its id as a string
    with or without blanks."""
    c = draw(st.sampled_from(chain))
    return draw(st.sampled_from([c] + [b.format(c) for b in BLANKS]))


@st.composite
def product_tables(draw):
    """A table file on a product of chains, valued min of the coordinate
    ranks, so that a complete table passes ``check``.  A key spells each part
    with or without blanks; a point may be missing, and extra keys name a
    point again, have a wrong arity or an unknown part.  An extra key carries
    its point's own value, so one that fills the missing point or repeats a
    key's spelling still leaves a table that passes."""
    chains = draw(st.lists(st.sampled_from(ID_CHAINS[:3] * 3 + ID_CHAINS[3:]), min_size=1, max_size=3))
    points = list(product(*(range(len(c)) for c in chains)))

    def spell(ranks, extra=()):
        parts = [draw(st.sampled_from(BLANKS)).format(c[r]) for c, r in zip(chains, ranks)]
        return ",".join(parts + list(extra))

    missing = draw(st.sampled_from([None] * len(points) + points))
    values = {spell(p): str(min(p)) for p in points if p != missing}
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        p = draw(st.sampled_from(points))
        kind = draw(st.sampled_from(["again", "arity", "unknown"]))
        key = (spell(p) if kind == "again" else spell(p, ["0"]) if kind == "arity"
               else spell(p[:-1], ["9"]))
        values[key] = str(min(p))
    return {"poset": {"product": [chain_json(c) for c in chains]}, "values": values}


def run_cli(argv):
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(product_tables())
@settings(max_examples=150, deadline=2000)
def test_fuzzed_product_keys(obj):
    """``check`` on the table exits 0 or 2 with no traceback; on 0 the loaded
    column is the reference column, on 2 the error is the reference's."""
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "u.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        code, _, err = run_cli(["check", path])
    assert code in (0, 2) and "Traceback" not in err
    try:
        want = ref_column(obj)
    except io.InputError as exc:
        assert code == 2 and err == f"error: {exc}\n"
    else:
        assert code == 0 and io.utility_from_json(obj).column == want


@st.composite
def refine_starts(draw):
    """Chains, and a ``--start`` token for their product: a comma-joined
    string, an array of ids, strings or arrays, or an array nested in one
    more array; mostly of the right arity, each part mostly an element."""
    chains = draw(st.lists(st.sampled_from(ID_CHAINS[:3]), min_size=1, max_size=3))
    arity = len(chains) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    junk = st.sampled_from(["9", "", "1,2", 9, ["1"], [], ["0", "1"]])
    parts = [spelled(draw, chains[k % len(chains)]) if draw(st.integers(0, 3)) else draw(junk)
             for k in range(arity)]
    form = draw(st.sampled_from(["string", "array", "array", "nested"]))
    if form == "string":
        return chains, ",".join(p if isinstance(p, str) else json.dumps(p) for p in parts)
    return chains, parts if form == "array" else [parts]


@given(refine_starts())
@settings(max_examples=150, deadline=2000)
def test_fuzzed_refine_start(drawn):
    """``refine --start`` on a constant table over the whole product, where
    every point is a maximizer: exit 0 or 2 with no traceback; on 0 the
    trace starts at the reference point, on 2 the error is the reference's."""
    chains, token = drawn
    space = {"product": [chain_json(c) for c in chains]}
    values = {",".join(map(str, p)): "1" for p in product(*chains)}
    with tempfile.TemporaryDirectory() as root:
        paths = {}
        for name, obj in [("u", {"poset": space, "values": values}), ("x", token),
                          *((f"s{k}", {"generators": [c[-1]]}) for k, c in enumerate(chains))]:
            paths[name] = os.path.join(root, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        sets = [paths[f"s{k}"] for k in range(len(chains))]
        code, out, err = run_cli(["refine", "--json", paths["u"], "--sets", *sets, "--start", paths["x"]])
    assert code in (0, 2) and "Traceback" not in err
    try:
        want = ref_point(io.poset_from_json(space), token)
    except io.InputError as exc:
        assert code == 2 and err == f"error: {exc}\n"
    else:
        assert code == 0 and json.loads(out)["trace"]["start"] == io.encode_elem(want)


# -- fuzzed plain-poset keys ----------------------------------------------------
PLAIN_IDS = ["a", "b", "1", 1, 2, "2.5", 2.5, " c"]


@st.composite
def plain_tables(draw):
    """JSON text of a table on a chain or an antichain of string and
    numeric ids, and its keys: each element spelled exactly, as the string
    of a numeric id, or with blanks.  A point may be missing, and extra keys
    name a point again in another spelling, name no point, or repeat a key's
    spelling in the text."""
    ids = draw(st.lists(st.sampled_from(PLAIN_IDS), min_size=1, max_size=5, unique=True))
    poset = chain_json(ids) if draw(st.booleans()) else {"elements": ids, "covers": []}

    def spell(e):
        return draw(st.sampled_from(BLANKS)).format(e)

    missing = draw(st.sampled_from([None] * len(ids) + ids))
    pairs = [(spell(e), draw(st.sampled_from(["0", "1", "2", "1/2", 1]))) for e in ids if e != missing]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        kind = draw(st.sampled_from(["again", "unknown", "repeat"]))
        key = (spell(draw(st.sampled_from(ids))) if kind == "again" else "zz" if kind == "unknown"
               else draw(st.sampled_from(pairs))[0] if pairs else "zz")
        pairs.append((key, "1"))
    text = "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"
    return '{"poset": ' + json.dumps(poset) + ', "values": ' + text + "}", pairs


def ref_plain_outcome(poset, pairs):
    """``load_outcome`` of ``ref_load_table``, after the repeated-key check
    of the JSON reader."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            return f"key {key!r} is named twice in one object"
        seen.add(key)
    return load_outcome(ref_load_table, {"poset": poset, "values": dict(pairs)})


@given(plain_tables(), st.sampled_from(["check", "efficient"]))
@settings(max_examples=150, deadline=2000)
def test_fuzzed_plain_keys(drawn, command):
    """``check`` and ``efficient`` on a plain-poset table exit 0, 1 or 2
    with no traceback, and load what the keyed reference loader loads: on 2
    the error is the reference's."""
    text, pairs = drawn
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "u.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, _, err = run_cli([command, path])
    assert code in (0, 1, 2) and "Traceback" not in err
    want = ref_plain_outcome(json.loads(text)["poset"], pairs)
    if isinstance(want, str):
        assert code == 2 and err == f"error: {want}\n"
    else:
        assert code in (0, 1) and load_outcome(io.utility_from_json, json.loads(text)) == want
