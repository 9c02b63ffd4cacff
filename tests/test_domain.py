"""A ``ProductSpace`` is itself the product poset.

Its element tuple and mask tables must equal those of a plain
``FinitePoset`` built here from the coordinatewise order, and its
factor-wise queries must never build those tables.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest

import qleontief as q
from qleontief import corpus, io
from qleontief.cli import main
from qleontief.order import FinitePoset, MAX_POINTS, elem_key

from conftest import tables


def reference(space):
    """Plain poset on the product points; x <= y iff every coordinate is."""
    pts = list(space.points())
    masks = []
    for x in pts:
        m = 0
        for j, y in enumerate(pts):
            if all(f.leq(a, b) for f, a, b in zip(space.factors, x, y)):
                m |= 1 << j
        masks.append(m)
    return FinitePoset(pts, masks)


def chain_products():
    """Up to 4 chain axes of 1 to 4 elements."""
    for i in range(16):
        rng = random.Random(i)
        yield q.grid_space(*(range(rng.randint(1, 4)) for _ in range(rng.randint(1, 4))))


def poset_products(max_points=300):
    """Up to 4 axes: random posets of up to 9 elements, so that a mask block
    holds several bits of a factor that is not a chain, and one-element
    factors."""
    for i in range(16):
        rng = corpus.derive_rng(61, "product-of-posets", i)
        factors, n = [], 1
        for _ in range(rng.randint(1, 4)):
            room = min(9, max_points // n)
            if room < 2 or rng.random() < 0.2:
                factors.append(FinitePoset.antichain(["o"]))
            else:
                factors.append(corpus.random_poset(rng, room))
            n *= len(factors[-1])
        yield q.ProductSpace(factors)


def test_products_cover_the_shapes():
    spaces = list(chain_products()) + list(poset_products())
    assert max(s.n_axes for s in spaces) == 4
    assert max(len(f) for s in spaces for f in s.factors) >= 8
    assert any(len(f) == 1 for s in spaces for f in s.factors)


@pytest.mark.parametrize("spaces", [chain_products, poset_products])
def test_tables_and_queries_match_reference(spaces):
    for k, space in enumerate(spaces()):
        ref = reference(space)
        for x in ref.elements:
            for y in ref.elements:
                assert space.leq(x, y) == ref.leq(x, y)
                assert space.meet(x, y) == ref.meet(x, y)
        rng = random.Random(k)
        for _ in range(20):  # answered factor by factor: the tables are not built yet
            subset = rng.sample(ref.elements, rng.randint(0, len(ref)))
            assert space.least(subset) == ref.least(subset)
            assert space.minimal(subset) == ref.minimal(subset)
        assert type(space) is not q.ProductSpace
        assert space.as_poset().elements == ref.elements
        assert space.elements == tuple(product(*(f.elements for f in space.factors)))
        assert space._up == ref._up and space._down == ref._down


@pytest.mark.parametrize("spaces", [chain_products, poset_products])
def test_product_downset_is_the_product_of_the_factor_sets(spaces):
    for k, space in enumerate(spaces()):
        rng = random.Random(k)
        sets = [q.DownSet.from_generators(f, rng.sample(f.elements, rng.randint(0, min(2, len(f)))))
                for f in space.factors]
        members = [frozenset(s) for s in sets]
        mask = sum(1 << i for i, x in enumerate(product(*(f.elements for f in space.factors)))
                   if all(c in m for c, m in zip(x, members)))
        assert q.product_downset(space, sets).mask == mask


def small_factor_products():
    """Chain, antichain and V-shaped factors, a one-element factor, a
    single-factor product and nested products."""
    chain = FinitePoset.chain(["0", "1", "2"])
    antichain = FinitePoset.antichain(["p", "q"])
    vee = FinitePoset.from_covers(["lo", "l", "r"], [("lo", "l"), ("lo", "r")])
    one = FinitePoset.antichain(["o"])
    P = q.ProductSpace
    return [
        P([chain]), P([vee]), P([one]), P([one, one]),
        P([chain, antichain, vee]), P([vee, one, chain]), P([antichain, vee, one, vee]),
        P([P([vee, chain]), antichain]), P([antichain, P([one, vee])]),
        P([P([chain, vee]), P([antichain, chain])]), P([P([P([vee, one]), antichain])]),
    ]


@pytest.mark.parametrize("k", range(len(small_factor_products())))
def test_product_tables_match_pointwise_leq(k):
    """The rows multiplied from spread factor rows against the relation
    read off ``leq`` bit by bit over the points."""
    space = small_factor_products()[k]
    pts = list(space.points())
    up = [sum(1 << j for j, y in enumerate(pts) if space.leq(x, y)) for x in pts]
    down = [sum(1 << j for j, y in enumerate(pts) if space.leq(y, x)) for x in pts]
    assert space.as_poset().elements == tuple(pts)
    assert (space._up, space._down) == (up, down)


def plain_factors(space):
    """The plain factors of a product, those of a nested product in its place."""
    return [g for f in space.factors
            for g in (plain_factors(f) if isinstance(f, q.ProductSpace) else [f])]


@pytest.mark.parametrize("k", range(len(small_factor_products())))
def test_meet_and_join_match_the_built_poset(k):
    """The factor-wise meet and join against the plain poset's, read off the
    product's own tables, on every pair of points."""
    space = small_factor_products()[k]
    pts = list(space.points())
    want = [(FinitePoset.meet(space.as_poset(), x, y), FinitePoset.join(space, x, y))
            for x in pts for y in pts]
    assert [(space.meet(x, y), space.join(x, y)) for x in pts for y in pts] == want
    if any(len(f) == 2 for f in plain_factors(space)):  # the antichain: no meet, no join
        assert any(m is None for m, _ in want) and any(j is None for _, j in want)


def test_factorwise_queries_build_no_tables(monkeypatch):
    chain = FinitePoset.chain(["0", "1", "2"])
    vee = FinitePoset.from_covers(["a", "b", "c"], [("a", "b"), ("a", "c")])
    pair = FinitePoset.antichain(["b", "c"])  # no meet
    built = []
    init = FinitePoset.__init__

    def counting_init(self, *args, **kwargs):
        built.append(isinstance(self, q.ProductSpace))
        init(self, *args, **kwargs)

    monkeypatch.setattr(FinitePoset, "__init__", counting_init)
    space = q.ProductSpace([chain, vee])
    assert len(space) == 9
    assert space.leq(("0", "a"), ["1", "b"]) and not space.leq(("0", "b"), ("0", "c"))
    assert space.delete(("2", "c"), 0) == ("c",)
    assert space.substitute(("c",), 0, "1") == ("1", "c")
    assert len(list(space.points())) == 9
    assert io.resolve_element(space, "1,b") == ("1", "b")
    assert io.resolve_element(space, ["2", "c"]) == ("2", "c")
    twin = q.ProductSpace([chain, vee])
    assert space == twin and not space != twin and hash(space) == hash(twin)
    assert space != q.ProductSpace([vee, chain]) and space != chain and chain != space
    assert space.is_inf_semilattice() and not q.ProductSpace([chain, pair]).is_inf_semilattice()
    # ("1", "c") ^ (y, x) for (y, x) = ("1", "c"), ("2", "a"), ("2", "b"), ("2", "c"):
    # ("1", "c"), ("1", "a"), ("1", "a"), ("1", "c")
    assert [space.meet(("1", "c"), y) for y in (("1", "c"), ("2", "a"), ("2", "b"), ("2", "c"))] == [
        ("1", "c"), ("1", "a"), ("1", "a"), ("1", "c")]
    assert space.index_of(("1", "b")) == 4 and space.index_of(["2", "c"]) == 8
    assert ("1", "b") in space and ("1", "d") not in space
    assert space.meet(("2", "b"), ["1", "c"]) == ("1", "a")
    assert space.join(("0", "b"), ("1", "a")) == ("1", "b") and space.join(("0", "b"), ("0", "c")) is None
    pairs = q.ProductSpace([chain, pair])
    assert pairs.meet(("0", "b"), ("2", "c")) is None and pairs.join(("0", "b"), ("2", "b")) == ("2", "b")
    with pytest.raises(q.OrderError, match="unknown element"):
        space.meet(("0", "d"), ("0", "a"))
    assert space.bottom() == ("0", "a") and space.top() is None
    assert space.least([("1", "b"), ("2", "b")]) == ("1", "b")
    assert space.minimal([("1", "b"), ("1", "c")]) == (("1", "b"), ("1", "c"))
    assert space.is_chain([("0", "a"), ("2", "c")]) and space.up_set(("2", "b")) == {("2", "b")}
    assert q.DownSet.from_members(space, [("0", "a"), ("0", "b")]).mask == 0b11
    assert built == []
    with pytest.raises(AttributeError):
        space._up  # reading a table does not build it: only as_poset does
    assert space.as_poset().elements[4] == ("1", "b")
    assert built == [True] and type(space) is q.ProductSpace
    assert space == twin and type(twin) is not q.ProductSpace
    # a product equals only a product, even a plain poset with its tables
    assert space != FinitePoset(space.elements, space._up)


def random_nested_space(rng, depth=0):
    """A product of one to three factors: chains and antichains of string or
    numeric ids, and nested products, at most two deep."""
    factors = []
    for _ in range(rng.randint(1, 3)):
        if depth < 2 and rng.random() < 0.3:
            factors.append(random_nested_space(rng, depth + 1))
        else:
            ids = rng.choice([["0", "1", "2"], [0, 1, 2], ["a", 1, "1.5"]])[:rng.randint(1, 3)]
            factors.append(rng.choice([FinitePoset.chain, FinitePoset.antichain])(ids))
    return q.ProductSpace(factors)


def as_lists(x):
    """The point x with every tuple in it, at any depth, a list."""
    return [as_lists(c) for c in x] if isinstance(x, tuple) else x


def dict_index_of(index, x):
    """The index of x in a dict of the product points, as the poset read it
    when it held one: a list reads as its tuple, and any other x that is not
    a key (an unhashable one too) is an unknown element."""
    try:
        return index[tuple(x) if isinstance(x, list) else x]
    except (KeyError, TypeError):
        raise q.OrderError(f"unknown element {x!r}") from None


def bad_points(x, space):
    """Points that name nothing: a wrong arity, an unknown or unhashable
    coordinate, a nested part of the wrong arity, and non-sequences."""
    yield from (x[:-1], x + (x[0],), list(x[:-1]), 7, None, "0", elem_key(x), {})
    for k, (c, f) in enumerate(zip(x, space.factors)):
        for bad in ("zz", 9, [c], c[:-1] if isinstance(f, q.ProductSpace) else None):
            yield x[:k] + (bad,) + x[k + 1:]
            yield as_lists(x[:k]) + [bad] + as_lists(x[k + 1:])


@pytest.mark.parametrize("seed", range(40))
def test_index_of_reads_the_factors(seed, monkeypatch):
    """``index_of`` against a dict of ``points()``: every point, as a tuple, a
    list, a tuple of lists or lists of lists, has its enumeration index, and
    ``point`` decodes it back; every bad point raises the dict's error.  No
    product table is built."""
    space = random_nested_space(random.Random(seed))
    points = list(space.points())
    index = {p: k for k, p in enumerate(points)}
    built = []
    init = FinitePoset.__init__
    monkeypatch.setattr(FinitePoset, "__init__", lambda self, *a: built.append(self) or init(self, *a))
    for k, x in enumerate(points):
        for form in (x, list(x), tuple(map(as_lists, x)), as_lists(x)):
            assert space.index_of(form) == k and form in space
        assert space.point(k) == x
        for bad in bad_points(x, space):
            with pytest.raises(q.OrderError) as got:
                space.index_of(bad)
            with pytest.raises(q.OrderError) as want:
                dict_index_of(index, bad)
            assert str(got.value) == str(want.value) and bad not in space
    assert built == [] and type(space) is not q.ProductSpace


def test_membership_of_unhashable_points():
    """``in`` and ``index_of`` read a list as its tuple, and an unhashable
    point is an unknown element, not a ``TypeError``."""
    chain = FinitePoset.chain(["0", "1"])
    assert [1] not in chain and {} not in chain and ["0"] not in chain and "0" in chain
    with pytest.raises(q.OrderError, match=r"^unknown element \{\}$"):
        chain.index_of({})
    space = q.ProductSpace([chain, chain])
    assert space.index_of(["0", "1"]) == space.index_of(("0", "1")) == 1
    assert ["1", "1"] in space and ["1", ["1"]] not in space and {} not in space
    tuples = FinitePoset.chain([(0, 0), (0, 1)])  # a plain poset of tuple points
    assert tuples.index_of([0, 1]) == 1 and [0, 1] in tuples and [[0], 1] not in tuples


def test_a_list_point_is_read_with_one_lookup(monkeypatch):
    """On a plain poset of tuple points a list point costs one ``index_of``
    call, as its tuple does."""
    tuples = q.grid_space(range(2), range(2)).as_poset().induced([(0, 0), (0, 1), (1, 1)])
    calls = []

    def counted(self, x, index_of=FinitePoset.index_of):
        calls.append(x)
        return index_of(self, x)
    monkeypatch.setattr(FinitePoset, "index_of", counted)
    assert tuples.index_of([0, 1]) == 1 and calls == [[0, 1]]
    with pytest.raises(q.OrderError, match=r"^unknown element \[1, 0\]$"):
        tuples.index_of([1, 0])
    assert len(calls) == 2


DATA = Path(__file__).parent / "data"


def test_check_on_a_product_meets_only_in_the_factor_tables(monkeypatch, capsys):
    """``check`` on a 4 x 4 product asks each factor for its meets, at most
    n_k^2 of them, and never for a meet of two product points."""
    calls = []
    meet_index = FinitePoset._meet_index

    def counting(self, i, j):
        calls.append(self)
        return meet_index(self, i, j)

    monkeypatch.setattr(FinitePoset, "_meet_index", counting)
    assert main(["check", str(DATA / "min_grid.json")]) == 0
    assert "PASS meet-homomorphism" in capsys.readouterr().out
    assert calls and all(type(p) is FinitePoset and len(p) == 4 for p in calls)
    assert len(calls) <= 2 * 4 ** 2


@pytest.mark.parametrize("axes", [[("0", "63")], [("0", "1"), ("0", "31")], [("0", "31"), ("0", "1")]])
def test_check_on_a_gridded_box_holds_no_large_meet_table(axes, monkeypatch, tmp_path, capsys):
    """A gridded closed form whose size sits in one axis: ``check`` asks
    every meet of a factor, never of the product, so it never maps the
    product's N down masks to their points."""
    calls = []
    meet_index = FinitePoset._meet_index

    def counting(self, i, j):
        calls.append(self)
        return meet_index(self, i, j)

    monkeypatch.setattr(FinitePoset, "_meet_index", counting)
    path = tmp_path / "box.json"
    path.write_text(json.dumps({"type": "classical", "a": ["1"] * len(axes), "box": {
        "axes": [{"lo": lo, "hi": hi, "step": "1"} for lo, hi in axes]}}))
    assert main(["check", str(path)]) == 0
    assert "PASS meet-homomorphism" in capsys.readouterr().out
    sizes = {int(hi) - int(lo) + 1 for lo, hi in axes}
    assert calls and all(type(p) is FinitePoset and len(p) in sizes for p in calls)


def test_check_does_not_import_numpy(tmp_path):
    """The commands run in a process where ``import numpy`` fails, so no
    module they load imports it."""
    axis = tmp_path / "axis.json"
    axis.write_text(json.dumps({"members": ["0", "1", "2"]}))
    p3, cl = str(DATA / "product3.json"), str(DATA / "classical.json")
    calls = [
        ["check", p3],
        ["efficient", p3],
        ["maximize", p3, "--downset", str(DATA / "product3_members.json")],
        ["refine", p3, "--sets", *(str(DATA / f"product3_axis{k}.json") for k in (1, 2, 3))],
        ["check", cl],
        ["efficient", cl],
        ["maximize", cl, "--downset", str(DATA / "classical_generators.json")],
        ["refine", cl, "--sets", str(axis), str(axis)],
    ]
    src = str(Path(q.__file__).resolve().parents[1])
    script = ("import sys; sys.modules['numpy'] = None; from qleontief.cli import main; "
              f"print([main(argv) for argv in {calls!r}])")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=60, env=dict(os.environ, PYTHONPATH=src), check=True)
    assert run.stdout.splitlines()[-1] == str([0] * len(calls))


def test_utility_domain_is_the_product():
    space = q.grid_space(range(2), range(2))
    u = q.TabulatedUtility(space, {p: F(min(p)) for p in space.points()})
    assert u.poset is space and u.space is space
    assert q.TabulatedUtility(space, u.values, space=space).space is space
    assert q.TabulatedUtility(space.factors[0], {0: F(0), 1: F(1)}).space is None
    assert q.product_downset(space, [q.DownSet.from_members(f, [0]) for f in space.factors]).space is space


@pytest.mark.parametrize("other", [
    lambda space: q.grid_space(range(2), range(2)),  # an equal product, but not the domain
    lambda space: FinitePoset(list(space.points()), tables(space)._up),
])
def test_space_keyword_must_be_the_domain(other):
    space = q.grid_space(range(2), range(2))
    with pytest.raises(q.UtilityError, match="space must be the domain poset itself"):
        q.TabulatedUtility(space, {p: F(0) for p in space.points()}, space=other(space))


def test_nested_product_file_is_refused(tmp_path, capsys):
    chain = {"elements": ["0", "1"], "covers": [["0", "1"]]}
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({"poset": {"product": [{"product": [chain, chain]}, chain]},
                                "values": {}}))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "error: product factors must be plain posets\n"


def test_largest_allowed_product_is_not_enumerated_up_front():
    space = q.ProductSpace([FinitePoset.chain([0, 1])] * 16)
    assert len(space) == MAX_POINTS
    assert next(space.points()) == (0,) * 16
    with pytest.raises(q.OrderError, match=f"131072 points, over the limit of {MAX_POINTS}"):
        q.ProductSpace(list(space.factors) + [FinitePoset.chain([0, 1])]).points()
