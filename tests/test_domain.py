"""A ``ProductSpace`` is itself the product poset.

Its element tuple and mask tables must equal those of a plain
``FinitePoset`` built here from the coordinatewise order, and its
factor-wise queries must never build those tables.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction as F
from itertools import product

import pytest

import qleontief as q
from qleontief import corpus, io
from qleontief.cli import main
from qleontief.order import FinitePoset, MAX_POINTS


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
    for i in range(12):
        rng = random.Random(i)
        yield q.grid_space(*(range(rng.randint(1, 4)) for _ in range(rng.randint(1, 3))))


def poset_products():
    for i in range(12):
        rng = corpus.derive_rng(61, "product-of-posets", i)
        yield q.ProductSpace([corpus.random_poset(rng, 5) for _ in range(rng.randint(1, 3))])


@pytest.mark.parametrize("spaces", [chain_products, poset_products])
def test_tables_and_queries_match_reference(spaces):
    for k, space in enumerate(spaces()):
        ref = reference(space)
        assert space.elements == ref.elements
        assert space.elements == tuple(product(*(f.elements for f in space.factors)))
        assert space._up == ref._up and space._down == ref._down
        for x in ref.elements:
            for y in ref.elements:
                assert space.leq(x, y) == ref.leq(x, y)
                assert space.meet(x, y) == ref.meet(x, y)
        rng = random.Random(k)
        for _ in range(20):
            subset = rng.sample(ref.elements, rng.randint(0, len(ref)))
            assert space.least(subset) == ref.least(subset)
            assert space.minimal(subset) == ref.minimal(subset)


def test_factorwise_queries_build_no_tables(monkeypatch):
    chain = FinitePoset.chain(["0", "1", "2"])
    vee = FinitePoset.from_covers(["a", "b", "c"], [("a", "b"), ("a", "c")])
    u1 = q.require_certified(q.TabulatedUtility(chain, {"0": F(0), "1": F(1), "2": F(2)}))
    u2 = q.require_certified(q.TabulatedUtility(vee, {e: F(1) for e in vee.elements}))
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
    assert len(q.MinProductUtility([u1, u2]).space) == 9
    assert built == []
    assert space.index_of(("1", "b")) == 4  # any other query builds the tables, once
    assert space.elements[4] == ("1", "b")
    assert built == [True] and type(space) is q.ProductSpace


def test_utility_domain_is_the_product():
    space = q.grid_space(range(2), range(2))
    u = q.TabulatedUtility(space, {p: F(min(p)) for p in space.points()})
    assert u.poset is space and u.space is space
    assert q.TabulatedUtility(space, u.values, space=space).space is space
    assert q.TabulatedUtility(space.factors[0], {0: F(0), 1: F(1)}).space is None
    assert q.product_downset(space, [q.DownSet.from_members(f, [0]) for f in space.factors]).space is space


@pytest.mark.parametrize("other", [
    lambda space: q.grid_space(range(2), range(2)),  # an equal product, but not the domain
    lambda space: FinitePoset(list(space.points()), space._up),
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
