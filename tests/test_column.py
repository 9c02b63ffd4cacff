"""Tables hold one value column by element index.

Every table constructor is checked against a reference built point by point
into a dict keyed by element: the same values, in element order, the same
value objects, the same image and the same certified flag.  Building a
product table, or naming a bad point of one, fills no product's rows.
"""
from __future__ import annotations

import json
import operator
import random
from fractions import Fraction as F

import pytest

import qleontief as q
from qleontief import corpus, io
from qleontief.leontief import _ranks_of

from conftest import constant_utility, fresh_ranks

MIXED = (0, 1, F(1), F(2, 2), F(1, 3), F(1, 3) + F(1, 10**30), 2, F(5, 2))


def random_poset(rng):
    return rng.choice((
        q.FinitePoset.chain(range(rng.randint(1, 4))),
        q.FinitePoset.antichain(["p", "q", "r"][:rng.randint(1, 3)]),
        q.FinitePoset.from_covers(["b", "l", "r", "t"], [("b", "l"), ("b", "r"), ("l", "t")]),
    ))


def random_table(rng, poset, scale=q.EXACT):
    if scale.kind == "exact":
        return q.TabulatedUtility(poset, {e: rng.choice(MIXED) for e in poset})
    return q.TabulatedUtility(poset, {e: rng.choice((0.5, 1.0, 1.0 + 4e-10, 2.25))
                                      for e in poset}, scale=scale)


def assert_matches(u, ref, certified, *, fresh=False, shared=False):
    """``u`` against ``ref``, its values keyed by element in element order.

    With ``fresh`` the constructor makes new value objects, as the reference
    does; then the two must share their objects among the same points.  With
    ``shared`` the reference makes a new object per point, and the
    constructor holds values of the same types, one object per distinct
    value."""
    assert list(u.values) == list(u.poset) == list(ref)
    assert u.values == ref and u.column == list(ref.values())
    if shared:
        assert list(map(type, u.column)) == list(map(type, ref.values()))
        assert len(set(map(id, u.column))) == len(set(ref.values()))
    elif fresh:
        ours = {}
        for e, v in ref.items():
            assert ours.setdefault(id(v), u.values[e]) is u.values[e]
        assert len(set(map(id, u.column))) == len(ours)
    else:
        assert all(u.values[e] is v for e, v in ref.items())
    assert list(u.image()) == sorted(set(ref.values()))
    assert u.certified is certified
    assert_handed_ranks(u)


def assert_handed_ranks(u):
    """``u``'s rank table is the one a sort of its column gives, down to
    which of two equal values stands in the image."""
    got, fresh = u._rank_table, fresh_ranks(u.column, u.scale)
    assert (got.rank, got.suffix, list(got.lo)) == (fresh.rank, fresh.suffix, list(fresh.lo))
    assert len(got.image) == len(fresh.image) and all(map(operator.is_, got.image, fresh.image))


@pytest.mark.parametrize("seed", range(20))
def test_dict_and_column_constructors(seed):
    rng = random.Random(seed)
    poset = random_poset(rng)
    ref = {e: rng.choice(MIXED) for e in poset.elements}
    shuffled = list(ref.items())
    rng.shuffle(shuffled)
    assert_matches(q.TabulatedUtility(poset, dict(shuffled)), ref, False)
    assert_matches(q.TabulatedUtility._of_column(poset, list(ref.values()), q.EXACT), ref, False)
    level = rng.choice(MIXED)
    chain = q.FinitePoset.chain(range(3))
    assert_matches(constant_utility(chain, level), dict.fromkeys(chain.elements, level), False)


@pytest.mark.parametrize("seed", range(20))
def test_min_product_and_min_pointwise(seed):
    rng = random.Random(seed)
    scale = rng.choice((q.EXACT, q.tolerant(1e-9)))
    factors = [random_table(rng, random_poset(rng), scale) for _ in range(rng.randint(1, 3))]
    u = q.min_product(*factors)
    keyed = [f.values for f in factors]
    ref = {p: min(v[c] for v, c in zip(keyed, p)) for p in u.poset.points()}
    assert_matches(u, ref, False)
    last = random_table(rng, random_poset(rng), scale)
    nested = q.min_product(u, last)
    keyed = [u.values, last.values]
    ref = {p: min(v[c] for v, c in zip(keyed, p)) for p in nested.poset.points()}
    assert_matches(nested, ref, False)
    parts = [random_table(rng, factors[0].poset, scale) for _ in range(rng.randint(1, 3))]
    ref = {e: min(p.values[e] for p in parts) for e in factors[0].poset}
    pointwise = q.min_pointwise(*parts)
    assert_matches(pointwise, ref, False)


@pytest.mark.parametrize("seed", range(20))
def test_affine_transform(seed):
    rng = random.Random(seed)
    poset = random_poset(rng)
    for scale, a, b in ((q.EXACT, F(3, 2), F(-1, 3)), (q.tolerant(1e-9), 1.5, 0.25)):
        u = random_table(rng, poset, scale)
        for base in (u, u._certified_copy()):
            ref = {e: a * v + b for e, v in base.values.items()}
            certified = base.certified and scale.kind == "exact"
            new = q.affine_transform(base, a, b)
            assert_matches(new, ref, certified, fresh=True)
            if scale.kind == "exact":  # u's ranks carried over; a tolerant table sorts, as rounding may merge values
                assert new._rank_table.rank == base._rank_table.rank


@pytest.mark.parametrize("seed", range(20))
def test_restrict(seed):
    rng = random.Random(seed)
    space = q.ProductSpace([random_poset(rng) for _ in range(rng.randint(1, 3))])
    points = list(space.points())
    S = q.DownSet.from_generators(space, rng.sample(points, rng.randint(1, min(3, len(points)))))
    u = random_table(rng, space)
    for base in (u, u._certified_copy()):
        r = q.restrict(base, S)  # its ranks read off the parent's
        assert_matches(r, {p: base.values[p] for p in S.sorted_members()}, base.certified)


def test_tabulate():
    form = q.classical_leontief([F(1, 2), 3, F(5, 4)], q.Box([
        q.BoxAxis(0, 3, 1), q.BoxAxis(F(1, 2), 2, F(1, 2)), q.BoxAxis(1, 2, 1)]))
    u = q.tabulate(form)
    assert_matches(u, {p: form.value(p) for p in u.poset.points()}, False, shared=True)


def ref_isotone(rng, poset):
    """``corpus.random_isotone_utility`` point by point, along a linear
    extension, with one shared Fraction per distinct value."""
    halves = {}
    for x in poset.linear_extension():
        below = [halves[y] for y in poset.down_set(x) if y != x]
        halves[x] = max(below, default=0) + rng.choice(corpus._HALF_STEPS)
    shared = {h: F(h, 2) for h in set(halves.values())}
    return {x: shared[halves[x]] for x in poset}


def ref_quasileontief(rng, poset):
    """``corpus.random_quasileontief_utility`` point by point: each point takes
    the value of the highest element of a random chain below it."""
    chain = [poset.bottom()]
    while True:
        ups = [y for y in poset if y != chain[-1] and poset.leq(chain[-1], y)]
        if not ups or rng.random() < 0.3:
            break
        chain.append(rng.choice(ups))
    level = F(rng.randint(0, 2))
    levels = []
    for _ in chain:
        levels.append(level)
        level += F(rng.randint(1, 3), 2)
    return {x: max(v for c, v in zip(chain, levels) if poset.leq(c, x)) for x in poset}


def top_first(poset):
    """The same order listed along a linear extension backwards: every
    element comes after all the elements above it."""
    els = poset.linear_extension()[::-1]
    return q.FinitePoset.from_leq(els, [(a, b) for a in els for b in els if poset.leq(a, b)])


def generator_domains(seed):
    """A corpus poset with a bottom, a product of chains, a product with one
    chain listed top first, and a corpus poset relisted top first, where the
    highest-index member of a down-set is often not a lower cover."""
    rng = corpus.derive_rng(seed, "poset")
    poset = corpus.random_poset(rng, 10, with_bottom=True)
    chains = corpus.random_product_of_chains(rng)
    factors = list(corpus.random_product_of_chains(rng, 3, 4).factors)
    k = rng.randrange(len(factors))
    factors[k] = top_first(q.FinitePoset.chain(range(rng.randint(2, 4))))
    return poset, chains, q.ProductSpace(factors), top_first(corpus.random_poset(rng, 10, with_bottom=True))


@pytest.mark.parametrize("seed", range(20))
def test_corpus_generators(seed):
    for poset in generator_domains(seed):
        for gen, ref in ((corpus.random_isotone_utility, ref_isotone),
                         (corpus.random_quasileontief_utility, ref_quasileontief)):
            u = gen(corpus.derive_rng(seed, "values"), poset)
            assert_matches(u, ref(corpus.derive_rng(seed, "values"), poset), False, fresh=True)


def test_values_is_a_new_view_of_the_column():
    u = q.TabulatedUtility(q.FinitePoset.chain("abc"), {"a": 1, "b": 2, "c": 3})
    view = u.values
    view["a"] = 9
    assert u.values == {"a": 1, "b": 2, "c": 3} and u.values is not u.values
    with pytest.raises(AttributeError):
        u.values = {}


@pytest.fixture
def product_builds(monkeypatch):
    """The products asked to fill their rows (``as_poset``), as they are asked."""
    built = []
    as_poset = q.ProductSpace.as_poset
    monkeypatch.setattr(q.ProductSpace, "as_poset", lambda self: built.append(self) or as_poset(self))
    return built


CHAIN4 = {"elements": ["0", "1", "2", "3"], "covers": [["0", "1"], ["1", "2"], ["2", "3"]]}


def table_file(tmp_path, values):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"poset": {"product": [CHAIN4] * 3}, "values": values}))
    return str(path)


def all_values():
    return {f"{a},{b},{c}": str(min(a, b, c)) for a in range(4) for b in range(4) for c in range(4)}


def test_loading_and_making_a_product_table_builds_no_product(product_builds, tmp_path):
    u = io.utility_from_json(table_file(tmp_path, all_values()))
    chain = q.TabulatedUtility(q.FinitePoset.chain(range(3)), {0: F(0), 1: F(1), 2: F(3)})
    made = q.min_product(chain, chain, chain)
    grid = q.tabulate(q.classical_leontief([1, 2, 3], q.Box([q.BoxAxis(0, 3, 1)] * 3)))
    assert product_builds == []
    assert [t.image() for t in (u, made, grid)] == [(0, 1, 2, 3), (0, 1, 3), (0, 1, 2, 3)]
    assert product_builds == []
    assert u.value(["1", "2", "0"]) == 0 and product_builds == []  # the index, read off the factors


def test_a_missing_point_is_named_without_building_the_product(product_builds, tmp_path):
    values = all_values()
    del values["2,1,3"]
    with pytest.raises(io.InputError, match=r"^invalid utility: no value for element \('2', '1', '3'\)$"):
        io.utility_from_json(table_file(tmp_path, values))
    assert product_builds == []


def test_a_point_named_twice_is_named_by_its_index(tmp_path):
    values = all_values()
    values[" 2,1,3"] = "1"
    with pytest.raises(io.InputError, match=r"^point '2,1,3' is named twice in 'values' \(again as ' 2,1,3'\)$"):
        io.utility_from_json(table_file(tmp_path, values))


def test_keys_read_part_by_part_build_no_product(product_builds, tmp_path):
    """A key that misses the offset lookups (JSON-number ids, a key spelled
    with blanks) is read part by part on its factors, with no product built."""
    numeric = {"elements": [0, 1, 2, 3], "covers": [[0, 1], [1, 2], [2, 3]]}
    path = tmp_path / "numeric.json"
    path.write_text(json.dumps({"poset": {"product": [numeric] * 3}, "values": all_values()}))
    by_number = io.utility_from_json(str(path))
    by_string = io.utility_from_json(table_file(tmp_path, all_values()))
    assert by_number.column == by_string.column and product_builds == []
    values = all_values()
    values[" 3, 3,3"] = "1"
    with pytest.raises(io.InputError, match=r"^point '3,3,3' is named twice in 'values' \(again as ' 3, 3,3'\)$"):
        io.utility_from_json(table_file(tmp_path, values))
    assert product_builds == []


def test_point_queries_on_a_product_table_build_no_product(product_builds, tmp_path):
    u = io.utility_from_json(table_file(tmp_path, all_values()))
    space = u.poset
    assert u.value(("1", "2", "3")) == 1 and u.value(["3", "3", "2"]) == 2
    with pytest.raises(q.DomainError, match=r"^point \['1', \['2'\], '3'\] outside domain$"):
        u.value(["1", ["2"], "3"])
    assert ("1", "2", "3") in space and ["1", "2", "3"] in space
    assert ("1", "2", "4") not in space and "1,2,3" not in space and ["1", ["2"], "3"] not in space
    S = q.product_downset(space, [q.DownSet.from_generators(f, [g]) for f, g in zip(space.factors, "231")])
    assert ("2", "3", "1") in S and ["1", "0", "0"] in S
    assert ("3", "0", "0") not in S and ["0", "0", "2"] not in S and "0,0,0" not in S
    pu = q.partial_utility(u, ("1", "3"), 1)
    assert pu.poset is space.factors[1] and pu.column == [0, 1, 1, 1]
    slices = q.min_decompose(u, [("1", "2", "0"), ["2", "1", "0"]], ("2", "2", "3"))
    assert [t.column for t in slices] == [[0, 1, 2, 2], [0, 1, 2, 2], [0, 1, 2, 2]]
    assert product_builds == []


def test_point_decodes_an_index_without_building_the_product(product_builds):
    inner = q.ProductSpace([q.FinitePoset.chain(range(2)), q.FinitePoset.antichain("xyz")])
    space = q.ProductSpace([inner, q.FinitePoset.chain(range(3)), q.FinitePoset.chain("ab")])
    got = [space.point(i) for i in range(len(space))]
    assert len(product_builds) == 1 and product_builds[0] is inner  # a nested factor's rows, read by space
    assert got == list(space.points()) and got[7] == ((0, "y"), 0, "b")
    assert [inner.point(i) for i in range(6)] == list(inner.points())


def test_list_points_on_a_restricted_product_table():
    """Restricting a product table gives a plain poset of tuples; every point
    query there reads a list as its tuple, as ``DownSet.contains`` does."""
    space = q.grid_space(range(3), range(3))
    u = q.certify_regular(q.TabulatedUtility(space, {p: F(min(p)) for p in space.points()})).utility
    S = q.DownSet.from_generators(space, [(2, 1), (1, 2)])
    r = q.restrict(u, S)
    assert type(r.poset) is q.FinitePoset and r.certified
    sub = q.DownSet.from_generators(r.poset, [(2, 1)])
    assert [1, 1] in S and [1, 1] in sub
    assert r.value([1, 1]) == 1
    assert q.is_efficient_minimal(r, [1, 1]) and not q.is_efficient_minimal(r, [2, 1])
    assert q.is_efficient_global(r, [1, 1])
    with pytest.raises(q.DomainError, match=r"point \[2, 2\] outside domain"):
        r.value([2, 2])
    with pytest.raises(q.DomainError, match=r"point \[\[1\], 1\] outside domain"):
        r.value([[1], 1])


def test_ranks_restrict_matches_fresh_ranks():
    """The parent's ranks at some indices, renumbered by ``_ranks_of`` as a
    sub-table's are, give the sub-column's fresh rank table, down to the
    object that stands for each rank."""
    rng = random.Random(7)
    for _ in range(50):
        column = [rng.choice(MIXED) for _ in range(rng.randint(1, 12))]
        indices = sorted(rng.sample(range(len(column)), rng.randint(1, len(column))))
        sub = [column[i] for i in indices]
        rank = fresh_ranks(column).rank
        got, fresh = _ranks_of(sub, [rank[i] for i in indices], q.EXACT), fresh_ranks(sub)
        assert (got.rank, got.suffix) == (fresh.rank, fresh.suffix)
        assert len(got.image) == len(fresh.image) and all(map(operator.is_, got.image, fresh.image))
        assert got.levels == [None] * len(got.image)
