"""Made tables arrive with their rank tables.

Every table gets its rank table when it is made: the corpus generators,
``tabulate``, ``min_product``, ``min_pointwise``, an exact
``affine_transform`` and the table-file loader hand it in, ``restrict``,
``partial_utility`` and ``min_decompose`` read it off their parent's, and
the rest sort their column.  Each table is checked against a sort of its
own column (``conftest.fresh_ranks``): the same ranks, suffix masks and
bands, and the same object standing for each rank in the image; one test
draws a table from every maker.  The closed forms and the min-product
files are also checked against the table built point by point, as
``tabulate`` and ``min_product`` once built it.
"""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

import qleontief as q
from qleontief import corpus, io, leontief

from conftest import fresh_ranks
from test_column import assert_handed_ranks, generator_domains, random_poset, random_table

DATA = Path(__file__).parent / "data"


def assert_matches_point_build(u, column, scale):
    """``u`` against the table of ``column``, its values built point by
    point, on ``scale``: equal values of the same types, the same scale and
    the same ranks."""
    assert u.column == column and list(map(type, u.column)) == list(map(type, column))
    assert (u.scale.kind, u.scale.tolerance) == (scale.kind, scale.tolerance)
    ref = fresh_ranks(column, scale)
    got = u._rank_table
    assert (got.rank, got.suffix, list(got.lo)) == (ref.rank, ref.suffix, list(ref.lo))
    assert got.image == ref.image and list(map(type, got.image)) == list(map(type, ref.image))
    assert_handed_ranks(u)


@pytest.mark.parametrize("seed", range(50))
def test_corpus_tables_arrive_ranked(seed):
    for poset in generator_domains(seed):
        for gen in (corpus.random_isotone_utility, corpus.random_quasileontief_utility):
            assert_handed_ranks(gen(corpus.derive_rng(seed, "values"), poset))


def box(*axes):
    return q.Box([q.BoxAxis(*a) for a in axes])


FORMS = {
    "exact": q.classical_leontief([F(1, 2), 3, F(5, 4)], box((0, 3, 1), (F(1, 2), 2, F(1, 2)), (1, 2, 1))),
    "float": q.classical_leontief([1.5, 0.25], box((0, 3, 1), (0.0, 2.0, 0.5))),
    "power_square": q.PowerLeontief([1, 2], [2, 1], box((0, 4, 1), (0, 6, 1))),
    "power_root": q.PowerLeontief([1, 1], [F(1, 2), 1], box((0, 4, 1), (0, 2, F(1, 2)))),
    "exact_scale_power_root": q.PowerLeontief([1, 1], [F(1, 2), 2], box((0, 4, 1), (0, 2, 1)), scale=q.EXACT),
    "int_fraction_tie": q.classical_leontief([1, F(1)], box((0, 3, 1), (0, 3, 1))),
    "fraction_int_tie": q.classical_leontief([F(2, 2), 1, 2], box((0, 3, 1), (0, 3, 1), (0, 1, F(1, 2)))),
    "int_float_tie": q.classical_leontief([1, 1.0], box((0, 3, 1), (0, 3, 1))),
    "unattained_top": q.classical_leontief([1, 10], box((0, 2, 1), (0, 5, 1))),
}


@pytest.mark.parametrize("name", FORMS)
def test_tabulate_matches_the_point_by_point_build(name):
    form = FORMS[name]
    u = q.tabulate(form)
    column = [form.value(p) for p in u.poset.points()]
    assert_matches_point_build(u, column, leontief._scale_of(column, [form.scale]))


def test_a_tie_across_axes_keeps_the_object_min_picks():
    u = q.tabulate(FORMS["int_fraction_tie"])
    assert type(u.value((2, 2))) is int and type(u.value((3, 2))) is F
    assert io.encode_value(u.value((2, 2))) != io.encode_value(F(2))
    u = q.tabulate(FORMS["int_float_tie"])
    assert type(u.value((2, 2))) is int and type(u.value((3, 2))) is float


@pytest.mark.parametrize("name", ["mix_float_square", "mix_square_float", "mix_square_line", "mix_square_root"])
def test_a_min_product_file_matches_the_point_by_point_build(name):
    obj = json.loads((DATA / f"{name}.json").read_text())
    u = io.utility_from_json(obj)
    factors = [io.utility_from_json(f) for f in obj["factors"]]
    column = [min(f.value(c) for f, c in zip(factors, p)) for p in u.poset.points()]
    assert_matches_point_build(u, column, leontief._scale_of(column, [f.scale for f in factors]))


def test_made_tables_sort_no_column(monkeypatch):
    """The generators sort no value; ``tabulate`` sorts each axis's terms,
    as its axis table is made, then the merged axis images, and
    ``min_product`` the images of its factors: no sort holds a whole
    column."""
    sorts = []
    rank_objects = leontief._rank_objects
    monkeypatch.setattr(leontief, "_rank_objects", lambda objects: sorts.append(len(objects)) or rank_objects(objects))
    space = q.ProductSpace([q.FinitePoset.chain(range(4))] * 3)
    for gen in (corpus.random_isotone_utility, corpus.random_quasileontief_utility):
        gen(random.Random(0), space)
    assert sorts == []
    u = q.tabulate(FORMS["exact"])
    assert sorts == [4, 4, 2, 4 + 4 + 2] and len(u.column) == 32
    q.min_product(u, u)
    assert sorts[4:] == [2 * len(u.image())]


def test_setting_the_scale_bands_the_rank_table_anew():
    form = q.PowerLeontief([1.0, 1.0], [2.0, 1.0], box((0.0, 2.0, 1.0), (0.0, 4.0, 1.0)))
    u = q.tabulate(form)
    assert list(u._rank_table.lo) == list(range(len(u.image())))
    u.scale = q.tolerant(1.0)
    assert u._rank_table.lo == fresh_ranks(u.column, u.scale).lo != list(range(len(u.image())))
    assert u.chained_values() == (0.0, 1.0, 2.0)


def test_setting_the_scale_drops_the_certification():
    """A certified table's level sets may change with its scale: at 1e-9
    the level set at 1.0 is no up-set of 'bot', so the copy must be
    certified anew before its efficient set is read."""
    chain = q.FinitePoset.chain(["bot", "e0", "e1", "e2"])
    u = q.TabulatedUtility(chain, {"bot": 1.0, "e0": 0.0, "e1": 5.0, "e2": 6.0}, scale=q.tolerant(1.0))
    cu = q.require_certified(u)
    assert q.efficient_set(cu) == ("bot", "e1")
    cu.scale = q.tolerant(1e-9)
    assert not cu.certified
    with pytest.raises(q.NotCertifiedError):
        q.efficient_set(cu)
    cert = q.certify_quasi_leontief(cu)
    assert not cert.ok and "level set at 1.0 is not the up-set of 'bot'" in cert.detail


def point_by_point_error(form):
    """The error the point-by-point build raises on ``form``'s grid."""
    space = q.ProductSpace([q.FinitePoset.chain(a.points()) for a in form.box.axes])
    with pytest.raises(q.UtilityError) as exc:
        [form.value(p) for p in space.points()]
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize("form, text", [
    (q.PowerLeontief([1, 1], [1, 5000], box((0, 3, 1), (0, 3, 1)), scale=q.EXACT),
     "exact power 2^5000 has about 5000 bits, over the limit of 4096"),
    (q.PowerLeontief([1.0, 1.0], [1.0, 400.0], box((1, 3, 1), (0, 10, 1))),
     "the power form at (1, 6) overflows a float"),
    (q.classical_leontief([1e308, 1e308], box((0, 4, 1), (0, 4, 1))),
     "the power form at (2, 2) overflows a float"),
    (q.classical_leontief([1, 1], box((F(1, 3), 2, 0.5), (0, 2, 1))),
     "point (0.3333333333333333, 0) outside box Box([1/3:0.5:2] x [0:1:2])"),
])
def test_a_term_error_names_the_point_the_point_by_point_build_names(form, text):
    with pytest.raises(q.UtilityError) as exc:
        q.tabulate(form)
    assert (type(exc.value), str(exc.value)) == point_by_point_error(form)
    assert str(exc.value) == text


def test_an_infinite_term_that_no_point_attains_is_no_error():
    """A term may overflow to an infinity where another axis keeps the
    minimum finite; only an attained infinity is an error."""
    form = q.classical_leontief([1e308, 1.0], box((0, 4, 1), (0, 1, 1)))
    u = q.tabulate(form)
    assert not any(map(math.isinf, u.column))
    column = [form.value(p) for p in u.poset.points()]
    assert_matches_point_build(u, column, leontief._scale_of(column, [form.scale]))


def shuffled_chain_min_product(rng):
    """The min-product of a chain table listed in shuffled order, its values
    ints and Fractions, with a float closed form: equal values of different
    types meet at points whose parent index differs from theirs."""
    names = [f"c{k}" for k in range(rng.randint(2, 4))]
    chain = q.FinitePoset.from_covers(rng.sample(names, len(names)), list(zip(names, names[1:])))
    table = q.TabulatedUtility(chain, {c: rng.choice((k, F(k))) for k, c in enumerate(names)})
    form = q.classical_leontief([rng.choice((0.5, 1.0, 2.0))], box((0, rng.randint(1, 3), 1)))
    return q.min_product(table, q.tabulate(form))


def made_tables(seed):
    """One table from each maker, fed random tables: constructors, closed
    forms, combinators, slices, the table-file loader and the corpus."""
    rng = random.Random(seed)
    scale = rng.choice((q.EXACT, q.tolerant(1e-9)))
    space = q.ProductSpace([random_poset(rng) for _ in range(rng.randint(1, 3))])
    u = random_table(rng, space, scale)
    yield u
    yield random_table(rng, random_poset(rng), scale)
    yield q.tabulate(rng.choice(list(FORMS.values())))
    factors = [random_table(rng, random_poset(rng), scale) for _ in range(rng.randint(1, 3))]
    yield q.min_product(*factors)
    yield q.min_pointwise(*(random_table(rng, factors[0].poset, scale) for _ in range(rng.randint(1, 3))))
    yield q.affine_transform(u, F(3, 2), F(-1, 3))
    yield q.affine_transform(u, 0.5, 0)
    for base in (u, shuffled_chain_min_product(rng)):
        for _ in range(15):
            yield q.restrict(base, corpus.random_downset(rng, base.poset))
    x = space.point(rng.randrange(len(space)))
    for axis in range(space.n_axes):
        yield q.partial_utility(u, x[:axis] + x[axis + 1:], axis)
    yield from q.min_decompose(u, [], x)
    yield io.utility_from_json({"poset": {"elements": ["a", "b", "c"], "covers": [["a", "b"]]},
                                "values": {e: rng.choice(("1", "2/2", "1/3", "0")) for e in "abc"}})
    chains = corpus.random_product_of_chains(rng)
    for gen in (corpus.random_isotone_utility, corpus.random_quasileontief_utility):
        yield gen(rng, chains)


@pytest.mark.parametrize("seed", range(20))
def test_every_maker_makes_the_fresh_rank_table(seed):
    """Every made table's rank table is the one a sort of its own column
    gives, down to the object that stands for each rank: a restriction's
    image holds the restricted table's objects, not the parent's."""
    for u in made_tables(seed):
        assert_handed_ranks(u)
