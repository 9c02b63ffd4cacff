"""Made tables arrive with their rank tables.

Every table the library makes (the corpus generators, ``tabulate``,
``min_product``, ``min_pointwise`` and an exact ``affine_transform``) is
handed its rank table by its maker.  Each handed table is checked against
``_Ranks`` sorting the table's own column: the same ranks, suffix masks and
bands, and the same object standing for each rank in the image (the
combinators on random tables are checked so in ``test_column``).  The
closed forms and the min-product files are also checked against the table
built point by point, as ``tabulate`` and ``min_product`` once built it.
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
from qleontief.leontief import _Ranks

from test_column import assert_handed_ranks, generator_domains

DATA = Path(__file__).parent / "data"


def assert_matches_point_build(u, column, scale):
    """``u`` against the table of ``column``, its values built point by
    point, on ``scale``: equal values of the same types, the same scale and
    the same ranks."""
    assert u.column == column and list(map(type, u.column)) == list(map(type, column))
    assert (u.scale.kind, u.scale.tolerance) == (scale.kind, scale.tolerance)
    ref = _Ranks(column, scale)
    got = u._ranks()
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
    """The generators sort no value; ``tabulate`` sorts its axis terms once,
    and ``min_product`` the images of factors that hold a rank table."""
    sorts = []
    rank_objects = leontief._rank_objects
    monkeypatch.setattr(leontief, "_rank_objects", lambda objects: sorts.append(len(objects)) or rank_objects(objects))
    space = q.ProductSpace([q.FinitePoset.chain(range(4))] * 3)
    for gen in (corpus.random_isotone_utility, corpus.random_quasileontief_utility):
        gen(random.Random(0), space)
    assert sorts == []
    u = q.tabulate(FORMS["exact"])
    assert sorts == [4 + 4 + 2]
    q.min_product(u, u)
    assert sorts[1:] == [2 * len(u.image())]


def test_setting_the_scale_bands_the_rank_table_anew():
    form = q.PowerLeontief([1.0, 1.0], [2.0, 1.0], box((0.0, 2.0, 1.0), (0.0, 4.0, 1.0)))
    u = q.tabulate(form)
    assert list(u._ranks().lo) == list(range(len(u.image())))
    u.scale = q.tolerant(1.0)
    assert u._rank_table.lo == _Ranks(u.column, u.scale).lo != list(range(len(u.image())))
    assert u.chained_values() == (0.0, 1.0, 2.0)


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
