"""The per-level record of a tabulated utility against a brute-force reference.

The reference builds each upper level set as a tuple of elements and finds
its least and minimal elements by pairwise scans over ``poset.leq``; it never
touches the bitmasks the record is built from.
"""
from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest

import qleontief as q
from qleontief import corpus
from qleontief.cli import main
from qleontief.io import load_json, utility_from_json
from qleontief.leontief import _Ranks

from conftest import brute_least, brute_minimal

DATA = Path(__file__).parent / "data"


def ref_level_set(u, lam):
    return tuple(x for x in u.poset.elements if u.scale.le(lam, u.values[x]))


def ref_least_of_upper_set(u, lam):
    """Least element m with level set exactly up(m): (m, None) on success,
    (None, (witnesses, detail)) on failure, (None, None) for an empty set."""
    leq = u.poset.leq
    level = ref_level_set(u, lam)
    if not level:
        return None, None
    least = brute_least(level, leq)
    if least is None:
        mins = brute_minimal(level, leq)
        return None, (tuple(mins[:2]), f"level set at {lam!r} has no least element")
    for y in u.poset.elements:
        if leq(least, y) and y not in level:
            return None, (
                (least, y),
                f"level set at {lam!r} is not the up-set of {least!r}: "
                f"{y!r} lies above it with a smaller value",
            )
    return least, None


def ref_dual(u, lam):
    """Least element of the level set (bare existence), None when empty."""
    level = ref_level_set(u, lam)
    if not level:
        return None
    least = brute_least(level, u.poset.leq)
    if least is None:
        raise q.LeastlessLevelSetError(lam, tuple(brute_minimal(level, u.poset.leq)[:2]))
    return least


def levels_to_probe(u):
    """Every probe level plus levels below and above the image."""
    img = u.image()
    return u.probe_levels([img[0] - 1, img[-1] + 1])


def assert_record_matches_reference(u):
    for lam in levels_to_probe(u):
        rec = u.level_set(lam)
        level = ref_level_set(u, lam)
        assert rec.mask == sum(1 << u.poset.index_of(x) for x in level)
        assert rec.least == (brute_least(level, u.poset.leq) if level else None)
        least, failure = ref_least_of_upper_set(u, lam)
        if failure is None:
            assert (rec.witnesses, rec.detail(lam)) == ((), "")
            assert rec.least == least
        else:
            assert (rec.witnesses, rec.detail(lam)) == failure


def assert_dual_matches_reference(u):
    assert u.certified
    for lam in levels_to_probe(u):
        try:
            want = ref_dual(u, lam)
        except q.LeastlessLevelSetError as exc:
            with pytest.raises(q.LeastlessLevelSetError) as got:
                u.dual(lam)
            assert got.value.witnesses == exc.witnesses
        else:
            assert u.dual(lam) == want


def random_table(rng, poset):
    """Arbitrary values: neither isotone nor quasi-Leontief in general."""
    return q.TabulatedUtility(poset, {e: F(rng.randint(0, 3), 2) for e in poset.elements})


def utilities(seed):
    """One utility from each corpus generator, on posets with and without a bottom."""
    rng = corpus.derive_rng(seed, "levels")
    with_bottom = corpus.random_poset(rng, 12, with_bottom=True)
    without = corpus.random_poset(rng, 12)
    space = corpus.random_product_of_chains(rng)
    return [
        corpus.random_isotone_utility(rng, with_bottom),
        corpus.random_isotone_utility(rng, without),
        corpus.random_quasileontief_utility(rng, with_bottom),
        corpus.random_isotone_utility(rng, space),
        random_table(rng, with_bottom),
        random_table(rng, without),
    ]


def tolerant_table(seed):
    """Float values jittered inside the tolerance band of a min form."""
    rng = random.Random(seed)
    space = q.grid_space(range(4), range(4))
    vals = {
        p: float(min(p)) + rng.choice((0.0, 4e-10, -4e-10)) for p in space.points()
    }
    return q.TabulatedUtility(space.as_poset(), vals, scale=q.tolerant(1e-9))


@pytest.mark.parametrize("seed", range(40))
def test_record_matches_reference_on_corpus(seed):
    for u in utilities(seed):
        assert_record_matches_reference(u)


@pytest.mark.parametrize("seed", range(40))
def test_dual_matches_reference_on_certified_corpus(seed):
    for u in utilities(seed):
        cert = q.certify_quasi_leontief(u)
        if cert.ok:
            assert_dual_matches_reference(cert.utility)
            assert_dual_matches_reference(q.certify_regular(cert.utility).utility)


@pytest.mark.parametrize("seed", range(5))
def test_record_matches_reference_on_tolerant_scale(seed):
    u = tolerant_table(seed)
    assert_record_matches_reference(u)
    assert_dual_matches_reference(q.certify_quasi_leontief(u).utility)


def ref_certify_quasi_leontief(u):
    """``(witnesses, detail)`` for the first element, in element order, whose
    raw level set is not the up-set of a least element; None when none is."""
    for x in u.poset.elements:
        _, failure = ref_least_of_upper_set(u, u.values[x])
        if failure is not None:
            witnesses, detail = failure
            return witnesses, f"for {x!r}: {detail}"
    return None


def ref_interior(u, x):
    """Least element of the raw level set at u(x)."""
    return brute_least(ref_level_set(u, u.values[x]), u.poset.leq)


def ref_efficient_set(u, subset):
    """The points of ``subset`` that are their own interior, by value, ties in
    element order."""
    pts = [x for x in u.poset.elements if x in subset and ref_interior(u, x) == x]
    return tuple(sorted(pts, key=lambda x: u.values[x]))


def tolerant_steps(seed):
    """Values 0.6 tolerance apart, so that a level set takes in the rank below
    it: on a chain and on a random poset with a bottom.  On the chain, the
    interior of every element but the first is the element below it."""
    tol = 1e-9
    rng = random.Random(seed)
    chain = q.FinitePoset.chain(range(5))
    poset = corpus.random_poset(rng, 8, with_bottom=True)
    return [
        q.TabulatedUtility(chain, {k: 0.6 * k * tol for k in range(5)}, scale=q.tolerant(tol)),
        q.TabulatedUtility(poset, {e: 0.6 * rng.randint(0, 3) * tol for e in poset.elements},
                           scale=q.tolerant(tol)),
    ]


@pytest.mark.parametrize("seed", range(40))
def test_certification_interior_and_efficient_set_match_reference(seed):
    for u in utilities(seed) + [tolerant_table(seed)] + tolerant_steps(seed):
        cert = q.certify_quasi_leontief(u)
        want = ref_certify_quasi_leontief(u)
        if want is not None:
            assert not cert.ok
            assert (cert.witnesses, cert.detail) == want
            continue
        cu = cert.utility
        assert cert.ok and cu.certified
        for x in u.poset.elements:
            assert cu.interior(x) == ref_interior(u, x)
        elements = set(u.poset.elements)
        assert q.efficient_set(cu).points == ref_efficient_set(u, elements)
        half = set(u.poset.elements[::2])
        assert q.efficient_set(cu, half).points == ref_efficient_set(u, half)


def levels_between(u):
    """Two levels strictly between each pair of consecutive attained values,
    and a second level below and above the image."""
    img = u.image()
    return [img[0] - 2, img[-1] + 2] + [
        a + k * (b - a) / 4 for a, b in zip(img, img[1:]) for k in (1, 3)
    ]


def assert_equal_level_sets_share_one_record(u):
    first = {}
    for lam in levels_to_probe(u) + levels_between(u):
        rec = u.level_set(lam)
        assert first.setdefault(rec.mask, rec) is rec


@pytest.mark.parametrize("seed", range(20))
def test_equal_level_sets_share_one_record(seed):
    """A probe, a level between two ranks and a level off the image that
    select the same elements read one record, on both scales."""
    for u in utilities(seed) + [tolerant_table(seed)] + tolerant_steps(seed):
        assert_equal_level_sets_share_one_record(u)


# -- the rank table ---------------------------------------------------------------


def small_tables():
    """Every table with values in {0, 1/2, 1} on chains and antichains of 1 to
    4 elements, all-equal tables included."""
    for n in range(1, 5):
        els = [f"e{i}" for i in range(n)]
        for poset in (q.FinitePoset.chain(els), q.FinitePoset.antichain(els)):
            for vals in product((F(0), F(1, 2), F(1)), repeat=n):
                yield q.TabulatedUtility(poset, dict(zip(els, vals)))


def assert_rank_table_matches_reference(u, levels):
    assert u.image() == tuple(sorted(set(u.values.values())))
    for lam in levels:
        assert u.level_set(lam).mask == sum(1 << u.poset.index_of(x) for x in ref_level_set(u, lam))
    for i, x in enumerate(u.poset.elements):
        assert u.level_of(i) is u.level_set(u.values[x])


def test_rank_table_on_small_tables():
    tables = list(small_tables())
    assert any(len(u.image()) == 1 and len(u.poset) == 4 for u in tables)
    for u in tables:
        assert_rank_table_matches_reference(u, levels_to_probe(u))
        assert_record_matches_reference(u)
        assert_equal_level_sets_share_one_record(u)


@pytest.mark.parametrize("seed", range(20))
def test_rank_table_on_tolerant_levels_between_ranks(seed):
    """Values a fraction of the tolerance apart, probed at levels between two
    attained values, where a level set takes in the ranks below the level
    that the tolerance reaches."""
    rng = random.Random(seed)
    tol = 1e-9
    n = rng.randint(1, 4)
    els = [f"e{i}" for i in range(n)]
    poset = rng.choice((q.FinitePoset.chain, q.FinitePoset.antichain))(els)
    vals = {e: 1.0 + rng.choice((0, 0.4, 0.9, 1.5, 2.2, 5)) * tol for e in els}
    u = q.TabulatedUtility(poset, vals, scale=q.tolerant(tol))
    img = u.image()
    between = [a + k * (b - a) / 4 for a, b in zip(img, img[1:]) for k in (1, 2, 3)]
    shifted = [v + d * tol for v in img for d in (-1.5, -1, -0.5, 0.5, 1, 1.5)]
    assert_rank_table_matches_reference(u, levels_to_probe(u) + between + shifted)
    assert_record_matches_reference(u)


def ref_ranks(values):
    """``(rank, image, suffix)`` by pairwise scans: the image holds the first
    element's value of each equal class, sorted."""
    reps = []
    for v in values:
        if not any(v == w for w in reps):
            reps.append(v)
    image = sorted(reps)
    rank = [next(r for r, w in enumerate(image) if v == w) for v in values]
    suffix = [sum(1 << i for i, k in enumerate(rank) if k >= r) for r in range(len(image) + 1)]
    return rank, image, suffix


def assert_ranks_match_reference(values):
    t = _Ranks(values)
    rank, image, suffix = ref_ranks(values)
    assert (t.rank, t.suffix, len(t.levels)) == (rank, suffix, len(image))
    assert len(t.image) == len(image) and all(a is b for a, b in zip(t.image, image))


def rank_tables(seed):
    """The same values as shared objects, as fresh copies and as floats, and
    exact values whose equal classes mix ints, Fractions and sizes a float
    cannot hold."""
    rng = random.Random(seed)
    pool = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 9))]
    shared = [rng.choice(pool) for _ in range(rng.randint(0, 40))]
    huge = [10**400, F(10**400), F(10**400 + 1, 3), -10**400]
    mixed = [rng.choice((1, F(1), F(2, 2), 0, F(1, 3), F(1, 3) + F(1, 10**30), *huge))
             for _ in range(rng.randint(0, 12))]
    floats = [float(v) + rng.choice((0.0, 4e-10)) for v in shared]
    return shared, [F(v) for v in shared], floats, mixed


@pytest.mark.parametrize("seed", range(60))
def test_ranks_match_reference(seed):
    for values in rank_tables(seed):
        assert_ranks_match_reference(values)


def slice_tables(seed):
    """Tables on products (a nested one among them) with exact, tolerant and
    mixed int/Fraction values."""
    rng = random.Random(seed)
    pick = lambda: rng.choice((
        q.FinitePoset.chain(range(rng.randint(1, 4))),
        q.FinitePoset.antichain(["p", "q", "r"][:rng.randint(1, 3)]),
    ))
    spaces = [
        q.ProductSpace([pick() for _ in range(rng.randint(1, 3))]),
        q.ProductSpace([q.ProductSpace([pick(), pick()]), pick()]),
    ]
    mixed = (0, 1, F(1), F(2, 2), F(1, 3), F(1, 3) + F(1, 10**30), 10**400, F(10**400))
    for space in spaces:
        points = list(space.points())
        exact = {p: F(rng.randint(0, 6), 2) for p in points}
        yield q.TabulatedUtility(space, exact)
        yield q.TabulatedUtility(
            space,
            {p: float(v) + rng.choice((0.0, 4e-10)) for p, v in exact.items()},
            scale=q.tolerant(1e-9),
        )
        yield q.TabulatedUtility(space, {p: rng.choice(mixed) for p in points})


@pytest.mark.parametrize("seed", range(30))
def test_slice_rank_table_matches_fresh_ranks(seed):
    """A slice of a ranked table reads its values and ranks off the parent;
    both match a slice built point by point and a fresh rank table of it."""
    for u in slice_tables(seed):
        space = u.space
        u._ranks()
        for axis, factor in enumerate(space.factors):
            for x in space.points():
                rest = space.delete(x, axis)
                pu = q.partial_utility(u, rest, axis)
                points = [space.substitute(rest, axis, t) for t in factor.elements]
                assert list(pu.values) == list(factor.elements)
                assert all(pu.values[t] is u.values[p] for t, p in zip(factor.elements, points))
                got, fresh = pu._rank_table, _Ranks(list(pu.values.values()))
                assert (got.rank, got.suffix, got.levels) == (fresh.rank, fresh.suffix, fresh.levels)
                assert got.image == fresh.image


def test_slice_of_an_unranked_table_ranks_nothing():
    u = q.TabulatedUtility(q.grid_space(range(3), range(4)), {
        p: F(min(p)) for p in q.grid_space(range(3), range(4)).points()
    })
    pu = q.partial_utility(u, (2,), 0)
    parts = q.min_decompose(u, [(1, 1)], (2, 3))
    assert u._rank_table is None and pu._rank_table is None
    assert all(p._rank_table is None for p in parts)
    assert [pu.value(t) for t in range(3)] == [F(0), F(1), F(2)]
    assert [[p.value(t) for t in p.poset.elements] for p in parts] == [
        [F(0), F(1), F(2)], [F(0), F(1), F(2), F(2)]
    ]


class CountedValue:
    """A totally ordered value that counts its comparisons."""

    calls = 0

    def __init__(self, v):
        self.v = v

    def __lt__(self, other):
        CountedValue.calls += 1
        return self.v < other.v

    def __eq__(self, other):
        CountedValue.calls += 1
        return self.v == other.v


def test_ranks_sort_only_the_distinct_objects():
    rng = random.Random(0)
    pool = [CountedValue(v) for v in range(8)]
    values = [rng.choice(pool) for _ in range(1296)]
    CountedValue.calls = 0
    assert_ranks_match_reference(values)  # the reference compares too: count the build alone
    CountedValue.calls = 0
    t = _Ranks(values)
    d = len(t.image)
    assert d == 8 and CountedValue.calls <= d * d.bit_length() + d


def test_dual_keeps_bare_least_element_test():
    # Quasi-Leontief within the tolerance, yet the level set at the midpoint
    # a + 0.75 tol holds x but not y >= x.  The dual still returns its least
    # element x; the regularity certificate reports the set.
    tol = 1e-9
    poset = q.FinitePoset.from_covers(["x", "y", "z"], [("x", "y"), ("x", "z")])
    u = q.TabulatedUtility(
        poset, {"x": 1.0, "y": 1.0 - 0.9 * tol, "z": 1.0 + 1.5 * tol}, scale=q.tolerant(tol)
    )
    cu = q.certify_quasi_leontief(u).utility
    lam = (1.0 + 1.0 + 1.5 * tol) / 2
    assert cu.dual(lam) == "x"
    assert_dual_matches_reference(cu)
    reg = q.certify_regular(u)
    assert not reg.ok and reg.witnesses == ("x", "y")


def ref_galois_failure(u, dual_table):
    """First (x, lam) where x >= u#(lam) and u(x) >= lam disagree, with its detail."""
    for lam, d in dual_table.items():
        for x in u.poset.elements:
            lhs = u.poset.leq(d, x)
            rhs = u.scale.le(lam, u.values[x])
            if lhs != rhs:
                return (x, lam), f"x>=u#({lam!r}) is {lhs} but u(x)>={lam!r} is {rhs}"
    return None


@pytest.mark.parametrize("seed", range(20))
def test_galois_matches_reference_on_corrupted_tables(seed):
    for u in utilities(seed):
        reg = q.certify_regular(u)
        if not reg.ok:
            continue
        assert q.verify_galois(reg.utility, reg.dual_table).ok
        for lam in reg.dual_table:
            for alt in u.poset.elements:
                table = dict(reg.dual_table)
                table[lam] = alt
                cert = q.verify_galois(reg.utility, table)
                want = ref_galois_failure(u, table)
                if want is None:
                    assert cert.ok
                else:
                    assert (cert.witnesses, cert.detail) == want


def test_certified_copies_share_the_records(min_on_4x4):
    reg = q.certify_regular(min_on_4x4)
    assert reg.utility.level_set(F(2)) is min_on_4x4.level_set(F(2))


def count_builds(monkeypatch):
    """Builds by the rank where the level set's suffix starts."""
    built = Counter()
    build = q.TabulatedUtility._build_level_set

    def counting(self, s):
        built[s] += 1
        return build(self, s)

    monkeypatch.setattr(q.TabulatedUtility, "_build_level_set", counting)
    return built


DISTINCT_LEVEL_SETS = {"min_grid": 4, "plain_poset": 2, "tolerant_power": 5, "classical": 6}


@pytest.mark.parametrize("name", sorted(DISTINCT_LEVEL_SETS))
def test_check_builds_each_distinct_level_set_once(name, monkeypatch, capsys):
    """The probes give 2k - 1 levels for k attained values, but a level
    between two ranks selects the same elements as one of them."""
    monkeypatch.chdir(DATA)
    u = utility_from_json(load_json(f"{name}.json"))  # a gridded form loads as its table
    masks = {sum(1 << u.poset.index_of(x) for x in ref_level_set(u, lam)) for lam in u.probe_levels()}
    built = count_builds(monkeypatch)
    assert main(["check", "--json", f"{name}.json"]) == 0
    capsys.readouterr()
    assert {u._ranks().suffix[s] for s in built} == masks - {0}
    assert len(built) == DISTINCT_LEVEL_SETS[name] and set(built.values()) == {1}


def test_corrupted_check_stops_at_the_first_bad_level(monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    probes = utility_from_json(load_json("corrupted.json")).probe_levels()
    built = count_builds(monkeypatch)
    assert main(["check", "--json", "corrupted.json"]) == 1
    capsys.readouterr()
    assert set(built.values()) == {1}
    assert len(built) < len(probes)


class CountedSum(F):
    """A Fraction that counts the sums it takes, so the midpoints a probe
    list needs can be counted."""

    sums = 0

    def __add__(self, other):
        CountedSum.sums += 1
        return F.__add__(self, other)


def test_probe_levels_and_regularity_are_made_once_per_rank_table(monkeypatch):
    """``certify_regular`` then ``check_meet_homomorphism`` on one table
    build its midpoints once, and the meet check reads the regularity
    verdict that ``certify_regular`` recorded instead of bisecting again."""
    space = q.grid_space(range(3), range(4))
    u = q.TabulatedUtility(space, {p: CountedSum(min(p[0], 2 * p[1])) for p in space.points()})
    k = len(u.image())
    CountedSum.sums = 0
    assert q.certify_regular(u).ok
    assert CountedSum.sums == k - 1
    looked_up = []
    level_set = q.TabulatedUtility.level_set
    monkeypatch.setattr(q.TabulatedUtility, "level_set",
                        lambda self, lam: looked_up.append(lam) or level_set(self, lam))
    assert q.check_meet_homomorphism(u).ok
    assert CountedSum.sums == k - 1 and not looked_up
    probes = u.probe_levels()
    assert len(probes) == 2 * k - 1
    probes.clear()  # a caller's list is its own
    assert u.probe_levels() == sorted(u.probe_levels([F(99)]))[:-1] and len(u.probe_levels()) == 2 * k - 1
