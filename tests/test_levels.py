"""The per-level record of a tabulated utility against a brute-force reference.

The reference builds each upper level set as a tuple of elements and finds
its least and minimal elements by pairwise scans over ``poset.leq``; it never
touches the bitmasks the record is built from.
"""
from __future__ import annotations

import datetime
import math
import random
from collections import Counter
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qleontief as q
from qleontief import corpus, leontief
from qleontief.cli import main
from qleontief.io import load_json, utility_from_json

from conftest import brute_least, brute_minimal, fresh_ranks

DATA = Path(__file__).parent / "data"


def ref_level_set(u, lam):
    return tuple(x for x in u.poset if u.scale.le(lam, u.values[x]))


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
    for y in u.poset:
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
        assert rec.index == (None if rec.least is None else u.poset.index_of(rec.least))
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
    for x in u.poset:
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
    pts = [x for x in u.poset if x in subset and ref_interior(u, x) == x]
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
        for x in u.poset:
            assert cu.interior(x) == ref_interior(u, x)
        elements = set(u.poset)
        assert q.efficient_set(cu) == ref_efficient_set(u, elements)
        half = set(tuple(u.poset)[::2])
        assert tuple(x for x in q.efficient_set(cu) if x in half) == ref_efficient_set(u, half)


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
    t = fresh_ranks(values)
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
    """A slice or a restriction of a ranked table reads its values and ranks
    off the parent; both match a sub-table built point by point and a fresh
    rank table of it."""
    rng = random.Random(seed)
    for u in slice_tables(seed):
        space = u.space
        subs = []
        for axis, factor in enumerate(space.factors):
            for x in space.points():
                rest = space.delete(x, axis)
                points = [space.substitute(rest, axis, t) for t in factor]
                subs.append((q.partial_utility(u, rest, axis), tuple(factor), points))
        points = list(space.points())
        for _ in range(4):
            S = q.DownSet.from_generators(space, rng.sample(points, rng.randint(1, min(3, len(points)))))
            subs.append((q.restrict(u, S), S.sorted_members(), S.sorted_members()))
        keyed = u.values
        for pu, elements, points in subs:
            assert list(pu.values) == list(elements)
            assert all(pu.values[t] is keyed[p] for t, p in zip(elements, points))
            got, fresh = pu._rank_table, fresh_ranks(list(pu.values.values()), pu.scale)
            assert (got.rank, got.suffix, got.levels) == (fresh.rank, fresh.suffix, fresh.levels)
            assert got.image == fresh.image


def dense_ranks(rng, n, m):
    """n ranks that meet each of 0..m-1, shuffled, as a rank table's are."""
    rank = list(range(m)) + [rng.randrange(m) for _ in range(n - m)]
    rng.shuffle(rank)
    return rank


@pytest.mark.parametrize("n, m", [
    (0, 0), (1, 1), (300, 1), (40, 39), (40, 40), (300, 255), (1296, 8), (1296, 255),
], ids=lambda v: str(v))
def test_suffix_masks_by_rank_match_the_per_element_build(n, m):
    rank = dense_ranks(random.Random(n * 1000 + m), n, m)
    ref = [sum(1 << i for i, k in enumerate(rank) if k >= r) for r in range(m + 1)]
    assert leontief._suffix_by_element(rank, m) == ref
    assert leontief._suffix_by_rank(rank, m) == ref
    assert leontief._suffix_masks(rank, m) == ref


def test_suffix_masks_past_a_byte_take_the_per_element_build(monkeypatch):
    """At this size the costs alone would pick the per-rank build."""
    rank = dense_ranks(random.Random(256), 100000, 256)
    monkeypatch.setattr(leontief, "_suffix_by_rank", None)  # a call would raise
    assert leontief._suffix_masks(rank, 256) == leontief._suffix_by_element(rank, 256)


@pytest.mark.parametrize("n, distinct, by_rank", [
    (1296, 8, True), (625, 6, True), (100, 4, True),
    (64, 20, False), (16, 4, False), (8, 2, False),
])
@pytest.mark.parametrize("scale", ["exact", "tolerant"])
def test_rank_tables_switch_their_suffix_build_by_size(n, distinct, by_rank, scale, monkeypatch):
    """Few ranks against many elements build per rank, a corpus-sized table
    per element; exact and tolerant tables, and their restrictions, match
    the reference either way."""
    rng = random.Random(n + distinct)
    pool = [F(v, 3) for v in range(distinct)]
    values = [pool[k] for k in dense_ranks(rng, n, distinct)]
    if scale == "tolerant":
        values = [float(v) for v in values]
    calls = []
    real = leontief._suffix_by_rank
    monkeypatch.setattr(leontief, "_suffix_by_rank", lambda *a: calls.append(a) or real(*a))
    sc = q.tolerant(1e-9) if scale == "tolerant" else q.EXACT
    t = fresh_ranks(values, sc)
    assert (t.rank, t.suffix) == ref_ranks(values)[::2]
    assert bool(calls) == by_rank
    indices = rng.sample(range(n), n // 2)
    sub = leontief._ranks_of([values[i] for i in indices], [t.rank[i] for i in indices], sc)
    assert (sub.rank, sub.suffix) == ref_ranks([values[i] for i in indices])[::2]


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
        for x in u.poset:
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
            for alt in u.poset:
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
    assert {u._rank_table.suffix[s] for s in built} == masks - {0}
    assert len(built) == DISTINCT_LEVEL_SETS[name] and set(built.values()) == {1}


def test_corrupted_check_stops_at_the_first_bad_level(monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    probes = utility_from_json(load_json("corrupted.json")).probe_levels()
    built = count_builds(monkeypatch)
    assert main(["check", "--json", "corrupted.json"]) == 1
    capsys.readouterr()
    assert set(built.values()) == {1}
    assert len(built) < len(probes)


@pytest.mark.parametrize("corrupt", [False, True])
def test_level_record_builds_one_up_set_on_a_chain_product(corrupt, monkeypatch):
    """On an unbuilt chain product the least element's up-set is built once
    per level record: the least-element test hands it to the record."""
    space = q.grid_space(range(4), range(3), range(3))
    values = {x: min(x[0], 2 * x[1], x[2]) for x in space}
    if corrupt:  # (0, 1, 2) lies above (0, 1, 1), the least element of its level set, with a smaller value
        values[0, 1, 1] = 2
    u = q.TabulatedUtility(space, values)
    up_of, calls = type(space)._up_of, []
    monkeypatch.setattr(type(space), "_up_of", lambda self, i: calls.append(i) or up_of(self, i))
    records = [u.level_set(lam) for lam in u.image()]
    assert calls == [rec.index for rec in records]
    assert any(rec.fault for rec in records) == corrupt


class CountedSum(F):
    """A Fraction that counts the sums it takes, so the midpoints a probe
    list needs can be counted."""

    sums = 0

    def __add__(self, other):
        CountedSum.sums += 1
        return F.__add__(self, other)


def test_probe_levels_and_regularity_are_made_once_per_rank_table(monkeypatch):
    """``certify_regular`` then ``check_meet_homomorphism`` on one table
    build its midpoints once, and the meet check's regularity cross-check
    reads the level records that ``certify_regular`` built instead of
    building new ones."""
    space = q.grid_space(range(3), range(4))
    u = q.TabulatedUtility(space, {p: CountedSum(min(p[0], 2 * p[1])) for p in space.points()})
    k = len(u.image())
    CountedSum.sums = 0
    assert q.certify_regular(u).ok
    assert CountedSum.sums == k - 1
    built = []
    build = q.TabulatedUtility._build_level_set
    monkeypatch.setattr(q.TabulatedUtility, "_build_level_set",
                        lambda self, s: built.append(s) or build(self, s))
    assert q.check_meet_homomorphism(u).ok
    assert CountedSum.sums == k - 1 and not built
    probes = u.probe_levels()
    assert len(probes) == 2 * k - 1
    probes.clear()  # a caller's list is its own
    assert u.probe_levels() == sorted(u.probe_levels([F(99)]))[:-1] and len(u.probe_levels()) == 2 * k - 1


def ref_probe_levels(u, extra=()):
    """The probe levels as the sorted set of the image and the midpoint of
    each pair of neighbours, up to the first pair without arithmetic,
    merged with ``extra``."""
    img = list(u.image())
    midpoints = []
    for a, b in zip(img, img[1:]):
        try:
            mid = a + b
            midpoints.append(F(mid, 2) if type(mid) is int else mid / 2)
        except TypeError:
            break
    probes = tuple(sorted(set(img + midpoints)))
    return sorted(set(probes).union(extra)) if extra else list(probes)


def assert_probes_match_reference(values, scale=q.EXACT, extra=()):
    """``probe_levels`` equals the reference by value and type, and every
    attained value in it is the image's own object, with and without
    ``extra`` levels."""
    chain = q.FinitePoset.chain(range(len(values)))
    u = q.TabulatedUtility(chain, dict(enumerate(values)), scale=scale)
    img = u.image()
    for levels in ((), extra):
        got, want = u.probe_levels(levels), ref_probe_levels(u, levels)
        assert got == want
        assert list(map(type, got)) == list(map(type, want))
        for v in img:
            assert got[got.index(v)] is v and want[want.index(v)] is v


RATIONALS = st.one_of(
    st.integers(-50, 50),
    st.fractions(F(-20), F(20), max_denominator=12),
    st.integers(2 ** 53 - 4, 2 ** 53 + 4),
    st.integers(10 ** 400 - 3, 10 ** 400 + 3),
)


@given(st.lists(RATIONALS, min_size=1, max_size=12), st.lists(RATIONALS, max_size=3))
@settings(max_examples=200, deadline=None)
def test_probes_match_the_sorted_set_on_exact_tables(values, extra):
    assert_probes_match_reference(values, q.EXACT, extra)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12),
       st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=3))
@settings(max_examples=200, deadline=None)
def test_probes_match_the_sorted_set_on_float_tables(values, extra):
    assert_probes_match_reference(values, q.tolerant(0), extra)


HUGE = 10 ** 400
FRACTIONS = st.one_of(
    st.integers(-50, 50),
    st.fractions(F(-20), F(20), max_denominator=12),
    st.builds(F, st.integers(-HUGE - 3, HUGE + 3), st.integers(HUGE - 3, HUGE + 3)),
    st.builds(F, st.integers(-HUGE - 3, HUGE + 3), st.integers(1, 7)),
    st.builds(F, st.integers(-7, 7), st.integers(HUGE - 3, HUGE + 3)),
)


@given(st.lists(FRACTIONS, min_size=1, max_size=12), st.lists(FRACTIONS, max_size=3))
@settings(max_examples=200, deadline=None)
def test_probes_of_fractions_match_the_sorted_set(values, extra):
    """Neighbouring Fractions take their midpoint from one normalisation:
    negative ones, numerators and denominators near 10**400, and ints among
    them."""
    assert_probes_match_reference(values, q.EXACT, extra)


@given(st.lists(st.one_of(st.fractions(F(-20), F(20), max_denominator=12), st.floats(-1e6, 1e6)),
                min_size=1, max_size=12),
       st.lists(st.fractions(F(-20), F(20), max_denominator=12), max_size=3))
@settings(max_examples=200, deadline=None)
def test_probes_of_fraction_float_mixes_match_the_sorted_set(values, extra):
    assert_probes_match_reference(values, q.EXACT, extra)
    assert_probes_match_reference(values, q.tolerant(0), extra)


@pytest.mark.parametrize("values", [
    [1.0, math.nextafter(1.0, 2)],  # the midpoint rounds onto a neighbour
    [1.0, 1 + 2 ** -52, 1 + 2 ** -51, 2.0],
    [1e308, 1.7e308],  # the sum overflows to inf, which sorts last
    [0.0, 1e308, 1.5e308, 1.7e308],
    [-1.7e308, -1e308, 0.0, 1e308, 1.7e308],  # -inf first, inf last
    [5e-324, 1e-323, 0.0, -5e-324],
    [2 ** 53, 2 ** 53 + 1, 2.0 ** 53 + 2],
])
def test_probes_match_the_sorted_set_at_float_edges(values):
    assert_probes_match_reference(values, q.tolerant(0), [0.5, math.inf, -math.inf])
    assert_probes_match_reference(values, q.EXACT, [1.0])


@pytest.mark.parametrize("values", [
    ["b", "a", "d", "c"],  # str sums exist, their halves do not
    [datetime.date(2020, 1, d) for d in (3, 1, 2)],  # dates have no sum
    ["only"],
])
def test_probes_of_values_without_arithmetic_are_the_image(values):
    assert_probes_match_reference(values, q.EXACT, values[:1])
    chain = q.FinitePoset.chain(range(len(values)))
    u = q.TabulatedUtility(chain, dict(enumerate(values)))
    assert u.probe_levels() == list(u.image())


def test_rank_table_holds_no_oracle_verdict():
    """The oracle's certifiers keep nothing on the rank table: each call sweeps."""
    assert not {"regular", "pairs"} & set(leontief._Ranks.__slots__)


def extras(u, rng):
    """Extra levels for ``_probes``: none, the probes themselves with levels
    off the image, attained values as other objects equal to them and
    repeats, in shuffled order."""
    probes = levels_to_probe(u)
    img = u.image()
    extra = probes + [F(v) if isinstance(v, int) else v + 0 for v in img] + rng.sample(probes, 3)
    return [(), rng.sample(extra, len(extra))]


def stray_tables():
    """Tables whose default probes have a stray: a float sum that overflows
    to inf, and an int and a float near 2^53 whose midpoint rounds below
    them, on either scale."""
    chain = q.FinitePoset.chain("abc")
    base = q.TabulatedUtility(chain, {"a": F(1), "b": F(3, 2), "c": F(17, 10)})
    near = {"a": 2 ** 53, "b": 2 ** 53 + 1, "c": 2.0 ** 53 + 2}
    tables = [q.affine_transform(base, 1e308, 0),
              q.TabulatedUtility(chain, near),
              q.TabulatedUtility(chain, near, scale=q.tolerant(0))]
    for u in tables:
        img = u.image()
        assert any(not a <= (a + b) / 2 <= b for a, b in zip(img, img[1:]))
    return tables


@pytest.mark.parametrize("seed", range(40))
def test_level_walk_matches_one_level_at_a_time(seed):
    """Every (level, start) pair of the probe walk (``_probes``) reads the
    record that ``level_set`` finds for its level alone, whose set is the
    reference's."""
    rng = random.Random(seed)
    tables = utilities(seed) + [tolerant_table(seed % 5), tolerant_table(seed % 5 + 5)]
    for u in tables + (stray_tables() if seed < 2 else []):
        for extra in extras(u, rng):
            pairs = u._probes(extra)
            assert [lam for lam, _ in pairs] == u.probe_levels(extra)
            for lam, s in pairs:
                rec = u._record(s)
                assert rec is u.level_set(lam)
                assert rec.mask == sum(1 << u.poset.index_of(x) for x in ref_level_set(u, lam))


def test_level_walk_on_a_float_midpoint_merged_into_a_neighbour():
    # neighbouring floats have no float between them: each midpoint rounds
    # onto a neighbour and the probe list merges it away, so probe 2r is not
    # image[r]
    lo, hi = 1 + 2 ** -52, 1 + 2 ** -51
    u = q.TabulatedUtility(q.FinitePoset.chain("abc"), {"a": 1.0, "b": lo, "c": hi}, scale=q.tolerant(0))
    assert (1.0 + lo) / 2 == 1.0 and (lo + hi) / 2 == hi
    probes = u.probe_levels()
    assert probes == [1.0, lo, hi]
    assert u._probes() == [(1.0, 0), (lo, 1), (hi, 2)]
    assert q.certify_regular(u).dual_table == {1.0: "a", lo: "b", hi: "c"}


@pytest.mark.parametrize("seed", range(10))
def test_galois_reads_each_level_in_any_key_order(seed):
    """``verify_galois`` reads each key's level set alone: a passing dual
    table passes with its keys in any order, and one wrong entry fails with
    the same witness whatever the order."""
    rng = random.Random(seed)
    checked = 0
    for u in utilities(seed) + [tolerant_table(seed % 5)]:
        reg = q.certify_regular(u)
        if not reg.ok:
            continue
        items = list(reg.dual_table.items())
        orders = [items, items[::-1], rng.sample(items, len(items))]
        assert all(q.verify_galois(reg.utility, dict(order)).ok for order in orders)
        k = rng.randrange(len(items))
        lam, d = items[k]
        wrong = next(x for x in u.poset if x != d)
        bad = [(lam, wrong) if i == k else item for i, item in enumerate(items)]
        got = {(c.ok, c.witnesses, c.detail)
               for c in (q.verify_galois(reg.utility, dict(order))
                         for order in (bad, bad[::-1], rng.sample(bad, len(bad))))}
        assert len(got) == 1 and not got.pop()[0]
        checked += 1
    assert checked


class CountedLess(F):
    """A Fraction that counts the comparisons it makes as the left operand."""

    compares = 0

    def __lt__(self, other):
        CountedLess.compares += 1
        return F.__lt__(self, other)


def test_exact_regularity_compares_no_value():
    """On the exact scale ``certify_regular`` reads each probe at the start
    its walk up the ranks gave it, so once the ranks are made it compares no
    value, where a bisection per probe takes about log2 of the image size
    comparisons each."""
    chain = q.FinitePoset.chain(range(64))
    u = q.TabulatedUtility(chain, {t: CountedLess(t) for t in chain.elements})
    k = len(u.image())
    CountedLess.compares = 0
    assert q.certify_regular(u).ok
    assert CountedLess.compares == 0
    probes = u.probe_levels()
    assert len(probes) == 2 * k - 1
    for lam in probes:
        u.level_set(lam)
    assert CountedLess.compares > 8 * (k - 1)
