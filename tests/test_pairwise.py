"""The pairwise certifiers and meets against the O(N^3) loops they replaced.

Each reference visits every pair (x, y) in element order and, for each pair,
every common lower bound or every element above x.  The library answers the
same questions with a few big-int operations per pair: a meet is the highest
common lower bound along a linear extension, and property Phi and the meet
identity test one value band per pair.  A product takes its semilattice
verdict and its meets from the factors instead, and tests the meet identity
a row of meets at a time.  On an inf-semilattice one sweep of the meet rows
gives both property Phi and the meet identity.  Verdicts, witnesses and detail texts
must agree exactly.  The pairwise filtering loop and the per-level common
lower bound loop are kept too: the library asks for a least element instead.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import qleontief as q
from qleontief import corpus
from qleontief.cli import main
from qleontief.oracle import _is_regular, _meet_failure, _strictly_ordered
from qleontief.order import _bits


DATA = Path(__file__).parent / "data"


# -- references -------------------------------------------------------------------


def ref_meet(poset, x, y):
    lows = poset._down[poset.index_of(x)] & poset._down[poset.index_of(y)]
    for i in _bits(lows):
        if lows & ~poset._down[i] == 0:
            return poset.elements[i]
    return None


def ref_is_inf_semilattice(poset):
    els = poset.elements
    return all(ref_meet(poset, x, y) is not None for i, x in enumerate(els) for y in els[i + 1:])


def ref_is_filtered(poset):
    """Every pair of elements has a common lower bound."""
    down = poset._down
    return all(down[i] & down[j] for i in range(len(down)) for j in range(i + 1, len(down)))


def ref_property_phi(u):
    """(ok, witnesses, detail) of property Phi by scanning every common lower bound."""
    poset = u.poset
    n = len(poset.elements)
    for i in range(n):
        x = poset.elements[i]
        for j in range(i, n):
            y = poset.elements[j]
            target = min(u.values[x], u.values[y])
            lows = poset._down[i] & poset._down[j]
            if not any(u.scale.eq(u.values[poset.elements[k]], target) for k in _bits(lows)):
                return False, (x, y), f"no common lower bound attains {target!r}"
    return True, (), ""


def ref_meet_failure(u):
    poset = u.poset
    for i, x in enumerate(poset.elements):
        for y in poset.elements[i:]:
            got = u.values[ref_meet(poset, x, y)]
            want = min(u.values[x], u.values[y])
            if not u.scale.eq(got, want):
                return x, y, got, want
    return None


def ref_isotone(u):
    """(ok, witnesses, detail); the witness y is the first element above x, in
    element order, with a smaller value."""
    poset = u.poset
    for x in poset.elements:
        vx = u.values[x]
        for y in poset.elements:
            if poset.leq(x, y) and not u.scale.le(vx, u.values[y]):
                return False, (x, y), f"u({x!r})={vx!r} > u({y!r})={u.values[y]!r}"
    return True, (), ""


def ref_lower_bounded_level_sets(u, probe_levels=()):
    """(ok, witnesses, detail): every nonempty level set at a probe level has a
    common lower bound, found by intersecting its members' down-sets.  The
    witnesses of a failure are its first two minimal members."""
    poset = u.poset
    for lam in u.probe_levels(probe_levels):
        idxs = list(_bits(u.level_set(lam).mask))
        if not idxs:
            continue
        m = poset._down[idxs[0]]
        for i in idxs[1:]:
            m &= poset._down[i]
        if m == 0:
            mins = [i for i in idxs if not any(j != i and poset._down[i] >> j & 1 for j in idxs)]
            return (False, tuple(poset.elements[i] for i in mins[:2]),
                    f"level set at {lam!r} has no common lower bound")
    return True, (), ""


# -- inputs -----------------------------------------------------------------------


def shuffled(rng, poset):
    """The same order with the elements listed in a random sequence, so that the
    index order is in general not a linear extension."""
    els = list(poset.elements)
    rng.shuffle(els)
    return q.FinitePoset.from_leq(els, [(a, b) for a in els for b in els if poset.leq(a, b)])


def mixed_product(rng, shape, size):
    """A corpus poset and a chain, in either order.  The poset has a bottom for
    "mixed-bottom" and in general none for "mixed", so the product is often no
    inf-semilattice; "nested" puts such a product inside another one, before
    or after a second small corpus poset, so that two factors may lack meets."""
    bottom = shape == "mixed-bottom" or shape == "nested" and rng.random() < 0.5
    factors = [corpus.random_poset(rng, size, with_bottom=bottom),
               q.FinitePoset.chain(range(rng.randint(1, 4)))]
    rng.shuffle(factors)
    if shape == "nested":
        second = corpus.random_poset(rng, 4, with_bottom=rng.random() < 0.5)
        factors = [q.ProductSpace(factors), second]
        rng.shuffle(factors)
    return q.ProductSpace(factors)


def make_poset(rng, shape, size=12):
    if shape == "chains":
        return corpus.random_product_of_chains(rng).as_poset()
    if shape in PRODUCT_SHAPES:
        return mixed_product(rng, shape, size)
    poset = corpus.random_poset(rng, size, with_bottom=shape.endswith("bottom"))
    return shuffled(rng, poset) if shape.startswith("shuffled") else poset


def make_table(rng, poset, table):
    if table == "regular" and poset.bottom() is not None:
        return corpus.random_quasileontief_utility(rng, poset).values
    if table in ("regular", "isotone"):
        return corpus.random_isotone_utility(rng, poset).values
    return {e: F(rng.randint(0, 3), 2) for e in poset.elements}


# Float offsets and tolerances chosen so that bands overlap without being
# transitive (tolerance 1/2 on steps of 1/2) and so that sums such as 0.1 + 0.2
# land on either side of a band's edge.
JITTER = (0.0, 0.0, 1e-12, 0.1, 0.2, 0.30000000000000004)
TOLERANCES = (1e-9, 0.1, 0.25, 0.5)


def make_utility(seed, shape, table, scale, size=12):
    rng = corpus.derive_rng(seed, "pairwise", shape, table, scale)
    poset = make_poset(rng, shape, size)
    values = make_table(rng, poset, table)
    if scale == "exact":
        return q.TabulatedUtility(poset, values)
    values = {e: float(v) + rng.choice(JITTER) for e, v in values.items()}
    return q.TabulatedUtility(poset, values, scale=q.tolerant(rng.choice(TOLERANCES)))


SHAPES = ("bottom", "plain", "shuffled-bottom", "shuffled", "chains")
PRODUCT_SHAPES = ("mixed-bottom", "mixed", "nested")
utilities = st.builds(
    make_utility,
    st.integers(0, 2**32),
    st.sampled_from(SHAPES),
    st.sampled_from(("regular", "isotone", "arbitrary")),
    st.sampled_from(("exact", "tolerant")),
)


def outcome(cert):
    return cert.ok, cert.witnesses, cert.detail


# -- differential tests -------------------------------------------------------------


def assert_meets_match(poset):
    for x in poset.elements:
        for y in poset.elements:
            assert poset.meet(x, y) == ref_meet(poset, x, y)
    assert poset.is_inf_semilattice() == ref_is_inf_semilattice(poset)


@given(st.integers(0, 2**32), st.sampled_from(SHAPES))
def test_meets_match_reference(seed, shape):
    assert_meets_match(make_poset(corpus.derive_rng(seed, "pairwise-meet"), shape))


def test_is_filtered_matches_reference():
    posets = [q.FinitePoset([], []), q.FinitePoset.antichain(["a"])]
    for i in range(300):
        rng = corpus.derive_rng(i, "pairwise-filtered")
        posets.append(make_poset(rng, rng.choice(SHAPES), size=rng.randint(2, 8)))
    verdicts = [p.is_filtered() for p in posets]
    assert verdicts == [ref_is_filtered(p) for p in posets]
    assert verdicts[:2] == [True, True] and False in verdicts


def test_lower_bounded_level_sets_match_reference():
    """Corpus posets with and without a bottom, exact and tolerant tables, and
    extra probes below the minimum and above the maximum."""
    verdicts = []
    for i in range(200):
        rng = corpus.derive_rng(i, "pairwise-lower-bounded")
        u = make_utility(i, rng.choice(SHAPES), rng.choice(("regular", "arbitrary")),
                         rng.choice(("exact", "tolerant")), size=rng.randint(2, 10))
        extra = rng.choice([(), (-1,), (99,), (-1, 99)])
        cert = q.check_lower_bounded_level_sets(u, extra)
        assert outcome(cert) == ref_lower_bounded_level_sets(u, extra)
        verdicts.append(cert.ok)
    assert True in verdicts and False in verdicts


@given(utilities)
def test_property_phi_matches_reference(u):
    assert outcome(q.check_property_phi(u)) == ref_property_phi(u)


@given(utilities)
def test_isotone_matches_reference(u):
    assert outcome(q.check_isotone(u)) == ref_isotone(u)


@given(utilities)
def test_meet_failure_matches_reference(u):
    if ref_is_inf_semilattice(u.poset):
        assert _meet_failure(u) == ref_meet_failure(u)


@given(st.integers(0, 2**32), st.sampled_from(SHAPES), st.sampled_from(("regular", "arbitrary")))
def test_meet_homomorphism_matches_reference(seed, shape, table):
    u = make_utility(seed, shape, table, "exact")
    if not ref_is_inf_semilattice(u.poset):
        with pytest.raises(q.OrderError, match="needs a total meet"):
            q.check_meet_homomorphism(u)
        return
    failure = ref_meet_failure(u)
    cert = q.check_meet_homomorphism(u)
    if failure is None:
        assert outcome(cert) == (True, (), "")
    else:
        x, y, got, want = failure
        assert outcome(cert) == (False, (x, y), f"u({x!r} ^ {y!r})={got!r} != {want!r}")


# -- products: meets through the factors ---------------------------------------------


def assert_meet_rows_match(space):
    """Every upper meet row entry (row i, j >= i) is the index of the reference
    meet, None where there is none."""
    rows = list(space.meet_rows())
    assert len(rows) == len(space)
    for i, (row, x) in enumerate(zip(rows, space.elements)):
        want = [ref_meet(space, x, y) for y in space.elements[i:]]
        assert row == [None if m is None else space.index_of(m) for m in want]


@given(st.integers(0, 2**32), st.sampled_from(SHAPES))
def test_plain_meet_rows_match_reference(seed, shape):
    assert_meet_rows_match(make_poset(corpus.derive_rng(seed, "pairwise-rows"), shape, size=10))


def test_product_meet_rows_hold_only_small_tables(monkeypatch):
    """The last factor's meet table is held when it has at most N entries;
    a larger last factor makes its rows again for each point before it, and
    the first factor only ever gives its upper rows, so no table has more
    than N entries.  The rows are the same either way."""
    held = []
    table = q.FinitePoset._meet_table

    def recording_table(self):
        held.append(len(self))
        return table(self)

    monkeypatch.setattr(q.FinitePoset, "_meet_table", recording_table)
    # six elements; a ^ b, c ^ d and d ^ f do not exist
    wide = q.FinitePoset.from_covers(
        "abcdef", [("a", "c"), ("b", "c"), ("a", "d"), ("b", "d"), ("c", "e"), ("d", "e"), ("c", "f")])
    two, three = q.FinitePoset.chain(range(2)), q.FinitePoset.chain(range(3))
    cases = [([wide], []), ([two, wide], []), ([wide, three], [3]),
             ([q.ProductSpace([two, wide]), two], [2]), ([two, q.ProductSpace([three, three])], [3, 3])]
    for factors, tables in cases:
        held.clear()
        space = q.ProductSpace(factors)
        assert_meet_rows_match(space)
        assert held == tables and all(n * n <= len(space) for n in held)


@given(st.integers(0, 2**32), st.sampled_from(PRODUCT_SHAPES))
def test_factorwise_meets_match_reference(seed, shape):
    space = make_poset(corpus.derive_rng(seed, "pairwise-product"), shape, size=8)
    verdict = space.is_inf_semilattice()  # read from the factors, before any table
    assert verdict == ref_is_inf_semilattice(space)
    assert_meet_rows_match(space)


def test_product_shapes_give_both_verdicts():
    verdicts = set()
    for i in range(60):
        rng = corpus.derive_rng(i, "pairwise-product-verdicts")
        verdicts.add(make_poset(rng, PRODUCT_SHAPES[i % 3], size=6).is_inf_semilattice())
    assert verdicts == {True, False}


@given(st.integers(0, 2**32), st.sampled_from(PRODUCT_SHAPES),
       st.sampled_from(("regular", "isotone", "arbitrary")), st.sampled_from(("exact", "tolerant")))
def test_factorwise_meet_failure_matches_reference(seed, shape, table, scale):
    u = make_utility(seed, shape, table, scale, size=6)
    if ref_is_inf_semilattice(u.poset):
        assert _meet_failure(u) == ref_meet_failure(u)


def test_meet_failure_is_the_first_bad_pair_of_its_row():
    """Row (0, 1) of this 2 x 2 grid has the meet ranks of its minimum ranks,
    but in another order; the first bad pair lies in that row."""
    space = q.grid_space(range(2), range(2))
    u = q.TabulatedUtility(space, {(0, 0): F(0), (0, 1): F(1), (1, 0): F(2), (1, 1): F(0)})
    assert _meet_failure(u) == ref_meet_failure(u) == ((0, 1), (1, 0), F(0), F(1))


def test_factorwise_meet_failure_on_semilattice_products():
    """Chains times chains, and a diamond lattice times a chain, nested or not:
    inf-semilattices on which the identity holds for some tables and fails
    for others, on both scales."""
    diamond = q.FinitePoset.from_covers(
        ["top", "a", "b", "bot"], [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])
    chain = q.FinitePoset.chain(range(3))
    spaces = [q.ProductSpace([diamond, chain]), q.ProductSpace([q.ProductSpace([chain, diamond]), chain]),
              q.grid_space(range(3), range(2), range(3))]
    outcomes = set()
    for k, space in enumerate(spaces):
        assert space.is_inf_semilattice()
        assert_meet_rows_match(space)
        for i in range(20):
            rng = corpus.derive_rng(i, "pairwise-lattice-product", k)
            values = make_table(rng, space, rng.choice(("regular", "isotone", "arbitrary")))
            for u in (q.TabulatedUtility(space, values),
                      q.TabulatedUtility(space, {e: float(v) + rng.choice(JITTER) for e, v in values.items()},
                                         scale=q.tolerant(rng.choice(TOLERANCES)))):
                failure = _meet_failure(u)
                assert failure == ref_meet_failure(u)
                outcomes.add((u.scale.kind, failure is None))
    assert outcomes == {(kind, ok) for kind in ("exact", "tolerant") for ok in (True, False)}


# -- one meet sweep for property Phi and the meet identity ---------------------------


DIVISORS = [d for d in range(1, 37) if 36 % d == 0]
DIVISOR_COVERS = [(str(d), str(d * p)) for d in DIVISORS for p in (2, 3) if 36 % (d * p) == 0]


def lattice_spaces():
    """Inf-semilattices of each kind: chain products, plain lattices (one with
    an index order that is no linear extension) and nested products."""
    diamond = q.FinitePoset.from_covers(
        ["top", "a", "b", "bot"], [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])
    lattice36 = q.FinitePoset.from_covers([str(d) for d in DIVISORS], DIVISOR_COVERS)
    grid = shuffled(corpus.derive_rng(0, "pairwise-sweep-grid"), q.grid_space(range(3), range(3)))
    two, three = q.FinitePoset.chain(range(2)), q.FinitePoset.chain(range(3))
    return [
        q.grid_space(range(3), range(4)), q.grid_space(range(2), range(2), range(3)),
        diamond, lattice36, grid,
        q.ProductSpace([q.ProductSpace([three, diamond]), two]),
        q.ProductSpace([two, q.ProductSpace([diamond, two])]),
    ]


def sweep_table(rng, space, kind):
    """A regular table, an isotone or an arbitrary one, or a regular table
    with one point raised (a dip below it: the meet identity fails there,
    while property Phi may still hold)."""
    if kind != "dip":
        return make_table(rng, space, kind)
    values = dict(make_table(rng, space, "regular"))
    x = rng.choice(space.elements)
    values[x] += F(rng.randint(1, 2), 2)
    return values


def test_meet_sweep_matches_the_separate_references():
    """Property Phi and the meet identity read off one sweep of the meet rows
    agree with the pairwise down-set reference and the pairwise meet
    reference, in verdict, witness and detail, on both scales; every pairing
    of the two verdicts that can occur does occur, and Phi never fails where
    the identity holds.  The tolerant tables either share one float offset,
    which keeps the scale transitive, or take an offset per value, so that
    bands overlap without being transitive.  ``check_meet_homomorphism``
    returns the identity's verdict on both kinds: it cross-checks regularity
    on every table of the first kind, and on the second only where the scale
    orders the values strictly, since elsewhere the two can disagree."""
    seen = set()
    disagree = 0
    for k, space in enumerate(lattice_spaces()):
        assert space.is_inf_semilattice()
        for i in range(30):
            rng = corpus.derive_rng(i, "pairwise-sweep", k)
            values = sweep_table(rng, space, ("regular", "isotone", "arbitrary", "dip")[i % 4])
            offset = rng.choice(JITTER)
            tables = [
                (True, q.TabulatedUtility(space, values)),
                (True, q.TabulatedUtility(space, {e: float(v) + offset for e, v in values.items()},
                                          scale=q.tolerant(rng.choice(TOLERANCES[:3])))),
                (False, q.TabulatedUtility(space, {e: float(v) + rng.choice(JITTER) for e, v in values.items()},
                                           scale=q.tolerant(rng.choice(TOLERANCES)))),
            ]
            for transitive, u in tables:
                meet_first = rng.random() < 0.5  # either certifier may run the sweep
                failure = _meet_failure(u) if meet_first else None
                phi = q.check_property_phi(u)
                failure = failure if meet_first else _meet_failure(u)
                assert outcome(phi) == ref_property_phi(u)
                assert failure == ref_meet_failure(u)
                meet = outcome(q.check_meet_homomorphism(u))
                if failure is None:
                    assert meet == (True, (), "")
                else:
                    x, y, got, want = failure
                    assert meet == (False, (x, y), f"u({x!r} ^ {y!r})={got!r} != {want!r}")
                assert _strictly_ordered(u) or not transitive
                disagree += _is_regular(u) != (failure is None)
                seen.add((u.scale.kind, phi.ok, failure is None))
    assert seen == {(kind, phi, meet) for kind in ("exact", "tolerant")
                    for phi, meet in ((True, True), (True, False), (False, False))}
    assert disagree  # tables where the cross-check would raise are swept too


def test_meet_check_on_values_within_the_tolerance():
    """Values 1.1 and 1.0 at tolerance 0.1: ``le`` counts 1.1 <= 1.0, so the
    table is regular, but ``eq`` tells them apart, so the meet identity fails
    at (bot, a).  The check reports that failure instead of raising."""
    diamond = q.FinitePoset.from_covers(
        ["bot", "a", "b", "top"], [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])
    u = q.TabulatedUtility(diamond, {"bot": 1.1, "a": 1.0, "b": 1.1, "top": 2.2},
                           scale=q.tolerant(0.1))
    assert q.certify_regular(u).ok and not _strictly_ordered(u)
    cert = q.check_meet_homomorphism(u)
    assert outcome(cert) == (False, ("bot", "a"), "u('bot' ^ 'a')=1.1 != 1.0")


def plain_semilattice_file(tmp_path):
    """The divisors of 36, a 3 x 3 grid given as a plain poset, with the
    regular table min(twos, threes)."""

    def power(d, p):
        return 0 if d % p else 1 + power(d // p, p)

    path = tmp_path / "divisors.json"
    path.write_text(json.dumps({
        "type": "tabulated",
        "poset": {"elements": [str(d) for d in DIVISORS], "covers": DIVISOR_COVERS},
        "values": {str(d): str(min(power(d, 2), power(d, 3))) for d in DIVISORS},
    }))
    return str(path)


@pytest.mark.parametrize("space_class", [q.ProductSpace, q.FinitePoset])
def test_check_sweeps_the_meet_rows_once(space_class, tmp_path, monkeypatch, capsys):
    """One ``check`` on an inf-semilattice reads the meet rows once, for
    property Phi and the meet identity alike."""
    path = str(DATA / "min_grid.json") if space_class is q.ProductSpace else plain_semilattice_file(tmp_path)
    calls = []
    meet_rows = space_class.meet_rows
    monkeypatch.setattr(space_class, "meet_rows", lambda self: calls.append(self) or meet_rows(self))
    assert main(["check", "--json", path]) == 0
    props = [c["property"] for c in json.loads(capsys.readouterr().out)["certificates"]]
    assert "property-phi" in props and "meet-homomorphism" in props
    assert len(calls) == 1 and type(calls[0]) is space_class


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", ["bottom", "shuffled-bottom"])
def test_wide_posets_match_reference(seed, shape):
    """Posets of up to 70 elements, so masks span more than one machine word."""
    for table in ("regular", "arbitrary"):
        u = make_utility(seed, shape, table, "exact", size=70)
        assert_meets_match(u.poset)
        assert outcome(q.check_property_phi(u)) == ref_property_phi(u)
        assert outcome(q.check_isotone(u)) == ref_isotone(u)
        if ref_is_inf_semilattice(u.poset):
            assert _meet_failure(u) == ref_meet_failure(u)


def test_renumbering_only_when_index_order_is_not_an_extension():
    rng = corpus.derive_rng(0, "pairwise-frame")
    assert q.grid_space(range(3), range(4)).as_poset()._meet_masks()[1] is None
    assert corpus.random_poset(rng, 12, with_bottom=True)._meet_masks()[1] is None
    diamond = q.FinitePoset.from_covers(
        ["top", "a", "b", "bot"], [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")]
    )
    down, order = diamond._meet_masks()
    assert [diamond.elements[i] for i in order] == list(diamond.linear_extension())
    assert diamond.meet("top", "a") == "a" and diamond.meet("a", "b") == "bot"
    assert_meets_match(diamond)


# -- witnesses do not depend on hashing -----------------------------------------------

_STAR = """
import qleontief as q
p = q.FinitePoset.from_covers(list("abcde"), [("a", y) for y in "bcde"])
u = q.TabulatedUtility(p, {"a": 2, "b": 1, "c": 1, "d": 1, "e": 1})
print(q.check_isotone(u).witnesses)
"""


def test_isotone_witness_independent_of_hash_seed():
    src = str(Path(q.__file__).resolve().parents[1])
    texts = set()
    for seed in ("0", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _STAR], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        texts.add(run.stdout)
    assert texts == {"('a', 'b')\n"}
