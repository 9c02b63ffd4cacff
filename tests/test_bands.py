"""The tolerance band of a rank table against brute force.

A rank table keeps one band array, ``lo``: lo[r] is the lowest rank s with
le(image[r], image[s]).  The level set at an attained value starts there, and
the ranks the scale counts equal to rank r run from lo[r] to one more than
the last s with lo[s] <= r.  The references here scan every pair of ranks
with ``Scale.le`` and ``Scale.eq``, and check the runs and bands that the
oracle's pass over the pairs tests property Phi and the meet identity on.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest

import qleontief as q
from qleontief import corpus, oracle
from qleontief.efficiency import partial_utility
from qleontief.order import _bits

from test_levels import tolerant_steps, tolerant_table


def ref_lo(u):
    image, le = u.image(), u.scale.le
    return [min(s for s in range(len(image)) if le(v, image[s])) for v in image]


def ref_bands(u):
    """Per rank r, the mask of the elements whose value the scale counts
    equal to image[r]."""
    image, eq = u.image(), u.scale.eq
    return [sum(1 << i for i, w in enumerate(u.column) if eq(w, v)) for v in image]


def boundary_tables(seed):
    """Values k / 100 at tolerance 0.01, where (k + 1) / 100 <= k / 100 + 0.01
    holds though the difference of the two rounds above 0.01, on a chain and
    on a random poset with a bottom."""
    rng = random.Random(seed)
    chain = q.FinitePoset.chain(range(6))
    poset = corpus.random_poset(rng, 8, with_bottom=True)
    return [q.TabulatedUtility(dom, {e: rng.randint(86, 92) / 100 for e in dom.elements},
                               scale=q.tolerant(0.01)) for dom in (chain, poset)]


def exact_tables(seed):
    rng = corpus.derive_rng(seed, "bands")
    poset = corpus.random_poset(rng, 10, with_bottom=True)
    space = corpus.random_product_of_chains(rng)
    return [corpus.random_isotone_utility(rng, space),
            q.TabulatedUtility(poset, {e: F(rng.randint(0, 4), 2) for e in poset.elements})]


def tables(seed):
    return [tolerant_table(seed)] + tolerant_steps(seed) + boundary_tables(seed) + exact_tables(seed)


def swept_bands(u, monkeypatch):
    """The runs and bands that property Phi's pass over the pairs reads for u."""
    seen = []
    value_bands = oracle._value_bands
    with monkeypatch.context() as m:
        m.setattr(oracle, "_value_bands", lambda t: seen.append(value_bands(t)) or seen[-1])
        q.check_property_phi(u)
    (runs, bands), = seen
    return runs, bands


@pytest.mark.parametrize("seed", range(20))
def test_lo_matches_the_pairwise_scan(seed):
    for u in tables(seed):
        lo = u._ranks().lo
        assert list(lo) == ref_lo(u)
        # nothing is stored where every rank starts its own level set
        assert (type(lo) is range) == (ref_lo(u) == list(range(len(u.image()))))
        if u.scale.kind == "exact":
            assert type(lo) is range


def test_the_tables_reach_every_case():
    """Bands stored and not, each on a poset with a total meet (where the
    pass tests the meet identity too) and without one."""
    seen = {(type(u._ranks().lo) is range, u.poset.is_inf_semilattice())
            for seed in range(20) for u in tables(seed)}
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("seed", range(20))
def test_phi_bands_match_the_pairwise_scan(seed, monkeypatch):
    for u in tables(seed):
        runs, bands = swept_bands(u, monkeypatch)
        want = ref_bands(u)
        assert bands == want
        rank = u._ranks().rank
        assert runs == [(min(rank[i] for i in _bits(b)), max(rank[i] for i in _bits(b)) + 1) for b in want]


@pytest.mark.parametrize("seed", range(10))
def test_sub_tables_carry_their_own_band(seed):
    """A slice and a restriction read their ranks off the parent's rank table,
    and their band off their own image."""
    rng = random.Random(seed)
    for u in [tolerant_table(seed)] + boundary_tables(seed):
        u._ranks()
        subs = [q.restrict(u, corpus.random_downset(rng, u.poset))]
        if u.space is not None:
            x = u.space.point(rng.randrange(len(u.space)))
            subs += [partial_utility(u, x[:axis] + x[axis + 1:], axis) for axis in range(u.space.n_axes)]
        for sub in subs:
            assert sub._rank_table is not None
            assert list(sub._ranks().lo) == ref_lo(sub)


def test_a_boundary_table_stores_its_band():
    u = q.TabulatedUtility(q.FinitePoset.chain("ab"), {"a": 0.89, "b": 0.9}, scale=q.tolerant(0.01))
    assert u._ranks().lo == [0, 0]
    assert u.level_of(1).mask == 0b11


@pytest.mark.parametrize("big", [10**20 + 1, F(10**20 + 1, 3)])
def test_rationals_past_two_to_the_53_on_a_tolerant_scale(big):
    """v + 1e-9 rounds to a float below such a v, yet ``le`` stays reflexive,
    and each value starts its own level set."""
    scale = q.tolerant()
    assert scale.le(big, big) and scale.eq(big, big)
    chain = q.FinitePoset.chain([0, 1, 2])
    u = q.TabulatedUtility(chain, {0: 0, 1: big, 2: 2 * big}, scale=scale)
    assert ref_lo(u) == [0, 1, 2]
    assert q.certify_regular(u).ok


@pytest.mark.parametrize("scale", [q.EXACT, q.tolerant()])
def test_integers_past_a_floats_range(scale):
    """Neither the tolerance nor a midpoint probe turns such a value into a
    float, so the table certifies on both scales."""
    big = 10**400
    u = q.TabulatedUtility(q.FinitePoset.chain([0, 1, 2]), {0: 0, 1: big, 2: big + 1}, scale=scale)
    assert scale.le(big, big + 1) and not scale.le(big + 1, big)
    assert oracle.certify_quasi_leontief(u).ok
    reg = oracle.certify_regular(u)
    assert reg.ok and reg.dual_table == {0: 0, F(big, 2): 1, big: 1, big + F(1, 2): 2, big + 1: 2}


def test_a_float_next_to_an_integer_past_a_floats_range():
    """Their float sum overflows, so the probe between them is their exact
    midpoint, and no certifier raises ``OverflowError``."""
    big = 10**400
    u = q.TabulatedUtility(q.FinitePoset.chain([0, 1]), {0: 1.5, 1: big}, scale=q.tolerant())
    reg = oracle.certify_regular(u)
    assert reg.ok and reg.dual_table == {1.5: 0, (F(1.5) + big) / 2: 1, big: 1}
    assert oracle.check_characterization_equivalence(u).ok


@pytest.mark.parametrize("values, scale", [
    ((10**400, math.inf), q.tolerant()),
    ((-math.inf, 10**400), q.EXACT),
])
def test_an_infinity_next_to_an_integer_past_a_floats_range(values, scale):
    """Their sum overflows and the infinity has no exact value, so the
    midpoint is the infinity itself, which is left out as a neighbour."""
    u = q.TabulatedUtility(q.FinitePoset.chain([0, 1]), dict(enumerate(values)), scale=scale)
    assert u.probe_levels() == list(values)
    reg = oracle.certify_regular(u)
    assert reg.ok and reg.dual_table == {values[0]: 0, values[1]: 1}


def test_tolerant_le_is_monotone_over_mixed_kinds():
    """For b1 <= b2 of any kinds, a <= b1 on the scale implies a <= b2:
    the float 1 + 1e-9, which lies above the exact sum, against 1.0 and a
    Fraction just above 1.0, and values on either side of a float's range."""
    scale, big = q.tolerant(), 10**400
    values = [0, 1.0, F(1) + F(1, 2**60), F(1) + F(1e-9), 1 + 1e-9, 1.5, 10**20 + 1, 1e308, big, big + 1]
    assert values == sorted(values)
    for a in values + [F(1) + F(1, 10**9) + F(1, 10**17)]:
        for b1, b2 in zip(values, values[1:]):
            assert scale.le(a, b2) or not scale.le(a, b1), (a, b1, b2)
    assert scale.le(1 + 1e-9, 1.0) and scale.le(1 + 1e-9, F(1) + F(1, 2**60))
