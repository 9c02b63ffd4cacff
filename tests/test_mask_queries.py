"""The subset queries on masks against pairwise references.

``FinitePoset._least_in``, ``_greatest_in``, ``_minimal_in``, ``_chain_in``
and ``_induced_on`` answer each query on a mask of element indices, and the
public ``least``, ``greatest``, ``minimal``, ``is_chain``, ``join``,
``bottom``, ``top`` and ``induced`` decode them.  The references compare
the points pair by pair with ``leq``, which a product answers factor by
factor, so they read no mask.  A product answers the mask queries factor
by factor, from cylinder masks or from the rows ``as_poset`` filled; those
answers are compared with a plain poset on the rows of its twin.
"""
from __future__ import annotations

import pytest

import qleontief as q
from qleontief import corpus
from qleontief.order import DownSet, FinitePoset, _bits

from conftest import brute_least, brute_minimal, tables

KINDS = ("poset", "poset-with-bottom", "chains", "posets", "nested")


def random_space(rng, kind):
    if kind == "poset":
        return corpus.random_poset(rng, 9)
    if kind == "poset-with-bottom":
        return corpus.random_poset(rng, 9, with_bottom=True)
    if kind == "chains":
        return corpus.random_product_of_chains(rng).as_poset()
    if kind == "posets":
        return q.ProductSpace([corpus.random_poset(rng, 4) for _ in range(rng.randint(2, 3))]).as_poset()
    inner = q.ProductSpace([FinitePoset.chain(range(rng.randint(1, 3))), corpus.random_poset(rng, 3)])
    return q.ProductSpace([inner, corpus.random_poset(rng, 3)]).as_poset()


def random_chain(rng, poset):
    """A mask of a chain: a random walk up the order from a random element."""
    i = rng.randrange(len(poset))
    m = 1 << i
    while rng.random() < 0.7:
        above = [j for j, y in enumerate(poset) if j != i and poset.leq(poset.point(i), y)]
        if not above:
            break
        i = rng.choice(above)
        m |= 1 << i
    return m


def masks(rng, poset):
    """The empty mask, every singleton, the full mask, random subsets, up-
    and down-sets, their intersections and chains."""
    n = len(poset)
    out = [0, (1 << n) - 1] + [1 << i for i in range(n)]
    for _ in range(8):
        out.append(sum(1 << i for i in range(n) if rng.random() < rng.choice((0.2, 0.5, 0.8))))
        x, y = rng.randrange(n), rng.randrange(n)
        out += [poset._up[x], poset._down[y], poset._up[x] & poset._down[y], poset._up[x] | poset._up[y]]
        out.append(random_chain(rng, poset))
    return out


def is_chain_ref(points, leq):
    return all(leq(a, b) or leq(b, a) for a in points for b in points)


def geq(leq):
    return lambda a, b: leq(b, a)


@pytest.mark.parametrize("kind", KINDS)
def test_mask_helpers_match_pairwise_references(kind):
    chains = 0
    for seed in range(25):
        rng = corpus.derive_rng(13, "mask-queries", kind, seed)
        poset = random_space(rng, kind)
        leq = poset.leq
        for m in masks(rng, poset):
            pts = list(poset._unmask(m))
            least, greatest = brute_least(pts, leq), brute_least(pts, geq(leq))
            assert poset._at(poset._least_in(m)) == least == poset.least(pts)
            assert poset._at(poset._greatest_in(m)) == greatest == poset.greatest(pts)
            mins = tuple(brute_minimal(pts, leq))
            assert poset._unmask(poset._minimal_in(m)) == mins == poset.minimal(pts)
            assert poset._minimal_in(m) & ~m == 0
            chain = is_chain_ref(pts, leq)
            assert poset._chain_in(m) == chain == poset.is_chain(pts)
            chains += chain and len(pts) > 1
            sub = poset._induced_on(m)
            assert sub == poset.induced(pts)
            assert sub.elements == tuple(pts)
            assert all(sub.leq(a, b) == leq(a, b) for a in pts for b in pts)
    assert chains > 100  # the chain test sees true cases beyond singletons


@pytest.mark.parametrize("kind", KINDS)
def test_join_bottom_and_top_match_pairwise_references(kind):
    for seed in range(25):
        rng = corpus.derive_rng(13, "mask-decoders", kind, seed)
        poset = random_space(rng, kind)
        leq, els = poset.leq, tuple(poset)
        assert poset.bottom() == brute_least(els, leq)
        assert poset.top() == brute_least(els, geq(leq))
        for _ in range(10):
            x, y = rng.choice(els), rng.choice(els)
            uppers = [z for z in els if leq(x, z) and leq(y, z)]
            assert poset.join(x, y) == brute_least(uppers, leq)


def test_empty_poset():
    empty = FinitePoset([], [])
    assert empty.bottom() is None and empty.top() is None
    assert empty._least_in(0) is None and empty._minimal_in(0) == 0 and empty._chain_in(0)
    assert len(empty._induced_on(0)) == 0


# -- a product's factor-wise answers against its built tables ----------------------


def factorwise_products():
    """Products of chain, antichain and V-shaped factors, nested products,
    and a factor whose element order is no linear extension, top first."""
    chain = FinitePoset.chain(["0", "1", "2"])
    antichain = FinitePoset.antichain(["p", "q"])
    vee = FinitePoset.from_covers(["lo", "l", "r"], [("lo", "l"), ("lo", "r")])
    top_first = FinitePoset.from_covers(["top", "bot"], [("bot", "top")])
    P = q.ProductSpace
    return [
        P([chain]), P([chain, chain, chain]), P([chain, antichain]), P([vee, chain]), P([antichain, vee]),
        P([top_first]), P([top_first, chain]), P([chain, top_first, vee]),
        P([P([vee, chain]), antichain]), P([chain, P([top_first, vee])]),
        P([P([chain, chain]), P([vee, top_first])]),
    ]


def from_indices(space, m, generated):
    """The mask ``DownSet.from_indices`` gives for the members of m, or its error text."""
    try:
        return DownSet.from_indices(space, _bits(m), generated=generated).mask
    except q.OrderError as exc:
        return str(exc)


@pytest.mark.parametrize("k, filled", [
    *(pytest.param(k, False, id=str(k)) for k in range(len(factorwise_products()))),
    *(pytest.param(k, True, id=f"{k}-filled") for k in range(len(factorwise_products()))),
])
def test_factorwise_answers_match_the_built_tables(k, filled):
    """The same answers with the rows unfilled, from cylinder masks, and
    with the rows ``as_poset`` filled."""
    space = factorwise_products()[k]
    ref = tables(space)
    if filled:
        assert space.as_poset() is space
    n = len(ref)
    assert [space._up_of(i) for i in range(n)] == ref._up
    assert [space._down_of(i) for i in range(n)] == ref._down
    rng = corpus.derive_rng(17, "factorwise", k)
    seen = set()
    for m in masks(rng, ref) + [ref._below(ref._up[i]) for i in range(n)]:
        least = space._least_in(m)
        assert least == ref._least_in(m)
        assert space._greatest_in(m) == ref._greatest_in(m)
        assert space._minimal_in(m) == ref._minimal_in(m)
        assert space._chain_in(m) == ref._chain_in(m)
        assert space._unmask(m) == ref._unmask(m)
        assert from_indices(space, m, True) == from_indices(ref, m, True)
        members = from_indices(space, m, False)
        assert members == from_indices(ref, m, False)  # a holed set names the same missing point
        seen |= {"least" if least is not None else "leastless", "holed" if members != m else "comprehensive"}
    assert len(seen) == 4
    assert (space._up is None) != filled  # no query fills the rows


def test_factorwise_products_cover_both_index_orders():
    assert {p._ordered for p in factorwise_products()} == {True, False}


def test_random_downset_on_an_unbuilt_product():
    """The corpus down-set generator samples the product's points, fills no
    rows, and draws what it draws on the plain twin."""
    for k, space in enumerate(factorwise_products()):
        rng, twin_rng = (corpus.derive_rng(19, "random-downset", k) for _ in range(2))
        S = corpus.random_downset(rng, space)
        assert S.mask == corpus.random_downset(twin_rng, tables(space)).mask
        assert space._up is None
