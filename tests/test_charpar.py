"""``check_charpar`` against a reference that walks point tuples.

The reference is the sweep as it stood before the walk moved to point
indices: points in order (or the seeded sample), each one's minimality by a
pairwise scan, and per axis the slice u[x_-i] built point by point through
``u.value``, certified by the oracle and cached by (axis, rest).  Only the
efficient mask of a certified slice is shared with the library, so that a
test-side fake of it reaches both sides.
"""
from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

import qleontief as q
import qleontief.efficiency as eff
from qleontief import corpus


def ref_certified_slice(u, rest, axis):
    space = u.space
    factor = space.factors[axis]
    vals = {t: u.value(space.substitute(rest, axis, t)) for t in factor.elements}
    pu = q.TabulatedUtility(factor, vals, scale=u.scale)
    if u.certified:
        pu.certified = True
        return pu
    cert = q.certify_quasi_leontief(pu)
    if not cert.ok:
        raise q.UtilityError(
            f"partial on axis {axis} at {rest!r} is not quasi-Leontief: "
            f"witnesses {cert.witnesses!r}"
        )
    return cert.utility


def ref_minimal(u, x):
    leq, le, values = u.poset.leq, u.scale.le, u.values
    return not any(
        y != x and leq(y, x) and le(values[x], values[y]) for y in u.poset.elements
    )


def ref_check_charpar(u):
    space = u.space
    pts = list(space.points())
    if len(pts) > eff.CHARPAR_LIMIT:
        pts = random.Random(eff.CHARPAR_SEED).sample(pts, eff.CHARPAR_LIMIT)
    masks = {}
    for x in pts:
        member = True
        for axis, f in enumerate(space.factors):
            rest = x[:axis] + x[axis + 1:]
            if (axis, rest) not in masks:
                masks[axis, rest] = eff.efficient_mask(ref_certified_slice(u, rest, axis))
            member = member and bool(masks[axis, rest] >> f.index_of(x[axis]) & 1)
        minimal = ref_minimal(u, x)
        if minimal != member:
            return q.Certificate(
                False, "charpar", witnesses=(x,),
                detail=f"minimal={minimal} but coordinatewise membership={member}",
            )
    return q.Certificate(True, "charpar", data={"points_checked": len(pts)})


def outcome(check, u):
    try:
        cert = check(u)
    except q.UtilityError as exc:
        return type(exc), str(exc)
    return cert.ok, cert.prop, cert.witnesses, cert.detail, cert.data


def assert_agrees(u):
    want = outcome(ref_check_charpar, u)
    assert outcome(q.check_charpar, u) == want
    return want


V = q.FinitePoset.from_covers(["bot", "a", "b"], [("bot", "a"), ("bot", "b")])


def mixed_products(seed):
    """Products with chain, antichain and V-shaped factors, and a nested
    product, carrying isotone and arbitrary tables, exact and tolerant."""
    rng = corpus.derive_rng(seed, "charpar-diff")
    pick = lambda: rng.choice((
        q.FinitePoset.chain(range(rng.randint(1, 3))),
        q.FinitePoset.antichain(["p", "q"]),
        V,
    ))
    flat = q.ProductSpace([pick() for _ in range(rng.randint(1, 3))])
    nested = q.ProductSpace([q.ProductSpace([pick(), pick()]), pick()])
    out = []
    for space in (flat, nested):
        out.append(corpus.random_isotone_utility(rng, space))
        out.append(q.TabulatedUtility(
            space.as_poset(), {p: F(rng.randint(0, 2), 2) for p in space.points()}
        ))
        # isotone up to jitter inside the tolerance
        jittered = {x: float(v) + rng.choice((0.0, 4e-10, -4e-10))
                    for x, v in out[-2].values.items()}
        out.append(q.TabulatedUtility(space.as_poset(), jittered, scale=q.tolerant(1e-9)))
    return out


@pytest.mark.parametrize("seed", range(20))
def test_agrees_on_corpus_charpar_seeds(seed):
    for i in range(8):
        rng = corpus.derive_rng(seed, "charpar", i)
        space = corpus.random_product_of_chains(rng)
        u = corpus.random_isotone_utility(rng, space)
        assert assert_agrees(u)[0] is True


@pytest.mark.parametrize("seed", range(40))
def test_agrees_on_mixed_and_nested_products(seed):
    for u in mixed_products(seed):
        assert_agrees(u)


def test_agrees_on_certified_parents():
    for seed in range(10):
        rng = corpus.derive_rng(seed, "charpar-certified")
        space = q.ProductSpace([q.FinitePoset.chain(range(3)), V])
        u = corpus.random_isotone_utility(rng, space)
        cert = q.certify_quasi_leontief(u)
        assert_agrees(cert.utility if cert.ok else u)


def test_non_quasi_leontief_slice_raises_the_same_error():
    space = q.ProductSpace([q.FinitePoset.antichain(["a", "b"]), q.FinitePoset.chain([0, 1])])
    u = q.TabulatedUtility(space.as_poset(), {p: F(1) for p in space.points()})
    assert assert_agrees(u) == (
        q.UtilityError,
        "partial on axis 0 at (0,) is not quasi-Leontief: witnesses ('a', 'b')",
    )


def test_nested_product():
    c2, c3 = q.FinitePoset.chain(range(2)), q.FinitePoset.chain(range(3))
    space = q.ProductSpace([q.ProductSpace([c2, c3]), c2])
    for seed in range(10):
        u = corpus.random_isotone_utility(corpus.derive_rng(seed, "nested"), space)
        assert_agrees(u)


@pytest.mark.parametrize("limit", [1, 5, 20, 47])
def test_sampled_path(limit, monkeypatch):
    monkeypatch.setattr(eff, "CHARPAR_LIMIT", limit)
    for seed in range(5):
        rng = corpus.derive_rng(seed, "sampled")
        space = q.grid_space(range(4), range(4), range(3))
        u = corpus.random_isotone_utility(rng, space)
        assert assert_agrees(u)[-1] == {"points_checked": limit}
        for bad in mixed_products(seed):
            assert_agrees(bad)


def flip_slice(monkeypatch, factor, values, bit):
    """Fake efficient masks: the slice on ``factor`` with ``values`` gets
    ``bit`` flipped."""
    real = eff.efficient_mask

    def fake(pu):
        m = real(pu)
        return m ^ 1 << bit if pu.poset is factor and pu.values == values else m

    monkeypatch.setattr(eff, "efficient_mask", fake)


@pytest.mark.parametrize("axis, frozen, bit, witness, detail", [
    (1, 2, 3, (2, 3), "minimal=False but coordinatewise membership=True"),
    (0, 0, 0, (0, 0), "minimal=True but coordinatewise membership=False"),
])
def test_flipped_slice_mask_pins_the_witness(
    axis, frozen, bit, witness, detail, min_on_4x4, monkeypatch
):
    raw = q.TabulatedUtility(min_on_4x4.poset, min_on_4x4.values)
    space = raw.space
    factor = space.factors[axis]
    values = {t: raw.value(space.substitute((frozen,), axis, t)) for t in factor.elements}
    flip_slice(monkeypatch, factor, values, bit)
    for u in (raw, min_on_4x4):
        assert assert_agrees(u) == (False, "charpar", (witness,), detail, {})


def test_flipped_slice_mask_on_the_sampled_path(monkeypatch):
    monkeypatch.setattr(eff, "CHARPAR_LIMIT", 60)
    space = q.grid_space(range(4), range(4), range(4))
    u = q.TabulatedUtility(space.as_poset(), {p: F(min(p)) for p in space.points()})
    flip_slice(monkeypatch, space.factors[2], {t: F(min(1, t)) for t in range(4)}, 3)
    assert assert_agrees(u) == (
        False, "charpar", ((1, 1, 3),), "minimal=False but coordinatewise membership=True", {}
    )
