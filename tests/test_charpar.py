"""``check_charpar`` against a reference that walks point tuples.

The reference is the sweep as it stood before the walk moved to point
indices: points in order (or the seeded sample), each one's minimality by a
pairwise scan, and per axis the slice u[x_-i] built point by point through
``u.value``, certified by the oracle, and read as its interior record (the
factor index of each point's interior), cached by (axis, rest).  The record
is the seam both sides share: ``flip_slice`` fakes the reference's
``ref_slice_interiors`` and the library's ``_axis_interiors`` alike.
"""
from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction as F

import pytest

import qleontief as q
import qleontief.efficiency as eff
from qleontief import corpus, leontief, oracle


def ref_certified_slice(u, rest, axis):
    space = u.space
    factor = space.factors[axis]
    vals = {t: u.value(space.substitute(rest, axis, t)) for t in factor}
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


def interiors_of(pu):
    """The factor index of each point's interior in a certified slice table."""
    return tuple(pu.poset.index_of(pu.interior(t)) for t in pu.poset)


def ref_slice_interiors(u, rest, axis):
    return interiors_of(ref_certified_slice(u, rest, axis))


def ref_minimal(u, x):
    leq, le, values = u.poset.leq, u.scale.le, u.values
    return not any(
        y != x and leq(y, x) and le(values[x], values[y]) for y in u.poset
    )


def ref_check_charpar(u):
    space = u.space
    pts = list(space.points())
    if len(pts) > eff.CHARPAR_LIMIT:
        pts = random.Random(eff.CHARPAR_SEED).sample(pts, eff.CHARPAR_LIMIT)
    records = {}
    for x in pts:
        member = True
        for axis, f in enumerate(space.factors):
            rest = x[:axis] + x[axis + 1:]
            if (axis, rest) not in records:
                records[axis, rest] = ref_slice_interiors(u, rest, axis)
            digit = f.index_of(x[axis])
            member = member and records[axis, rest][digit] == digit
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
    """Fake slice records on both sides: the slice on ``factor`` with
    ``values`` gets the efficiency of its point ``bit`` flipped."""

    def flip(u, axis, rec, value_at):
        if u.space.factors[axis] is not factor or {t: value_at(t) for t in factor} != values:
            return rec
        return rec[:bit] + (None if rec[bit] == bit else bit,) + rec[bit + 1:]

    real_ref, real_lib = ref_slice_interiors, eff._axis_interiors

    def fake_ref(u, rest, axis):
        return flip(u, axis, real_ref(u, rest, axis),
                    lambda t: u.value(u.space.substitute(rest, axis, t)))

    def fake_lib(u, axis, base):
        stride = u.space.strides[axis]
        return flip(u, axis, real_lib(u, axis, base),
                    lambda t: u.column[base + factor.index_of(t) * stride])

    monkeypatch.setitem(globals(), "ref_slice_interiors", fake_ref)
    monkeypatch.setattr(eff, "_axis_interiors", fake_lib)


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
    values = {t: raw.value(space.substitute((frozen,), axis, t)) for t in factor}
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


# -- the slice record ---------------------------------------------------------


def slice_outcome(read, u, axis, base):
    try:
        return read(u, axis, base)
    except q.UtilityError as exc:
        return type(exc), str(exc)


def ref_interiors(u, axis, base):
    """The record through ``certified_partial``: a table per slice, certified
    by the oracle unless the parent is, read by ``interior``."""
    x = u.space.point(base)
    return interiors_of(eff.certified_partial(u, x[:axis] + x[axis + 1:], axis))


def slice_bases(space, axis):
    """The element index of the first point of every slice along ``axis``."""
    stride, size = space.strides[axis], len(space.factors[axis])
    return [i for i in range(len(space)) if i // stride % size == 0]


def assert_records_agree(u):
    """Every slice record of u against the reference; the outcomes, for counting."""
    seen = []
    for axis in range(u.space.n_axes):
        for base in slice_bases(u.space, axis):
            want = slice_outcome(ref_interiors, u, axis, base)
            assert slice_outcome(eff._axis_interiors, u, axis, base) == want
            seen.append(want)
    return seen


def chain_product_tables(seed):
    """A corpus table on a product of chains, and the same space with values
    drawn at random, which makes slices that are not quasi-Leontief."""
    rng = corpus.derive_rng(seed, "slice-record")
    space = corpus.random_product_of_chains(rng)
    return [corpus.random_isotone_utility(rng, space),
            q.TabulatedUtility._of_column(space, [F(rng.randint(0, 3)) for _ in range(len(space))], q.EXACT)]


@pytest.mark.parametrize("seed", range(30))
def test_slice_record_matches_certified_partial(seed):
    for u in chain_product_tables(seed) + mixed_products(seed):
        assert_records_agree(u)
        cert = q.certify_quasi_leontief(u)
        if cert.ok:
            assert_records_agree(cert.utility)


def test_slice_records_reach_both_outcomes():
    seen = [s for seed in range(30) for u in chain_product_tables(seed) + mixed_products(seed)
            for s in assert_records_agree(u)]
    faults = [s for s in seen if s[0] is q.UtilityError]
    assert faults and all("is not quasi-Leontief: witnesses" in s[1] for s in faults)
    assert len(faults) < len(seen)


def test_slice_records_are_built_once_and_build_no_table(monkeypatch):
    """``check_charpar`` and ``efficient_refinement`` over every maximizer
    read each slice off the parent's rank row, once, on the exact scale and
    on the jittered tolerant products of ``mixed_products``.  Only a slice
    that is not quasi-Leontief goes through ``certified_partial``, which
    builds its table to raise."""
    built, tables, partials = Counter(), [], []
    build, sub_table, certified = eff._slice_interiors, leontief._sub_table, eff.certified_partial
    monkeypatch.setattr(eff, "_slice_interiors", lambda u, axis, base: (
        built.update([(id(u._rank_table), axis, base)]), build(u, axis, base))[1])
    monkeypatch.setattr(leontief, "_sub_table", lambda *a: tables.append(a) or sub_table(*a))
    monkeypatch.setattr(eff, "certified_partial", lambda *a: partials.append(a) or certified(*a))
    shared, tables_seen = 0, []  # held, so that no rank table's id is reused
    for seed in range(10):
        rng = corpus.derive_rng(seed, "refinement", 0)
        space = corpus.random_product_of_chains(rng)
        u = corpus.random_isotone_utility(rng, space)
        tables_seen.append(u)
        S = q.product_downset(space, corpus.random_prefix_downsets(rng, space))
        res = q.ArgmaxResult(*q.argmax_members(u, S))
        assert q.check_charpar(u).ok
        before = len(built)
        for x_star in res.maximizers:
            q.efficient_refinement(u, S, x_star, res)
        shared += len(res.maximizers) > 1 and len(built) == before
    assert built and set(built.values()) == {1} and tables == partials == []
    assert shared  # some table with several maximizers refined them off the records of its sweep
    outcomes = Counter()
    for seed in range(40):
        for u in mixed_products(seed)[2::3]:
            assert u.scale.kind == "tolerant"
            tables_seen.append(u)
            try:
                q.check_charpar(u)
            except q.UtilityError:
                assert len(partials) == len(tables) == 1  # the failing slice, at the end of the sweep
                outcomes["raise"] += 1
            else:
                S = q.DownSet(u.poset, (1 << len(u.poset)) - 1)
                res = q.ArgmaxResult(*q.argmax_members(u, S))
                for x_star in res.maximizers:
                    q.efficient_refinement(u, S, x_star, res)
                assert tables == partials == []
                outcomes[type(u._rank_table.lo) is range] += 1
            tables.clear()
            partials.clear()
    assert set(built.values()) == {1}
    assert set(outcomes) == {"raise", True, False}  # passing tables with and without a stored band


def test_a_slice_the_oracle_passes_and_the_walk_fails_is_an_inconsistency(monkeypatch):
    """The slice walk and ``certified_partial`` test the same level sets on
    the same bands, so a slice that one fails and the other passes is a bug,
    not a record.  With the oracle made to pass every table, the slice
    (0, 1, 0) of this 2 x 3 grid at x0 = 0 raises InconsistencyError."""
    monkeypatch.setattr(oracle, "certify_quasi_leontief",
                        lambda u: q.Certificate(True, "quasi-leontief", utility=u._certified_copy()))
    space = q.grid_space(range(2), range(3))
    rows = {0: (0, 1, 0), 1: (1, 1, 1)}
    u = q.TabulatedUtility(space, {(a, b): F(rows[a][b]) for a, b in space.points()})
    with pytest.raises(q.InconsistencyError, match=r"slice on axis 1 at \(0,\) passed certification"):
        q.check_charpar(u)
