"""Hypothesis property tests over the seeded instance space.

Each test draws a 64-bit seed and replays the corresponding corpus instance,
so failures shrink to a single replayable seed.
"""
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

import qleontief as q
from qleontief import corpus

from conftest import admissible_levels, interior_table, partial_dual_consistency, projected_interior

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def certified_instance(seed, tag="prop"):
    rng = corpus.derive_rng(seed, tag)
    poset = corpus.random_poset(rng, 10, with_bottom=True)
    u = corpus.random_quasileontief_utility(rng, poset)
    reg = q.certify_regular(u)
    assert reg.ok
    return reg.utility, reg.dual_table


@given(seeds)
def test_adjunction_holds_on_random_certified_instances(seed):
    u, table = certified_instance(seed)
    for lam, d in table.items():
        for x in u.poset.elements:
            assert u.poset.leq(d, x) == (lam <= u.value(x))


@given(seeds)
def test_interior_is_an_interior_operator(seed):
    u, _ = certified_instance(seed)
    p = u.poset
    for x in p.elements:
        ix = u.interior(x)
        assert p.leq(ix, x)
        assert u.interior(ix) == ix
        assert u.value(ix) == u.value(x)
        for y in p.up_set(x):
            assert p.leq(ix, u.interior(y))


@given(seeds)
def test_closure_is_a_closure_operator(seed):
    u, table = certified_instance(seed)
    for lam in table:
        c = u.closure(lam)
        assert lam <= c
        assert u.closure(c) == c


@given(seeds)
def test_efficient_set_is_the_dual_image(seed):
    u, table = certified_instance(seed)
    eff = set(q.efficient_set(u))
    assert {u.dual(lam) for lam in table} == eff
    assert {u.dual(lam) for lam in u.image()} == eff


@given(seeds)
def test_certified_utilities_are_meet_homomorphisms(seed):
    u, _ = certified_instance(seed)
    p = u.poset
    if not p.is_inf_semilattice():
        return
    for x in p.elements:
        for y in p.elements:
            assert u.value(p.meet(x, y)) == min(u.value(x), u.value(y))


@given(seeds)
@settings(max_examples=30)
def test_restriction_to_downset_keeps_interiors(seed):
    u, _ = certified_instance(seed)
    rng = corpus.derive_rng(seed, "prop-downset")
    s = corpus.random_downset(rng, u.poset)
    r = q.restrict(u, s)
    for x in s.sorted_members():
        assert r.interior(x) == u.interior(x)
        assert r.value(x) == u.value(x)


@given(seeds)
@settings(max_examples=30)
def test_affine_transform_commutes_with_certification(seed):
    u, _ = certified_instance(seed)
    v = q.affine_transform(u, F(3), F(7))
    fresh = q.certify_quasi_leontief(
        q.TabulatedUtility(v.poset, v.values, scale=v.scale)
    )
    assert fresh.ok and v.certified
    assert interior_table(fresh.utility) == interior_table(v) == interior_table(u)


@given(seeds)
@settings(max_examples=30)
def test_refinement_steps_never_increase_coordinates(seed):
    rng = corpus.derive_rng(seed, "prop-refine")
    space = corpus.random_product_of_chains(rng)
    u = corpus.random_isotone_utility(rng, space)
    sets = corpus.random_prefix_downsets(rng, space)
    S = q.product_downset(space, sets)
    members = S.sorted_members()
    best = max(u.value(x) for x in members)
    x_star = next(x for x in members if u.value(x) == best)
    res = q.ArgmaxResult(*q.argmax_members(u, S))
    trace = q.efficient_refinement(u, S, x_star, res)
    for step in trace.steps:
        factor = space.factors[step.axis]
        assert factor.leq(step.after, step.before)
    # the partial slice evaluates the parent at the substituted point
    for axis in range(space.n_axes):
        rest = space.delete(x_star, axis)
        pu = q.partial_utility(u, rest, axis)
        for t in space.factors[axis].elements:
            assert pu.value(t) == u.value(space.substitute(rest, axis, t))


def certified_product_instance(seed):
    rng = corpus.derive_rng(seed, "prop-product")
    space = corpus.random_product_of_chains(rng)
    raw = corpus.random_quasileontief_utility(rng, space.as_poset())
    u = q.TabulatedUtility(space.as_poset(), raw.values)
    reg = q.certify_regular(u)
    assert reg.ok
    return reg.utility, reg.dual_table


@given(seeds)
@settings(max_examples=30)
def test_partial_interior_is_the_projected_global_interior(seed):
    # the auto-certified slice of a certified parent must agree with the
    # projection of the parent interior and with an independent oracle run
    # on the raw slice, axis by axis
    u, _ = certified_product_instance(seed)
    space = u.space
    raw = q.TabulatedUtility(u.poset, u.values)
    for x in space.points():
        for axis in range(space.n_axes):
            rest = space.delete(x, axis)
            auto = q.partial_utility(u, rest, axis)
            fresh = q.certified_partial(raw, rest, axis)
            want = projected_interior(u, rest, axis)
            assert interior_table(auto) == want == interior_table(fresh)


@given(seeds)
@settings(max_examples=30)
def test_partial_duals_project_from_the_global_dual(seed):
    u, table = certified_product_instance(seed)
    space = u.space
    rests = {space.delete(x, 0) for x in space.points()}
    for lam in table:
        for rest_a in rests:
            for rest_b in rests:
                cert = partial_dual_consistency(u, lam, rest_a, rest_b, 0)
                assert cert.ok, cert.detail


@given(seeds)
@settings(max_examples=10)
def test_every_dual_table_corruption_is_caught(seed):
    # soundness of the adjunction verifier: swapping any entry for any other
    # element must produce a witnessed failure
    u, table = certified_instance(seed, tag="prop-mutate")
    for lam, d in table.items():
        for wrong in u.poset.elements:
            if wrong == d:
                continue
            mutated = dict(table)
            mutated[lam] = wrong
            cert = q.verify_galois(u, mutated)
            assert not cert.ok
            x, bad_lam = cert.witnesses
            lhs = u.poset.leq(mutated[bad_lam], x)
            assert lhs != (bad_lam <= u.value(x))


@given(seeds)
@settings(max_examples=20)
def test_refinement_postconditions_hold_under_every_axis_order(seed):
    from itertools import permutations

    rng = corpus.derive_rng(seed, "prop-orders")
    space = corpus.random_product_of_chains(rng)
    u = corpus.random_isotone_utility(rng, space)
    sets = corpus.random_prefix_downsets(rng, space)
    S = q.product_downset(space, sets)
    members = S.sorted_members()
    best = max(u.value(x) for x in members)
    x_star = next(x for x in members if u.value(x) == best)
    res = q.ArgmaxResult(*q.argmax_members(u, S))
    for order in permutations(range(space.n_axes)):
        trace = q.efficient_refinement(u, S, x_star, res, order=order)
        assert u.value(trace.result) == best
        assert space.leq(trace.result, x_star)
        assert q.is_efficient_minimal(u, trace.result)


@given(seeds)
@settings(max_examples=30)
def test_admissible_levels_materialize_requested_points(seed):
    u, _ = certified_instance(seed, tag="prop-levels")
    img = u.image()
    extra = [img[0] - F(1), img[-1] + F(1)]
    if len(img) > 1:
        extra.append((img[0] + img[1]) / 2)
    levels = admissible_levels(u, extra=extra)
    assert img[0] - F(1) in levels        # below the minimum: level set is X
    assert img[-1] + F(1) not in levels   # above the maximum: empty level set
    for lam in levels:
        assert u.dual(lam) is not None


@given(seeds)
@settings(max_examples=30)
def test_maximal_argmax_is_maximal_and_optimal(seed):
    rng = corpus.derive_rng(seed, "prop-argmax")
    poset = corpus.random_poset(rng, 10, with_bottom=True)
    u = q.require_certified(corpus.random_quasileontief_utility(rng, poset))
    s = corpus.random_downset(rng, poset)
    res = q.argmax_over_downset(u, s)
    mm = res.maximal_maximizer
    assert u.value(mm) == res.value
    assert all(y == mm for y in poset.up_set(mm) if y in s)
