import copy
from fractions import Fraction as F

import pytest

import qleontief as q
from qleontief import corpus

from conftest import certified, changed_axes, count_index_of, grid_utility, min_on_6_cubed


def downset(poset, gens):
    return q.DownSet.from_generators(poset, gens)


def prefix_set(space, *lengths):
    """The product of the first ``lengths[i]`` elements of each factor."""
    return q.product_downset(space, [
        q.DownSet.from_members(f, f.elements[:k])
        for f, k in zip(space.factors, lengths)
    ])


def wrong_interior_at(u, x_hat, wrong):
    """A copy of the certified table u whose interior map returns ``wrong``
    at ``x_hat`` and the true interior elsewhere."""
    fake = copy.copy(u)
    fake.interior = lambda x: wrong if x == x_hat else u.interior(x)
    return fake


def record(u, S):
    """The argmax record ``efficient_refinement`` reads instead of walking S."""
    return q.ArgmaxResult(*q.argmax_members(u, S))


def ref_maximal_maximizer(u, s):
    """The maximizers with no other member of s above them, least by string form."""
    members = s.sorted_members()
    best = max(u.value(x) for x in members)
    tops = [
        x for x in members
        if u.scale.eq(u.value(x), best)
        and not any(y != x and y in s for y in u.poset.up_set(x))
    ]
    return sorted(tops, key=str)[0]


def localize(u, s):
    return q.check_argmax_localization(u, s, q.argmax_over_downset(u, s))


def min_x1x3_x2_grid():
    space = q.grid_space(range(1, 5), range(1, 5), range(1, 5))
    values = {p: F(min(p[0] * p[2], p[1])) for p in space.points()}
    return q.TabulatedUtility(space.as_poset(), values)


class TestArgmaxOverDownset:
    def test_grid_example(self, min_on_4x4):
        res = q.argmax_over_downset(min_on_4x4, downset(min_on_4x4.poset, [(2, 3)]))
        assert res.value == 2
        assert set(res.maximizers) == {(2, 2), (2, 3)}
        assert res.largest_efficient == (2, 2)

    def test_singleton_bottom(self, min_on_4x4):
        res = q.argmax_over_downset(min_on_4x4, downset(min_on_4x4.poset, [(0, 0)]))
        assert res.maximizers == ((0, 0),)
        assert res.largest_efficient == (0, 0)

    def test_downset_with_largest_element(self, min_on_4x4):
        sbar = (3, 2)
        res = q.argmax_over_downset(min_on_4x4, downset(min_on_4x4.poset, [sbar]))
        assert res.value == min_on_4x4.value(sbar)
        assert res.largest_efficient == min_on_4x4.interior(sbar)

    def test_empty_downset_rejected(self, min_on_4x4):
        s = q.DownSet.from_members(min_on_4x4.poset, [])
        with pytest.raises(q.OrderError):
            q.argmax_over_downset(min_on_4x4, s)

    def test_largest_efficient_lower_bounds_all_maximizers(self, min_on_4x4):
        for gens in [[(1, 3)], [(2, 2), (3, 1)], [(3, 3)], [(0, 2), (2, 0)]]:
            res = q.argmax_over_downset(min_on_4x4, downset(min_on_4x4.poset, gens))
            assert res.largest_efficient in res.maximizers
            for x in res.maximizers:
                assert min_on_4x4.poset.leq(res.largest_efficient, x)

    def test_upward_closure_inside_downset(self, min_on_4x4):
        p = min_on_4x4.poset
        s = downset(p, [(2, 3), (3, 1)])
        res = q.argmax_over_downset(min_on_4x4, s)
        upward = set().union(*map(p.up_set, res.maximizers)) & frozenset(s)
        assert upward == set(res.maximizers)

    def test_remark_fixed_point_reading(self, min_on_4x4):
        # nonempty argmax iff the interior restricted to S has a largest fixed point
        p = min_on_4x4.poset
        s = downset(p, [(2, 3), (3, 1)])
        res = q.argmax_over_downset(min_on_4x4, s)
        fixed = [x for x in s.sorted_members() if min_on_4x4.interior(x) == x]
        assert p.greatest(fixed) == res.largest_efficient


def test_argmax_over_downset_reads_no_point_back(monkeypatch):
    """The maximal maximizer is found on the bits of the maximizer mask, and
    the largest efficient point on the efficient mask: on a 6^3 table no
    maximizer or level's least element is read back by ``index_of``."""
    u = min_on_6_cubed()
    S = downset(u.poset, [(5, 5, 3), (3, 5, 5)])
    calls = count_index_of(monkeypatch)
    res = q.argmax_over_downset(u, S)
    assert calls == []
    assert res.maximizers == tuple(x for x in S.sorted_members() if min(x) == 3)
    assert (res.value, res.largest_efficient, res.maximal_maximizer) == (3, (3, 3, 3), (3, 5, 5))


def ref_argmax_members(u, S):
    """The walk over the members: the first maximal value in member order,
    and the members the scale counts equal to it."""
    members = S.sorted_members()
    values = [u.value(x) for x in members]
    best = max(values)
    return best, tuple(x for x, v in zip(members, values) if u.scale.eq(v, best))


def argmax_tables(seed):
    """Exact isotone and arbitrary tables, tolerant tables whose values sit
    within the tolerance of each other or on its rounding boundary, and
    tables mixing equal ints and Fractions, each with a few down-sets."""
    rng = corpus.derive_rng(seed, "argmax-members")
    poset = corpus.random_poset(rng, 10, with_bottom=rng.random() < 0.5)
    space = corpus.random_product_of_chains(rng)
    tables = [
        corpus.random_isotone_utility(rng, poset),
        corpus.random_isotone_utility(rng, space),
        q.TabulatedUtility(poset, {e: F(rng.randint(0, 4), 2) for e in poset.elements}),
        q.TabulatedUtility(space, {e: rng.choice((1, F(1), 2, F(2), F(3, 2))) for e in space.points()}),
    ]
    for tol in (0.1, 0.25):
        for dom in (poset, space):
            vals = {e: rng.choice((0.0, 0.1, 0.2, 0.3, 0.35, 1.0, 1.1)) for e in dom}
            tables.append(q.TabulatedUtility(dom, vals, scale=q.tolerant(tol)))
    for dom in (poset, space):
        # (k + 1) / 100 <= k / 100 + 0.01 holds though their difference rounds above 0.01
        vals = {e: rng.randint(87, 91) / 100 for e in dom}
        tables.append(q.TabulatedUtility(dom, vals, scale=q.tolerant(0.01)))
    return [(u, corpus.random_downset(rng, u.poset)) for u in tables for _ in range(3)]


@pytest.mark.parametrize("seed", range(30))
def test_argmax_members_matches_the_member_walk(seed):
    for u, S in argmax_tables(seed):
        for table in (u, q.certify_quasi_leontief(u).utility or u):
            best, maximizers = q.argmax_members(table, S)
            want_best, want = ref_argmax_members(table, S)
            assert maximizers == want
            assert best is want_best  # the same object: 1 and Fraction(1) print apart
            mask = q.argmax_members(table, S, as_mask=True)[1]
            assert mask == sum(1 << S.space.index_of(x) for x in want)


def test_argmax_members_keeps_the_first_of_equal_values():
    chain = q.FinitePoset.chain(range(4))
    u = q.TabulatedUtility(chain, {0: 0, 1: F(2), 2: 2, 3: F(2)})
    best, maximizers = q.argmax_members(u, q.DownSet.from_generators(chain, [3]))
    assert (type(best), maximizers) == (F, (1, 2, 3))
    best, _ = q.argmax_members(u, q.DownSet.from_members(chain, [0]))
    assert type(best) is int


def test_argmax_members_on_a_tolerant_run_below_the_maximum():
    chain = q.FinitePoset.chain("abcd")
    u = q.TabulatedUtility(chain, {"a": 0.0, "b": 0.8, "c": 0.9, "d": 1.0}, scale=q.tolerant(0.15))
    assert q.argmax_members(u, q.DownSet.from_generators(chain, ["d"])) == (1.0, ("c", "d"))
    assert q.argmax_members(u, q.DownSet.from_generators(chain, ["c"])) == (0.9, ("b", "c"))


class TestMaximalArgmax:
    def test_grid_example(self, min_on_4x4):
        s = downset(min_on_4x4.poset, [(2, 3), (3, 1)])
        res = q.argmax_over_downset(min_on_4x4, s)
        got = res.maximal_maximizer
        assert got == (2, 3)
        maximal_points = set(min_on_4x4.poset.maximal(s.sorted_members()))
        assert got in maximal_points
        assert min_on_4x4.value(got) == res.value

    def test_unique_top(self, min_on_4x4):
        s = downset(min_on_4x4.poset, [(2, 2)])
        assert q.argmax_over_downset(min_on_4x4, s).maximal_maximizer == (2, 2)

    def test_tie_broken_by_element_id_order(self, min_on_4x4):
        s = downset(min_on_4x4.poset, [(1, 3), (3, 1)])
        # both generators attain the same value; the string-lexicographic
        # smaller id wins
        assert q.argmax_over_downset(min_on_4x4, s).maximal_maximizer == (1, 3)

    def test_tie_broken_by_string_form_not_index(self):
        u = certified(grid_utility(lambda a, b: F(min(a, b)), range(8, 12), range(8, 12)))
        s = downset(u.poset, [(9, 11), (11, 9)])
        # (9, 11) comes first in the enumeration, "(11, 9)" first as a string
        assert q.argmax_over_downset(u, s).maximal_maximizer == (11, 9)
        assert ref_maximal_maximizer(u, s) == (11, 9)

    def test_matches_reference_on_random_downsets(self):
        for i in range(60):
            rng = corpus.derive_rng(41, "maximal-maximizer", i)
            poset = corpus.random_poset(rng, 12, with_bottom=True)
            u = certified(corpus.random_quasileontief_utility(rng, poset))
            s = corpus.random_downset(rng, poset)
            res = q.argmax_over_downset(u, s)
            assert res.maximal_maximizer == ref_maximal_maximizer(u, s)


class TestArgmaxLocalization:
    def test_grid_example(self, min_on_4x4):
        cert = localize(min_on_4x4, downset(min_on_4x4.poset, [(2, 3)]))
        assert cert.ok
        assert cert.data == {"a": True, "b": True, "c": True}

    def test_singleton_bottom(self, min_on_4x4):
        assert localize(min_on_4x4, downset(min_on_4x4.poset, [(0, 0)])).ok

    def test_random_downsets(self):
        for i in range(50):
            rng = corpus.derive_rng(31, "localization-unit", i)
            poset = corpus.random_poset(rng, 10, with_bottom=True)
            u = certified(corpus.random_quasileontief_utility(rng, poset))
            s = corpus.random_downset(rng, poset)
            assert localize(u, s).ok

    # The fault tests check a fake whose interior map is wrong at one point
    # against the record of the true maximization: the fake leaves every
    # value alone, so the maximum and x^ are the same for both.

    def test_wrong_interior_entry_fails(self, min_on_4x4):
        s = downset(min_on_4x4.poset, [(2, 3)])
        res = q.argmax_over_downset(min_on_4x4, s)
        # (2, 2) is the first exact maximizer in s
        fake = wrong_interior_at(min_on_4x4, (2, 2), (2, 3))
        cert = q.check_argmax_localization(fake, s, res)
        assert not cert.ok
        assert cert.witnesses == ((2, 2), (2, 3))
        assert cert.data == {"a": True, "b": False, "c": False}

    def test_every_wrong_interior_at_the_maximizer_fails(self):
        for i in range(30):
            rng = corpus.derive_rng(37, "localization-fault", i)
            poset = corpus.random_poset(rng, 10, with_bottom=True)
            u = certified(corpus.random_quasileontief_utility(rng, poset))
            s = corpus.random_downset(rng, poset)
            res = q.argmax_over_downset(u, s)
            members = s.sorted_members()
            best = max(u.value(x) for x in members)
            x_hat = next(x for x in members if u.value(x) == best)
            for wrong in poset.elements:
                if wrong == u.interior(x_hat):
                    continue
                cert = q.check_argmax_localization(wrong_interior_at(u, x_hat, wrong), s, res)
                assert not cert.ok
                assert cert.witnesses == (x_hat, wrong)
                assert not (cert.data["a"] and cert.data["c"])

    def test_downset_in_another_poset_rejected(self, min_on_4x4):
        other = q.grid_space(range(4), range(5)).as_poset()
        res = q.argmax_over_downset(min_on_4x4, downset(min_on_4x4.poset, [(0, 0)]))
        with pytest.raises(q.OrderError, match="different poset"):
            q.check_argmax_localization(min_on_4x4, downset(other, [(0, 0)]), res)
        # every member lies in the domain, but the member mask is over other
        with pytest.raises(q.OrderError, match="different poset"):
            q.argmax_over_downset(min_on_4x4, downset(q.grid_space(range(5), range(5)), [(2, 3)]))


class TestEfficientRefinement:
    def test_grid_walkthrough(self, min_on_4x4):
        S = prefix_set(min_on_4x4.space, 3, 4)
        trace = q.efficient_refinement(min_on_4x4, S, (2, 3), record(min_on_4x4, S))
        assert trace.result == (2, 2)
        assert len(trace.steps) == 2
        assert trace.steps[0].before == 2 and trace.steps[0].after == 2
        assert trace.steps[1].before == 3 and trace.steps[1].after == 2
        assert changed_axes(trace) == (1,)
        assert trace.checks == {"argmax": True, "dominated": True, "efficient": True}
        assert q.is_efficient_minimal(min_on_4x4, trace.result)

    def test_already_efficient_start_is_fixed(self, min_on_4x4):
        S = prefix_set(min_on_4x4.space, 3, 4)
        trace = q.efficient_refinement(min_on_4x4, S, (2, 2), record(min_on_4x4, S))
        assert trace.result == (2, 2)
        assert changed_axes(trace) == ()

    def test_three_factor_positive_grid(self):
        u = min_x1x3_x2_grid()
        S = prefix_set(u.space, 3, 3, 3)
        trace = q.efficient_refinement(u, S, (3, 3, 3), record(u, S))
        assert u.value(trace.result) == u.value((3, 3, 3)) == 3
        assert u.space.leq(trace.result, (3, 3, 3))
        assert q.is_efficient_minimal(u, trace.result)
        assert trace.result[0] * trace.result[2] == trace.result[1]

    def test_order_permutation_keeps_postconditions(self, min_on_4x4):
        S = prefix_set(min_on_4x4.space, 3, 4)
        trace = q.efficient_refinement(min_on_4x4, S, (2, 3), record(min_on_4x4, S), order=(1, 0))
        assert trace.order == (1, 0)
        assert q.is_efficient_minimal(min_on_4x4, trace.result)
        assert min_on_4x4.value(trace.result) == 2
        assert min_on_4x4.space.leq(trace.result, (2, 3))

    def test_non_maximizer_start_rejected(self, min_on_4x4):
        S = prefix_set(min_on_4x4.space, 3, 4)
        with pytest.raises(q.PreconditionError):
            q.efficient_refinement(min_on_4x4, S, (1, 1), record(min_on_4x4, S))

    def test_start_outside_feasible_set_rejected(self, min_on_4x4):
        S = prefix_set(min_on_4x4.space, 3, 4)
        with pytest.raises(q.PreconditionError):
            q.efficient_refinement(min_on_4x4, S, (3, 3), record(min_on_4x4, S))

    def test_downset_in_another_poset_rejected(self, min_on_4x4):
        other = q.grid_space(range(3), range(4))
        S = q.DownSet.from_generators(other, [(2, 3)])
        with pytest.raises(q.OrderError, match="different poset"):
            q.efficient_refinement(min_on_4x4, S, (2, 3), record(min_on_4x4, S))

    def test_bad_order_rejected(self, min_on_4x4):
        S = prefix_set(min_on_4x4.space, 3, 4)
        with pytest.raises(q.OrderError):
            q.efficient_refinement(min_on_4x4, S, (2, 3), record(min_on_4x4, S), order=(0, 0))

    def test_trace_json_schema(self, min_on_4x4):
        S = prefix_set(min_on_4x4.space, 3, 4)
        obj = q.efficient_refinement(min_on_4x4, S, (2, 3), record(min_on_4x4, S)).to_json()
        assert obj["start"] == [2, 3]
        assert obj["result"] == [2, 2]
        assert obj["steps"] == [
            {"axis": 1, "from": 2, "to": 2},
            {"axis": 2, "from": 3, "to": 2},
        ]
        assert obj["checks"] == {"argmax": True, "dominated": True, "efficient": True}

    def test_refinement_on_non_chain_factors(self):
        # diamond x diamond: the sweep only needs the partials to certify,
        # which holds for any globally certified utility
        diamond = q.FinitePoset.from_covers(
            ["bot", "a", "b", "top"],
            [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
        )
        space = q.ProductSpace([diamond, diamond])
        poset = space.as_poset()
        # upper level sets are up-sets of the points of an ascending chain,
        # so the table is quasi-Leontief by construction
        ladder = [(("bot", "bot"), F(0)), (("a", "bot"), F(1)),
                  (("a", "a"), F(2)), (("top", "top"), F(3))]
        values = {
            p: max(v for e, v in ladder if poset.leq(e, p))
            for p in poset
        }
        u = certified(q.TabulatedUtility(poset, values))
        S = q.product_downset(space, [
            q.DownSet.from_generators(diamond, ["a"]),
            q.DownSet.from_generators(diamond, ["top"]),
        ])
        trace = q.efficient_refinement(u, S, ("a", "top"), record(u, S))
        assert u.value(trace.result) == 2
        assert space.leq(trace.result, ("a", "top"))
        assert q.is_efficient_minimal(u, trace.result)
        assert trace.result == ("a", "a")

    def test_partial_certification_failure_is_reported(self):
        # a leastless partial level set stops the sweep with a clear error
        diamond = q.FinitePoset.from_covers(
            ["bot", "a", "b", "top"],
            [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
        )
        chain = q.FinitePoset.chain(range(2))
        space = q.ProductSpace([diamond, chain])
        poset = space.as_poset()
        rank = {"bot": 0, "a": 1, "b": 1, "top": 2}
        values = {p: F(rank[p[0]]) for p in poset}
        u = q.TabulatedUtility(poset, values)
        S = q.product_downset(space, [
            q.DownSet.from_members(diamond, diamond.elements),
            q.DownSet.from_members(chain, chain.elements),
        ])
        with pytest.raises(q.UtilityError, match="not quasi-Leontief"):
            q.efficient_refinement(u, S, ("top", 1), record(u, S))

    @pytest.mark.parametrize("start, planted, message", [
        # the interior record on axis 0 at b = 3 sends a = 2 to 0, below the maximum
        ((2, 3), {(0, 3): (0, 0, 0, 0)}, "(0, 3) left the argmax during refinement"),
        # the record on axis 1 at a = 2 sends b = 2 up to 3, which keeps the value
        ((2, 2), {(1, 8): (0, 1, 3, 3)}, "(2, 3) is not dominated by the start (2, 2)"),
        # the record on axis 1 at a = 2 sends b = 3 to 2, but does not fix 2
        ((2, 3), {(1, 8): (0, 1, 0, 2)}, "coordinate 1 of (2, 2) is not axis-efficient"),
    ])
    def test_a_wrong_slice_record_is_an_inconsistency(self, min_on_4x4, start, planted, message):
        S = prefix_set(min_on_4x4.space, 3, 4)
        min_on_4x4._ranks().slices.update(planted)  # keyed (axis, index of the slice's first point)
        with pytest.raises(q.InconsistencyError) as exc:
            q.efficient_refinement(min_on_4x4, S, start, record(min_on_4x4, S))
        assert str(exc.value) == message

    def test_steps_read_no_point_back(self, monkeypatch):
        """The sweep walks the point index: on a 6^3 table ``index_of`` is
        asked for the start (coordinate by coordinate, then whole) and for
        the result only, though two axes step."""
        u = min_on_6_cubed()
        S = prefix_set(u.space, 5, 6, 6)
        res = record(u, S)
        calls = count_index_of(monkeypatch)
        trace = q.efficient_refinement(u, S, (4, 5, 5), res)
        assert trace.result == (4, 4, 4) and changed_axes(trace) == (1, 2)
        assert calls == [4, 5, 5, (4, 5, 5), (4, 4, 4)]

    def test_every_maximizer_refines_on_random_instances(self):
        for i in range(30):
            rng = corpus.derive_rng(37, "refine-unit", i)
            space = corpus.random_product_of_chains(rng)
            u = corpus.random_isotone_utility(rng, space)
            sets = corpus.random_prefix_downsets(rng, space)
            S = q.product_downset(space, sets)
            members = S.sorted_members()
            best = max(u.value(x) for x in members)
            for x_star in members:
                if u.value(x_star) != best:
                    continue
                trace = q.efficient_refinement(u, S, x_star, record(u, S))
                assert u.value(trace.result) == best
                assert space.leq(trace.result, x_star)
                assert q.is_efficient_minimal(u, trace.result)
