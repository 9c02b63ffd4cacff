from fractions import Fraction as F

import pytest

import qleontief as q
from qleontief import corpus

from conftest import certified, grid_utility


def downset(poset, gens):
    return q.DownSet.from_generators(poset, gens)


def prefix_set(space, *lengths):
    """The product of the first ``lengths[i]`` elements of each factor."""
    return q.product_downset(space, [
        q.DownSet.from_members(f, f.elements[:k])
        for f, k in zip(space.factors, lengths)
    ])


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


def min_x1x3_x2_grid():
    space = q.grid_space(range(1, 5), range(1, 5), range(1, 5))
    values = {p: F(min(p[0] * p[2], p[1])) for p in space.points()}
    return q.TabulatedUtility(space.as_poset(), values, space=space)


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
        upward = set().union(*map(p.up_set, res.maximizers)) & s.members()
        assert upward == set(res.maximizers)

    def test_remark_fixed_point_reading(self, min_on_4x4):
        # nonempty argmax iff the interior restricted to S has a largest fixed point
        p = min_on_4x4.poset
        s = downset(p, [(2, 3), (3, 1)])
        res = q.argmax_over_downset(min_on_4x4, s)
        fixed = [x for x in s.sorted_members() if min_on_4x4.interior(x) == x]
        assert p.greatest(fixed) == res.largest_efficient


class TestArgmaxViaGenerators:
    def test_classical_two_generators(self):
        u = q.classical_leontief([F(1), F(2)], q.Box.integer_grid(2, 0, 4))
        res = q.argmax_via_generators(u, [(F(4), F(1)), (F(1), F(4))])
        assert res.value == 2
        assert res.maximizers == ((F(4), F(1)),)

    def test_single_generator(self, min_on_4x4):
        res = q.argmax_via_generators(min_on_4x4, [(1, 2)])
        assert res.maximizers == ((1, 2),)
        assert res.value == 1

    def test_chain_of_generators_takes_the_top(self, min_on_4x4):
        res = q.argmax_via_generators(min_on_4x4, [(0, 1), (1, 1), (3, 3)])
        assert res.maximizers == ((3, 3),)

    def test_agrees_with_downset_argmax(self, min_on_4x4):
        gens = [(2, 3), (3, 1)]
        via_gens = q.argmax_via_generators(min_on_4x4, gens)
        via_set = q.argmax_over_downset(min_on_4x4, downset(min_on_4x4.poset, gens))
        assert via_gens.value == via_set.value
        assert set(via_gens.maximizers) <= set(via_set.maximizers)

    def test_empty_generator_list_rejected(self, min_on_4x4):
        with pytest.raises(q.OrderError):
            q.argmax_via_generators(min_on_4x4, [])


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
        cert = q.check_argmax_localization(
            min_on_4x4, downset(min_on_4x4.poset, [(2, 3)])
        )
        assert cert.ok
        assert cert.data == {"a": True, "b": True, "c": True}

    def test_singleton_bottom(self, min_on_4x4):
        cert = q.check_argmax_localization(
            min_on_4x4, downset(min_on_4x4.poset, [(0, 0)])
        )
        assert cert.ok

    def test_random_downsets(self):
        for i in range(50):
            rng = corpus.derive_rng(31, "localization-unit", i)
            poset = corpus.random_poset(rng, 10, with_bottom=True)
            u = certified(corpus.random_quasileontief_utility(rng, poset))
            s = corpus.random_downset(rng, poset)
            assert q.check_argmax_localization(u, s).ok

    def test_wrong_interior_entry_fails(self, min_on_4x4):
        s = downset(min_on_4x4.poset, [(2, 3)])
        table = {x: min_on_4x4.interior(x) for x in min_on_4x4.poset}
        table[(2, 2)] = (2, 3)  # (2, 2) is the first exact maximizer in s
        cert = q.check_argmax_localization(min_on_4x4._certified_copy(table), s)
        assert not cert.ok
        assert cert.witnesses == ((2, 2), (2, 3))
        assert cert.data == {"a": True, "b": False, "c": False}

    def test_every_wrong_interior_at_the_maximizer_fails(self):
        for i in range(30):
            rng = corpus.derive_rng(37, "localization-fault", i)
            poset = corpus.random_poset(rng, 10, with_bottom=True)
            u = certified(corpus.random_quasileontief_utility(rng, poset))
            s = corpus.random_downset(rng, poset)
            members = s.sorted_members()
            best = max(u.value(x) for x in members)
            x_hat = next(x for x in members if u.value(x) == best)
            for wrong in poset.elements:
                if wrong == u.interior(x_hat):
                    continue
                table = {x: u.interior(x) for x in poset}
                table[x_hat] = wrong
                cert = q.check_argmax_localization(u._certified_copy(table), s)
                assert not cert.ok
                assert cert.witnesses == (x_hat, wrong)

    def test_downset_in_another_poset_rejected(self, min_on_4x4):
        other = q.grid_space(range(4), range(5)).as_poset()
        with pytest.raises(q.OrderError, match="different poset"):
            q.check_argmax_localization(min_on_4x4, downset(other, [(0, 0)]))


class TestEfficientRefinement:
    def test_grid_walkthrough(self, min_on_4x4):
        S = prefix_set(min_on_4x4.space, 3, 4)
        trace = q.efficient_refinement(min_on_4x4, S, (2, 3))
        assert trace.result == (2, 2)
        assert len(trace.steps) == 2
        assert trace.steps[0].before == 2 and trace.steps[0].after == 2
        assert trace.steps[1].before == 3 and trace.steps[1].after == 2
        assert trace.changed_axes == (1,)
        assert trace.checks == {"argmax": True, "dominated": True, "efficient": True}
        assert q.is_efficient_minimal(min_on_4x4, trace.result)

    def test_already_efficient_start_is_fixed(self, min_on_4x4):
        S = prefix_set(min_on_4x4.space, 3, 4)
        trace = q.efficient_refinement(min_on_4x4, S, (2, 2))
        assert trace.result == (2, 2)
        assert trace.changed_axes == ()

    def test_three_factor_positive_grid(self):
        u = min_x1x3_x2_grid()
        S = prefix_set(u.space, 3, 3, 3)
        trace = q.efficient_refinement(u, S, (3, 3, 3))
        assert u.value(trace.result) == u.value((3, 3, 3)) == 3
        assert u.space.leq(trace.result, (3, 3, 3))
        assert q.is_efficient_minimal(u, trace.result)
        assert trace.result[0] * trace.result[2] == trace.result[1]

    def test_order_permutation_keeps_postconditions(self, min_on_4x4):
        S = prefix_set(min_on_4x4.space, 3, 4)
        trace = q.efficient_refinement(min_on_4x4, S, (2, 3), order=(1, 0))
        assert trace.order == (1, 0)
        assert q.is_efficient_minimal(min_on_4x4, trace.result)
        assert min_on_4x4.value(trace.result) == 2
        assert min_on_4x4.space.leq(trace.result, (2, 3))

    def test_non_maximizer_start_rejected(self, min_on_4x4):
        S = prefix_set(min_on_4x4.space, 3, 4)
        with pytest.raises(q.PreconditionError):
            q.efficient_refinement(min_on_4x4, S, (1, 1))

    def test_start_outside_feasible_set_rejected(self, min_on_4x4):
        S = prefix_set(min_on_4x4.space, 3, 4)
        with pytest.raises(q.PreconditionError):
            q.efficient_refinement(min_on_4x4, S, (3, 3))

    def test_downset_in_another_poset_rejected(self, min_on_4x4):
        other = q.grid_space(range(3), range(4))
        S = q.DownSet.from_generators(other, [(2, 3)])
        with pytest.raises(q.OrderError, match="different poset"):
            q.efficient_refinement(min_on_4x4, S, (2, 3))

    def test_bad_order_rejected(self, min_on_4x4):
        S = prefix_set(min_on_4x4.space, 3, 4)
        with pytest.raises(q.OrderError):
            q.efficient_refinement(min_on_4x4, S, (2, 3), order=(0, 0))

    def test_trace_json_schema(self, min_on_4x4):
        S = prefix_set(min_on_4x4.space, 3, 4)
        obj = q.efficient_refinement(min_on_4x4, S, (2, 3)).to_json()
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
            for p in poset.elements
        }
        u = certified(q.TabulatedUtility(poset, values, space=space))
        S = q.product_downset(space, [
            q.DownSet.from_generators(diamond, ["a"]),
            q.DownSet.from_generators(diamond, ["top"]),
        ])
        trace = q.efficient_refinement(u, S, ("a", "top"))
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
        values = {p: F(rank[p[0]]) for p in poset.elements}
        u = q.TabulatedUtility(poset, values, space=space)
        S = q.product_downset(space, [
            q.DownSet.from_members(diamond, diamond.elements),
            q.DownSet.from_members(chain, chain.elements),
        ])
        with pytest.raises(q.UtilityError, match="not quasi-Leontief"):
            q.efficient_refinement(u, S, ("top", 1))

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
                trace = q.efficient_refinement(u, S, x_star)
                assert u.value(trace.result) == best
                assert space.leq(trace.result, x_star)
                assert q.is_efficient_minimal(u, trace.result)
