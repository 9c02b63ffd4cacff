import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import qleontief as q
from qleontief.order import FinitePoset, DownSet

from conftest import brute_least, brute_minimal, down_closure, tuple_leq


def chain_pairs(els):
    return [(a, b) for i, a in enumerate(els) for b in els[i:]]


class TestCheckPartialOrder:
    def test_three_chain_passes(self):
        rep = q.check_partial_order("abc", chain_pairs(list("abc")))
        assert rep.ok

    def test_antisymmetry_violation(self):
        pairs = [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")]
        rep = q.check_partial_order(["a", "b"], pairs)
        assert not rep.ok
        assert rep.axiom == "antisymmetry"
        assert set(rep.witness) == {"a", "b"}

    def test_transitivity_violation(self):
        pairs = [(x, x) for x in "abc"] + [("a", "b"), ("b", "c")]
        rep = q.check_partial_order(list("abc"), pairs)
        assert not rep.ok
        assert rep.axiom == "transitivity"
        assert rep.witness == ("a", "b", "c")

    def test_reflexivity_violation(self):
        rep = q.check_partial_order(["a", "b"], [("a", "a"), ("a", "b")])
        assert rep.axiom == "reflexivity"
        assert rep.witness == ("b",)

    def test_constructor_rejects_bad_relation(self):
        with pytest.raises(q.OrderError, match="antisymmetry"):
            FinitePoset.from_leq(["a", "b"], [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")])

    def test_from_covers_rejects_cycle(self):
        with pytest.raises(q.OrderError, match="antisymmetry"):
            FinitePoset.from_covers(["a", "b"], [("a", "b"), ("b", "a")])

    @pytest.mark.parametrize("build", [
        lambda: FinitePoset.chain([None, "a"]),
        lambda: FinitePoset.antichain(["a", None]),
        lambda: FinitePoset.from_covers([None, "a"], [(None, "a")]),
        lambda: FinitePoset.from_leq([None], [(None, None)]),
    ])
    def test_none_is_not_an_element(self, build):
        # None stands for "no element": a bottom, a least element or a dual
        with pytest.raises(q.OrderError, match="None is not an element"):
            build()


def ref_closure(n, covers):
    """Up and down masks of the reflexive-transitive closure of index pairs,
    by Warshall's loop, with the down masks transposed bit by bit."""
    up = [1 << i for i in range(n)]
    for a, b in covers:
        up[a] |= 1 << b
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    down = [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]
    return up, down


class TestFromCovers:
    @given(st.integers(0, 2**32))
    def test_closure_matches_warshall(self, seed):
        """Random DAGs on shuffled elements, with repeated cover pairs,
        self-loops and pairs the closure implies anyway."""
        rng = random.Random(seed)
        n = rng.randint(0, 40)
        rank = list(range(n))
        rng.shuffle(rank)  # the order runs along rank, not along the index
        pairs = []
        for _ in range(rng.randint(0, 3 * n)):
            a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
            pairs.append((a, b) if rank[a] < rank[b] else (b, a))
        if n:
            pairs += [(a, a) for a in rng.sample(range(n), rng.randint(0, n))]
        up, down = ref_closure(n, pairs)
        pairs += [(a, b) for a in range(n) for b in range(n) if up[a] >> b & 1 and rng.random() < 0.1]
        pairs += rng.sample(pairs, len(pairs) // 4)
        rng.shuffle(pairs)
        els = [f"e{rank[i]}" for i in range(n)]
        poset = FinitePoset.from_covers(els, [(els[a], els[b]) for a, b in pairs])
        assert (poset._up, poset._down) == (up, down)

    @pytest.mark.parametrize("els, covers, witness", [
        ("ab", [("a", "b"), ("b", "a")], "('a', 'b')"),
        ("ba", [("a", "b"), ("b", "a"), ("a", "a")], "('b', 'a')"),
        ("xabc", [("x", "a"), ("a", "b"), ("b", "c"), ("c", "a")], "('a', 'b')"),
        ("cbad", [("a", "b"), ("b", "c"), ("c", "a"), ("d", "a")], "('c', 'b')"),
        ("abcde", [("e", "d"), ("d", "e"), ("a", "b"), ("c", "b"), ("b", "c")], "('b', 'c')"),
    ])
    def test_cycle_witness(self, els, covers, witness):
        """The lowest-index element on a cycle, and the lowest-index other
        element on a cycle through it."""
        with pytest.raises(q.OrderError) as info:
            FinitePoset.from_covers(list(els), covers)
        assert str(info.value) == f"antisymmetry violated, witness {witness}"

    @staticmethod
    def chain_calls(monkeypatch):
        """The element lists that ``FinitePoset.chain`` is called with from now on."""
        calls, chain = [], FinitePoset.chain
        monkeypatch.setattr(FinitePoset, "chain", classmethod(lambda cls, vals: calls.append(vals) or chain(vals)))
        return calls

    @pytest.mark.parametrize("n", [0, 1, 2, 11])
    def test_chain_listing_matches_the_closure(self, n, monkeypatch):
        """A cover list of exactly the consecutive pairs is built as a chain,
        with the closure's masks and index."""
        calls = self.chain_calls(monkeypatch)
        els = [f"e{i}" for i in range(n)]
        poset = FinitePoset.from_covers(els, list(zip(els, els[1:])))
        assert calls == [els]
        assert (poset._up, poset._down) == ref_closure(n, [(i, i + 1) for i in range(n - 1)])
        assert poset._index == {e: i for i, e in enumerate(els)}
        assert poset.elements == tuple(els)

    @pytest.mark.parametrize("els, covers", [
        ("cba", [("b", "c"), ("a", "b")]),  # listed top first
        ("abc", [("a", "b"), ("b", "c"), ("a", "c")]),  # a redundant cover
        ("abc", [("a", "b"), ("b", "c"), ("a", "b")]),  # a repeated cover
        ("abc", [("a", "b"), ("b", "b"), ("b", "c")]),  # a self-pair
        ("abc", [("b", "c"), ("a", "b")]),  # the consecutive pairs out of order
    ])
    def test_near_chain_listings_take_the_closure(self, els, covers, monkeypatch):
        calls = self.chain_calls(monkeypatch)
        index = {e: i for i, e in enumerate(els)}
        poset = FinitePoset.from_covers(list(els), covers)
        assert calls == []
        assert (poset._up, poset._down) == ref_closure(len(els), [(index[a], index[b]) for a, b in covers])

    @pytest.mark.parametrize("els, covers, error", [
        ("abc", [("a", "b"), ("b", "z")], "cover mentions unknown element 'b' or 'z'"),
        ("abb", [("a", "b")], "duplicate elements in ground set"),
        ("ab", [("a", "b"), ("b", "a")], "antisymmetry violated, witness ('a', 'b')"),
    ])
    def test_near_chain_listings_raise_the_closure_errors(self, els, covers, error, monkeypatch):
        calls = self.chain_calls(monkeypatch)
        with pytest.raises(q.OrderError) as info:
            FinitePoset.from_covers(list(els), covers)
        assert str(info.value) == error and calls == []

    def test_a_chain_listing_of_repeated_elements_raises_the_closure_error(self):
        """It is built as a chain, whose constructor refuses it with the same text."""
        with pytest.raises(q.OrderError, match=r"^duplicate elements in ground set$"):
            FinitePoset.from_covers(list("aba"), [("a", "b"), ("b", "a")])


class TestUpDownSets:
    def test_up_set_in_square_grid(self, grid22):
        p = grid22.as_poset()
        assert p.up_set((0, 1)) == {(0, 1), (1, 1)}

    def test_up_set_of_top(self, grid22):
        p = grid22.as_poset()
        assert p.up_set((1, 1)) == {(1, 1)}

    def test_up_set_on_antichain(self):
        p = FinitePoset.antichain(["a", "b"])
        assert p.up_set("a") == {"a"}

    def test_monotonicity_of_up_down(self, grid22):
        p = grid22.as_poset()
        for x in p:
            for y in p:
                if p.leq(x, y):
                    assert p.up_set(y) <= p.up_set(x)
                    assert p.down_set(x) <= p.down_set(y)

    def test_down_of_up_contains_point(self, grid22):
        p = grid22.as_poset()
        for x in p:
            assert x in down_closure(p, p.up_set(x))

    def test_unknown_element(self, grid22):
        with pytest.raises(q.OrderError):
            grid22.as_poset().up_set((7, 7))

    def test_lt_reads_a_list_as_its_tuple(self, grid22):
        """A point given once as a list and once as a tuple is one point, so
        neither lies strictly below the other."""
        pairs = FinitePoset.from_covers([("a", 1), ("a", 2)], [(("a", 1), ("a", 2))])
        for poset, x, y in ((grid22, (0, 1), (1, 1)), (grid22.as_poset(), (0, 1), (1, 1)),
                            (pairs, ("a", 1), ("a", 2))):
            assert not poset.lt(list(x), x) and not poset.lt(x, list(x))
            assert poset.lt(list(x), y) and poset.lt(x, list(y))
            assert not poset.lt(list(y), x)


class TestExtrema:
    def test_least_of_comparable_pair(self, grid22):
        p = grid22.as_poset()
        assert p.least([(0, 1), (1, 1)]) == (0, 1)

    def test_least_of_antichain_is_none(self, grid22):
        p = grid22.as_poset()
        assert p.least([(0, 1), (1, 0)]) is None
        assert set(p.minimal([(0, 1), (1, 0)])) == {(0, 1), (1, 0)}

    def test_least_of_empty(self, grid22):
        assert grid22.as_poset().least([]) is None

    def test_minimal_maximal_match_brute_force(self):
        space = q.grid_space(range(3), range(3))
        p = space.as_poset()
        subset = [(0, 2), (1, 1), (2, 0), (2, 2)]
        assert sorted(p.minimal(subset)) == sorted(brute_minimal(subset, tuple_leq))
        assert p.least(subset) == brute_least(subset, tuple_leq)


class TestMeet:
    def test_componentwise_meet(self):
        p = q.grid_space(range(3), range(3)).as_poset()
        assert p.meet((1, 2), (2, 1)) == (1, 1)

    def test_no_meet_on_antichain(self):
        p = FinitePoset.antichain(["a", "b"])
        assert p.meet("a", "b") is None
        assert not p.is_inf_semilattice()

    def test_meet_idempotent(self, grid22):
        p = grid22.as_poset()
        for x in p:
            assert p.meet(x, x) == x

    def test_meet_laws_exhaustive(self):
        # associativity, commutativity, idempotence: all triples on a 4x4
        # grid semilattice, all pairs on an 8x8 one
        p = q.grid_space(range(4), range(4)).as_poset()
        assert p.is_inf_semilattice()
        els = tuple(p)
        for x in els:
            assert p.meet(x, x) == x
            for y in els:
                assert p.meet(x, y) == p.meet(y, x)
                for z in els:
                    assert p.meet(p.meet(x, y), z) == p.meet(x, p.meet(y, z))
        big = q.grid_space(range(8), range(8)).as_poset()
        for x in big:
            for y in big:
                assert big.meet(x, y) == (min(x[0], y[0]), min(x[1], y[1]))


class TestChainsAndFiltering:
    def test_diagonal_is_chain(self, grid22):
        p = grid22.as_poset()
        assert p.is_chain([(0, 0), (1, 1)])

    def test_antichain_is_not_chain(self, grid22):
        p = grid22.as_poset()
        assert not p.is_chain([(0, 1), (1, 0)])

    def test_empty_set_counts_as_chain(self, grid22):
        assert grid22.as_poset().is_chain([])

    def test_finite_chain_contains_its_bounds(self):
        # in a finite poset every nonempty chain has its inf and sup inside it
        p = q.grid_space(range(4), range(4)).as_poset()
        chain = [(0, 0), (1, 1), (1, 2), (3, 3)]
        assert p.least(chain) in chain
        assert p.greatest(chain) in chain

    def test_bottom_makes_filtered(self):
        p = FinitePoset.from_covers(["bot", "a", "b"], [("bot", "a"), ("bot", "b")])
        assert p.is_filtered()

    def test_antichain_not_filtered(self):
        assert not FinitePoset.antichain(["a", "b"]).is_filtered()

    def test_semilattice_is_filtered(self):
        assert q.grid_space(range(3), range(3)).as_poset().is_filtered()


class TestComprehensive:
    def test_examples(self, grid22):
        p = grid22.as_poset()
        assert down_closure(p, {(0, 0), (0, 1)}) == {(0, 0), (0, 1)}
        assert down_closure(p, {(1, 1)}) != {(1, 1)}
        assert down_closure(p, {(1, 1)}) == set(p)
        assert down_closure(p, set()) == set()

    @given(st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2))))
    def test_closure_operator_laws(self, subset):
        p = q.grid_space(range(3), range(3)).as_poset()
        cl = down_closure(p, subset)
        assert cl >= subset                                   # extensive
        assert down_closure(p, cl) == cl              # idempotent
        bigger = subset | {(2, 2)}
        assert down_closure(p, bigger) >= cl          # monotone


class TestProductSpace:
    def test_four_points_incomparable_pair(self, grid22):
        pts = list(grid22.points())
        assert len(pts) == 4
        assert not grid22.leq((0, 1), (1, 0))
        assert not grid22.leq((1, 0), (0, 1))

    def test_delete_and_substitute(self):
        space = q.grid_space(range(3), range(3), range(3))
        assert space.delete((0, 1, 2), 1) == (0, 2)
        assert space.substitute((0, 2), 1, 1) == (0, 1, 2)

    def test_empty_factor_list_rejected(self):
        with pytest.raises(q.OrderError):
            q.ProductSpace([])

    def test_as_poset_matches_componentwise(self):
        space = q.grid_space(range(3), range(2))
        p = space.as_poset()
        for x in space.points():
            for y in space.points():
                assert p.leq(x, y) == tuple_leq(x, y)


class TestInterval:
    def test_interval_is_up_cap_down(self):
        p = q.grid_space(range(3), range(3)).as_poset()
        assert p.interval((0, 1), (2, 2)) == p.up_set((0, 1)) & p.down_set((2, 2))

    def test_unordered_bounds_give_empty(self):
        p = q.grid_space(range(2), range(2)).as_poset()
        assert p.interval((1, 0), (0, 1)) == frozenset()


class TestDownSet:
    def test_from_generators(self, grid22):
        p = grid22.as_poset()
        s = DownSet.from_generators(p, [(0, 1)])
        assert frozenset(s) == {(0, 0), (0, 1)}

    def test_explicit_mode_validates(self, grid22):
        p = grid22.as_poset()
        with pytest.raises(q.OrderError, match="comprehensive"):
            DownSet.from_members(p, [(1, 1)])
        s = DownSet.from_members(p, [(0, 0), (1, 0)])
        assert frozenset(s) == {(0, 0), (1, 0)}

    def test_product_space_downset(self):
        space = q.grid_space(range(2), range(2))
        s = DownSet.from_generators(space, [(0, 1)])
        assert frozenset(s) == {(0, 0), (0, 1)}


class TestScale:
    def test_exact(self):
        s = q.EXACT
        assert s.eq(Fraction(1, 2), Fraction(2, 4))
        assert s.le(Fraction(1, 3), Fraction(1, 2))
        assert s.lt(Fraction(1, 3), Fraction(1, 2))
        assert not s.lt(Fraction(1, 2), Fraction(1, 2))

    def test_tolerant(self):
        s = q.tolerant(0.1)
        assert s.eq(1.0, 1.05)
        assert not s.eq(1.0, 1.5)
        assert s.le(1.05, 1.0)
        assert s.lt(1.0, 1.5)
        assert not s.lt(1.0, 1.05)

    @pytest.mark.parametrize("a, b, tol", [(0.89, 0.9, 0.01), (1.0, 1.1, 0.1)])
    def test_tolerant_eq_is_le_both_ways(self, a, b, tol):
        # b - a rounds above tol while b <= a + tol holds: the pairs sit on the boundary
        s = q.tolerant(tol)
        for x, y in ((a, b), (b, a)):
            assert s.eq(x, y) == (s.le(x, y) and s.le(y, x))
            assert s.eq(x, y)

    def test_tolerant_transitive_on_separated_values(self):
        # pairwise gaps are either within tolerance or at least 3x tolerance
        s = q.tolerant(0.1)
        values = [0.0, 0.03, 1.0, 1.06, 2.0]
        for a in values:
            for b in values:
                for c in values:
                    if s.eq(a, b) and s.eq(b, c):
                        assert s.eq(a, c)

    def test_negative_tolerance_rejected(self):
        for bad in (-1, float("nan")):
            with pytest.raises(ValueError, match="nonnegative"):
                q.Scale("tolerant", bad)
