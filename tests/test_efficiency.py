import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import qleontief as q
from qleontief import corpus
from qleontief.efficiency import efficient_mask

from conftest import (
    brute_minimal,
    certified,
    count_index_of,
    grid_utility,
    interior_table,
    min_on_6_cubed,
    partial_dual_consistency,
    projected_interior,
    tuple_leq,
)


def fraction_grid_space():
    # positive grid with values below and above 1
    vals = [F(1, 4), F(1, 2), F(1), F(2), F(4)]
    return q.grid_space(vals, vals)


def min_x1_x1x2():
    """u(x1, x2) = min(x1, x1*x2) tabulated on the positive fraction grid."""
    space = fraction_grid_space()
    values = {p: min(p[0], p[0] * p[1]) for p in space.points()}
    return q.TabulatedUtility(space.as_poset(), values)


def min_x1x3_x2(lo=1, hi=4):
    space = q.grid_space(range(lo, hi + 1), range(lo, hi + 1), range(lo, hi + 1))
    values = {p: F(min(p[0] * p[2], p[1])) for p in space.points()}
    return q.TabulatedUtility(space.as_poset(), values)


def grid_table(a, box):
    """The certified table of min_i a_i x_i on the grid of ``box``."""
    return q.certify_regular(q.tabulate(q.classical_leontief(a, box))).utility


class TestEfficientSet:
    def test_diagonal_for_equal_coefficients(self):
        u = grid_table([F(1), F(1)], q.Box.cube(2, 0, 3, 1))
        eff = q.efficient_set(u)
        assert set(eff) == {(k, k) for k in range(4)}

    def test_identity_on_chain_every_point(self):
        chain = q.FinitePoset.chain(range(4))
        u = certified(q.TabulatedUtility(chain, {t: F(t) for t in range(4)}))
        assert set(q.efficient_set(u)) == set(range(4))

    def test_unbalanced_coefficients_grid_locus(self):
        # steps 2 and 1 put every least grid point of a level on the locus
        u = grid_table([F(1), F(2)], q.Box([q.BoxAxis(0, 4, 2), q.BoxAxis(0, 2, 1)]))
        eff = q.efficient_set(u)
        assert set(eff) == {(F(0), F(0)), (F(2), F(1)), (F(4), F(2))}
        # locus check: a1 x1 == a2 x2 on each one
        for x in eff:
            assert 1 * x[0] == 2 * x[1]

    def test_uncertified_table_raises(self, min_on_4x4):
        raw = q.TabulatedUtility(min_on_4x4.poset, min_on_4x4.values)
        for read in (q.efficient_set, efficient_mask):
            with pytest.raises(q.NotCertifiedError):
                read(raw)

    def test_leastless_level_raises_as_the_dual_does(self):
        u = q.TabulatedUtility(q.FinitePoset.antichain(["a", "b"]), {"a": F(1), "b": F(1)})
        u.certified = True  # set by hand, not by the oracle
        with pytest.raises(q.LeastlessLevelSetError) as exc:
            efficient_mask(u)
        assert exc.value.witnesses == ("a", "b")

    def test_closed_form_is_refused(self):
        # a closed form counts as certified, but only its table has level records
        form = q.classical_leontief([1], q.Box.cube(1, 0, 2, 1))
        for read in (q.efficient_set, efficient_mask, lambda u: q.is_efficient_global(u, (F(1),))):
            with pytest.raises(q.UtilityError, match="needs tables; a closed form is a table only on a"):
                read(form)


class TestIsEfficientGlobal:
    def test_interior_images_are_efficient(self, min_on_4x4):
        for y in min_on_4x4.poset:
            assert q.is_efficient_global(min_on_4x4, min_on_4x4.interior(y))

    def test_off_locus_point(self):
        u = grid_table([F(1), F(2)], q.Box.cube(2, 0, 4, 1))
        assert not q.is_efficient_global(u, (F(4), F(1)))

    def test_level_set_identity_form(self, min_on_4x4):
        u = min_on_4x4
        p = u.poset
        for x in p:
            eff = q.is_efficient_global(u, x)
            identity = p.up_set(x) == frozenset(
                y for y in p if u.value(y) >= u.value(x)
            )
            assert eff == identity


class TestPartialUtility:
    def test_freeze_in_min_grid(self, min_on_4x4):
        pu = q.partial_utility(min_on_4x4, (3,), 0)
        for t in range(4):
            assert pu.value(t) == min(t, 3)
        assert pu.certified
        assert pu.interior(2) == 2

    def test_projection_matches_fresh_certification(self, min_on_4x4):
        # the auto-certified slice of a certified parent agrees with the
        # projection of the parent interior and with an independent oracle
        # run on the uncertified slice
        raw = q.TabulatedUtility(min_on_4x4.poset, min_on_4x4.values)
        for axis in range(2):
            for frozen in range(4):
                auto = q.partial_utility(min_on_4x4, (frozen,), axis)
                fresh = q.certified_partial(raw, (frozen,), axis)
                want = projected_interior(min_on_4x4, (frozen,), axis)
                assert interior_table(auto) == want == interior_table(fresh)

    def test_min_x1_x1x2_partials_certify_on_grid(self):
        u = min_x1_x1x2()
        for a in [F(1, 4), F(1), F(4)]:
            pu = q.certified_partial(u, (a,), 1)  # freeze x1 = a, vary x2
            for t in [F(1, 4), F(1, 2), F(1), F(2), F(4)]:
                assert pu.value(t) == min(a, a * t)

    def test_frozen_at_top_of_min_product_recovers_factor(self):
        chain = q.FinitePoset.chain(range(4))
        mk = lambda: certified(q.TabulatedUtility(chain, {t: F(t) for t in range(4)}))
        tab = certified(q.min_product(mk(), mk()))
        pu = q.partial_utility(tab, (3,), 0)
        for t in range(4):
            assert pu.value(t) == F(t)

    def test_invalid_axis(self, min_on_4x4):
        with pytest.raises(q.OrderError):
            q.partial_utility(min_on_4x4, (3,), 5)

    @pytest.mark.parametrize("rest, axis, error, message", [
        ((3,), 5, q.OrderError, "axis 5 out of range for 2 factors"),
        ((), 0, q.OrderError, "deleted tuple () has wrong arity"),
        ((1, 2), 1, q.OrderError, "deleted tuple (1, 2) has wrong arity"),
        ((9,), 0, q.DomainError, "point (0, 9) outside domain"),
        ((9,), 1, q.DomainError, "point (9, 0) outside domain"),
        (("1",), 0, q.DomainError, "point (0, '1') outside domain"),
    ])
    def test_bad_rest_names_the_point(self, min_on_4x4, rest, axis, error, message):
        for u in (min_on_4x4, q.TabulatedUtility(min_on_4x4.poset, min_on_4x4.values)):
            with pytest.raises(error) as exc:
                q.partial_utility(u, rest, axis)
            assert str(exc.value) == message


class TestPartialDualConsistency:
    def test_two_freezes_agree_with_projection(self, min_on_4x4):
        cu = q.certify_regular(min_on_4x4).utility
        cert = partial_dual_consistency(cu, F(2), (2,), (3,), 0)
        assert cert.ok and not cert.detail

    def test_freeze_below_threshold_is_skipped(self, min_on_4x4):
        cu = q.certify_regular(min_on_4x4).utility
        cert = partial_dual_consistency(cu, F(2), (1,), (3,), 0)
        assert cert.ok
        assert "skipped" in cert.detail

    def test_bottom_level(self, min_on_4x4):
        cu = q.certify_regular(min_on_4x4).utility
        lam = min(cu.image())
        cert = partial_dual_consistency(cu, lam, (0,), (3,), 1)
        assert cert.ok and not cert.detail


def axis_sets(u, x):
    """The axis-wise efficient sets E(u[x_-i], X_i) at x, one per axis."""
    space = u.space
    return [q.efficient_set(q.certified_partial(u, space.delete(x, axis), axis))
            for axis in range(space.n_axes)]


def axiswise_member(u, x):
    """Whether x lies in the product of its own axis-wise efficient sets."""
    return all(c in s for c, s in zip(x, axis_sets(u, x)))


class TestPuMap:
    """The map x -> product of the axis-wise efficient sets at x."""

    def test_strictly_increasing_axes_make_everything_efficient(self):
        u = grid_utility(lambda a, b: F((a + 1) * (b + 1)), range(3), range(3))
        assert [len(s) for s in axis_sets(u, (1, 2))] == [3, 3]
        for x in u.space.points():
            assert axiswise_member(u, x)
            assert q.is_efficient_minimal(u, x)

    def test_min_grid_membership_table(self, min_on_4x4):
        sets = axis_sets(min_on_4x4, (2, 3))
        assert sets[0] == (0, 1, 2, 3)
        assert sets[1] == (0, 1, 2)
        assert not axiswise_member(min_on_4x4, (2, 3))
        assert axiswise_member(min_on_4x4, (2, 2))

    def test_single_axis_product_reduces_to_efficient_set(self):
        chain = q.FinitePoset.chain(range(4))
        space = q.ProductSpace([chain])
        u = certified(
            q.TabulatedUtility(space.as_poset(), {(t,): F(min(t, 2)) for t in range(4)})
        )
        (axis,) = axis_sets(u, (1,))
        assert axis == (0, 1, 2)
        inner = q.TabulatedUtility(chain, {t: F(min(t, 2)) for t in range(4)})
        inner = certified(inner)
        assert set(axis) == set(q.efficient_set(inner))


class TestIsEfficientMinimal:
    def test_locus_points_are_minimal(self):
        u = min_x1x3_x2()
        for x in u.space.points():
            if x[0] * x[2] == x[1]:
                assert q.is_efficient_minimal(u, x)

    def test_excess_x2_is_not_minimal_with_witness(self):
        u = min_x1x3_x2()
        x = (1, 3, 2)  # x2 = 3 > 2 = x1*x3
        assert not q.is_efficient_minimal(u, x)
        w = q.minimality_witness(u, x)
        assert w is not None and w != x
        assert tuple_leq(w, x)
        assert u.value(w) >= u.value(x)
        assert w[1] < x[1]

    def test_bottom_is_minimal(self):
        u = min_x1x3_x2()
        assert q.is_efficient_minimal(u, (1, 1, 1))

    def test_matches_brute_force_minimal_elements(self, min_on_4x4):
        u = min_on_4x4
        pts = list(u.space.points())
        for x in pts:
            level = [p for p in pts if u.value(p) >= u.value(x)]
            minimal = x in brute_minimal(level, tuple_leq)
            assert q.is_efficient_minimal(u, x) == minimal

    def test_witness_is_the_lowest_index_one(self):
        for i in range(30):
            rng = corpus.derive_rng(43, "minimality-witness", i)
            poset = corpus.random_poset(rng, 12, with_bottom=i % 2 == 0)
            u = corpus.random_isotone_utility(rng, poset)
            for x in poset.elements:
                below = [
                    y for y in poset.elements
                    if y != x and poset.leq(y, x) and u.value(y) >= u.value(x)
                ]
                assert q.minimality_witness(u, x) == (below[0] if below else None)

    def test_witness_independent_of_hash_seed(self):
        # star b < p, q, r, s < t: every middle point below t keeps its value
        script = (
            "import qleontief as q\n"
            "p = q.FinitePoset.from_covers(list('bpqrst'), [('b', y) for y in 'pqrs']"
            " + [(y, 't') for y in 'pqrs'])\n"
            "u = q.TabulatedUtility(p, {e: int(e != 'b') for e in p.elements})\n"
            "print(q.minimality_witness(u, 't'))\n"
        )
        src = str(Path(q.__file__).resolve().parents[1])
        texts = set()
        for seed in ("0", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                timeout=60, check=True,
            )
            texts.add(run.stdout)
        assert texts == {"p\n"}


class TestCheckCharpar:
    def test_min_grid_exhaustive(self, min_on_4x4):
        cert = q.check_charpar(min_on_4x4)
        assert cert.ok
        assert cert.data["points_checked"] == 16

    def test_min_x1_x1x2_positive_grid(self):
        cert = q.check_charpar(min_x1_x1x2())
        assert cert.ok

    def test_min_x1x3_x2_grid(self):
        cert = q.check_charpar(min_x1x3_x2())
        assert cert.ok
        assert cert.data["points_checked"] == 64

    def test_random_products_of_chains(self):
        for i in range(30):
            rng = corpus.derive_rng(23, "charpar-unit", i)
            space = corpus.random_product_of_chains(rng)
            u = corpus.random_isotone_utility(rng, space)
            assert q.check_charpar(u).ok


class TestEfficiencyStructure:
    def test_efficient_set_is_chain_and_meet_closed(self):
        for i in range(30):
            rng = corpus.derive_rng(29, "structure-unit", i)
            poset = corpus.random_poset(rng, 12, with_bottom=True)
            u = certified(corpus.random_quasileontief_utility(rng, poset))
            eff = q.efficient_set(u)
            assert poset.is_chain(eff)
            if poset.is_inf_semilattice():
                for x in eff:
                    for y in eff:
                        assert poset.meet(x, y) in eff

    def test_at_most_one_efficient_point_per_value(self, min_on_4x4):
        u = min_on_4x4
        eff = q.efficient_set(u)
        values = [u.value(x) for x in eff]
        assert len(values) == len(set(values))

    def test_dual_is_order_isomorphism_onto_efficient_set(self, min_on_4x4):
        u = q.certify_regular(min_on_4x4).utility
        image = u.image()
        duals = [u.dual(lam) for lam in image]
        assert set(duals) == set(q.efficient_set(u))
        for l1, l2 in zip(image, image[1:]):
            assert u.poset.lt(u.dual(l1), u.dual(l2))
        for lam, d in zip(image, duals):
            assert u.value(d) == lam

    def test_global_bridging(self, min_on_4x4):
        # globally efficient iff every coordinate is axis-efficient
        u = min_on_4x4
        for x in u.space.points():
            global_eff = q.is_efficient_global(u, x)
            axiswise = axiswise_member(u, x)
            assert global_eff == axiswise


def test_efficient_mask_reads_no_point_back(monkeypatch):
    """A level record keeps the index of its least element, so the efficient
    points of a certified 6^3 table cost no ``index_of`` call."""
    u = min_on_6_cubed()
    calls = count_index_of(monkeypatch)
    mask = efficient_mask(u)
    assert calls == []
    assert u.poset._unmask(mask) == tuple((k, k, k) for k in range(6))
