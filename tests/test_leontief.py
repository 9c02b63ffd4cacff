import math
from fractions import Fraction as F
from itertools import product as iproduct

import pytest

import qleontief as q

from conftest import (
    HomogeneityError,
    MinFormError,
    admissible_levels,
    brute_least,
    certified,
    constant_utility,
    grid_utility,
    on_efficiency_locus,
    recover_leontief_coefficients,
    tuple_leq,
)


def frac_box(n, lo, hi, step=None):
    return q.Box([q.BoxAxis(F(lo), F(hi), F(step) if step else None) for _ in range(n)])


def brute_grid_least_of_level(u, grid_points, lam, le):
    """Independent oracle: least element of {p : u(p) >= lam} by full scan."""
    level = [p for p in grid_points if le(lam, u.value(p))]
    return brute_least(level, tuple_leq)


class TestEvaluate:
    def test_classical_direct_substitution(self):
        u = q.classical_leontief([F(1), F(2), F(4)], frac_box(3, 0, 8))
        # min(1*8, 2*3, 4*1) computed term by term
        terms = [F(1) * 8, F(2) * 3, F(4) * 1]
        assert u.value((F(8), F(3), F(1))) == min(terms) == 4

    def test_power_direct_substitution(self):
        u = q.PowerLeontief([F(1), F(1)], [2, 1], frac_box(2, 0, 9))
        assert u.value((F(3), F(4))) == min(F(3) ** 2, F(4)) == 4

    def test_value_preserved_at_interior(self):
        u = q.classical_leontief([F(1), F(2), F(4)], frac_box(3, 0, 8))
        x = (F(8), F(3), F(1))
        assert u.value(u.interior(x)) == u.value(x)

    def test_outside_domain(self):
        u = q.classical_leontief([F(1)], frac_box(1, 0, 2))
        with pytest.raises(q.DomainError):
            u.value((F(5),))


class TestInterior:
    def test_classical_formula_with_grid_cross_check(self):
        u = q.classical_leontief([F(1), F(2), F(4)], frac_box(3, 0, 8))
        x = (F(8), F(3), F(1))
        got = u.interior(x)
        assert got == (F(4), F(2), F(1))
        pts = [tuple(map(F, p)) for p in iproduct(range(9), repeat=3)]
        assert brute_grid_least_of_level(u, pts, u.value(x), q.EXACT.le) == got

    def test_efficient_point_is_fixed(self):
        u = q.classical_leontief([F(2), F(3)], frac_box(2, 0, 6))
        x = (F(3), F(2))  # 2*3 == 3*2, on the efficiency locus
        assert u.interior(x) == x

    def test_identity_on_chain_has_identity_interior(self):
        chain = q.FinitePoset.chain([0, 1, 2])
        u = certified(q.TabulatedUtility(chain, {t: F(t) for t in chain}))
        for t in chain:
            assert u.interior(t) == t

    def test_uncertified_tabulated_raises(self):
        chain = q.FinitePoset.chain([0, 1])
        u = q.TabulatedUtility(chain, {0: F(0), 1: F(1)})
        with pytest.raises(q.NotCertifiedError):
            u.interior(0)

    def test_interior_laws_on_probes(self):
        u = q.classical_leontief([F(1), F(3)], frac_box(2, 0, 6))
        probes = [tuple(map(F, p)) for p in iproduct(range(7), repeat=2)]
        for x in probes:
            ix = u.interior(x)
            assert tuple_leq(ix, x)
            assert u.interior(ix) == ix
        for x in probes:
            for y in probes:
                if tuple_leq(x, y):
                    assert tuple_leq(u.interior(x), u.interior(y))


class TestDual:
    def test_classical_formula(self):
        u = q.classical_leontief([F(1), F(2)], frac_box(2, 0, 8))
        assert u.dual(F(2)) == (F(2), F(1))
        pts = [tuple(map(F, p)) for p in iproduct(range(9), repeat=2)]
        assert brute_grid_least_of_level(u, pts, F(2), q.EXACT.le) == (F(2), F(1))

    def test_level_above_max_is_empty(self):
        g = q.grid_space(range(3), range(3))
        u = certified(grid_utility(lambda a, b: F(min(a, b)), range(3), range(3)))
        assert u.dual(F(99)) is None
        uc = q.classical_leontief([F(1), F(1)], frac_box(2, 0, 2))
        assert uc.dual(F(99)) is None

    def test_dual_at_value_equals_interior(self):
        u = certified(grid_utility(lambda a, b: F(min(a, b)), range(4), range(4)))
        for x in u.poset.elements:
            assert u.dual(u.value(x)) == u.interior(x)

    def test_leastless_level_reports_witnesses(self):
        poset = q.FinitePoset.from_covers(["bot", "a", "b"], [("bot", "a"), ("bot", "b")])
        u = q.TabulatedUtility(poset, {"bot": F(0), "a": F(1), "b": F(1)})
        cert = q.certify_regular(u)
        assert not cert.ok
        assert set(cert.witnesses) == {"a", "b"}


class TestClosure:
    def test_fixed_on_attained_values(self, min_on_4x4):
        u = min_on_4x4
        for lam in u.image():
            assert u.closure(lam) == lam

    def test_midlevel_closes_upward(self):
        chain = q.FinitePoset.chain([0, 2])
        u = certified(q.TabulatedUtility(chain, {0: F(0), 2: F(2)}))
        # least element of the level set at 1 is the element 2, valued 2
        assert u.dual(F(1)) == 2
        assert u.closure(F(1)) == 2

    def test_idempotent_extensive_isotone(self, min_on_4x4):
        u = min_on_4x4
        levels = admissible_levels(u)
        closed = [u.closure(lam) for lam in levels]
        for lam, c in zip(levels, closed):
            assert q.EXACT.le(lam, c)
            assert u.closure(c) == c
        assert closed == sorted(closed)

    def test_fixed_points_are_exactly_the_image(self, min_on_4x4):
        u = min_on_4x4
        fixed = {lam for lam in admissible_levels(u) if u.closure(lam) == lam}
        assert fixed == set(u.image())

    def test_outside_dual_domain(self, min_on_4x4):
        with pytest.raises(q.DualDomainError):
            min_on_4x4.closure(F(99))


class TestClassicalConstructor:
    def test_diagonal_always_efficient_for_equal_coefficients(self):
        u = q.classical_leontief([F(1), F(1)], frac_box(2, 0, 5))
        for t in range(6):
            assert u.interior((F(t), F(t))) == (F(t), F(t))

    def test_locus_example(self):
        u = q.classical_leontief([F(2), F(3)], frac_box(2, 0, 6))
        x = (F(3), F(2))
        assert u.value(x) == 6
        assert u.interior(x) == x
        assert on_efficiency_locus(u, x)

    def test_off_locus_example_with_brute_force(self):
        u = q.classical_leontief([F(1), F(2)], frac_box(2, 0, 4))
        x = (F(4), F(1))
        assert u.value(x) == 2
        assert u.interior(x) == (F(2), F(1))
        assert not on_efficiency_locus(u, x)
        pts = [tuple(map(F, p)) for p in iproduct(range(5), repeat=2)]
        assert brute_grid_least_of_level(u, pts, F(2), q.EXACT.le) == (F(2), F(1))

    def test_nonpositive_coefficient_rejected(self):
        with pytest.raises(q.UtilityError):
            q.classical_leontief([F(1), F(0)], frac_box(2, 0, 1))


class TestPowerForm:
    def test_exponent_one_reduces_to_classical(self):
        a = [F(2), F(3)]
        up = q.PowerLeontief(a, [1, 1], frac_box(2, 0, 4))
        uc = q.classical_leontief(a, frac_box(2, 0, 4))
        for p in iproduct(range(5), repeat=2):
            x = tuple(map(F, p))
            assert up.value(x) == uc.value(x)
            assert up.interior(x) == uc.interior(x)

    def test_interior_with_dense_grid_oracle(self):
        u = q.PowerLeontief([1.0, 1.0], [2.0, 1.0], q.Box.cube(2, 0.0, 4.0))
        x = (3.0, 4.0)
        got = u.interior(x)
        assert got == pytest.approx((2.0, 4.0))
        # dense grid: level set of value 4, least by componentwise scan
        step = 0.125
        pts = [
            (i * step, j * step) for i in range(33) for j in range(33)
        ]
        level = [p for p in pts if u.value(p) >= 4.0 - 1e-9]
        least = brute_least(level, tuple_leq)
        assert least == pytest.approx(got)

    def test_locus_points_fixed(self):
        u = q.PowerLeontief([1.0, 1.0], [2.0, 1.0], q.Box.cube(2, 0.0, 9.0))
        x = (2.0, 4.0)  # x1^2 == x2
        assert on_efficiency_locus(u, x)
        assert u.interior(x) == pytest.approx(x)

    def test_invalid_parameters(self):
        with pytest.raises(q.UtilityError):
            q.PowerLeontief([1.0], [0.0], q.Box.cube(1, 0.0, 1.0))
        # a negative lo is refused only when some exponent is not 1
        with pytest.raises(q.UtilityError, match="nonnegative orthant"):
            q.PowerLeontief([1.0, 1.0], [2.0, 1.0], q.Box.cube(2, -1.0, 1.0))
        u = q.PowerLeontief([1.0], [1.0], q.Box.cube(1, -1.0, 1.0))
        assert u.value((-0.5,)) == -0.5 and u.dual(-0.5) == (-0.5,)


class TestAffine:
    def test_identity_transform(self, min_on_4x4):
        v = q.affine_transform(min_on_4x4, F(1), F(0))
        assert v.values == min_on_4x4.values

    def test_example_with_interior_preserved(self):
        u = certified(q.tabulate(q.classical_leontief([F(1), F(2)], frac_box(2, 0, 4, step=1))))
        v = q.affine_transform(u, F(2), F(5))
        x = (F(4), F(1))
        assert v.value(x) == 2 * u.value(x) + 5 == 9
        assert v.interior(x) == u.interior(x) == (F(2), F(1))

    def test_dual_shifts_with_the_level(self):
        u = certified(grid_utility(lambda a, b: F(min(a, b)), range(4), range(4)))
        v = q.affine_transform(u, F(2), F(5))
        v = q.certify_regular(v).utility
        for lam in admissible_levels(u):
            assert v.dual(2 * lam + 5) == u.dual(lam)

    def test_interior_table_preserved_for_tabulated(self, min_on_4x4):
        v = q.affine_transform(min_on_4x4, F(3), F(-1))
        assert v.certified
        for x in v.poset.elements:
            assert v.interior(x) == min_on_4x4.interior(x)

    def test_tolerant_table_comes_back_uncertified(self):
        # the factor stretches the gap 1e-10 under the tolerance 1e-9 to 100
        chain = q.FinitePoset.chain([0, 1])
        u = q.TabulatedUtility(chain, {0: 1e-10, 1: 0.0}, scale=q.tolerant(1e-9))
        assert q.certify_quasi_leontief(u).ok
        v = q.affine_transform(q.certify_quasi_leontief(u).utility, 1e12, 0.0)
        assert not v.certified
        cert = q.certify_quasi_leontief(v)
        assert not cert.ok
        assert "level set at 100.0 is not the up-set of 0" in cert.detail

    def test_nonpositive_factor_rejected(self, min_on_4x4):
        with pytest.raises(q.UtilityError):
            q.affine_transform(min_on_4x4, F(0), F(1))

    def test_closed_form_is_refused(self):
        u = q.classical_leontief([F(1), F(2)], frac_box(2, 0, 4))
        with pytest.raises(q.UtilityError, match="affine transform needs tables"):
            q.affine_transform(u, F(2), F(5))


def identity_chain_utility(n):
    chain = q.FinitePoset.chain(range(n))
    return certified(q.TabulatedUtility(chain, {t: F(t) for t in range(n)}))


def vee_utility():
    """bot < a, bot < b, with u = 0, 2, 0: regular, and no join of a and b."""
    vee = q.FinitePoset.from_covers(["bot", "a", "b"], [("bot", "a"), ("bot", "b")])
    return certified(q.TabulatedUtility(vee, {"bot": F(0), "a": F(2), "b": F(0)}))


# The paper's closed-form duals of the two min constructions, as references
# for the certified table.


def ref_product_dual(factors, lam):
    """The tuple of the factor duals; None when one of them is."""
    duals = tuple(f.dual(lam) for f in factors)
    return None if None in duals else duals


def ref_pointwise_dual(parts, lam):
    """The join of the part duals; None when one of them is, or when the
    join does not exist."""
    duals = [p.dual(lam) for p in parts]
    if None in duals:
        return None
    out = duals[0]
    for d in duals[1:]:
        out = out if out is None else parts[0].poset.join(out, d)
    return out


class TestMinProduct:
    def test_single_factor_identical(self):
        u1 = identity_chain_utility(4)
        m = q.min_product(u1)
        for t in range(4):
            assert m.value((t,)) == u1.value(t)

    def test_table_of_the_values_on_the_product(self):
        u1, u2 = identity_chain_utility(3), vee_utility()
        m = q.min_product(u1, u2)
        assert isinstance(m, q.TabulatedUtility) and not m.certified
        assert m.poset == q.ProductSpace([u1.poset, u2.poset]) and m.scale is u1.scale
        assert m.values == {(s, t): min(u1.value(s), u2.value(t))
                            for s in range(3) for t in ("bot", "a", "b")}

    def test_dual_is_tuple_of_factor_duals(self):
        factors = (identity_chain_utility(4), vee_utility())
        tab = q.certify_regular(q.min_product(*factors)).utility
        probes = tab.probe_levels([F(-1), F(1, 4), F(9)])
        assert len(probes) == 8
        for lam in probes:
            assert tab.dual(lam) == ref_product_dual(factors, lam)
        assert tab.dual(F(1)) == (1, "a") and tab.dual(F(9)) is None

    def test_interior_agrees_with_brute_force_everywhere(self):
        factors = (identity_chain_utility(4), identity_chain_utility(4))
        tab = certified(q.min_product(*factors))
        for p in tab.poset.points():
            assert tab.interior(p) == ref_product_dual(factors, tab.value(p))

    def test_nested_product_points(self):
        c = identity_chain_utility(3)
        inner = q.min_product(c, c)
        tab = q.certify_regular(q.min_product(inner, c)).utility
        assert tab.value(((1, 2), 2)) == 1
        assert tab.dual(F(2)) == ((2, 2), 2)

    def test_uncertified_factors_give_an_uncertified_table(self):
        chain = q.FinitePoset.chain(range(3))
        raw = q.TabulatedUtility(chain, {0: F(0), 1: F(2), 2: F(1)})
        m = q.min_product(raw)
        assert not m.certified
        assert not q.certify_quasi_leontief(m).ok

    def test_scale_of_a_table_read_exact_off_a_tolerant_form(self):
        """``tabulate`` reads x^2 on 0..2 exact, keeping its form's scale as
        ``form``: next to a tolerant table the product is on that scale, next
        to a table exact in its own right it is exact without a ``form``."""
        box = q.Box.cube(1, 0, 2, 1)
        square = q.tabulate(q.PowerLeontief([1], [2], box))
        root = q.tabulate(q.PowerLeontief([1], [F(1, 2)], box))
        line = q.tabulate(q.classical_leontief([1], box))
        assert (square.scale.kind, root.scale.kind, line.scale.kind) == ("exact", "tolerant", "exact")
        assert square.scale.form.kind == "tolerant" and line.scale.form is None
        assert q.min_product(square, root).scale is square.scale.form
        assert q.min_product(root, square).scale is root.scale
        assert q.min_product(square, square).scale is square.scale
        for factors in ((square, line), (line, square)):
            scale = q.min_product(*factors).scale
            assert scale.kind == "exact" and scale.form is None
        for factors in ((line, root), (q.min_product(square, line), root)):
            with pytest.raises(q.UtilityError, match="factors mix exact and tolerant scales"):
                q.min_product(*factors)

    def test_mixed_factors_rejected(self):
        u = q.classical_leontief([F(2)], frac_box(1, 0, 4))
        for factors in ((identity_chain_utility(3), u), (u, identity_chain_utility(3)), (u, u)):
            with pytest.raises(q.UtilityError, match="min-product needs tables"):
                q.min_product(*factors)


class TestMinPointwise:
    def test_single_part(self, min_on_4x4):
        m = q.min_pointwise(min_on_4x4)
        for x in min_on_4x4.poset.elements:
            assert m.value(x) == min_on_4x4.value(x)

    def test_join_of_duals(self):
        u1 = certified(grid_utility(lambda a, b: F(a), range(4), range(4)))
        u2 = certified(grid_utility(lambda a, b: F(b), range(4), range(4)))
        m = q.min_pointwise(u1, u2)
        assert isinstance(m, q.TabulatedUtility) and not m.certified
        tab = q.certify_regular(m).utility
        assert u1.dual(F(2)) == (2, 0)
        assert u2.dual(F(2)) == (0, 2)
        assert tab.dual(F(2)) == (2, 2)
        for lam in tab.probe_levels([F(-1), F(9)]):
            assert tab.dual(lam) == ref_pointwise_dual((u1, u2), lam)

    def test_constant_cap_is_regular_on_grid_with_bottom(self, min_on_4x4):
        cap = certified(constant_utility(min_on_4x4.poset, F(2)))
        m = q.min_pointwise(min_on_4x4, cap)
        cert = q.certify_regular(m)
        assert cert.ok
        for x in min_on_4x4.poset.elements:
            assert m.value(x) == min(min_on_4x4.value(x), F(2))

    def test_constant_needs_bottom(self):
        antichain = q.FinitePoset.antichain(["a", "b"])
        with pytest.raises(q.UtilityError):
            constant_utility(antichain, F(1))

    def test_missing_join_under_an_empty_level_set(self):
        # two maximal points with no join: {bot < a, bot < b}
        poset = q.FinitePoset.from_covers(["bot", "a", "b"], [("bot", "a"), ("bot", "b")])
        u1 = certified(q.TabulatedUtility(poset, {"bot": F(0), "a": F(1), "b": F(0)}))
        u2 = certified(q.TabulatedUtility(poset, {"bot": F(0), "a": F(0), "b": F(1)}))
        assert u1.dual(F(1)) == "a" and u2.dual(F(1)) == "b"
        assert ref_pointwise_dual((u1, u2), F(1)) is None
        # the min is 0 everywhere: its level set at 1 is empty
        tab = q.certify_regular(q.min_pointwise(u1, u2)).utility
        assert tab.dual(F(1)) is None and tab.dual(F(0)) == "bot"

    def test_two_minimal_upper_bounds_fail_regularity(self):
        # a and b have the two minimal upper bounds c and d, so no join
        poset = q.FinitePoset.from_covers(
            ["bot", "a", "b", "c", "d"],
            [("bot", "a"), ("bot", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],
        )
        up_a, up_b = {"a", "c", "d"}, {"b", "c", "d"}
        u1 = certified(q.TabulatedUtility(poset, {e: F(e in up_a) for e in poset.elements}))
        u2 = certified(q.TabulatedUtility(poset, {e: F(e in up_b) for e in poset.elements}))
        assert (u1.dual(F(1)), u2.dual(F(1))) == ("a", "b")
        assert ref_pointwise_dual((u1, u2), F(1)) is None
        cert = q.certify_regular(q.min_pointwise(u1, u2))
        assert not cert.ok and cert.witnesses == ("c", "d")

    def test_parts_share_one_poset(self, min_on_4x4):
        other = identity_chain_utility(4)
        closed = q.classical_leontief([F(1), F(1)], frac_box(2, 0, 3, step=1))
        for parts in ((min_on_4x4, other), (min_on_4x4, closed), (closed, min_on_4x4),
                      (closed, closed)):
            with pytest.raises(q.UtilityError, match="share one domain poset"):
                q.min_pointwise(*parts)


class TestRestrict:
    def test_whole_domain_restriction_is_identity(self, min_on_4x4):
        s = q.DownSet.from_members(min_on_4x4.poset, min_on_4x4.poset.elements)
        r = q.restrict(min_on_4x4, s)
        assert r.values == min_on_4x4.values
        assert r.certified

    def test_dual_lands_inside_comprehensive_subset(self):
        u = q.classical_leontief([F(1), F(1)], frac_box(2, 0, 3, step=1))
        tab = q.certify_regular(q.tabulate(u)).utility
        s = q.DownSet.from_generators(tab.poset, [(F(2), F(3))])
        assert len(s) == 12
        r = q.certify_regular(q.restrict(tab, s)).utility
        assert r.dual(F(2)) == (F(2), F(2))
        assert (F(2), F(2)) in s

    def test_empty_level_set_after_restriction(self):
        u = q.classical_leontief([F(1), F(1)], frac_box(2, 0, 3, step=1))
        tab = q.certify_regular(q.tabulate(u)).utility
        s = q.DownSet.from_generators(tab.poset, [(F(1), F(0))])
        r = q.certify_regular(q.restrict(tab, s)).utility
        assert r.dual(F(1)) is None

    def test_closed_form_is_refused(self):
        u = q.classical_leontief([F(1), F(2)], frac_box(2, 0, 4))
        with pytest.raises(q.UtilityError, match="restriction needs tables"):
            q.restrict(u, [(F(3), F(1))])


class TestMinDecompose:
    def test_min_form_recovered_exactly(self):
        u1 = identity_chain_utility(4)
        m = q.min_product(u1, identity_chain_utility(4))
        tab = certified(m)
        top = (3, 3)
        s = q.DownSet.from_generators(tab.space, [(2, 2)])
        parts = q.min_decompose(tab, s.sorted_members(), top)
        for x in s.sorted_members():
            assert tab.value(x) == min(p.value(c) for p, c in zip(parts, x))

    def test_example_tables(self):
        tab = certified(grid_utility(lambda a, b: F(min(a, b)), range(4), range(4)))
        s = q.DownSet.from_generators(tab.space, [(2, 2)])
        parts = q.min_decompose(tab, s.sorted_members(), (3, 3))
        assert [parts[0].value(t) for t in range(4)] == [F(t) for t in range(4)]
        assert [parts[1].value(t) for t in range(4)] == [F(t) for t in range(4)]
        assert len(s) == 9

    def test_single_factor(self):
        u = identity_chain_utility(4)
        space = q.ProductSpace([u.poset])
        tab = certified(
            q.TabulatedUtility(space.as_poset(), {(t,): F(t) for t in range(4)})
        )
        parts = q.min_decompose(tab, [(t,) for t in range(3)], (3,))
        assert len(parts) == 1
        for t in range(4):
            assert parts[0].value(t) == tab.value((t,))

    def test_bad_upper_bound_rejected(self):
        tab = certified(grid_utility(lambda a, b: F(min(a, b)), range(4), range(4)))
        with pytest.raises(q.UtilityError, match="upper bound"):
            q.min_decompose(tab, [(3, 3)], (2, 2))


class TestRecoverCoefficients:
    def test_classical_round_trip_exact(self):
        u = q.classical_leontief([F(2), F(3), F(5)], frac_box(3, 0, 4))
        probes = [tuple(map(F, p)) for p in iproduct(range(1, 5), repeat=3)]
        a = recover_leontief_coefficients(u, probes, (F(4), F(4), F(4)))
        assert a == (F(2), F(3), F(5))

    def test_scaling_by_three_scales_coefficients(self):
        # every point the recovery reads lies on the grid of step 1/4
        u = q.tabulate(q.classical_leontief([F(2), F(3), F(5)], frac_box(3, 0, 4, step=F(1, 4))))
        v = q.affine_transform(u, F(3), F(0))
        probes = [tuple(map(F, p)) for p in iproduct(range(1, 5), repeat=3)]
        a = recover_leontief_coefficients(v, probes, (F(4), F(4), F(4)))
        assert a == (F(6), F(9), F(15))

    def test_cobb_douglas_rejected_with_min_form_witness(self):
        cd = lambda x: math.sqrt(x[0] * x[1])
        probes = [(1.0, 1.0), (2.0, 2.0), (4.0, 1.0), (1.0, 4.0)]
        with pytest.raises(MinFormError) as err:
            recover_leontief_coefficients(
                cd, probes, (4.0, 4.0), scale=q.tolerant(1e-9)
            )
        assert err.value.coefficients == pytest.approx((1.0, 1.0))
        assert err.value.witness in ((4.0, 1.0), (1.0, 4.0))

    def test_homogeneity_violation_reported(self):
        fn = lambda x: min(x[0], x[1]) + 1
        with pytest.raises(HomogeneityError):
            recover_leontief_coefficients(
                fn, [(2.0, 2.0)], (4.0, 4.0), scale=q.tolerant(1e-9)
            )


class TestStructuralInvariants:
    def test_adjunction_exhaustive_on_tabulated(self, min_on_4x4):
        u = min_on_4x4
        for lam in admissible_levels(u):
            d = u.dual(lam)
            for x in u.poset.elements:
                assert u.poset.leq(d, x) == (lam <= u.value(x))

    def test_dual_identities(self, min_on_4x4):
        u = min_on_4x4
        for x in u.poset.elements:
            assert u.interior(x) == u.dual(u.value(x))          # u° = u# ∘ u
            assert u.value(u.interior(x)) == u.value(x)          # u ∘ u# ∘ u = u
        for lam in admissible_levels(u):
            d = u.dual(lam)
            assert u.dual(u.value(d)) == d                       # u# ∘ u ∘ u# = u#

    def test_recap_max_min_forms(self, min_on_4x4):
        u = min_on_4x4
        levels = admissible_levels(u)
        for x in u.poset.elements:
            attained = [lam for lam in levels if u.poset.leq(u.dual(lam), x)]
            assert max(attained) == u.value(x)
        for lam in levels:
            level = [x for x in u.poset.elements if u.value(x) >= lam]
            assert brute_least(level, lambda a, b: u.poset.leq(a, b)) == u.dual(lam)

    def test_certified_utility_is_meet_homomorphism(self, min_on_4x4):
        u = min_on_4x4
        p = u.poset
        for x in p.elements:
            for y in p.elements:
                m = p.meet(x, y)
                assert u.value(m) == min(u.value(x), u.value(y))

    def test_full_value_table_required(self):
        chain = q.FinitePoset.chain(range(3))
        with pytest.raises(q.UtilityError, match="no value"):
            q.TabulatedUtility(chain, {0: F(0)})
        with pytest.raises(q.UtilityError, match="unknown element"):
            q.TabulatedUtility(chain, {0: F(0), 1: F(0), 2: F(0), 9: F(0)})

    def test_first_missing_and_first_extra_element_named(self):
        chain = q.FinitePoset.chain(range(4))
        with pytest.raises(q.UtilityError, match=r"^no value for element 1$"):
            q.TabulatedUtility(chain, {9: F(0), 3: F(0), 0: F(0), 8: F(0)})  # poset order
        with pytest.raises(q.UtilityError, match=r"^value for unknown element 9$"):
            q.TabulatedUtility(chain, {3: F(0), 9: F(0), 2: F(0), 1: F(0), 0: F(0), 8: F(0)})
        u = q.TabulatedUtility(chain, {3: F(3), 1: F(1), 2: F(2), 0: F(0)})
        assert list(u.values) == [0, 1, 2, 3]  # re-keyed in poset order
