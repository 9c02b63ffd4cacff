"""Shared fixtures and library-independent oracle helpers.

The brute-force helpers here deliberately avoid the package's own order
machinery wherever they serve as the independent side of a check: they work
on raw tuples with componentwise comparison.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import settings

import qleontief as q

settings.register_profile("slowio", deadline=None, max_examples=60)
settings.load_profile("slowio")


def tables(poset):
    """The poset with its element tuple and mask tables, for a reference to
    read: of a product, a plain ``FinitePoset`` twin on the rows of a
    separate product's ``as_poset``, so that the product under test keeps
    its rows unfilled and the reference answers with ``FinitePoset``'s table
    methods."""
    if not isinstance(poset, q.ProductSpace):
        return poset
    twin = q.ProductSpace(poset.factors).as_poset()
    return q.FinitePoset(tuple(poset), twin._up, twin._down)


def tuple_leq(x, y) -> bool:
    return all(a <= b for a, b in zip(x, y))


def brute_least(points, leq):
    """Least element by full pairwise scan; None when it does not exist."""
    pts = list(points)
    for p in pts:
        if all(leq(p, r) for r in pts):
            return p
    return None


def brute_minimal(points, leq):
    pts = list(points)
    return [p for p in pts if not any(r != p and leq(r, p) for r in pts)]


def interior_table(u):
    """The interior map of a certified table, point by point."""
    return {x: u.interior(x) for x in u.poset.elements}


def projected_interior(u, rest, axis):
    """The axis projection of a certified product table's interior along the
    one-axis slice at ``rest``, point by point."""
    space = u.space
    return {
        t: u.interior(space.substitute(rest, axis, t))[axis]
        for t in space.factors[axis].elements
    }


def grid_utility(fn, *ranges, scale=q.EXACT):
    """Tabulated utility on a product of integer/rational chains."""
    space = q.grid_space(*ranges)
    values = {p: fn(*p) for p in space.points()}
    return q.TabulatedUtility(space.as_poset(), values, scale=scale)


def min_on_6_cubed():
    """min(x1, x2, x3) on the product of three chains 0..5, certified."""
    space = q.grid_space(range(6), range(6), range(6))
    return certified(q.TabulatedUtility(space, {p: Fraction(min(p)) for p in space.points()}))


def count_index_of(monkeypatch):
    """The list of the points that every ``index_of`` call, on a plain poset
    or a product, is asked for from now on."""
    calls = []
    for cls in (q.FinitePoset, q.ProductSpace):
        def counted(self, x, index_of=cls.index_of):
            calls.append(x)
            return index_of(self, x)
        monkeypatch.setattr(cls, "index_of", counted)
    return calls


def certified(u):
    cert = q.certify_quasi_leontief(u)
    assert cert.ok, cert.detail
    return cert.utility


@pytest.fixture
def grid22():
    return q.grid_space(range(2), range(2))


@pytest.fixture
def min_on_4x4():
    return certified(grid_utility(lambda a, b: Fraction(min(a, b)), range(4), range(4)))


# -- references for the tests: library-side helpers that no command calls ----


def down_closure(poset, subset):
    """All elements below some member of ``subset``."""
    return frozenset(y for x in subset for y in poset.down_set(x))


def admissible_levels(u, extra=()):
    """The probe levels of a certified table (see ``probe_levels``) where the
    dual is defined."""
    if not u.certified:
        raise q.NotCertifiedError("dual requires a certified utility")
    return tuple(lam for lam in u.probe_levels(extra) if u.level_set(lam).least is not None)


def on_efficiency_locus(u, x):
    """Whether every term a_i x_i^alpha_i of a power form ties at x."""
    terms = u._terms(x)
    return all(u.scale.eq(terms[0], t) for t in terms[1:])


def changed_axes(trace):
    """The axes whose coordinate a refinement step moved."""
    return tuple(s.axis for s in trace.steps if s.before != s.after)


def constant_utility(poset, level):
    """The constant table; only a poset with a bottom element admits one as
    quasi-Leontief."""
    if poset.bottom() is None:
        raise q.UtilityError("constant utility needs a domain with a bottom element")
    return q.TabulatedUtility._of_column(poset, [level] * len(poset), q.EXACT)


def partial_dual_consistency(u, lam, rest_a, rest_b, axis):
    """For a globally certified product table, the partial duals at ``lam``
    of the slices at two frozen rests agree with the axis projection of the
    global dual, wherever both are defined; an empty level set makes the
    check vacuous, reported as skipped."""
    if u.space is None or not u.certified:
        raise q.UtilityError("partial dual consistency needs a certified product table")
    da = q.certified_partial(u, tuple(rest_a), axis).dual(lam)
    db = q.certified_partial(u, tuple(rest_b), axis).dual(lam)
    if da is None or db is None:
        return q.Certificate(True, "partial-dual-consistency", detail="skipped: empty partial level set")
    glob = u.dual(lam)
    if glob is None:
        return q.Certificate(True, "partial-dual-consistency", detail="skipped: empty global level set")
    proj = glob[axis]
    if da == db == proj:
        return q.Certificate(True, "partial-dual-consistency")
    return q.Certificate(
        False,
        "partial-dual-consistency",
        witnesses=(da, db, proj),
        detail=f"partial duals {da!r}, {db!r} vs projection {proj!r} at level {lam!r}",
    )


class HomogeneityError(q.UtilityError):
    """Coefficient recovery found a homogeneity violation."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"homogeneity violated at {witness!r}")


class MinFormError(q.UtilityError):
    """Coefficient recovery found a point where u differs from min_i a_i x_i."""

    def __init__(self, witness, coefficients, expected, got):
        self.witness = witness
        self.coefficients = tuple(coefficients)
        self.expected = expected
        self.got = got
        super().__init__(
            f"min-form identity fails at {witness!r}: "
            f"u={expected!r} but min(a_i x_i)={got!r} with a={self.coefficients!r}"
        )


def recover_leontief_coefficients(
    u,
    probes,
    top,
    *,
    scale=None,
    homogeneity_factors=(Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
    max_halvings=60,
):
    """Recover coefficients a with u(x) = min_i a_i x_i on a positive box.

    Each a_i is read off the one-axis function t -> u(top with axis i at t):
    the ratio u(.)/t is tracked down a halving sequence of t and accepted once
    it stabilizes (exact for min-of-linear forms); if it never stabilizes the
    ratio at the top is used and the min-form check below reports the witness.
    Homogeneity of u is probed multiplicatively first.
    """
    value = u.value if hasattr(u, "value") else u
    probes = [tuple(p) for p in probes]
    top = tuple(top)
    if any(t <= 0 for t in top):
        raise q.UtilityError("recovery needs a strictly positive top corner")
    default = q.tolerant() if any(isinstance(t, float) for t in top) else q.EXACT
    sc = scale if scale is not None else getattr(u, "scale", default)

    for x in probes:
        ux = value(x)
        for lam in homogeneity_factors:
            lhs = value(tuple(lam * c for c in x))
            rhs = lam * ux
            tol = max(sc.tolerance, 1e-9 * max(1, abs(rhs))) if sc.kind == "tolerant" else 0
            if abs(lhs - rhs) > tol:
                raise HomogeneityError((x, lam, lhs, rhs))

    coeffs = []
    for axis in range(len(top)):
        def axis_value(t):
            return value(top[:axis] + (t,) + top[axis + 1:])

        t = top[axis]
        first = axis_value(t) / t
        ratio = first
        found = None
        for _ in range(max_halvings):
            t2 = t / 2
            r2 = axis_value(t2) / t2
            if sc.eq(r2, ratio):
                found = r2
                break
            ratio, t = r2, t2
        coeffs.append(found if found is not None else first)

    for x in probes:
        got = min(c * t for c, t in zip(coeffs, x))
        expected = value(x)
        if not sc.eq(expected, got):
            raise MinFormError(x, coeffs, expected, got)
    return tuple(coeffs)
