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
