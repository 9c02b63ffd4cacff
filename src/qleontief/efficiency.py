"""Efficient points, one-axis partial utilities, and the coordinatewise test.

Two notions coexist on product domains.  A point is globally efficient for a
certified utility when the interior map fixes it; it is minimally efficient
when nothing strictly below it keeps the value (brute force, certification
free).  For individually quasi-Leontief utilities the two agree with
membership in the product of axis-wise efficient sets, and check_charpar
sweeps that equivalence.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from . import oracle
from .leontief import TabulatedUtility, UtilityError
from .oracle import Certificate, InconsistencyError
from .order import Element, ProductSpace


@dataclass(frozen=True)
class EfficiencySet:
    """Efficient points of one utility, with the mode they were computed in."""

    points: Tuple
    mode: str  # "global-chain" | "axis" | "minimal-set"

    def __contains__(self, x) -> bool:
        return x in self.points

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class PartialUtility:
    """One-axis slice u[rest] of a product-domain utility."""

    utility: TabulatedUtility
    parent: TabulatedUtility
    axis: int
    frozen: Tuple

    def value(self, t):
        return self.utility.value(t)

    def interior(self, t):
        return self.utility.interior(t)

    def dual(self, lam):
        return self.utility.dual(lam)


def _require_space(u: TabulatedUtility) -> ProductSpace:
    if u.space is None:
        raise UtilityError("operation needs a product-domain utility")
    return u.space


def partial_utility(u: TabulatedUtility, rest: Sequence, axis: int) -> PartialUtility:
    """Freeze all coordinates except ``axis`` at ``rest``.

    A globally certified parent auto-certifies the slice (its interior is the
    axis projection of the parent interior); otherwise the slice comes back
    uncertified and must be certified on its own factor.
    """
    space = _require_space(u)
    space._check_axis(axis)
    rest = tuple(rest)
    factor = space.factors[axis]
    vals = {t: u.value(space.substitute(rest, axis, t)) for t in factor.elements}
    pu = TabulatedUtility(factor, vals, scale=u.scale)
    if u.certified:
        table = {
            t: u.interior(space.substitute(rest, axis, t))[axis]
            for t in factor.elements
        }
        pu = pu._certified_copy(table)
    return PartialUtility(pu, u, axis, rest)


def certified_partial(u: TabulatedUtility, rest: Sequence, axis: int) -> PartialUtility:
    """Partial utility with certification forced (oracle run when needed)."""
    pu = partial_utility(u, rest, axis)
    if pu.utility.certified:
        return pu
    cert = oracle.certify_quasi_leontief(pu.utility)
    if not cert.ok:
        raise UtilityError(
            f"partial on axis {axis} at {rest!r} is not quasi-Leontief: "
            f"witnesses {cert.witnesses!r}"
        )
    return PartialUtility(cert.utility, u, axis, rest)


def efficient_set(u, subset: Optional[Iterable] = None) -> EfficiencySet:
    """All points of ``subset`` (default: the whole domain) fixed by the interior map.

    For a certified utility this set is totally ordered; the chain property is
    asserted and its violation raises InconsistencyError.
    """
    if isinstance(u, TabulatedUtility):
        pool = list(subset) if subset is not None else list(u.poset.elements)
        pts = [x for x in pool if u.interior(x) == x]
        pts.sort(key=lambda x: (u.values[x], u.poset.index_of(x)))
        if not u.poset.is_chain(pts):
            raise InconsistencyError("efficient set of a certified utility is not a chain")
        return EfficiencySet(tuple(pts), "global-chain")
    if subset is None:
        box = getattr(u, "box", None)
        if box is None or not box.is_grid():
            raise UtilityError("closed-form efficient set needs a grid box or explicit probes")
        pool = list(box.grid_points())
    else:
        pool = [tuple(p) for p in subset]
    pts = []
    for x in pool:
        ix = u.interior(x)
        if all(u.scale.eq(a, b) for a, b in zip(ix, x)):
            pts.append(x)
    return EfficiencySet(tuple(pts), "global-chain")


def is_efficient_global(u, x) -> bool:
    """True iff the interior map fixes x."""
    if isinstance(u, TabulatedUtility):
        return u.interior(x) == u._norm(x)
    ix = u.interior(x)
    return all(u.scale.eq(a, b) for a, b in zip(ix, tuple(x)))


def is_efficient_minimal(u: TabulatedUtility, x) -> bool:
    """Brute-force minimality of x in its own upper level set.

    Certification free by design: this is the independent side of the
    coordinatewise characterization.
    """
    return minimality_witness(u, x) is None


def minimality_witness(u: TabulatedUtility, x) -> Optional[Element]:
    """The lowest-index point strictly below x with value >= u(x), or None
    when x is minimal."""
    x = u._norm(x)
    poset = u.poset
    i = poset.index_of(x)
    below = poset._down[i] & ~(1 << i) & u.level_set(u.values[x]).mask
    return poset.elements[(below & -below).bit_length() - 1] if below else None


@dataclass(frozen=True)
class PuResult:
    """Per-axis efficient sets E(u[x_-i], X_i) at one base point."""

    axis_sets: Tuple[EfficiencySet, ...]
    point: Tuple

    def contains(self, x: Sequence) -> bool:
        x = tuple(x)
        return all(c in s for c, s in zip(x, self.axis_sets))

    @property
    def cardinality(self) -> int:
        n = 1
        for s in self.axis_sets:
            n *= len(s)
        return n


def _axis_efficient_set(
    u: TabulatedUtility,
    rest: Tuple,
    axis: int,
    cache: Optional[Dict] = None,
) -> EfficiencySet:
    key = (axis, rest)
    if cache is not None and key in cache:
        return cache[key]
    pu = certified_partial(u, rest, axis)
    pts = tuple(
        t for t in pu.utility.poset.elements if pu.utility.interior(t) == t
    )
    out = EfficiencySet(pts, "axis")
    if cache is not None:
        cache[key] = out
    return out


def pu_map(u: TabulatedUtility, x: Sequence, *, _cache: Optional[Dict] = None) -> PuResult:
    """The product of axis-wise efficient sets at x; x is efficient iff it is
    a member of its own image."""
    space = _require_space(u)
    x = space._check_point(x)
    sets = []
    for axis in range(space.n_axes):
        rest = space.delete(x, axis)
        sets.append(_axis_efficient_set(u, rest, axis, _cache))
    return PuResult(tuple(sets), x)


def check_charpar(
    u: TabulatedUtility,
    sample: Optional[Iterable] = None,
    *,
    seed: int = 0,
    limit: int = 10_000,
) -> Certificate:
    """Exhaustively (or on a seeded sample) match brute-force minimality
    against membership in the product of axis-wise efficient sets."""
    space = _require_space(u)
    if sample is None:
        pts = list(space.points())
        if len(pts) > limit:
            rng = random.Random(seed)
            pts = [tuple(p) for p in rng.sample(pts, limit)]
    else:
        pts = [space._check_point(p) for p in sample]
    cache: Dict = {}
    checked = 0
    for x in pts:
        minimal = is_efficient_minimal(u, x)
        member = pu_map(u, x, _cache=cache).contains(x)
        if minimal != member:
            return Certificate(
                False,
                "charpar",
                witnesses=(x,),
                detail=f"minimal={minimal} but coordinatewise membership={member}",
            )
        checked += 1
    return Certificate(True, "charpar", data={"points_checked": checked})


def partial_dual_consistency(
    u: TabulatedUtility, lam, rest_a: Sequence, rest_b: Sequence, axis: int
) -> Certificate:
    """For a globally certified utility, partial duals at one level agree with
    the axis projection of the global dual, wherever both are defined.

    Frozen rests whose partial level set is empty make the check vacuous; the
    certificate reports it as skipped.
    """
    space = _require_space(u)
    if not u.certified:
        raise UtilityError("partial dual consistency needs a certified utility")
    pa = certified_partial(u, tuple(rest_a), axis)
    pb = certified_partial(u, tuple(rest_b), axis)
    da = pa.utility.dual(lam)
    db = pb.utility.dual(lam)
    if da is None or db is None:
        return Certificate(
            True, "partial-dual-consistency", detail="skipped: empty partial level set"
        )
    glob = u.dual(lam)
    if glob is None:
        return Certificate(
            True, "partial-dual-consistency", detail="skipped: empty global level set"
        )
    proj = glob[axis]
    if da == db == proj:
        return Certificate(True, "partial-dual-consistency")
    return Certificate(
        False,
        "partial-dual-consistency",
        witnesses=(da, db, proj),
        detail=f"partial duals {da!r}, {db!r} vs projection {proj!r} at level {lam!r}",
    )
