"""Efficient points, one-axis partial utilities, and the coordinatewise test.

Two notions coexist on product domains.  A point is globally efficient for a
certified utility when the interior map fixes it; it is minimally efficient
when nothing strictly below it keeps the value (brute force, certification
free).  For individually quasi-Leontief utilities the two agree with
membership in the product of axis-wise efficient sets, and check_charpar
sweeps that equivalence by point index: one mask test for minimality, and
one bit of each axis slice's efficient mask for membership.

``efficient_set`` reads a table's efficient points off its level records and
tests a closed form (io keeps one only on a continuous box) at probe points.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from . import oracle
from .leontief import (
    LeastlessLevelSetError, NotCertifiedError, TabulatedUtility, UtilityError, _axis_slice,
)
from .oracle import Certificate, InconsistencyError
from .order import Element, ProductSpace


@dataclass(frozen=True)
class EfficiencySet:
    """Efficient points of one utility."""

    points: Tuple

    def __contains__(self, x) -> bool:
        return x in self.points

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)


def _require_space(u: TabulatedUtility) -> ProductSpace:
    if u.space is None:
        raise UtilityError("operation needs a product-domain utility")
    return u.space


def partial_utility(u: TabulatedUtility, rest: Sequence, axis: int) -> TabulatedUtility:
    """Freeze all coordinates except ``axis`` at ``rest``: the one-axis slice
    u[rest], tabulated on the factor of ``axis``.

    A globally certified parent auto-certifies the slice (its interior is the
    axis projection of the parent interior); otherwise the slice comes back
    uncertified and must be certified on its own factor.
    """
    _require_space(u)._check_axis(axis)
    pu = _axis_slice(u, rest, axis)
    pu.certified = u.certified
    return pu


def certified_partial(u: TabulatedUtility, rest: Sequence, axis: int) -> TabulatedUtility:
    """Partial utility with certification forced (oracle run when needed)."""
    pu = partial_utility(u, rest, axis)
    if pu.certified:
        return pu
    cert = oracle.certify_quasi_leontief(pu)
    if not cert.ok:
        raise UtilityError(
            f"partial on axis {axis} at {rest!r} is not quasi-Leontief: "
            f"witnesses {cert.witnesses!r}"
        )
    return cert.utility


def efficient_mask(u: TabulatedUtility) -> int:
    """The efficient points of a certified table as a mask: the least element
    m of the level set at each attained value, kept when u(m) is that value."""
    if not u.certified:
        raise NotCertifiedError("dual requires a certified utility")
    t = u._ranks()
    mask = 0
    for r, lam in enumerate(t.image):
        rec = u._level(lam, r)
        if rec.least is None:
            raise LeastlessLevelSetError(lam, rec.witnesses)
        i = u.poset.index_of(rec.least)
        if t.rank[i] == r:
            mask |= 1 << i
    return mask


def efficient_set(u, subset: Optional[Iterable] = None) -> EfficiencySet:
    """All points of ``subset`` fixed by the interior map; for a table the
    subset defaults to the whole domain, a closed form needs explicit probes.

    For a certified utility this set is totally ordered; the chain property is
    asserted and its violation raises InconsistencyError.
    """
    if isinstance(u, TabulatedUtility):
        mask = efficient_mask(u)
        if subset is not None:
            mask &= u.poset._mask(map(u._norm, subset))
        pts = sorted(u.poset._unmask(mask), key=u.values.__getitem__)
        if not u.poset.is_chain(pts):
            raise InconsistencyError("efficient set of a certified utility is not a chain")
        return EfficiencySet(tuple(pts))
    if subset is None:
        raise UtilityError("closed-form efficient set needs explicit probes")
    pts = tuple(x for x in map(tuple, subset) if is_efficient_global(u, x))
    return EfficiencySet(pts)


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
    below = poset._down[i] & ~(1 << i) & u.level_of(i).mask
    return poset.elements[(below & -below).bit_length() - 1] if below else None


CHARPAR_LIMIT = 10_000
"""``check_charpar`` sweeps every point of a product up to this many, else a
sample of this many drawn with ``CHARPAR_SEED``."""
CHARPAR_SEED = 0


def check_charpar(u: TabulatedUtility) -> Certificate:
    """Exhaustively (or on a seeded sample) match brute-force minimality
    against membership in the product of axis-wise efficient sets.

    Point i is minimal when nothing strictly below it lies in the level set
    at its value, the suffix of the ranks from that level's start.  Its
    slice along an axis is keyed by i with that axis's digit set to 0 (the
    factor sizes are the mixed radix of the index); each slice is certified
    the first time a point meets it, and its efficient mask is kept.
    """
    space = _require_space(u)
    n = len(space)
    order = range(n)
    if n > CHARPAR_LIMIT:
        order = random.Random(CHARPAR_SEED).sample(order, CHARPAR_LIMIT)
    axes = [(axis, stride, len(f), {})
            for axis, (f, stride) in enumerate(zip(space.factors, space._strides()))]
    t = u._ranks()
    level = [t.suffix[u._level_start(lam, r)] for r, lam in enumerate(t.image)]
    rank, down, elements = t.rank, u.poset._down, u.poset.elements
    for i in order:
        member = True
        for axis, stride, size, masks in axes:
            digit = i // stride % size
            key = i - digit * stride
            mask = masks.get(key)
            if mask is None:
                x = elements[i]
                pu = certified_partial(u, x[:axis] + x[axis + 1:], axis)
                mask = masks[key] = efficient_mask(pu)
            member = member and bool(mask >> digit & 1)
        minimal = not down[i] & ~(1 << i) & level[rank[i]]
        if minimal != member:
            return Certificate(
                False,
                "charpar",
                witnesses=(elements[i],),
                detail=f"minimal={minimal} but coordinatewise membership={member}",
            )
    return Certificate(True, "charpar", data={"points_checked": len(order)})


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
    da = pa.dual(lam)
    db = pb.dual(lam)
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
