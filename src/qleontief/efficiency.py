"""Efficient points, one-axis partial utilities, and the coordinatewise test.

Two notions coexist on product domains.  A point is globally efficient for a
certified utility when the interior map fixes it; it is minimally efficient
when nothing strictly below it keeps the value (brute force, certification
free).  For individually quasi-Leontief utilities the two agree with
membership in the product of axis-wise efficient sets, and check_charpar
sweeps that equivalence by point index: one mask test for minimality, and
one entry of each axis slice's interior record for membership.

``_axis_interiors`` gives that record: the interior of every point of a
one-axis slice, kept on the parent's rank table, so each slice is certified
once per table.  It is read off the parent's rank row and tolerance band,
and no per-slice table is built unless the slice fails.
``maximize.efficient_refinement`` reads its steps and its axis-efficiency
checks off the same records.

``efficient_set`` reads a table's efficient points off its level records.
"""
from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from . import oracle
from .leontief import (
    LeastlessLevelSetError, NotCertifiedError, TabulatedUtility, UtilityError, _axis_slice, _require_tables,
)
from .oracle import Certificate, InconsistencyError
from .order import Element, ProductSpace, _bits


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


def _axis_interiors(u: TabulatedUtility, axis: int, base: int) -> Tuple[int, ...]:
    """The interior record of the one-axis slice of a product table along
    ``axis`` whose first point has element index ``base``: entry c is the
    factor index of the interior of factor element c in the slice, so c is
    axis-efficient exactly when entry c is c.  Built once per rank table
    and kept there.

    The slice's level set at the value of a point of parent rank r holds its
    points of parent rank lo[r] or more (see ``_Ranks``).  So, walking the
    ranks of the parent's row ``rank[base::stride]`` down, each level set
    must be the up-set of its least element, the interior of every point at
    that rank: the factor's dict from up-set masks to indices
    (``_by_up_row``) finds it.  Only a slice where one is not goes through
    ``certified_partial``, which raises the error of a slice that is not
    quasi-Leontief; a slice it passes is an InconsistencyError.  A record
    does not depend on certification: every slice of a certified table
    passes the oracle on its own, so the certified copies that share the
    rank table share the records too.
    """
    t = u._ranks()
    rec = t.slices.get((axis, base))
    if rec is None:
        rec = t.slices[axis, base] = _slice_interiors(u, axis, base)
    return rec


def _slice_interiors(u: TabulatedUtility, axis: int, base: int) -> Tuple[int, ...]:
    space = u.space
    factor, stride = space.factors[axis], space.strides[axis]
    t = u._ranks()
    row, lo = t.rank[base:base + len(factor) * stride:stride], t.lo
    at = {}
    for c, r in enumerate(row):
        at[r] = at.get(r, 0) | 1 << c
    ranks = sorted(at, reverse=True)
    rest = iter(ranks)  # the ranks not yet in the mask, highest first; -1 ends them
    s = next(rest)
    least_at, mask, by_up = {}, 0, factor._by_up_row()
    for r in ranks:
        while s >= lo[r]:
            mask |= at[s]
            s = next(rest, -1)
        least = by_up.get(mask)  # the level set must be up(least)
        if least is None:
            break
        least_at[r] = least
    else:
        return tuple(map(least_at.__getitem__, row))
    x = space.point(base)
    rest = x[:axis] + x[axis + 1:]
    certified_partial(u, rest, axis)  # raises: the oracle tests the same levels on the same bands
    raise InconsistencyError(f"the slice on axis {axis} at {rest!r} passed certification, but its "
                             "walk found a level set that is not the up-set of a least element")


def _level_leasts(u: TabulatedUtility) -> List[int]:
    """The element index of the least element of the level set at each
    attained value, by rank; LeastlessLevelSetError at the first without one."""
    leasts = []
    t = u._ranks()
    for lam, s in zip(t.image, t.lo):
        rec = u._record(s)
        if rec.least is None:
            raise LeastlessLevelSetError(lam, rec.witnesses)
        leasts.append(rec.index)
    return leasts


def efficient_mask(u: TabulatedUtility) -> int:
    """The efficient points of a certified table as a mask: the least element
    m of the level set at each attained value, kept when u(m) is that value."""
    _require_tables("the efficient set", [u])
    if not u.certified:
        raise NotCertifiedError("dual requires a certified utility")
    rank = u._ranks().rank
    return sum(1 << i for r, i in enumerate(_level_leasts(u)) if rank[i] == r)


def efficient_set(u: TabulatedUtility) -> Tuple:
    """The points of a certified table's domain that the interior map fixes,
    by ascending value.

    For a certified utility this set is totally ordered; the chain property is
    asserted and its violation raises InconsistencyError.
    """
    mask = efficient_mask(u)
    if not u.poset._chain_in(mask):
        raise InconsistencyError("efficient set of a certified utility is not a chain")
    order = sorted(_bits(mask), key=u._ranks().rank.__getitem__)
    return tuple(map(u.poset.point, order))


def is_efficient_global(u: TabulatedUtility, x) -> bool:
    """True iff the interior map fixes x."""
    _require_tables("the efficiency test", [u])
    return u.interior(x) == u.poset.point(u._index_of(x))


def is_efficient_minimal(u: TabulatedUtility, x) -> bool:
    """Brute-force minimality of x in its own upper level set.

    Certification free by design: this is the independent side of the
    coordinatewise characterization.
    """
    return minimality_witness(u, x) is None


def minimality_witness(u: TabulatedUtility, x) -> Optional[Element]:
    """The lowest-index point strictly below x with value >= u(x), or None
    when x is minimal."""
    poset, i = u.poset, u._index_of(x)
    below = poset._down_of(i) & ~(1 << i) & u.level_of(i).mask
    return poset.point((below & -below).bit_length() - 1) if below else None


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
    the first time a point meets it, and its interior record is kept (see
    ``_axis_interiors``): the point is a member when every record fixes its
    coordinate.
    """
    space = _require_space(u)
    n = len(space)
    order = range(n)
    if n > CHARPAR_LIMIT:
        order = random.Random(CHARPAR_SEED).sample(order, CHARPAR_LIMIT)
    axes = [(axis, stride, len(f)) for axis, (f, stride) in enumerate(zip(space.factors, space.strides))]
    t = u._ranks()
    level = [t.suffix[s] for s in t.lo]
    rank, down_of, point = t.rank, u.poset._down_of, u.poset.point
    for i in order:
        member = True
        for axis, stride, size in axes:
            digit = i // stride % size
            # every slice is read, even once membership is decided, so a slice
            # that is not quasi-Leontief raises at the first point to meet it
            member = _axis_interiors(u, axis, i - digit * stride)[digit] == digit and member
        minimal = not down_of(i) & ~(1 << i) & level[rank[i]]
        if minimal != member:
            return Certificate(
                False,
                "charpar",
                witnesses=(point(i),),
                detail=f"minimal={minimal} but coordinatewise membership={member}",
            )
    return Certificate(True, "charpar", data={"points_checked": len(order)})

