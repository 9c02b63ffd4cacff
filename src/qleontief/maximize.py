"""Maximization over comprehensive sets and the efficient-refinement sweep.

On a finite comprehensive set a certified utility attains its maximum at the
largest efficient point inside the set, every maximizer dominates that point,
and some maximizer is simultaneously maximal in the set.  The refinement
sweep walks the axes of a product domain, replacing each coordinate of a
maximizer by its partial interior, and lands on an efficient maximizer below
the starting one.  ``argmax_members`` reads the maximum over a comprehensive
set and its maximizers off the table's rank table.  ``argmax_over_downset``
reads S once through it and returns one ``ArgmaxResult``: the maximum, the
maximizers and the largest efficient point.  The localization check and
``efficient_refinement`` read that record instead of walking S again.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .efficiency import _axis_interiors, efficient_mask, is_efficient_minimal
from .leontief import TabulatedUtility, UtilityError
from .oracle import Certificate, InconsistencyError
from .order import DownSet, Element, OrderError, ProductSpace, _bits


class PreconditionError(UtilityError):
    """A stated precondition (e.g. the starting point maximizes) fails."""


@dataclass(frozen=True)
class ArgmaxResult:
    """Maximum value, all maximizers, and the distinguished points.

    ``largest_efficient`` is the largest efficient point inside the set; it
    is itself a maximizer and every maximizer dominates it.
    ``maximal_maximizer`` is a maximizer that is maximal in the set.
    ``argmax_over_downset`` fills both; ``argmax_via_generators`` neither.
    """

    value: Any
    maximizers: Tuple
    largest_efficient: Optional[Element] = None
    maximal_maximizer: Optional[Element] = None

    def to_json(self) -> dict:
        from .io import encode_elem, encode_value

        return {
            "value": encode_value(self.value),
            "maximizers": [encode_elem(x) for x in self.maximizers],
            "largest_efficient": encode_elem(self.largest_efficient),
            "maximal_maximizer": encode_elem(self.maximal_maximizer),
        }


def argmax_members(u: TabulatedUtility, S: DownSet, *, as_mask: bool = False) -> Tuple[Any, Any]:
    """The maximum of u over a nonempty comprehensive set and the members
    that attain it on ``u.scale``, in member order; with ``as_mask``, those
    members as a mask of element indices.

    Read off the rank table: the top rank that meets S holds the maximum,
    and the maximum is the value of the lowest-index member there (the one
    ``max`` over the members would return).  No member's value lies above
    it, so the scale counts a member equal to it exactly when the maximum is
    ``le`` that value: the maximizers are the members in the level set at
    the maximum, from rank lo[top] up (see ``_Ranks``).  Reads values only,
    so ``u`` need not be certified.
    """
    poset = S.space
    if poset != u.poset:
        raise OrderError("down-set lives in a different poset")
    if not S.mask:
        raise OrderError("empty down-set")
    t = u._ranks()
    suffix, image = t.suffix, t.image
    top = bisect_left(range(len(image)), True, key=lambda r: not S.mask & suffix[r]) - 1
    first = S.mask & suffix[top]
    best = u.column[(first & -first).bit_length() - 1]
    mask = S.mask & suffix[t.lo[top]]
    return best, mask if as_mask else poset._unmask(mask)


def argmax_over_downset(u: TabulatedUtility, S: DownSet) -> ArgmaxResult:
    """Maximize a certified utility over a nonempty comprehensive set.

    Returns the full maximizer set, the largest efficient point of the set,
    which lower-bounds every maximizer, and the maximizer that is maximal in
    the set (nothing else of S lies above it), ties broken by string form.
    """
    best, mask = argmax_members(u, S, as_mask=True)
    poset = S.space
    k = poset._greatest_in(efficient_mask(u) & S.mask)
    if k is None:
        raise InconsistencyError("no largest efficient point inside a nonempty finite comprehensive set")
    tops = [poset.point(i) for i in _bits(mask) if S.mask & poset._up_of(i) == 1 << i]
    if not tops:
        raise InconsistencyError("no maximizer is maximal in the down-set")
    return ArgmaxResult(best, poset._unmask(mask), poset.point(k), min(tops, key=str))


def argmax_via_generators(u, generators: Sequence) -> ArgmaxResult:
    """Maximize over the down-set generated by finitely many points.

    Isotonicity pushes the maximum to the generators, so only they are
    evaluated; ties are broken by the string form of the generator.
    """
    gens = list(generators)
    if not gens:
        raise OrderError("empty generator list")
    values = [(u.value(g), g) for g in gens]
    best = max(v for v, _ in values)
    winners = sorted((g for v, g in values if u.scale.eq(v, best)), key=str)
    return ArgmaxResult(best, tuple(winners))


def check_argmax_localization(u: TabulatedUtility, S: DownSet, res: ArgmaxResult) -> Certificate:
    """The finite localization identity on a comprehensive set S, read off
    the record ``res = argmax_over_downset(u, S)``: for x^ the first
    maximizer attaining the maximum exactly and d = u°(x^), (a) d lies in S,
    (b) d is the record's largest efficient point of S, and
    (c) argmax_S u = S ∩ up(d).
    A wrong interior at x^ fails (a) or (c); x^ and d are the witnesses."""
    poset = S.space
    if poset != u.poset:
        raise OrderError("down-set lives in a different poset")
    x_hat = next(x for x in res.maximizers if u.value(x) == res.value)
    d = u.interior(x_hat)
    i = poset.index_of(d)
    a = bool(S.mask >> i & 1)
    b = res.largest_efficient == d
    c = S.mask & u.level_of(poset.index_of(x_hat)).mask == S.mask & poset._up_of(i)
    ok = a and b and c
    return Certificate(
        ok,
        "argmax-localization",
        witnesses=() if ok else (x_hat, d),
        detail=f"d = interior of the first exact maximizer; (a) d in S: {a}, "
        f"(b) d is the largest efficient point of S: {b}, (c) argmax = S & up(d): {c}",
        data={"a": a, "b": b, "c": c},
    )


@dataclass(frozen=True)
class RefinementStep:
    axis: int
    before: Element
    after: Element

    def to_json(self) -> dict:
        from .io import encode_elem

        return {
            "axis": self.axis + 1,
            "from": encode_elem(self.before),
            "to": encode_elem(self.after),
        }


@dataclass(frozen=True)
class RefinementTrace:
    """Axis-by-axis record of one refinement run, with the checks it passed."""

    start: Tuple
    steps: Tuple[RefinementStep, ...]
    result: Tuple
    order: Tuple[int, ...]
    checks: Dict[str, bool]

    def to_json(self) -> dict:
        from .io import encode_elem

        return {
            "start": encode_elem(self.start),
            "steps": [s.to_json() for s in self.steps],
            "result": encode_elem(self.result),
            "order": [a + 1 for a in self.order],
            "checks": dict(self.checks),
        }


def product_downset(space: ProductSpace, factor_sets: Sequence[DownSet]) -> DownSet:
    """The product of per-factor comprehensive sets as one comprehensive set."""
    if len(factor_sets) != space.n_axes:
        raise OrderError("one factor set per axis is required")
    for axis, (s, f) in enumerate(zip(factor_sets, space.factors)):
        if s.space != f:
            raise OrderError(f"factor set {axis} lives in the wrong poset")
    return DownSet(space, space._product_of([s.mask for s in factor_sets]))


def efficient_refinement(
    u: TabulatedUtility,
    S: DownSet,
    x_star: Sequence,
    res: ArgmaxResult,
    *,
    order: Optional[Sequence[int]] = None,
) -> RefinementTrace:
    """Refine a maximizer over a comprehensive set of a product domain (such
    as a ``product_downset``) into an efficient maximizer below it.

    ``res`` is the record of the maximum of u over S, such as
    ``argmax_over_downset(u, S)`` or ``ArgmaxResult(*argmax_members(u, S))``;
    the start must attain ``res.value``, and S is not walked again.

    The sweep visits the axes in ``order`` (default ascending); at each step
    the current coordinate is replaced by the interior of the one-axis
    partial utility frozen at the rest of the current point.  Invariants are
    re-verified after every step: the point stays a maximizer, the start
    dominates it (so it stays in S), and every visited coordinate stays
    axis-efficient.  The final point is additionally checked to be minimally
    efficient; any violation raises InconsistencyError.
    """
    space = u.space
    if space is None:
        raise UtilityError("refinement needs a product-domain utility")
    if S.space != u.poset:
        raise OrderError("down-set lives in a different poset")
    n = space.n_axes
    x_star = space._check_point(x_star)
    if x_star not in S:
        raise PreconditionError(f"start {x_star!r} is outside the feasible product")

    opt = res.value
    if not u.scale.eq(u.value(x_star), opt):
        raise PreconditionError(
            f"start {x_star!r} attains {u.value(x_star)!r}, maximum is {opt!r}"
        )

    if order is None:
        order = tuple(range(n))
    else:
        order = tuple(order)
        if sorted(order) != list(range(n)):
            raise OrderError(f"order {order!r} is not a permutation of the axes")

    def interior(i: int, axis: int) -> Tuple[int, int]:
        # the digit of point i on ``axis`` and that of its interior in the slice through i
        stride, size = space.strides[axis], len(space.factors[axis])
        digit = i // stride % size
        return digit, _axis_interiors(u, axis, i - digit * stride)[digit]

    cur, i = x_star, space.index_of(x_star)
    steps: List[RefinementStep] = []
    for k, axis in enumerate(order):
        before = cur[axis]
        digit, least = interior(i, axis)
        target = space.factors[axis].point(least)
        i += (least - digit) * space.strides[axis]
        cur = cur[:axis] + (target,) + cur[axis + 1:]
        steps.append(RefinementStep(axis, before, target))
        if not u.scale.eq(u.value(cur), opt):
            raise InconsistencyError(f"{cur!r} left the argmax during refinement")
        if not space.leq(cur, x_star):
            raise InconsistencyError(f"{cur!r} is not dominated by the start {x_star!r}")
        for a in order[: k + 1]:
            digit, least = interior(i, a)
            if least != digit:
                raise InconsistencyError(f"coordinate {a} of {cur!r} is not axis-efficient")

    if not is_efficient_minimal(u, cur):
        raise InconsistencyError(f"refined point {cur!r} is not minimally efficient")
    checks = {"argmax": True, "dominated": True, "efficient": True}
    return RefinementTrace(x_star, tuple(steps), cur, tuple(order), checks)
