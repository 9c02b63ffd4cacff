"""Maximization over comprehensive sets and the efficient-refinement sweep.

On a finite comprehensive set a certified utility attains its maximum at the
largest efficient point inside the set, every maximizer dominates that point,
and some maximizer is simultaneously maximal in the set.  The refinement
sweep walks the axes of a product domain, replacing each coordinate of a
maximizer by its partial interior, and lands on an efficient maximizer below
the starting one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .efficiency import certified_partial, is_efficient_minimal
from .leontief import TabulatedUtility, UtilityError
from .oracle import Certificate, InconsistencyError
from .order import DownSet, Element, OrderError, ProductSpace, product_mask


class PreconditionError(UtilityError):
    """A stated precondition (e.g. the starting point maximizes) fails."""


@dataclass(frozen=True)
class ArgmaxResult:
    """Maximum value, all maximizers, and the distinguished points.

    ``largest_efficient`` is the largest efficient point inside the set; it
    is itself a maximizer and every maximizer dominates it.
    ``maximal_maximizer`` is a maximizer that is maximal in the set.
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


def argmax_over_downset(u: TabulatedUtility, S: DownSet) -> ArgmaxResult:
    """Maximize a certified utility over a nonempty comprehensive set.

    Returns the full maximizer set together with the largest efficient point
    of the set, which lower-bounds every maximizer.
    """
    members = S.sorted_members()
    if not members:
        raise OrderError("empty down-set")
    best = max(u.value(x) for x in members)
    maximizers = tuple(x for x in members if u.scale.eq(u.value(x), best))
    eff_in_s = [x for x in members if u.interior(x) == u._norm(x)]
    xbar = S.space.greatest(eff_in_s)
    if xbar is None:
        raise InconsistencyError(
            "no largest efficient point inside a nonempty finite comprehensive set"
        )
    return ArgmaxResult(best, maximizers, largest_efficient=xbar)


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


def maximal_argmax(
    u: TabulatedUtility, S: DownSet, res: Optional[ArgmaxResult] = None
) -> Element:
    """A point that is simultaneously maximal in S and a maximizer of u on S.

    ``res`` is ``argmax_over_downset(u, S)`` when the caller already has it.
    Existence is guaranteed on finite comprehensive sets; ties are broken by
    the string form of the element id for reproducibility.
    """
    poset = S.space
    if res is None:
        res = argmax_over_downset(u, S)
    out = [x for x in res.maximizers if not poset._sup[poset.index_of(x)] & S.mask]
    if not out:
        raise InconsistencyError("no maximizer is maximal in the down-set")
    return sorted(out, key=str)[0]


def check_argmax_localization(u: TabulatedUtility, S: DownSet) -> Certificate:
    """The finite localization identity on a comprehensive set S: for x^ the
    first member attaining max_S u exactly and d = u°(x^), (a) d lies in S,
    (b) d is the largest efficient point of S, and (c) argmax_S u = S ∩ up(d).
    A wrong interior entry at x^ fails (a) or (c); x^ and d are the witnesses."""
    poset = S.space
    if poset != u.poset:
        raise OrderError("down-set lives in a different poset")
    members = S.sorted_members()
    if not members:
        raise OrderError("empty down-set")
    best = max(u.value(x) for x in members)
    x_hat = next(x for x in members if u.value(x) == best)
    d = u.interior(x_hat)
    i = poset.index_of(d)
    efficient = poset._mask(x for x in members if u.interior(x) == x)
    a = bool(S.mask >> i & 1)
    b = bool(efficient >> i & 1) and efficient & ~poset._down[i] == 0
    c = S.mask & u.level_set(best).mask == S.mask & poset._up[i]
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
    point: Tuple

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

    @property
    def changed_axes(self) -> Tuple[int, ...]:
        return tuple(s.axis for s in self.steps if s.before != s.after)

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
    mask = factor_sets[0].mask
    for s in factor_sets[1:]:
        mask = product_mask(mask, s.mask, len(s.space))
    return DownSet(space.as_poset(), mask)


def efficient_refinement(
    u: TabulatedUtility,
    factor_sets: Sequence[DownSet],
    x_star: Sequence,
    *,
    order: Optional[Sequence[int]] = None,
) -> RefinementTrace:
    """Refine a maximizer over a product of comprehensive sets into an
    efficient maximizer below it.

    The sweep visits the axes in ``order`` (default ascending); at each step
    the current coordinate is replaced by the interior of the one-axis
    partial utility frozen at the rest of the current point.  Invariants are
    re-verified after every step: the point stays a maximizer, every visited
    coordinate stays axis-efficient inside its factor set, and the start
    dominates the point.  The final point is additionally checked to be
    minimally efficient; any violation raises InconsistencyError.
    """
    space = u.space
    if space is None:
        raise UtilityError("refinement needs a product-domain utility")
    n = space.n_axes
    S = product_downset(space, factor_sets)
    x_star = space._check_point(x_star)
    if x_star not in S:
        raise PreconditionError(f"start {x_star!r} is outside the feasible product")

    members = S.sorted_members()
    opt = max(u.value(x) for x in members)
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

    cur = x_star
    steps: List[RefinementStep] = []
    visited: List[int] = []
    for axis in order:
        before = cur[axis]
        rest = space.delete(cur, axis)
        partial = certified_partial(u, rest, axis)
        target = partial.utility.interior(before)
        cur = space.substitute(rest, axis, target)
        steps.append(RefinementStep(axis, before, target, cur))
        visited.append(axis)
        _verify_invariants(u, space, factor_sets, x_star, cur, visited, opt)

    if not is_efficient_minimal(u, cur):
        raise InconsistencyError(f"refined point {cur!r} is not minimally efficient")
    checks = {"argmax": True, "dominated": True, "efficient": True}
    return RefinementTrace(x_star, tuple(steps), cur, tuple(order), checks)


def _verify_invariants(
    u: TabulatedUtility,
    space: ProductSpace,
    factor_sets: Sequence[DownSet],
    x_star: Tuple,
    cur: Tuple,
    visited: Sequence[int],
    opt,
) -> None:
    if not u.scale.eq(u.value(cur), opt):
        raise InconsistencyError(f"{cur!r} left the argmax during refinement")
    if not space.leq(cur, x_star):
        raise InconsistencyError(f"{cur!r} is not dominated by the start {x_star!r}")
    for axis in visited:
        if cur[axis] not in factor_sets[axis]:
            raise InconsistencyError(f"coordinate {axis} of {cur!r} left its factor set")
        rest = space.delete(cur, axis)
        partial = certified_partial(u, rest, axis)
        if partial.utility.interior(cur[axis]) != cur[axis]:
            raise InconsistencyError(
                f"coordinate {axis} of {cur!r} is not axis-efficient"
            )
