"""Maximization over comprehensive sets and the efficient-refinement sweep.

On a finite comprehensive set a certified utility attains its maximum at the
largest efficient point inside the set, every maximizer dominates that point,
and some maximizer is simultaneously maximal in the set.  The refinement
sweep walks the axes of a product domain, replacing each coordinate of a
maximizer by its partial interior, and lands on an efficient maximizer below
the starting one.  ``argmax_members`` is the one walk over the members of a
comprehensive set; maximization, localization and refinement all read it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .efficiency import certified_partial, is_efficient_minimal
from .leontief import TabulatedUtility, UtilityError
from .oracle import Certificate, InconsistencyError
from .order import DownSet, Element, OrderError, ProductSpace, _bits, product_mask


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


def argmax_members(u: TabulatedUtility, S: DownSet) -> Tuple[Any, Tuple]:
    """The maximum of u over a nonempty comprehensive set and the members
    that attain it on ``u.scale``, in member order.

    Reads values only, so ``u`` need not be certified.
    """
    members = S.sorted_members()
    if not members:
        raise OrderError("empty down-set")
    values = [u.value(x) for x in members]
    best = max(values)
    return best, tuple(x for x, v in zip(members, values) if u.scale.eq(v, best))


def _largest_efficient(u: TabulatedUtility, S: DownSet) -> Optional[int]:
    """Index of the greatest member of S fixed by the interior map, or None."""
    poset = S.space
    efficient = poset._mask(x for x in S.sorted_members() if u.interior(x) == x)
    return next((i for i in _bits(efficient) if efficient & ~poset._down[i] == 0), None)


def argmax_over_downset(u: TabulatedUtility, S: DownSet) -> ArgmaxResult:
    """Maximize a certified utility over a nonempty comprehensive set.

    Returns the full maximizer set, the largest efficient point of the set,
    which lower-bounds every maximizer, and the maximizer that is maximal in
    the set (nothing else of S lies above it), ties broken by string form.
    """
    best, maximizers = argmax_members(u, S)
    poset = S.space
    k = _largest_efficient(u, S)
    if k is None:
        raise InconsistencyError("no largest efficient point inside a nonempty finite comprehensive set")
    tops = [poset.elements[i] for i in map(poset.index_of, maximizers)
            if S.mask & poset._up[i] == 1 << i]
    if not tops:
        raise InconsistencyError("no maximizer is maximal in the down-set")
    return ArgmaxResult(best, maximizers, poset.elements[k], min(tops, key=str))


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


def check_argmax_localization(u: TabulatedUtility, S: DownSet) -> Certificate:
    """The finite localization identity on a comprehensive set S: for x^ the
    first member attaining max_S u exactly and d = u°(x^), (a) d lies in S,
    (b) d is the largest efficient point of S, and (c) argmax_S u = S ∩ up(d).
    A wrong interior entry at x^ fails (a) or (c); x^ and d are the witnesses."""
    poset = S.space
    if poset != u.poset:
        raise OrderError("down-set lives in a different poset")
    best, maximizers = argmax_members(u, S)
    x_hat = next(x for x in maximizers if u.value(x) == best)
    d = u.interior(x_hat)
    i = poset.index_of(d)
    a = bool(S.mask >> i & 1)
    b = _largest_efficient(u, S) == i
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
    return DownSet(space, mask)


def efficient_refinement(
    u: TabulatedUtility,
    S: DownSet,
    x_star: Sequence,
    *,
    order: Optional[Sequence[int]] = None,
) -> RefinementTrace:
    """Refine a maximizer over a comprehensive set of a product domain (such
    as a ``product_downset``) into an efficient maximizer below it.

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

    opt, _ = argmax_members(u, S)
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
    for k, axis in enumerate(order):
        before = cur[axis]
        rest = space.delete(cur, axis)
        partial = certified_partial(u, rest, axis)
        target = partial.utility.interior(before)
        cur = space.substitute(rest, axis, target)
        steps.append(RefinementStep(axis, before, target))
        if not u.scale.eq(u.value(cur), opt):
            raise InconsistencyError(f"{cur!r} left the argmax during refinement")
        if not space.leq(cur, x_star):
            raise InconsistencyError(f"{cur!r} is not dominated by the start {x_star!r}")
        for a in order[: k + 1]:
            # the axis just refined keeps its rest, so its slice is reused
            p = partial if a == axis else certified_partial(u, space.delete(cur, a), a)
            if p.utility.interior(cur[a]) != cur[a]:
                raise InconsistencyError(f"coordinate {a} of {cur!r} is not axis-efficient")

    if not is_efficient_minimal(u, cur):
        raise InconsistencyError(f"refined point {cur!r} is not minimally efficient")
    checks = {"argmax": True, "dominated": True, "efficient": True}
    return RefinementTrace(x_star, tuple(steps), cur, tuple(order), checks)
