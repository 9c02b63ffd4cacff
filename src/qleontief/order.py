"""Finite partially ordered sets and the order primitives everything else runs on.

Elements are opaque hashable ids.  A poset stores the full relation as
per-element bitmasks over element indices, so comparability queries are O(1)
and subset sweeps (least, minimal, meet, ...) stay cheap at desk scale
(|X| up to a few thousand elements).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iproduct
from typing import Any, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

Element = Hashable


class OrderError(ValueError):
    """Invalid order-theoretic input: unknown element, bad relation, empty factor list."""


@dataclass(frozen=True)
class OrderReport:
    """Outcome of a partial-order axiom check.

    ``axiom`` is one of ``reflexivity``, ``antisymmetry``, ``transitivity``
    when the check fails; ``witness`` carries the offending pair or triple.
    """

    ok: bool
    axiom: Optional[str] = None
    witness: Tuple[Element, ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        if self.ok:
            return {"verdict": "pass"}
        return {"verdict": "fail", "axiom": self.axiom, "witness": list(self.witness)}


def check_partial_order(
    elements: Sequence[Element], pairs: Iterable[Tuple[Element, Element]]
) -> OrderReport:
    """Check reflexivity, antisymmetry and transitivity of a finite relation.

    Returns a passing report or the first violated axiom with a witness
    pair/triple.  Axioms are checked in the order listed above.
    """
    els = list(elements)
    index = {e: i for i, e in enumerate(els)}
    if len(index) != len(els):
        raise OrderError("duplicate elements in ground set")
    rel = set()
    succ: Dict[Element, List[Element]] = {e: [] for e in els}
    for a, b in pairs:
        if a not in index or b not in index:
            raise OrderError(f"relation mentions unknown element {a!r} or {b!r}")
        if (a, b) not in rel:
            rel.add((a, b))
            succ[a].append(b)
    for a in els:
        if (a, a) not in rel:
            return OrderReport(False, "reflexivity", (a,))
    for a in els:
        for b in succ[a]:
            if a is not b and a != b and (b, a) in rel:
                return OrderReport(False, "antisymmetry", (a, b))
    for a in els:
        for b in succ[a]:
            for c in succ[b]:
                if (a, c) not in rel:
                    return OrderReport(False, "transitivity", (a, b, c))
    return OrderReport(True)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset:
    """A finite poset with a certified relation.

    Use the classmethod constructors; they validate the order axioms
    (``from_leq``) or build the reflexive-transitive closure and reject
    cycles (``from_covers``).
    """

    __slots__ = ("elements", "_index", "_up", "_down", "_sup", "_sdown", "_meet_total")

    def __init__(self, elements: Sequence[Element], up_masks: Sequence[int]):
        self.elements: Tuple[Element, ...] = tuple(elements)
        self._index: Dict[Element, int] = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise OrderError("duplicate elements in ground set")
        self._up: List[int] = list(up_masks)
        n = len(self.elements)
        down = [0] * n
        for i in range(n):
            for j in _bits(self._up[i]):
                down[j] |= 1 << i
        self._down: List[int] = down
        self._sup: List[int] = [self._up[i] & ~(1 << i) for i in range(n)]
        self._sdown: List[int] = [self._down[i] & ~(1 << i) for i in range(n)]
        self._meet_total: Optional[bool] = None

    # -- construction ----------------------------------------------------

    @classmethod
    def from_leq(
        cls, elements: Sequence[Element], pairs: Iterable[Tuple[Element, Element]]
    ) -> "FinitePoset":
        """Build from the full relation; raises OrderError if an axiom fails."""
        pairs = list(pairs)
        report = check_partial_order(elements, pairs)
        if not report.ok:
            raise OrderError(f"{report.axiom} violated, witness {report.witness!r}")
        index = {e: i for i, e in enumerate(elements)}
        masks = [0] * len(index)
        for a, b in pairs:
            masks[index[a]] |= 1 << index[b]
        return cls(elements, masks)

    @classmethod
    def from_covers(
        cls, elements: Sequence[Element], covers: Iterable[Tuple[Element, Element]]
    ) -> "FinitePoset":
        """Build the reflexive-transitive closure of cover pairs (a covered-by b)."""
        els = list(elements)
        index = {e: i for i, e in enumerate(els)}
        if len(index) != len(els):
            raise OrderError("duplicate elements in ground set")
        n = len(els)
        up = [1 << i for i in range(n)]
        for a, b in covers:
            if a not in index or b not in index:
                raise OrderError(f"cover mentions unknown element {a!r} or {b!r}")
            up[index[a]] |= 1 << index[b]
        for k in range(n):
            kbit = 1 << k
            upk = up[k]
            for i in range(n):
                if up[i] & kbit:
                    up[i] |= upk
        for i in range(n):
            for j in _bits(up[i] & ~(1 << i)):
                if up[j] & (1 << i):
                    raise OrderError(
                        f"antisymmetry violated, witness ({els[i]!r}, {els[j]!r})"
                    )
        return cls(els, up)

    @classmethod
    def chain(cls, values: Sequence[Element]) -> "FinitePoset":
        """Totally ordered poset; ``values`` are listed in ascending order."""
        vals = list(values)
        n = len(vals)
        masks = [((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)]
        return cls(vals, masks)

    @classmethod
    def antichain(cls, values: Sequence[Element]) -> "FinitePoset":
        vals = list(values)
        return cls(vals, [1 << i for i in range(len(vals))])

    def induced(self, subset: Iterable[Element]) -> "FinitePoset":
        """Sub-poset on ``subset`` with the restricted order."""
        keep = self._mask(subset)
        idxs = list(_bits(keep))
        remap = {old: new for new, old in enumerate(idxs)}
        els = [self.elements[i] for i in idxs]
        masks = []
        for i in idxs:
            m = 0
            for j in _bits(self._up[i] & keep):
                m |= 1 << remap[j]
            masks.append(m)
        return FinitePoset(els, masks)

    # -- basics -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __contains__(self, x: Element) -> bool:
        return x in self._index

    def __repr__(self) -> str:
        return f"FinitePoset({len(self.elements)} elements)"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FinitePoset)
            and self.elements == other.elements
            and self._up == other._up
        )

    def __hash__(self) -> int:
        return hash((self.elements, tuple(self._up)))

    def index_of(self, x: Element) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise OrderError(f"unknown element {x!r}") from None

    def _mask(self, subset: Iterable[Element]) -> int:
        m = 0
        for x in subset:
            m |= 1 << self.index_of(x)
        return m

    def _unmask(self, mask: int) -> Tuple[Element, ...]:
        return tuple(self.elements[i] for i in _bits(mask))

    def leq(self, x: Element, y: Element) -> bool:
        return bool(self._up[self.index_of(x)] >> self.index_of(y) & 1)

    def lt(self, x: Element, y: Element) -> bool:
        return x != y and self.leq(x, y)

    def comparable(self, x: Element, y: Element) -> bool:
        return self.leq(x, y) or self.leq(y, x)

    # -- up/down sets ------------------------------------------------------

    def up_set(self, x: Element) -> FrozenSet[Element]:
        """All elements above x (inclusive)."""
        return frozenset(self._unmask(self._up[self.index_of(x)]))

    def down_set(self, x: Element) -> FrozenSet[Element]:
        """All elements below x (inclusive)."""
        return frozenset(self._unmask(self._down[self.index_of(x)]))

    def up_closure(self, subset: Iterable[Element]) -> FrozenSet[Element]:
        m = 0
        for x in subset:
            m |= self._up[self.index_of(x)]
        return frozenset(self._unmask(m))

    def down_closure(self, subset: Iterable[Element]) -> FrozenSet[Element]:
        m = 0
        for x in subset:
            m |= self._down[self.index_of(x)]
        return frozenset(self._unmask(m))

    def comprehensive_closure(self, subset: Iterable[Element]) -> FrozenSet[Element]:
        return self.down_closure(subset)

    def is_comprehensive(self, subset: Iterable[Element]) -> bool:
        sub = frozenset(subset)
        return self.down_closure(sub) == sub

    def interval(self, lo: Element, hi: Element) -> FrozenSet[Element]:
        """The set of x with lo <= x <= hi; empty when lo and hi are not so ordered."""
        m = self._up[self.index_of(lo)] & self._down[self.index_of(hi)]
        return frozenset(self._unmask(m))

    # -- extrema -----------------------------------------------------------

    def least(self, subset: Iterable[Element]) -> Optional[Element]:
        """The unique member below all of ``subset``, or None."""
        m = self._mask(subset)
        if m == 0:
            return None
        for i in _bits(m):
            if m & ~self._up[i] == 0:
                return self.elements[i]
        return None

    def greatest(self, subset: Iterable[Element]) -> Optional[Element]:
        m = self._mask(subset)
        if m == 0:
            return None
        for i in _bits(m):
            if m & ~self._down[i] == 0:
                return self.elements[i]
        return None

    def minimal(self, subset: Iterable[Element]) -> Tuple[Element, ...]:
        """Minimal members of ``subset``, in element order; empty only for empty input."""
        m = self._mask(subset)
        return tuple(self.elements[i] for i in _bits(m) if m & self._sdown[i] == 0)

    def maximal(self, subset: Iterable[Element]) -> Tuple[Element, ...]:
        m = self._mask(subset)
        return tuple(self.elements[i] for i in _bits(m) if m & self._sup[i] == 0)

    def bottom(self) -> Optional[Element]:
        return self.least(self.elements)

    def top(self) -> Optional[Element]:
        return self.greatest(self.elements)

    # -- meets and joins -----------------------------------------------------

    def meet(self, x: Element, y: Element) -> Optional[Element]:
        """Greatest lower bound of {x, y}, or None when it does not exist."""
        lows = self._down[self.index_of(x)] & self._down[self.index_of(y)]
        if lows == 0:
            return None
        for i in _bits(lows):
            if lows & ~self._down[i] == 0:
                return self.elements[i]
        return None

    def join(self, x: Element, y: Element) -> Optional[Element]:
        ups = self._up[self.index_of(x)] & self._up[self.index_of(y)]
        if ups == 0:
            return None
        for i in _bits(ups):
            if ups & ~self._up[i] == 0:
                return self.elements[i]
        return None

    def is_inf_semilattice(self) -> bool:
        """True iff every pair has a meet."""
        if self._meet_total is None:
            self._meet_total = all(
                self.meet(x, y) is not None
                for i, x in enumerate(self.elements)
                for y in self.elements[i + 1 :]
            )
        return self._meet_total

    # -- chains and filtering ------------------------------------------------

    def is_chain(self, subset: Iterable[Element]) -> bool:
        """True iff all pairs in ``subset`` are comparable; the empty set counts."""
        m = self._mask(subset)
        for i in _bits(m):
            if m & ~(self._up[i] | self._down[i]):
                return False
        return True

    def is_filtered(self) -> bool:
        """True iff every pair of elements has a common lower bound."""
        n = len(self.elements)
        for i in range(n):
            di = self._down[i]
            for j in range(i + 1, n):
                if di & self._down[j] == 0:
                    return False
        return True

    def linear_extension(self) -> Tuple[Element, ...]:
        """Elements in an order-compatible sequence (below comes before above)."""
        order = sorted(range(len(self.elements)), key=lambda i: (self._down[i].bit_count(), i))
        return tuple(self.elements[i] for i in order)


class ProductSpace:
    """Finite product of posets with the coordinatewise order.

    Points are tuples of factor elements.  ``delete`` and ``substitute``
    implement the one-axis calculus used for partial utilities.
    """

    def __init__(self, factors: Sequence[FinitePoset]):
        if not factors:
            raise OrderError("empty factor list")
        self.factors: Tuple[FinitePoset, ...] = tuple(factors)
        self._poset: Optional[FinitePoset] = None

    @property
    def n_axes(self) -> int:
        return len(self.factors)

    def size(self) -> int:
        n = 1
        for f in self.factors:
            n *= len(f)
        return n

    def points(self) -> Iterator[Tuple[Element, ...]]:
        return _iproduct(*(f.elements for f in self.factors))

    def contains(self, x: Sequence[Element]) -> bool:
        return len(x) == len(self.factors) and all(
            c in f for c, f in zip(x, self.factors)
        )

    def _check_point(self, x: Sequence[Element]) -> Tuple[Element, ...]:
        x = tuple(x)
        if len(x) != len(self.factors):
            raise OrderError(f"point {x!r} has wrong arity for {len(self.factors)} factors")
        for c, f in zip(x, self.factors):
            f.index_of(c)
        return x

    def leq(self, x: Sequence[Element], y: Sequence[Element]) -> bool:
        x, y = self._check_point(x), self._check_point(y)
        return all(f.leq(a, b) for f, a, b in zip(self.factors, x, y))

    def delete(self, x: Sequence[Element], axis: int) -> Tuple[Element, ...]:
        """Drop coordinate ``axis`` (0-based) from the point."""
        x = self._check_point(x)
        self._check_axis(axis)
        return x[:axis] + x[axis + 1 :]

    def substitute(
        self, rest: Sequence[Element], axis: int, value: Element
    ) -> Tuple[Element, ...]:
        """Re-insert ``value`` at coordinate ``axis`` into a deleted tuple."""
        self._check_axis(axis)
        rest = tuple(rest)
        if len(rest) != len(self.factors) - 1:
            raise OrderError(f"deleted tuple {rest!r} has wrong arity")
        return rest[:axis] + (value,) + rest[axis:]

    def _check_axis(self, axis: int) -> None:
        if not 0 <= axis < len(self.factors):
            raise OrderError(f"axis {axis} out of range for {len(self.factors)} factors")

    def as_poset(self) -> FinitePoset:
        """Explicit FinitePoset on all product points (cached).

        Masks are folded factor by factor: with points enumerated last factor
        fastest, the up-mask of (prefix, c) is the union of the factor's
        up-mask shifted to every prefix position above the current one.
        """
        if self._poset is None:
            masks = list(self.factors[0]._up)
            for f in self.factors[1:]:
                n = len(f)
                folded = []
                for prefix_mask in masks:
                    for j in range(n):
                        mj = f._up[j]
                        m = 0
                        rest = prefix_mask
                        while rest:
                            low = rest & -rest
                            m |= mj << ((low.bit_length() - 1) * n)
                            rest ^= low
                        folded.append(m)
                masks = folded
            self._poset = FinitePoset(list(self.points()), masks)
        return self._poset

    def __repr__(self) -> str:
        return f"ProductSpace({'x'.join(str(len(f)) for f in self.factors)})"


def grid_space(*ranges: Sequence[Element]) -> ProductSpace:
    """Product of chains; each range is listed in ascending order."""
    return ProductSpace([FinitePoset.chain(r) for r in ranges])


def integer_grid(n_axes: int, lo: int = 0, hi: int = 3) -> ProductSpace:
    return grid_space(*(range(lo, hi + 1) for _ in range(n_axes)))


class DownSet:
    """A comprehensive (downward closed) subset of a poset or product space.

    Explicit mode validates downward closure; generated mode takes the
    downward closure of finitely many generators.
    """

    def __init__(self, space, members: FrozenSet, generators: Optional[Tuple] = None):
        self.space = space
        self._members = frozenset(members)
        self.generators = generators
        self._sorted: Optional[Tuple] = None

    @property
    def mode(self) -> str:
        return "generated" if self.generators is not None else "explicit"

    @classmethod
    def from_members(cls, space, members: Iterable) -> "DownSet":
        members = frozenset(members)
        if isinstance(space, FinitePoset):
            closure = space.down_closure(members)
            if closure != members:
                bad = sorted(closure - members, key=space.index_of)[0]
                raise OrderError(f"not comprehensive: {bad!r} is below a member but missing")
        else:
            members_t = {space._check_point(m) for m in members}
            for m in members_t:
                for p in space.points():
                    if space.leq(p, m) and p not in members_t:
                        raise OrderError(
                            f"not comprehensive: {p!r} is below {m!r} but missing"
                        )
            members = frozenset(members_t)
        return cls(space, members)

    @classmethod
    def from_generators(cls, space, generators: Iterable) -> "DownSet":
        gens = tuple(generators)
        if isinstance(space, FinitePoset):
            members = space.down_closure(gens)
        else:
            gens = tuple(space._check_point(g) for g in gens)
            members = frozenset(
                p for p in space.points() if any(space.leq(p, g) for g in gens)
            )
        return cls(space, members, gens)

    def members(self) -> FrozenSet:
        return self._members

    def sorted_members(self) -> Tuple:
        """Members in the ambient enumeration order (deterministic)."""
        if self._sorted is None:
            if isinstance(self.space, FinitePoset):
                self._sorted = tuple(
                    sorted(self._members, key=self.space.index_of)
                )
            else:
                key = {p: i for i, p in enumerate(self.space.points())}
                self._sorted = tuple(sorted(self._members, key=key.__getitem__))
        return self._sorted

    def contains(self, x) -> bool:
        if isinstance(self.space, ProductSpace):
            x = tuple(x)
        return x in self._members

    def __contains__(self, x) -> bool:
        return self.contains(x)

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator:
        return iter(self.sorted_members())


class Scale:
    """Comparison policy for the totally ordered value scale.

    Exact mode compares rationals directly; tolerant mode treats values
    within ``tolerance`` of each other as equal.  Tolerant comparisons are
    only transitive when the compared values keep gaps clear of the
    tolerance band; fixtures are built that way.
    """

    __slots__ = ("kind", "tolerance")

    def __init__(self, kind: str = "exact", tolerance: Any = 0):
        if kind not in ("exact", "tolerant"):
            raise ValueError(f"unknown scale kind {kind!r}")
        if tolerance < 0:
            raise ValueError("tolerance must be nonnegative")
        self.kind = kind
        self.tolerance = tolerance

    def eq(self, a, b) -> bool:
        if self.kind == "exact":
            return a == b
        return abs(a - b) <= self.tolerance

    def le(self, a, b) -> bool:
        if self.kind == "exact":
            return a <= b
        return a <= b + self.tolerance

    def lt(self, a, b) -> bool:
        return not self.le(b, a)

    def ge(self, a, b) -> bool:
        return self.le(b, a)

    def __repr__(self) -> str:
        if self.kind == "exact":
            return "Scale(exact)"
        return f"Scale(tolerant, {self.tolerance})"


EXACT = Scale("exact")


def tolerant(tolerance: float = 1e-9) -> Scale:
    return Scale("tolerant", tolerance)
