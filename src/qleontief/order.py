"""Finite partially ordered sets and the order primitives everything else runs on.

Elements are opaque hashable ids.  A poset stores the full relation as
per-element bitmasks over element indices, so comparability queries are O(1)
and least, minimal and maximal elements of a subset are one mask test per
member.  A meet is a constant number of big-int operations: along a linear
extension the meet of x and y, when it exists, is the highest-numbered common
lower bound (see ``FinitePoset._meet_index``).  A plain poset decides
``is_inf_semilattice`` one pair at a time and makes its upper meet rows
(``meet_rows``) one row at a time.

A ``ProductSpace`` is the product poset itself; it builds its tables only when
a query needs them, factor by factor: the up-set (down-set) of a product point
is the product of the factor up-sets (down-sets), and a product of two masks
is one carry-free big-int multiply (``product_mask``).  Meets are taken
coordinatewise, so a product is an inf-semilattice iff every factor is, and
its meet rows are mixed-radix combinations of the factor meets; neither reads
the product's own tables, and no meet table of more than N entries is held.
No domain larger than ``MAX_POINTS`` is enumerated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iproduct
from typing import Any, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

Element = Hashable


def elem_key(e) -> str:
    """Canonical string key for one element: the keys of the coordinates
    comma-joined for a product point (a tuple or a list), else the string form."""
    if isinstance(e, (tuple, list)):
        return ",".join(elem_key(c) for c in e)
    return str(e)


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


MAX_POINTS = 2 ** 16
"""The most points a grid or product may have (16^4), refused before
enumeration.  Memory sets the limit, not time: each point of a built poset
carries two N-bit masks, N^2/4 bytes in all (about 1 GB at 16^4), while the
factor-wise fold that builds them runs in well under a second at 10^4."""


def check_size(n: int) -> int:
    """``n``, a domain's point count, if it is at most ``MAX_POINTS``."""
    if n > MAX_POINTS:
        raise OrderError(f"domain has {n} points, over the limit of {MAX_POINTS}")
    return n


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cycle_witness(els: Sequence[Element], succ: Sequence[Sequence[int]]) -> Tuple[Element, Element]:
    """The lowest-index element x on a cycle of the cover lists ``succ``, and
    the lowest-index y != x on a cycle through x: reachability is iterated to
    a fixed point, which is slow but runs only when a cycle is known."""
    n = len(els)
    up = [1 << i for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            m = up[i]
            for j in succ[i]:
                m |= up[j]
            if m != up[i]:
                up[i] = m
                changed = True
    for i in range(n):
        for j in _bits(up[i] & ~(1 << i)):
            if up[j] >> i & 1:
                return els[i], els[j]


class FinitePoset:
    """A finite poset with a certified relation.

    Use the classmethod constructors; they validate the order axioms
    (``from_leq``) or build the reflexive-transitive closure and reject
    cycles (``from_covers``).
    """

    __slots__ = (
        "elements", "_index", "_up", "_down", "_meet_total", "_meet_frame", "_names",
    )

    def __init__(
        self,
        elements: Sequence[Element],
        up_masks: Sequence[int],
        _down_masks: Optional[Sequence[int]] = None,
    ):
        # ``_down_masks`` is for constructors that already hold the transpose
        # of ``up_masks``; every other caller gets it computed bit by bit
        self.elements: Tuple[Element, ...] = tuple(elements)
        self._index: Dict[Element, int] = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise OrderError("duplicate elements in ground set")
        if None in self._index:
            raise OrderError("None is not an element: it stands for no element")
        self._up: List[int] = list(up_masks)
        if _down_masks is None:
            down = [0] * len(self.elements)
            for i, up in enumerate(self._up):
                for j in _bits(up):
                    down[j] |= 1 << i
        else:
            down = list(_down_masks)
        self._down: List[int] = down
        self._meet_total: Optional[bool] = None
        self._meet_frame: Optional[Tuple[List[int], Optional[List[int]]]] = None
        self._names: Optional[Dict[str, List[Element]]] = None

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
        """Build the reflexive-transitive closure of cover pairs (a covered-by b).

        One topological pass (Kahn's algorithm; a pair (a, a) is ignored)
        closes both tables: along the order reversed, an element's up-set is
        its own bit OR the up-sets of its covers; forwards, the down-sets
        flow the same way.  When the pass cannot order every element there is
        a cycle, and the witness is its lowest-index element with the
        lowest-index other element on a cycle through it.
        """
        els = list(elements)
        index = {e: i for i, e in enumerate(els)}
        if len(index) != len(els):
            raise OrderError("duplicate elements in ground set")
        n = len(els)
        succ: List[List[int]] = [[] for _ in range(n)]
        indegree = [0] * n
        for a, b in covers:
            if a not in index or b not in index:
                raise OrderError(f"cover mentions unknown element {a!r} or {b!r}")
            i, j = index[a], index[b]
            if i != j:
                succ[i].append(j)
                indegree[j] += 1
        order = [i for i in range(n) if not indegree[i]]
        for i in order:  # grows while it is read
            for j in succ[i]:
                indegree[j] -= 1
                if not indegree[j]:
                    order.append(j)
        if len(order) < n:
            a, b = _cycle_witness(els, succ)
            raise OrderError(f"antisymmetry violated, witness ({a!r}, {b!r})")
        up = [1 << i for i in range(n)]
        down = up[:]
        for i in reversed(order):
            for j in succ[i]:
                up[i] |= up[j]
        for i in order:
            for j in succ[i]:
                down[j] |= down[i]
        return cls(els, up, down)

    @classmethod
    def chain(cls, values: Sequence[Element]) -> "FinitePoset":
        """Totally ordered poset; ``values`` are listed in ascending order."""
        vals = list(values)
        n = len(vals)
        masks = [((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)]
        return cls(vals, masks, [(2 << i) - 1 for i in range(n)])

    @classmethod
    def antichain(cls, values: Sequence[Element]) -> "FinitePoset":
        vals = list(values)
        masks = [1 << i for i in range(len(vals))]
        return cls(vals, masks, masks)

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

    def _by_key(self) -> Dict[str, List[Element]]:
        """Elements grouped by ``elem_key``, in element order (cached)."""
        if self._names is None:
            names: Dict[str, List[Element]] = {}
            for e in self.elements:
                names.setdefault(elem_key(e), []).append(e)
            self._names = names
        return self._names

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

    def _down_mask(self, subset: Iterable[Element]) -> int:
        m = 0
        for x in subset:
            m |= self._down[self.index_of(x)]
        return m

    def down_closure(self, subset: Iterable[Element]) -> FrozenSet[Element]:
        return frozenset(self._unmask(self._down_mask(subset)))

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
        return tuple(self.elements[i] for i in _bits(m) if m & self._down[i] == 1 << i)

    def maximal(self, subset: Iterable[Element]) -> Tuple[Element, ...]:
        m = self._mask(subset)
        return tuple(self.elements[i] for i in _bits(m) if m & self._up[i] == 1 << i)

    def bottom(self) -> Optional[Element]:
        return self.least(self.elements)

    def top(self) -> Optional[Element]:
        return self.greatest(self.elements)

    # -- meets and joins -----------------------------------------------------

    def _meet_masks(self) -> Tuple[List[int], Optional[List[int]]]:
        """Down masks renumbered along a linear extension (cached).

        Returns ``(down, order)``: ``down[i]`` is the down-set of element i
        with each member j at bit ``label[j]``, and ``order[label]`` is the
        element index of a label.  When the index order already is a linear
        extension (no element has a larger index below it) the labels are the
        indices, ``down`` is ``_down`` and ``order`` is None.
        """
        if self._meet_frame is None:
            down = self._down
            if all(d >> (i + 1) == 0 for i, d in enumerate(down)):
                self._meet_frame = (down, None)
            else:
                order = self._extension_order()
                label = [0] * len(order)
                for k, i in enumerate(order):
                    label[i] = k
                renumbered = []
                for d in down:
                    m = 0
                    for j in _bits(d):
                        m |= 1 << label[j]
                    renumbered.append(m)
                self._meet_frame = (renumbered, order)
        return self._meet_frame

    def _meet_index(self, i: int, j: int) -> Optional[int]:
        """Element index of the meet of elements i and j, or None.

        Along a linear extension every element below m carries a smaller label
        than m.  So the meet, when it exists, is the common lower bound with the
        highest label, and that candidate is the meet iff every common lower
        bound lies below it.
        """
        down, order = self._meet_masks()
        lows = down[i] & down[j]
        if not lows:
            return None
        m = lows.bit_length() - 1
        if order is not None:
            m = order[m]
        return m if lows & ~down[m] == 0 else None

    def meet(self, x: Element, y: Element) -> Optional[Element]:
        """Greatest lower bound of {x, y}, or None when it does not exist."""
        m = self._meet_index(self.index_of(x), self.index_of(y))
        return None if m is None else self.elements[m]

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
            n = len(self.elements)
            meet = self._meet_index
            self._meet_total = all(
                meet(i, j) is not None for i in range(n) for j in range(i + 1, n)
            )
        return self._meet_total

    def meet_rows(self) -> Iterator[List[Optional[int]]]:
        """The upper meet rows in index order, made one at a time: row i lists
        the element index of meet(i, j) for every j >= i, or None where there
        is no meet."""
        n = len(self.elements)
        meet = self._meet_index
        for i in range(n):
            yield [meet(i, j) for j in range(i, n)]

    def _meet_table(self) -> List[List[Optional[int]]]:
        """``_meet_index(i, j)`` for every i and j, one call per unordered pair."""
        n = len(self.elements)
        meet = self._meet_index
        table: List[List[Optional[int]]] = [[None] * n for _ in range(n)]
        for i in range(n):
            row = table[i]
            for j in range(i, n):
                row[j] = table[j][i] = meet(i, j)
        return table

    # -- chains and filtering ------------------------------------------------

    def is_chain(self, subset: Iterable[Element]) -> bool:
        """True iff all pairs in ``subset`` are comparable; the empty set counts."""
        m = self._mask(subset)
        for i in _bits(m):
            if m & ~(self._up[i] | self._down[i]):
                return False
        return True

    def is_filtered(self) -> bool:
        """True iff every pair of elements has a common lower bound.

        A finite poset is downward directed iff it has a least element (a
        common lower bound of all elements, found pair by pair), so this is
        one scan for the bottom; the empty poset counts as filtered.
        """
        return len(self) == 0 or self.bottom() is not None

    def linear_extension(self) -> Tuple[Element, ...]:
        """Elements in an order-compatible sequence (below comes before above)."""
        return tuple(self.elements[i] for i in self._extension_order())

    def _extension_order(self) -> List[int]:
        # a strictly smaller element has a strictly smaller down-set
        return sorted(range(len(self.elements)), key=lambda i: (self._down[i].bit_count(), i))


class ProductSpace(FinitePoset):
    """Finite product of posets with the coordinatewise order; itself the
    poset on all product points.

    Points are tuples of factor elements, enumerated with the last coordinate
    fastest.  ``factors``, ``len``, ``points``, ``leq``, equality, hashing and
    the one-axis calculus ``delete``/``substitute`` used for partial utilities
    are answered factor by factor; a product equals only another product.
    Every other ``FinitePoset`` query reads the element tuple and the mask
    tables, which ``as_poset`` builds once, on first use.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[FinitePoset]):
        if not factors:
            raise OrderError("empty factor list")
        self.factors: Tuple[FinitePoset, ...] = tuple(factors)
        self.__class__ = _UnbuiltProduct

    def as_poset(self) -> "ProductSpace":
        """The product itself, with its element tuple and mask tables built
        on first use.

        Both tables are folded factor by factor, so nothing is transposed:
        the up-set of (prefix, c) is up(prefix) x up(c) and its down-set is
        down(prefix) x down(c).  Each prefix row is spread once (see
        ``product_mask``) and multiplied by every row of the next factor.
        """
        if isinstance(self, _UnbuiltProduct):
            points = list(self.points())
            up, down = self.factors[0]._up, self.factors[0]._down
            for f in self.factors[1:]:
                up, down = _fold(up, f._up, len(f)), _fold(down, f._down, len(f))
            super().__init__(points, up, down)
            self.__class__ = ProductSpace
        return self

    @property
    def n_axes(self) -> int:
        return len(self.factors)

    def is_inf_semilattice(self) -> bool:
        """True iff every factor is an inf-semilattice (an empty product is one)."""
        return len(self) == 0 or all(f.is_inf_semilattice() for f in self.factors)

    def _leaves(self) -> List[FinitePoset]:
        """The plain factors, those of a nested product in its place; a point's
        index is the same mixed-radix number over these."""
        return [g for f in self.factors
                for g in (f._leaves() if isinstance(f, ProductSpace) else [f])]

    def meet_rows(self) -> Iterator[List[Optional[int]]]:
        """The upper meet rows in index order, made one at a time: row i lists
        the element index of meet(i, j) for every j >= i, or None where there
        is no meet.  They are combined in mixed radix from the factor meets,
        last coordinate fastest (see ``_meet_rows``); the product's own
        tables are not read."""
        return _meet_rows(self._leaves(), len(self))

    def __len__(self) -> int:
        return math.prod(len(f) for f in self.factors)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProductSpace) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def points(self) -> Iterator[Tuple[Element, ...]]:
        check_size(len(self))
        return _iproduct(*(f.elements for f in self.factors))

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

    def _strides(self) -> List[int]:
        """The index step of each axis: point i has digit i // stride % len(f)
        on the axis of factor f, the last coordinate running fastest."""
        strides = [1] * len(self.factors)
        for k in range(len(self.factors) - 1, 0, -1):
            strides[k - 1] = strides[k] * len(self.factors[k])
        return strides

    def _check_axis(self, axis: int) -> None:
        if not 0 <= axis < len(self.factors):
            raise OrderError(f"axis {axis} out of range for {len(self.factors)} factors")

    def __repr__(self) -> str:
        return f"ProductSpace({'x'.join(str(len(f)) for f in self.factors)})"


class _UnbuiltProduct(ProductSpace):
    """A ``ProductSpace`` whose tables are not built yet.  Reading one builds
    them and makes the object a plain ``ProductSpace``: with ``__getattr__`` on
    its class every attribute read is slower, and the certifiers read the
    tables once per element or pair."""

    __slots__ = ()

    def __getattr__(self, name: str):
        # reached only for an unset slot
        if name in FinitePoset.__slots__:
            return getattr(self.as_poset(), name)
        raise AttributeError(f"'ProductSpace' object has no attribute {name!r}")


def _meet_rows(leaves: Sequence[FinitePoset], size: int) -> Iterator[List[Optional[int]]]:
    """Upper meet rows of the product of ``leaves``: the meet of two points is
    the point of the factor meets, None when one is missing.

    With the last leaf of n elements and point i = a*n + b, the points j >= i
    are (a, d) for d >= b and (c, d) for c > a and every d, so row i reads the
    upper row of a in the product of the other leaves and the full meet row
    of b in the last leaf.  The first leaf gives its upper rows once each; a
    later leaf gives its full rows once per point of the leaves before it.  Its
    table is held only while it has at most ``size`` entries, and otherwise its
    rows are made again each time, so no held table outgrows the product.
    """
    *outer, last = leaves
    if not outer:
        yield from last.meet_rows()
        return
    n = len(last)
    table = last._meet_table() if n * n <= size else None
    meet = last._meet_index
    for a, up in enumerate(_meet_rows(outer, size)):
        base, rest = a * n, up[1:]
        rest_base = None if None in rest else [c * n for c in rest]
        rows = table if table is not None else ([meet(k, d) for d in range(n)] for k in range(n))
        for b, full in enumerate(rows):
            if rest_base is not None and None not in full:
                row = [base + m for m in full[b:]]
                row += [c + m for c in rest_base for m in full]
            else:
                row = [None if m is None else base + m for m in full[b:]]
                row += [None if c is None or m is None else c * n + m for c in rest for m in full]
            yield row


def _spread(outer: int, n: int) -> int:
    """``outer`` with bit p moved to bit p*n."""
    return int(("0" * (n - 1)).join(bin(outer)[2:]), 2)


def product_mask(outer: int, inner: int, n_inner: int) -> int:
    """Mask of the product of two subsets, ``outer`` over a poset P and
    ``inner`` over a poset Q of ``n_inner`` elements, indexed over P x Q with
    the Q coordinate fastest (the order of ``ProductSpace.points``).

    Point (p, q) has index p*n_inner + q, so the mask is the sum of
    ``inner << p*n_inner`` over the members p of ``outer``: one multiply of
    the spread ``outer`` by ``inner``.  It never carries, since
    ``inner < 2**n_inner`` and each copy fills its own n_inner-bit block.
    """
    return _spread(outer, n_inner) * inner


def _fold(rows: Sequence[int], factor_rows: Sequence[int], n: int) -> List[int]:
    """``product_mask(r, m, n)`` for every row r, then every factor row m."""
    return [s * m for r in rows for s in [_spread(r, n)] for m in factor_rows]


def grid_space(*ranges: Sequence[Element]) -> ProductSpace:
    """Product of chains; each range is listed in ascending order."""
    return ProductSpace([FinitePoset.chain(r) for r in ranges])


def integer_grid(n_axes: int, lo: int = 0, hi: int = 3) -> ProductSpace:
    return grid_space(*(range(lo, hi + 1) for _ in range(n_axes)))


def _point(x):
    # product points may arrive as lists
    return tuple(x) if isinstance(x, list) else x


class DownSet:
    """A comprehensive (downward closed) subset of a finite poset.

    ``mask`` marks the members by element index of ``space``, a
    ``FinitePoset`` or a ``ProductSpace``.  Explicit mode validates downward
    closure; generated mode takes the downward closure of finitely many
    generators.
    """

    def __init__(self, space: FinitePoset, mask: int, generators: Optional[Tuple] = None):
        self.space = space
        self.mask = mask
        self.generators = generators
        self._sorted: Optional[Tuple] = None

    @property
    def mode(self) -> str:
        return "generated" if self.generators is not None else "explicit"

    @classmethod
    def from_members(cls, space: FinitePoset, members: Iterable) -> "DownSet":
        members = tuple(map(_point, members))
        mask = space._mask(members)
        missing = space._down_mask(members) & ~mask
        if missing:
            bad = space.elements[(missing & -missing).bit_length() - 1]
            raise OrderError(f"not comprehensive: {bad!r} is below a member but missing")
        return cls(space, mask)

    @classmethod
    def from_generators(cls, space: FinitePoset, generators: Iterable) -> "DownSet":
        gens = tuple(map(_point, generators))
        return cls(space, space._down_mask(gens), gens)

    def members(self) -> FrozenSet:
        return frozenset(self.sorted_members())

    def sorted_members(self) -> Tuple:
        """Members in the ambient enumeration order (deterministic)."""
        if self._sorted is None:
            self._sorted = self.space._unmask(self.mask)
        return self._sorted

    def contains(self, x) -> bool:
        i = self.space._index.get(_point(x))
        return i is not None and bool(self.mask >> i & 1)

    def __contains__(self, x) -> bool:
        return self.contains(x)

    def __len__(self) -> int:
        return self.mask.bit_count()

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
        if not tolerance >= 0:
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
