"""Finite partially ordered sets and the order primitives everything else runs on.

Elements are opaque hashable ids.  A poset stores the full relation as
per-element bitmasks over element indices, so comparability queries are O(1)
and subset queries run on masks of element indices, one mask test per
member: ``_least_in``, ``_greatest_in``, ``_minimal_in``, ``_chain_in`` and
``_induced_on`` are the one implementation of each, which the public
``least``, ``greatest``, ``minimal``, ``join``, ``bottom``, ``top``,
``is_chain`` and ``induced`` decode, and which callers holding a mask call
directly.  A meet is one big-int AND and one dict lookup: m is the meet of x
and y exactly when down(m) = down(x) & down(y), and distinct elements have
distinct down-sets (see ``FinitePoset._meet_index``).  A plain poset decides
``is_inf_semilattice`` one pair at a time, unless it is a chain.

A ``ProductSpace`` is the product poset itself, and answers every query
through its factors.  A point's index is the mixed-radix number of its factor
indices (``index_of``; ``point`` decodes it).  Meets and joins are taken
coordinatewise, so a product is an inf-semilattice iff every factor is.  The
up-set (down-set) of a product point is the product of the factor up-sets
(down-sets); a factor mask spread to its axis's stride makes a product of
masks on different axes a carry-free big-int multiply (``_product_of`` takes
one mask per axis).  So the mask queries AND one cylinder mask per axis, or
read the product's up and down rows where ``as_poset`` has filled them: the
reference certifiers and the corpus generators, which sweep every row, call
it, and of the commands only ``corpus`` does.  No domain larger than
``MAX_POINTS`` is enumerated.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as _iproduct
from typing import Any, Dict, FrozenSet, Hashable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

Element = Hashable


def elem_key(e) -> str:
    """Canonical string key for one element: the keys of the coordinates
    comma-joined for a product point (a tuple or a list), else the string form."""
    if isinstance(e, (tuple, list)):
        return ",".join(elem_key(c) for c in e)
    return str(e)


class OrderError(ValueError):
    """Invalid order-theoretic input: unknown element, bad relation, empty factor list."""


class OrderReport(NamedTuple):
    """Outcome of a partial-order axiom check.

    ``axiom`` is one of ``reflexivity``, ``antisymmetry``, ``transitivity``
    when the check fails; ``witness`` carries the offending pair or triple.
    """

    ok: bool
    axiom: Optional[str] = None
    witness: Tuple[Element, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


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
enumeration.  No command but ``corpus`` fills a product's rows: a product
table holds its value column and N-bit masks per level set and per
cylinder, so ``check``, ``efficient`` and ``maximize`` peak under 100 MB at
16^4.  The limit still bounds ``ProductSpace.as_poset``, which the
reference certifiers call: its two row lists hold an N-bit up and down row
per point, N^2/4 bytes in all (about 1 GB at 16^4)."""


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
        "elements", "_index", "_up", "_down", "_meet_total", "_by_down", "_by_up", "_names",
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
        self._by_down: Optional[Dict[int, int]] = None
        self._by_up: Optional[Dict[int, int]] = None
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

        A cover list that is exactly the consecutive pairs of ``elements``, a
        chain listed bottom first, is built as ``chain`` builds it: the same
        masks and errors without the pass.  Otherwise one topological pass
        (Kahn's algorithm; a pair (a, a) is ignored) closes both tables:
        along the order reversed, an element's up-set is its own bit OR the
        up-sets of its covers; forwards, the down-sets flow the same way.
        When the pass cannot order every element there is a cycle, and the
        witness is its lowest-index element with the lowest-index other
        element on a cycle through it.
        """
        els, covers = list(elements), list(covers)
        if covers == list(zip(els, els[1:])):
            return cls.chain(els)
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
        return self._induced_on(self._mask(subset))

    def _induced_on(self, keep: int) -> "FinitePoset":
        """Sub-poset on the members of the mask ``keep``, in index order."""
        idxs = list(_bits(keep))
        remap = {old: new for new, old in enumerate(idxs)}
        els = list(map(self.point, idxs))
        masks = []
        for i in idxs:
            m = 0
            for j in _bits(self._up_of(i) & keep):
                m |= 1 << remap[j]
            masks.append(m)
        return FinitePoset(els, masks)

    # -- basics -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __contains__(self, x: Element) -> bool:
        try:
            return self.index_of(x) >= 0
        except OrderError:
            return False

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

    def point(self, i: int) -> Element:
        """The element of index i."""
        return self.elements[i]

    def index_of(self, x: Element) -> int:
        """The index of the element x; a list is read as its tuple."""
        try:
            return self._index[tuple(x) if isinstance(x, list) else x]
        except (KeyError, TypeError):  # TypeError: x, or a part of a list x, is unhashable
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

    def _up_of(self, i: int) -> int:
        """The mask of up(x) for the element x of index i."""
        return self._up[i]

    def _down_of(self, i: int) -> int:
        """The mask of down(x) for the element x of index i."""
        return self._down[i]

    def as_poset(self) -> "FinitePoset":
        """The poset with its ``_up`` and ``_down`` rows filled: a plain
        poset holds them already."""
        return self

    def leq(self, x: Element, y: Element) -> bool:
        return bool(self._up[self.index_of(x)] >> self.index_of(y) & 1)

    def lt(self, x: Element, y: Element) -> bool:
        return x != y and self.leq(x, y)

    def comparable(self, x: Element, y: Element) -> bool:
        return self.leq(x, y) or self.leq(y, x)

    # -- up/down sets ------------------------------------------------------

    def up_set(self, x: Element) -> FrozenSet[Element]:
        """All elements above x (inclusive)."""
        return frozenset(self._unmask(self._up_of(self.index_of(x))))

    def down_set(self, x: Element) -> FrozenSet[Element]:
        """All elements below x (inclusive)."""
        return frozenset(self._unmask(self._down_of(self.index_of(x))))

    def interval(self, lo: Element, hi: Element) -> FrozenSet[Element]:
        """The set of x with lo <= x <= hi; empty when lo and hi are not so ordered."""
        m = self._up_of(self.index_of(lo)) & self._down_of(self.index_of(hi))
        return frozenset(self._unmask(m))

    # -- extrema -----------------------------------------------------------

    def _at(self, i: Optional[int]) -> Optional[Element]:
        return None if i is None else self.point(i)

    def _least_in(self, m: int) -> Optional[int]:
        """Index of the member of mask m below all of m, or None."""
        up = self._up
        for i in _bits(m):
            if m & ~up[i] == 0:
                return i
        return None

    def _least_and_up(self, m: int) -> Tuple[Optional[int], int]:
        """``_least_in(m)`` and the mask of its up-set, 0 when there is none."""
        i = self._least_in(m)
        return i, 0 if i is None else self._up_of(i)

    def _greatest_in(self, m: int) -> Optional[int]:
        """Index of the member of mask m above all of m, or None."""
        down = self._down
        for i in _bits(m):
            if m & ~down[i] == 0:
                return i
        return None

    def _minimal_in(self, m: int) -> int:
        """Mask of the minimal members of mask m."""
        down_of, mins = self._down_of, 0
        for i in _bits(m):
            if m & down_of(i) == 1 << i:
                mins |= 1 << i
        return mins

    def least(self, subset: Iterable[Element]) -> Optional[Element]:
        """The unique member below all of ``subset``, or None."""
        return self._at(self._least_in(self._mask(subset)))

    def greatest(self, subset: Iterable[Element]) -> Optional[Element]:
        return self._at(self._greatest_in(self._mask(subset)))

    def minimal(self, subset: Iterable[Element]) -> Tuple[Element, ...]:
        """Minimal members of ``subset``, in element order; empty only for empty input."""
        return self._unmask(self._minimal_in(self._mask(subset)))

    def maximal(self, subset: Iterable[Element]) -> Tuple[Element, ...]:
        m = self._mask(subset)
        return tuple(self.point(i) for i in _bits(m) if m & self._up_of(i) == 1 << i)

    def bottom(self) -> Optional[Element]:
        return self._at(self._least_in((1 << len(self)) - 1))

    def top(self) -> Optional[Element]:
        return self._at(self._greatest_in((1 << len(self)) - 1))

    # -- meets and joins -----------------------------------------------------

    def _meet_index(self, i: int, j: int) -> Optional[int]:
        """Element index of the meet of elements i and j, or None: m is their
        meet exactly when down(m) = down(i) & down(j), and down-sets are
        distinct, so one dict from down mask to index answers every meet."""
        by_down = self._by_down
        if by_down is None:
            by_down = self._by_down_row()
        return by_down.get(self._down[i] & self._down[j])

    def _by_down_row(self) -> Dict[int, int]:
        """The dict from each element's down-set mask to its index, built on
        first use; a product's rows are filled by its ``as_poset``."""
        if self._by_down is None:
            self._by_down = {d: k for k, d in enumerate(self.as_poset()._down)}
        return self._by_down

    def _by_up_row(self) -> Dict[int, int]:
        """The dict from each element's up-set mask to its index, built on
        first use: up-sets are distinct, and a mask is up(m) exactly when m
        is its least member and up(m) lies inside it.  A product's rows are
        filled by its ``as_poset``."""
        if self._by_up is None:
            self._by_up = {u: k for k, u in enumerate(self.as_poset()._up)}
        return self._by_up

    def meet(self, x: Element, y: Element) -> Optional[Element]:
        """Greatest lower bound of {x, y}, or None when it does not exist."""
        return self._at(self._meet_index(self.index_of(x), self.index_of(y)))

    def join(self, x: Element, y: Element) -> Optional[Element]:
        return self._at(self._least_in(self._up_of(self.index_of(x)) & self._up_of(self.index_of(y))))

    def is_inf_semilattice(self) -> bool:
        """True iff every pair has a meet: a chain answers with no pair
        asked, any other poset sweeps its pairs once."""
        if self._meet_total is None:
            n = len(self.elements)
            meet = self._meet_index
            self._meet_total = self._chain_in((1 << n) - 1) or all(
                meet(i, j) is not None for i in range(n) for j in range(i + 1, n)
            )
        return self._meet_total

    # -- chains and filtering ------------------------------------------------

    def is_chain(self, subset: Iterable[Element]) -> bool:
        """True iff all pairs in ``subset`` are comparable; the empty set counts."""
        return self._chain_in(self._mask(subset))

    def _chain_in(self, m: int) -> bool:
        """True iff all members of mask m are pairwise comparable."""
        for i in _bits(m):
            if m & ~(self._up_of(i) | self._down_of(i)):
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
        return tuple(map(self.point, self._extension_order()))

    def _extension_order(self) -> List[int]:
        # a strictly smaller element has a strictly smaller down-set; the
        # sort is stable, so ties stay in index order
        indices = range(len(self))
        sizes = [down.bit_count() for down in map(self._down_of, indices)]
        return sorted(indices, key=sizes.__getitem__)

    # -- down-closure ----------------------------------------------------------

    def _below(self, m: int) -> int:
        """Mask of the points below some member of mask m."""
        down_of, below = self._down_of, 0
        for i in _bits(m):
            below |= down_of(i)
        return below

    def _missing_below(self, m: int) -> int:
        """Mask of the points below some member of mask m that m misses: 0
        exactly when m is comprehensive."""
        return self._below(m) & ~m


class ProductSpace(FinitePoset):
    """Finite product of posets with the coordinatewise order; itself the
    poset on all product points, answering every query factor by factor.

    Points are tuples of factor elements, enumerated with the last coordinate
    fastest; a product holds no element tuple and no ``_index``.
    ``factors``, ``len``, iteration, ``points``, ``index_of``, ``point``,
    membership, ``leq``, equality, hashing and the one-axis calculus
    ``delete``/``substitute`` read the factors; a product equals only
    another product.  A meet is the point of the factor meets
    (``_meet_index``), and ``FinitePoset.join`` reads ``_least_in``.

    The up-set of a point is the set of points whose k-th coordinate lies in
    up_k(c_k) for every axis k, so ``_up_of`` (``_down_of``) is the AND of
    one cylinder mask per axis (``_cylinder``), or, once ``as_poset`` has
    filled the ``_up`` (``_down``) rows, the row it memoized.  The least
    (greatest) member of a mask, when there is one, is the point of the least
    (greatest) elements of its projections on the factors, and it lies in the
    mask; when every factor lists its elements in a linear-extension order,
    as a chain does, the index order of the points is one too, and that
    point is the mask's lowest-index (highest-index) member, tested against
    its up-set (down-set): one row in place of one cylinder per factor
    element, which ``_least_and_up`` hands on, so a level record builds it
    once.  ``_minimal_in``, ``_chain_in``, ``_below`` and ``_induced_on`` are
    ``FinitePoset``'s, reading those rows; ``_missing_below`` shifts the
    mask along each factor cover, one step per cover in place of one down
    row per member.
    """

    __slots__ = ("factors", "strides", "_offsets", "_axes", "_ordered", "_cylinders", "_covers")

    def __init__(self, factors: Sequence[FinitePoset]):
        if not factors:
            raise OrderError("empty factor list")
        self.factors: Tuple[FinitePoset, ...] = tuple(factors)
        # the index step of each axis: point i has digit i // stride % len(f)
        # on the axis of factor f, the last coordinate running fastest
        sizes = [len(f) for f in self.factors[1:]]
        self.strides: Tuple[int, ...] = tuple(math.prod(sizes[k:]) for k in range(len(self.factors)))
        # per plain factor, element -> its step in the index (element index x stride)
        self._offsets = [{} if isinstance(f, ProductSpace) else {e: i * s for i, e in enumerate(f.elements)}
                         for f, s in zip(self.factors, self.strides)]
        # per axis, the factor's points, up rows and down rows by element index
        # (a nested product's filled by its ``as_poset``), and the stride
        self._axes = tuple((tuple(f), f.as_poset()._up, f._down, s) for f, s in zip(self.factors, self.strides))
        # whether every factor lists its elements in a linear-extension order
        # (nothing above an element has a smaller index), so the index order
        # of the points is one too
        self._ordered = all(not up & ((1 << c) - 1) for _, ups, _, _ in self._axes for c, up in enumerate(ups))
        self._cylinders: List[Dict[int, int]] = [{} for _ in self.factors]
        self._covers: Optional[List[Tuple[int, int, int, int]]] = None
        self._up = self._down = self._by_up = self._by_down = None

    def as_poset(self) -> "ProductSpace":
        """The product itself, with its up and down rows filled on first use,
        for the readers that sweep every row.

        Both rows are products of factor rows, so nothing is transposed:
        the up-set of (c_1, ..., c_k) is up(c_1) x ... x up(c_k), and so is
        its down-set with down.  Spreading a mask (bit p to bit p*n) is a
        ring map on carry-free masks, so that product is the product of the
        factor rows each spread once to its axis's stride (``strides``; the
        last axis, at stride 1, is not spread): the rows are multiplied in
        axis by axis, last coordinate fastest.  The first axis goes first so
        that the last multiplies, one per point, take an N-bit row by a short
        row of the last factor; the other way round they are N-bit by N/n-bit.
        """
        if self._up is None:
            check_size(len(self))
            up = down = [1]
            for _, ups, downs, stride in self._axes:
                ups, downs = [_spread(m, stride) for m in ups], [_spread(m, stride) for m in downs]
                up = [r * m for r in up for m in ups]
                down = [r * m for r in down for m in downs]
            self._up, self._down = up, down
        return self

    def _product_of(self, masks: Sequence[int]) -> int:
        """Mask of the product of one subset per factor, given as factor
        masks: each spread to its axis's stride and multiplied in, the ring
        map ``as_poset`` builds its rows with.  Fills no rows."""
        m = 1
        for mask, stride in zip(masks, self.strides):
            m *= _spread(mask, stride)
        return m

    @property
    def n_axes(self) -> int:
        return len(self.factors)

    def is_inf_semilattice(self) -> bool:
        """True iff every factor is an inf-semilattice (an empty product is one)."""
        return len(self) == 0 or all(f.is_inf_semilattice() for f in self.factors)

    def _meet_index(self, i: int, j: int) -> Optional[int]:
        """Index of the meet of points i and j: the point of the factor
        meets, or None when a factor has none."""
        k = 0
        for f, s in zip(self.factors, self.strides):
            n = len(f)
            c = f._meet_index(i // s % n, j // s % n)
            if c is None:
                return None
            k += c * s
        return k

    def __len__(self) -> int:
        return self.strides[0] * len(self.factors[0])

    def __iter__(self) -> Iterator[Tuple[Element, ...]]:
        return self.points()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProductSpace) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def points(self) -> Iterator[Tuple[Element, ...]]:
        check_size(len(self))
        return _iproduct(*self.factors)

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

    def index_of(self, x: Sequence[Element]) -> int:
        """The index of the point x, a tuple or a list: the sum of one
        ``_offsets`` lookup per coordinate, or on a miss (a nested factor, a
        list coordinate) of each factor's index x stride."""
        if isinstance(x, (tuple, list)) and len(x) == len(self.factors):
            try:
                return sum(map(dict.__getitem__, self._offsets, x))
            except (KeyError, TypeError):  # TypeError: a coordinate is unhashable
                pass
            try:
                return sum(f.index_of(c) * s for f, c, s in zip(self.factors, x, self.strides))
            except OrderError:
                pass
        raise OrderError(f"unknown element {x!r}")

    def point(self, i: int) -> Tuple[Element, ...]:
        """The point of index i, read off in mixed radix (``strides``)."""
        return tuple([pts[i // s % len(pts)] for pts, _, _, s in self._axes])

    def _check_axis(self, axis: int) -> None:
        if not 0 <= axis < len(self.factors):
            raise OrderError(f"axis {axis} out of range for {len(self.factors)} factors")

    def __repr__(self) -> str:
        return f"ProductSpace({'x'.join(str(len(f)) for f in self.factors)})"

    def _cylinder(self, axis: int, row: int) -> int:
        """Mask of the points whose coordinate on ``axis`` lies in the factor
        mask ``row``: the points whose coordinate there has index 0 (the
        cylinder of row 1) times the row spread to the axis's stride, one
        carry-free multiply.  Cached per axis by row."""
        cylinders = self._cylinders[axis]
        m = cylinders.get(row)
        if m is None:
            stride = self.strides[axis]
            zero = cylinders.get(1)
            if zero is None:
                # the low ``stride`` bits of every period of len(factor) * stride
                # bits: that block times the repunit of the periods in N bits
                n, period = len(self), len(self.factors[axis]) * stride
                zero = cylinders[1] = ((1 << stride) - 1) * (((1 << n) - 1) // ((1 << period) - 1)) if n else 0
            m = cylinders[row] = zero * _spread(row, stride)
        return m

    def _up_of(self, i: int) -> int:
        if self._up is not None:
            return self._up[i]
        m = -1
        for axis, (_, ups, _, stride) in enumerate(self._axes):
            m &= self._cylinder(axis, ups[i // stride % len(ups)])
        return m

    def _down_of(self, i: int) -> int:
        if self._down is not None:
            return self._down[i]
        m = -1
        for axis, (_, _, downs, stride) in enumerate(self._axes):
            m &= self._cylinder(axis, downs[i // stride % len(downs)])
        return m

    def _least_in(self, m: int) -> Optional[int]:
        if self._ordered:
            return self._least_and_up(m)[0]
        return self._extreme_in(m, "_least_in")

    def _least_and_up(self, m: int) -> Tuple[Optional[int], int]:
        if not self._ordered:
            return FinitePoset._least_and_up(self, m)
        i = (m & -m).bit_length() - 1
        up = self._up_of(i) if m else 0
        return (i, up) if m and not m & ~up else (None, 0)

    def _greatest_in(self, m: int) -> Optional[int]:
        if self._ordered:
            i = m.bit_length() - 1
            return i if m and not m & ~self._down_of(i) else None
        return self._extreme_in(m, "_greatest_in")

    def _extreme_in(self, m: int, query: str) -> Optional[int]:
        """The point of the factors' answers to ``query`` on the projections
        of mask m, if every factor has one and the point lies in m."""
        i = 0
        for axis, (f, stride) in enumerate(zip(self.factors, self.strides)):
            projection = sum(1 << c for c in range(len(f)) if m & self._cylinder(axis, 1 << c))
            c = getattr(f, query)(projection)
            if c is None:
                return None
            i += c * stride
        return i if m >> i & 1 else None

    def _unmask(self, mask: int) -> Tuple[Tuple[Element, ...], ...]:
        return tuple(map(self.point, _bits(mask)))

    def _missing_below(self, m: int) -> int:
        """A mask is comprehensive exactly when one step down any factor
        cover, on any axis, keeps each member in it: for a cover a < b on
        axis k, the members with k-th coordinate b, shifted to a, must lie
        in the mask.  Only when one does not is the down-closure read."""
        if self._covers is None:  # (axis, stride, a, b) per cover a < b of each factor
            self._covers = [(axis, stride, a, b)
                            for axis, (f, (_, ups, _, stride)) in enumerate(zip(self.factors, self._axes))
                            for a, up in enumerate(ups) for b in _bits(f._minimal_in(up & ~(1 << a)))]
        for axis, stride, a, b in self._covers:
            moved = m & self._cylinder(axis, 1 << b)
            moved = moved >> (b - a) * stride if b > a else moved << (a - b) * stride
            if moved & ~m:
                return self._below(m) & ~m
        return 0


def _spread(outer: int, n: int) -> int:
    """``outer`` with bit p moved to bit p*n."""
    if n == 1:
        return outer
    m = p = 0
    while outer:
        if outer & 1:
            m |= 1 << p
        outer >>= 1
        p += n
    return m


def grid_space(*ranges: Sequence[Element]) -> ProductSpace:
    """Product of chains; each range is listed in ascending order."""
    return ProductSpace([FinitePoset.chain(r) for r in ranges])


class DownSet:
    """A comprehensive (downward closed) subset of a finite poset.

    ``mask`` marks the members by element index of ``space``, a
    ``FinitePoset`` or a ``ProductSpace``.  ``from_indices`` takes element
    indices, as a file reader holds them: their downward closure (``_below``),
    or exactly those points, validated for downward closure
    (``_missing_below``); neither fills a product's rows.
    ``from_generators`` and ``from_members`` read each point to its index
    once and hand it on.
    """

    def __init__(self, space: FinitePoset, mask: int):
        self.space = space
        self.mask = mask
        self._sorted: Optional[Tuple] = None

    @classmethod
    def from_indices(cls, space: FinitePoset, indices: Iterable[int], *, generated: bool) -> "DownSet":
        """The down-set generated by the points at ``indices`` when
        ``generated``, else the set of those points, which must be
        comprehensive."""
        mask = 0
        for i in indices:
            mask |= 1 << i
        if generated:
            return cls(space, space._below(mask))
        missing = space._missing_below(mask)
        if missing:
            bad = space.point((missing & -missing).bit_length() - 1)
            raise OrderError(f"not comprehensive: {bad!r} is below a member but missing")
        return cls(space, mask)

    @classmethod
    def from_members(cls, space: FinitePoset, members: Iterable) -> "DownSet":
        return cls.from_indices(space, map(space.index_of, members), generated=False)

    @classmethod
    def from_generators(cls, space: FinitePoset, generators: Iterable) -> "DownSet":
        return cls.from_indices(space, map(space.index_of, generators), generated=True)

    def sorted_members(self) -> Tuple:
        """Members in the ambient enumeration order (deterministic)."""
        if self._sorted is None:
            self._sorted = self.space._unmask(self.mask)
        return self._sorted

    def __contains__(self, x) -> bool:
        try:
            return bool(self.mask >> self.space.index_of(x) & 1)
        except OrderError:
            return False

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator:
        return iter(self.sorted_members())


class Scale:
    """Comparison policy for the totally ordered value scale.

    Exact mode compares rationals directly; tolerant mode reads a <= b as
    a <= b or a <= b + tolerance.  For floats the first test adds nothing; on
    an int or Fraction above 2**53, b + tolerance may round to a float below
    b, and the first test keeps ``le`` reflexive there.  Only where b is past
    a float's range, so that the float sum overflows, is the tolerance added
    exactly, and every such b lies above every float.  Both tests are
    monotone, so ``le`` is too.  On both scales, ``eq`` is the symmetric part
    of ``le``, so a value band and a level set agree on a float at the
    tolerance's edge.
    Tolerant comparisons are only transitive when the compared values keep
    gaps clear of the tolerance band; fixtures are built that way.
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
        return self.le(a, b) and self.le(b, a)

    def le(self, a, b) -> bool:
        if self.kind == "exact":
            return a <= b
        try:
            return a <= b or a <= b + self.tolerance
        except OverflowError:
            return self.tolerance == math.inf or a <= b + Fraction(self.tolerance)

    def lt(self, a, b) -> bool:
        return not self.le(b, a)

    def __repr__(self) -> str:
        if self.kind == "exact":
            return "Scale(exact)"
        return f"Scale(tolerant, {self.tolerance})"


EXACT = Scale("exact")


def tolerant(tolerance: float = 1e-9) -> Scale:
    return Scale("tolerant", tolerance)
