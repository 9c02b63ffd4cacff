"""Quasi-Leontief utility objects: tabulated tables, closed-form families, combinators.

A utility u maps a partially ordered domain into a totally ordered scale.
It is quasi-Leontief when every upper level set u^-1(up(u(x))) has a least
element u°(x) (the interior map); it is regular when every nonempty level
set u^-1(up(lam)) has one (the dual map u#).  The closed forms
(``PowerLeontief``, ``classical_leontief``) carry their dual in formula
form; a table reads its dual off its cached level records once the oracle
has certified it (see the oracle module).  Both read the interior off the
dual, u° = u# ∘ u.  ``tabulate`` turns a closed form on a gridded box into
its table, which is what every command reads.
Every combinator takes tables and gives a table (``affine_transform``,
``restrict``, ``min_product``, ``min_pointwise``), so a combined table is
certified like any other; a closed form is refused.  A table reads a
point to its index through its poset's ``index_of``, and a product table
made by ``tabulate``, ``min_product`` or a table file asks its order
queries of the factors, so it builds no product tables.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import product as _iproduct
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .order import DownSet, EXACT, Element, FinitePoset, OrderError, ProductSpace, Scale, _bits, check_size, tolerant


class UtilityError(ValueError):
    """Invalid utility construction or use."""


class DomainError(UtilityError):
    """Point outside the utility's domain."""


class NotCertifiedError(UtilityError):
    """Interior/dual requested on a tabulated utility that was never certified."""


class LeastlessLevelSetError(UtilityError):
    """A nonempty level set has no least element (non-regularity witness)."""

    def __init__(self, level, witnesses: Tuple):
        self.level = level
        self.witnesses = tuple(witnesses)
        super().__init__(
            f"level set at {level!r} has no least element; "
            f"incomparable minimal points {self.witnesses!r}"
        )


class DualDomainError(UtilityError):
    """Level outside the admissible dual domain."""


class DecompositionError(UtilityError):
    """Invalid upper bound or subset for a min-decomposition."""


# ---------------------------------------------------------------------------
# tabulated utilities
# ---------------------------------------------------------------------------


class _Closure:
    """A utility with a dual map u#.  A closed form carries u# as a formula,
    so it is certified by construction; a table is certified by the oracle and
    overrides ``certified``."""

    certified = True

    def interior(self, x):
        """The interior map u° = u# ∘ u: the least point at the level of x."""
        return self.dual(self.value(x))

    def closure(self, lam):
        """The closure map value(dual(lam)); extensive, isotone, idempotent."""
        d = self.dual(lam)
        if d is None:
            raise DualDomainError(f"level {lam!r} outside the admissible dual domain")
        return self.value(d)


class LevelSet(NamedTuple):
    """An upper level set {x : u(x) >= lam} of a tabulated utility.

    ``mask`` marks its members by element index and ``least`` is its least
    element, if it has one, at element index ``index``.  ``fault`` is empty
    exactly when the set is empty or equals up(least); otherwise it says why
    not, free of the level, and ``witnesses`` replay it.
    """

    mask: int
    least: Optional[Element]
    witnesses: Tuple = ()
    fault: str = ""
    index: Optional[int] = None

    def detail(self, lam) -> str:
        """The fault as said of the level set at ``lam``; empty when none."""
        return f"level set at {lam!r} {self.fault}" if self.fault else ""


_EMPTY = LevelSet(0, None)


_RATIONAL = {Fraction, int}


class _Ranks:
    """The ranks of a table's values, listed by element index, from one sort
    of its distinct value objects.

    ``image`` holds the sorted distinct values and ``rank[i]`` the position of
    element i's value in it.  The values are deduplicated by ``id`` (the list
    keeps every object alive, so ids stay unique), only the distinct objects
    are sorted, and equal neighbours in the sort share a rank, so no value is
    hashed; an element reads its rank back by the id of its value.  That pays
    only where comparisons are dear, so a table of at most three values, or
    one of floats (the tolerant scale; its first value decides), is sorted as
    it stands.  Distinct Fractions and ints sort by a float key first, which
    leaves Fraction comparisons to float ties.  ``suffix[r]`` masks the
    elements of rank r or more, and ``suffix[len(image)]`` is 0: with shared
    objects the masks OR up per rank, else one running mask follows the
    sort.  ``levels[s]`` caches the record of the suffix from rank s, which
    every level whose set starts there reads; the empty suffix, s =
    len(image), is the shared ``_EMPTY``.  The rest is filled in on first
    use: ``probes``, the default probe levels, and ``slices``, the interior
    record of each one-axis slice of a product table, keyed by (axis, index
    of the slice's first point).

    On the table's scale, ``lo[r]`` starts the level set at image[r] (see
    ``_band_starts``), and the ranks the scale counts equal to rank r run
    from lo[r] to one past the last s with lo[s] <= r.
    """

    __slots__ = ("rank", "image", "suffix", "lo", "levels", "probes", "slices")

    def __init__(self, values: Sequence, scale: Scale = EXACT):
        distinct = keys = values
        if len(values) > 3 and type(values[0]) is not float:
            objects = dict(zip(map(id, values), values))
            distinct = keys = list(objects.values())
            if set(map(type, distinct)) <= _RATIONAL:
                # float() rounds monotonically, so (float(v), v) sorts like v
                # and compares exactly, with Fraction work only on float ties
                try:
                    keys = list(zip(map(float, distinct), distinct))
                except OverflowError:
                    pass
        order = sorted(range(len(keys)), key=keys.__getitem__)
        rank = [0] * len(keys)
        image: List = []
        r = -1
        for i in order:
            k = keys[i]
            if r < 0 or not k == prev:  # a Fraction's == is cheaper than its !=
                image.append(distinct[i])
                prev = k
                r += 1
            rank[i] = r
        suffix = None
        if len(distinct) < len(values):
            # each element takes its object's rank, with no second sort of the
            # elements; when no object is shared, the running mask below ORs
            # half as often as the masks of ``_fill``
            rank = list(map(dict(zip(objects, rank)).__getitem__, map(id, values)))
        else:
            suffix = [0] * (r + 2)
            mask = 0
            for i in reversed(order):
                mask |= 1 << i
                suffix[rank[i]] = mask
        self._fill(rank, image, suffix, scale)

    def _fill(self, rank: List[int], image: Sequence, suffix: Optional[List[int]], scale: Scale) -> None:
        """Set the table; a ``suffix`` not given ORs up per rank, then down the ranks."""
        image = tuple(image)
        if suffix is None:
            suffix = [0] * (len(image) + 1)
            for i, k in enumerate(rank):
                suffix[k] |= 1 << i
            for k in range(len(image) - 2, -1, -1):
                suffix[k] |= suffix[k + 1]
        self.rank = rank
        self.image = image
        self.suffix = suffix
        self.lo = _band_starts(image, scale)
        self.levels: List[Optional[LevelSet]] = [None] * len(image)
        self.probes: Optional[Tuple] = None
        self.slices: Dict[Tuple[int, int], Tuple[int, ...]] = {}

    def restrict(self, indices: Iterable[int], scale: Scale = EXACT) -> "_Ranks":
        """The rank table of the values at ``indices``, listed in that order:
        the ranks they meet, renumbered in order, with no value sorted."""
        sub = [self.rank[i] for i in indices]
        met = sorted(set(sub))
        new = object.__new__(_Ranks)
        rank = list(map({r: k for k, r in enumerate(met)}.__getitem__, sub))
        new._fill(rank, map(self.image.__getitem__, met), None, scale)
        return new


def _band_starts(image: Sequence, scale: Scale) -> Sequence[int]:
    """lo[r], the lowest rank s with le(image[r], image[s]), per rank r of
    the sorted values ``image``: non-decreasing, as le is monotone in both
    arguments (float addition rounds monotonically), so one walk finds it.
    Where lo[r] is r for every r, as on the exact scale, it is the range of
    the ranks and stores nothing."""
    starts = range(len(image))
    if scale.kind == "exact":
        return starts
    le, lo, s = scale.le, [], 0
    for v in image:
        while not le(v, image[s]):
            s += 1
        lo.append(s)
    return starts if lo == list(starts) else lo


class TabulatedUtility(_Closure):
    """Utility given by an explicit value table on a finite poset.

    The table must assign exactly one value to every element of ``poset``, a
    ``ProductSpace`` for a product domain (``space``, if given, must be it).
    Interior and dual queries require certification; the oracle module
    produces certified copies, it never mutates.  Every question about the
    order of the values reads one rank table (``_ranks``): the image, the
    level sets and the oracle's value bands.  The values are held once, as
    ``column``, listed by element index; ``values`` is a keyed view of it.
    """

    def __init__(
        self,
        poset: FinitePoset,
        values: Dict[Element, Any],
        *,
        scale: Scale = EXACT,
        space: Optional[ProductSpace] = None,
    ):
        if space is not None and space is not poset:
            raise UtilityError("space must be the domain poset itself")
        try:
            column = [values[e] for e in poset]
        except KeyError as exc:
            raise UtilityError(f"no value for element {exc.args[0]!r}") from None
        if len(column) < len(values):  # every element has its value, so the rest are extra
            extra = next(e for e in values if e not in poset)
            raise UtilityError(f"value for unknown element {extra!r}")
        self._fill(poset, column, scale)

    def _fill(self, poset, column, scale, ranks=None) -> None:
        self.poset = poset
        self.column: List = column
        self.scale = scale
        self.certified = False
        self._rank_table: Optional[_Ranks] = ranks

    @classmethod
    def _of_column(cls, poset: FinitePoset, column: List, scale: Scale,
                   ranks: Optional[_Ranks] = None) -> "TabulatedUtility":
        """The table whose values are listed by element index in ``column``,
        which is complete by construction; ``ranks`` is its rank table, if
        known."""
        new = object.__new__(cls)
        new._fill(poset, column, scale, ranks)
        return new

    @property
    def values(self) -> Dict[Element, Any]:
        """The values keyed by element, in element order: a new dict on each read."""
        return dict(zip(self.poset, self.column))

    @property
    def space(self) -> Optional[ProductSpace]:
        """The domain when it is a product, else None."""
        return self.poset if isinstance(self.poset, ProductSpace) else None

    def _certified_copy(self) -> "TabulatedUtility":
        new = object.__new__(TabulatedUtility)
        # same poset, values and scale: the rank table and every level set carry over
        new.__dict__.update(self.__dict__)
        new.certified = True
        return new

    def _index_of(self, x: Element) -> int:
        """The element index of the point x, which may arrive as a list."""
        try:
            return self.poset.index_of(x)
        except OrderError:
            raise DomainError(f"point {x!r} outside domain") from None

    def value(self, x: Element):
        return self.column[self._index_of(x)]

    def _ranks(self) -> _Ranks:
        """The rank table of the values, built on first use and shared with
        certified copies."""
        if self._rank_table is None:
            self._rank_table = _Ranks(self.column, self.scale)
        return self._rank_table

    def image(self) -> Tuple:
        """Sorted distinct attained values."""
        return self._ranks().image

    def probe_levels(self, extra: Iterable = ()) -> List:
        """Attained values plus midpoints between consecutive distinct values,
        merged with ``extra``.

        On a finite domain level sets only change at these thresholds; scales
        without arithmetic (any totally ordered values work) probe the attained
        values alone, which already decides every verdict.  The midpoint of
        two ints is an exact Fraction: their true division rounds to a
        float, and overflows past a float's range.  The default
        probes are made once per rank table; each call returns a new list.
        """
        t = self._ranks()
        if t.probes is None:
            img = t.image
            probes = list(img)
            for a, b in zip(img, img[1:]):
                try:
                    mid = a + b
                    probes.append(Fraction(mid, 2) if type(mid) is int else mid / 2)
                except TypeError:
                    break
            t.probes = tuple(sorted(set(probes)))
        extra = tuple(extra)
        return sorted(set(t.probes).union(extra)) if extra else list(t.probes)

    def chained_values(self) -> Optional[Tuple]:
        """Three attained values v1 < v2 < v3 with v1 ~ v2 ~ v3 but not
        v1 ~ v3 on the scale, or None when it chains none: a band start s =
        lo[r] with lo[s] < s gives image[lo[s]], image[s] and image[r]."""
        t = self._ranks()
        lo = t.lo
        for r, s in enumerate(lo):
            if lo[s] < s:
                return t.image[lo[s]], t.image[s], t.image[r]
        return None

    def level_set(self, lam) -> LevelSet:
        """The level set at ``lam`` (see ``_level``)."""
        return self._level(lam, bisect_left(self._ranks().image, lam))

    def level_sets(self, levels: Iterable) -> Iterator[LevelSet]:
        """``level_set(lam)`` for each of ``levels``, in turn.

        The first rank at or above a level is carried forward from the level
        before, so ascending levels walk the image once: an attained value
        (the image's own object) is found by identity, a level between two
        ranks by a few comparisons, and a level below the one before by a
        bisection below its rank.
        """
        img = self._ranks().image
        r = 0
        for lam in levels:
            if r == len(img) or img[r] is not lam:
                if r and not img[r - 1] < lam:
                    r = bisect_left(img, lam, 0, r)
                else:
                    while r < len(img) and img[r] is not lam and img[r] < lam:
                        r += 1
            yield self._level(lam, r)

    def level_of(self, i: int) -> LevelSet:
        """The level set at the value of element index i, found by its rank."""
        t = self._ranks()
        r = t.rank[i]
        return self._level(t.image[r], r)

    def _level(self, lam, r: int) -> LevelSet:
        """The record of the level set at ``lam``, given r, the first rank at
        or above ``lam``: built on first use and cached by the rank where its
        suffix starts, lo[r] when ``lam`` is the attained value image[r].  On
        a tolerant scale a level between ranks, such as a midpoint probe, can
        take in lower ranks; le(lam, v) is monotone in v, so a bisection
        below r finds its start."""
        t = self._rank_table
        img = t.image
        if self.scale.kind == "exact":
            s = r
        elif r < len(img) and img[r] == lam:
            s = t.lo[r]
        else:
            le = self.scale.le
            s = bisect_left(img, True, 0, r, key=lambda v: le(lam, v))
        if s == len(img):
            return _EMPTY
        rec = t.levels[s]
        if rec is None:
            rec = t.levels[s] = self._build_level_set(s)
        return rec

    def _build_level_set(self, s: int) -> LevelSet:
        # The defining relation is the set equality u^-1(up(lam)) = up(m), not
        # bare least-element existence: a level set of a non-isotone table can
        # have a least element without being upward closed.
        poset = self.poset
        mask = self._rank_table.suffix[s]
        least = poset._least_in(mask)
        if least is None:
            mins = poset._unmask(poset._minimal_in(mask))
            return LevelSet(mask, None, mins[:2], "has no least element")
        m = poset.point(least)
        outside = poset._up_of(least) & ~mask
        if outside:
            y = poset.point((outside & -outside).bit_length() - 1)
            return LevelSet(mask, m, (m, y), f"is not the up-set of {m!r}: "
                                             f"{y!r} lies above it with a smaller value",
                            index=least)
        return LevelSet(mask, m, index=least)

    def dual(self, lam) -> Optional[Element]:
        """Least element of the level set at lam; None when the set is empty.

        Raises LeastlessLevelSetError with two incomparable minimal witnesses
        when the set is nonempty but has no least element.
        """
        if not self.certified:
            raise NotCertifiedError("dual requires a certified utility")
        rec = self.level_set(lam)
        if rec.mask and rec.least is None:
            raise LeastlessLevelSetError(lam, rec.witnesses)
        return rec.least

    def __repr__(self) -> str:
        tag = "certified" if self.certified else "uncertified"
        return f"TabulatedUtility({len(self.poset)} elements, {tag})"


# ---------------------------------------------------------------------------
# numeric boxes for closed forms
# ---------------------------------------------------------------------------


class BoxAxis:
    """One closed interval [lo, hi]; an optional step marks an enumerable grid."""

    __slots__ = ("lo", "hi", "step")

    def __init__(self, lo, hi, step=None):
        if hi < lo:
            raise UtilityError(f"empty axis [{lo!r}, {hi!r}]")
        if step is not None and step <= 0:
            raise UtilityError("step must be positive")
        self.lo = lo
        self.hi = hi
        self.step = step

    def count(self) -> int:
        """Number of grid points, from ``lo``, ``hi`` and ``step`` alone."""
        if self.step is None:
            raise UtilityError("axis has no grid step")
        span = (self.hi - self.lo) / self.step
        if isinstance(span, float) and not math.isfinite(span):
            raise UtilityError(f"axis {self!r} has no finite number of grid points")
        n = int(round(span)) if isinstance(span, float) else int(span)
        while self.lo + n * self.step > self.hi:
            n -= 1
        return n + 1

    def points(self) -> Tuple:
        # index arithmetic avoids float accumulation drift
        return tuple(self.lo + i * self.step for i in range(check_size(self.count())))

    def __repr__(self) -> str:
        if self.step is None:
            return f"[{self.lo}, {self.hi}]"
        return f"[{self.lo}:{self.step}:{self.hi}]"


class Box:
    """Product of closed numeric intervals, optionally gridded per axis."""

    def __init__(self, axes: Sequence[BoxAxis]):
        if not axes:
            raise UtilityError("box needs at least one axis")
        self.axes = tuple(axes)

    @classmethod
    def cube(cls, n: int, lo, hi, step=None) -> "Box":
        return cls([BoxAxis(lo, hi, step) for _ in range(n)])

    @property
    def n_axes(self) -> int:
        return len(self.axes)

    def top(self) -> Tuple:
        return tuple(a.hi for a in self.axes)

    def contains(self, x: Sequence, scale: Scale) -> bool:
        return len(x) == len(self.axes) and all(
            scale.le(a.lo, c) and scale.le(c, a.hi) for a, c in zip(self.axes, x)
        )

    def __repr__(self) -> str:
        return "Box(" + " x ".join(map(repr, self.axes)) + ")"


def _in_float_range(v, scale: Scale) -> bool:
    """False only where the scale reads v as a float and that float is not
    finite: v is a float, or the scale is tolerant and adds a float tolerance
    to every value."""
    try:
        return (scale.kind != "tolerant" and not isinstance(v, float)) or math.isfinite(v)
    except OverflowError:
        return False


def _infer_scale(*numbers) -> Scale:
    for v in numbers:
        if isinstance(v, float):
            return tolerant()
    return EXACT


# ---------------------------------------------------------------------------
# closed-form families
# ---------------------------------------------------------------------------


MAX_POWER_BITS = 4096
"""The largest exact power x^alpha (integral alpha > 1) that is computed, in
bits, estimated as alpha * log2 of the larger of x's numerator and denominator;
exact powers grow linearly in alpha, and every value comparison reads them."""


class PowerLeontief(_Closure):
    """u(x) = min_i a_i x_i^alpha_i on a box, all a_i, alpha_i > 0.

    The box must lie in the nonnegative orthant unless every alpha_i is 1 (the
    classical form min_i a_i x_i).  Interior and dual are in closed form: the
    level set at lam is the product of the per-axis intervals
    [max(lo_j, (lam / a_j)^(1/alpha_j)), hi_j].
    """

    def __init__(
        self, a: Sequence, alpha: Sequence, box: Box, *, scale: Optional[Scale] = None
    ):
        self.a = tuple(a)
        self.alpha = tuple(alpha)
        if len(self.a) != box.n_axes or len(self.alpha) != box.n_axes:
            raise UtilityError("parameter counts do not match box arity")
        if any(c <= 0 for c in self.a) or any(e <= 0 for e in self.alpha):
            raise UtilityError("coefficients and exponents must be strictly positive")
        if any(ax.lo < 0 for ax in box.axes) and any(e != 1 for e in self.alpha):
            raise UtilityError("power form needs a domain in the nonnegative orthant")
        self.box = box
        self.scale = scale if scale is not None else tolerant()

    def _check(self, x: Sequence) -> Tuple:
        x = tuple(x)
        if not self.box.contains(x, self.scale):
            raise DomainError(f"point {x!r} outside box {self.box!r}")
        return x

    @staticmethod
    def _pow(base, exp):
        if isinstance(exp, int) or (isinstance(exp, Fraction) and exp.denominator == 1):
            e = int(exp)
            if e > 1 and not isinstance(base, float):
                b = Fraction(base)
                bits = e * (max(abs(b.numerator), b.denominator).bit_length() - 1)
                if bits > MAX_POWER_BITS:
                    raise UtilityError(f"exact power {base}^{e} has about {bits} bits, "
                                       f"over the limit of {MAX_POWER_BITS}")
            return base ** e
        return float(base) ** float(exp)

    def _terms(self, x: Sequence) -> List:
        x = self._check(x)
        try:
            terms = [c * self._pow(t, e) for c, t, e in zip(self.a, x, self.alpha)]
        except OverflowError:
            terms = None
        if terms is None or not _in_float_range(min(terms), self.scale):
            raise UtilityError(f"the power form at {x!r} overflows a float")
        return terms

    def value(self, x: Sequence):
        return min(self._terms(x))

    def _root(self, v, exp):
        if v == 0:
            return 0 * v
        if isinstance(exp, int) or (isinstance(exp, Fraction) and exp.denominator == 1):
            e = int(exp)
            if e == 1:
                return v
        try:
            return float(v) ** (1.0 / float(exp))
        except OverflowError:
            raise UtilityError("a root of a level overflows a float") from None

    def dual(self, lam) -> Optional[Tuple]:
        if not self.scale.le(lam, self.value(self.box.top())):
            return None
        return tuple(
            max(ax.lo, self._root(lam / c, e))
            for ax, c, e in zip(self.box.axes, self.a, self.alpha)
        )

    def __repr__(self) -> str:
        return f"PowerLeontief(a={self.a}, alpha={self.alpha})"


# ---------------------------------------------------------------------------
# constructors and operations
# ---------------------------------------------------------------------------


def classical_leontief(a: Sequence, box: Box, *, scale: Optional[Scale] = None) -> PowerLeontief:
    """u(x) = min_i a_i x_i: the power form with every exponent 1.  The scale
    is exact unless a coefficient is a float."""
    a = tuple(a)
    if scale is None:
        scale = _infer_scale(*a)
    return PowerLeontief(a, (1,) * len(a), box, scale=scale)


def _shared_scale(utilities: Sequence, name: str, noun: str) -> Scale:
    """The scale of the first of ``utilities``, which must be nonempty and
    agree on exact versus tolerant.  A table that ``tabulate`` read exact off
    a tolerant form (its scale has a ``form``) agrees with a tolerant table
    too: then the result is on the first one's tolerant scale, its ``form``
    for such a table.  Next to a table that is exact without a ``form``, the
    result is plain exact."""
    if not utilities:
        raise UtilityError(f"{name} needs at least one {noun}")
    scales = [u.scale for u in utilities]
    forms = [s.form or s for s in scales]
    if len({s.kind for s in scales}) == 1:
        return scales[0] if len({s.kind for s in forms}) == 1 else EXACT
    if len({s.kind for s in forms}) > 1:
        raise UtilityError(f"{noun}s mix exact and tolerant scales")
    return forms[0]


def _require_tables(name: str, utilities: Sequence) -> None:
    if not all(isinstance(u, TabulatedUtility) for u in utilities):
        raise UtilityError(f"{name} needs tables; a closed form is a table only on a gridded box")


def min_product(*factors) -> TabulatedUtility:
    """min_i u_i(x_i): the uncertified table on the ``ProductSpace`` of the
    factor posets.  Every factor must be a table; ``tabulate`` gives the
    table of a closed form on a gridded box."""
    _require_tables("min-product", factors)
    scale = _shared_scale(factors, "min-product", "factor")
    space = ProductSpace([f.poset for f in factors])
    check_size(len(space))
    # the factor columns in mixed radix, last fastest: the order of ``points``
    column = list(map(min, _iproduct(*(f.column for f in factors))))
    return TabulatedUtility._of_column(space, column, scale)


def min_pointwise(*parts) -> TabulatedUtility:
    """min_i u_i(x): the uncertified table of the minimum of tables on one
    domain poset."""
    if not all(isinstance(p, TabulatedUtility) and p.poset == parts[0].poset for p in parts):
        raise UtilityError("pointwise min needs tables that share one domain poset")
    scale = _shared_scale(parts, "pointwise min", "part")
    column = list(map(min, zip(*(p.column for p in parts))))
    return TabulatedUtility._of_column(parts[0].poset, column, scale)


def affine_transform(u: TabulatedUtility, a, b) -> TabulatedUtility:
    """a * u + b with a > 0: the table of the transformed values, whose
    interior map is u's.  It is certified when u is and the scale is exact;
    a tolerant one compares the rescaled gaps to the same tolerance."""
    _require_tables("affine transform", [u])
    if a <= 0:
        raise UtilityError("affine factor must be strictly positive")
    column = [a * v + b for v in u.column]
    bad = next((i for i, v in enumerate(column) if not _in_float_range(v, u.scale)), None)
    if bad is not None:
        raise UtilityError(f"the affine transform at {u.poset.point(bad)!r} overflows a float")
    new = TabulatedUtility._of_column(u.poset, column, u.scale)
    new.certified = u.certified and u.scale.kind == "exact"
    return new


def restrict(u: TabulatedUtility, downset: DownSet) -> TabulatedUtility:
    """The table of u on the sub-poset induced by a comprehensive subset.
    Certification carries over: interiors of members stay inside a
    comprehensive set."""
    _require_tables("restriction", [u])
    if not isinstance(downset, DownSet):
        raise UtilityError("tabulated restriction needs a DownSet")
    if downset.space != u.poset:
        raise UtilityError("down-set lives in a different poset")
    new = _sub_table(u, u.poset._induced_on(downset.mask), list(_bits(downset.mask)))
    new.certified = u.certified
    return new


def tabulate(u) -> TabulatedUtility:
    """Explicit table of a closed-form utility on its grid box, the product
    of one chain per axis; every axis needs a step.  The table is on u's
    scale, but on the exact scale, whose ``form`` is u's, when u's is tolerant
    and every value is an int or a Fraction; u keeps its own scale either
    way."""
    check_size(math.prod(check_size(a.count()) for a in u.box.axes))  # before any chain is built
    space = ProductSpace([FinitePoset.chain(a.points()) for a in u.box.axes])
    column = list(map(u.value, space.points()))
    scale = u.scale
    if scale.kind == "tolerant" and set(map(type, column)) <= _RATIONAL:
        scale = Scale("exact", form=scale)
    return TabulatedUtility._of_column(space, column, scale)


def min_decompose(u: TabulatedUtility, subset: Iterable, xbar: Sequence) -> List[TabulatedUtility]:
    """Split a product-domain utility into per-axis utilities by freezing at an
    upper bound of ``subset``; then u(x) = min_i u_i(x_i) on the subset."""
    if u.space is None:
        raise UtilityError("min-decomposition needs a product-domain utility")
    space = u.space
    xbar = space._check_point(xbar)
    for s in subset:
        if not space.leq(s, xbar):
            raise DecompositionError(f"{xbar!r} is not an upper bound: misses {tuple(s)!r}")
    return [_axis_slice(u, space.delete(xbar, axis), axis) for axis in range(space.n_axes)]


def _axis_slice(u: TabulatedUtility, rest: Sequence, axis: int) -> TabulatedUtility:
    """The uncertified one-axis table t -> u(rest with t inserted at ``axis``),
    on the factor of ``axis``, whose points sit at a fixed stride in u's index
    order."""
    space = u.space
    factor = space.factors[axis]
    # the index of the slice's first point; u names a point off its domain
    base = u._index_of(space.substitute(rest, axis, factor.point(0)))
    step = space.strides[axis]
    return _sub_table(u, factor, range(base, base + len(factor) * step, step))


def _sub_table(u: TabulatedUtility, poset: FinitePoset, indices: Sequence[int]) -> TabulatedUtility:
    """The uncertified table on ``poset`` of u's values at ``indices``, listed
    in ``poset``'s element order; it reads u's ranks there too when u holds
    its rank table, so no value is compared."""
    column = list(map(u.column.__getitem__, indices))
    ranks = u._rank_table.restrict(indices, u.scale) if u._rank_table is not None else None
    return TabulatedUtility._of_column(poset, column, u.scale, ranks)

