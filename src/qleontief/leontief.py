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
A made table arrives with its rank table, and no value is sorted per
point: ``min_product`` and ``min_pointwise`` merge their parts' images in
one sort and take each point's rank as the least of its parts' ranks;
``tabulate`` is the min-product of one table per axis, each term computed
once; ``restrict`` and an exact ``affine_transform`` keep their input's
ranks; the corpus generators rank their own draws.  Only a table given by
hand, or a tolerant affine transform, sorts its values, on first use.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import count, product as _iproduct, repeat
from operator import add, floordiv, mod
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

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
    """The ranks of a table's values, listed by element index.

    ``image`` holds the sorted distinct values and ``rank[i]`` the position of
    element i's value in it.  A table made by the library is handed its rank
    table by its maker, through ``of``; ``__init__`` ranks the values of a
    table given by hand with ``_rank_objects``, and a table file's loader
    ranks its distinct values there too.  ``suffix[r]`` masks the elements of
    rank r or more, and ``suffix[len(image)]`` is 0; ``_suffix_masks`` builds
    them all.  ``levels[s]`` caches the record of the suffix from rank s,
    which every level whose set starts there reads; the empty suffix, s =
    len(image), is the shared ``_EMPTY``.  The rest is filled in on first
    use: ``probes``, the default probe levels paired with their starts, and
    ``slices``, the interior record of each one-axis slice of a product
    table, keyed by (axis, index of the slice's first point).

    On the table's scale, ``lo[r]`` starts the level set at image[r] (see
    ``_band_starts``), and the ranks the scale counts equal to rank r run
    from lo[r] to one past the last s with lo[s] <= r.
    """

    __slots__ = ("rank", "image", "suffix", "lo", "levels", "probes", "slices")

    def __init__(self, values: Sequence, scale: Scale = EXACT):
        self._fill(*_rank_objects(values), scale)

    @classmethod
    def of(cls, rank: List[int], image: Iterable, scale: Scale = EXACT) -> "_Ranks":
        """The rank table with the ranks ``rank``, listed by element index, of
        the sorted distinct values ``image``."""
        new = object.__new__(cls)
        new._fill(rank, image, scale)
        return new

    def _fill(self, rank: List[int], image: Iterable, scale: Scale) -> None:
        """Set the table, with the suffix masks from ``_suffix_masks``."""
        image = tuple(image)
        self.rank = rank
        self.image = image
        self.suffix = _suffix_masks(rank, len(image))
        self.lo = _band_starts(image, scale)
        self.levels: List[Optional[LevelSet]] = [None] * len(image)
        self.probes: Optional[Tuple] = None
        self.slices: Dict[Tuple[int, int], Tuple[int, ...]] = {}

    def restrict(self, indices: Iterable[int], scale: Scale = EXACT) -> "_Ranks":
        """The rank table of the values at ``indices``, listed in that order:
        the ranks they meet, renumbered in order, with no value sorted."""
        sub = [self.rank[i] for i in indices]
        met = sorted(set(sub))
        rank = list(map({r: k for k, r in enumerate(met)}.__getitem__, sub))
        return _Ranks.of(rank, map(self.image.__getitem__, met), scale)


def _rank_objects(objects: Sequence) -> Tuple[List[int], List]:
    """The rank of each of ``objects`` and the sorted distinct values, from
    one sort: equal neighbours merge into one rank, which the first of them
    in ``objects`` stands for in the image.  Fractions, with any ints, sort
    by a float key first, which leaves Fraction comparisons to float ties."""
    order_keys = objects
    types = set(map(type, objects))
    if Fraction in types and types <= _RATIONAL:
        # float() rounds monotonically, so (float(v), v) sorts like v
        # and compares exactly, with Fraction work only on float ties
        try:
            order_keys = list(zip(map(float, objects), objects))
        except OverflowError:
            pass
    order = sorted(range(len(order_keys)), key=order_keys.__getitem__)
    rank = [0] * len(order_keys)
    image: List = []
    r = -1
    for i in order:
        k = order_keys[i]
        if r < 0 or not k == prev:  # a Fraction's == is cheaper than its !=
            image.append(objects[i])
            prev = k
            r += 1
        rank[i] = r
    return rank, image


def _ranks_of(column: List, rank: List[int], scale: Scale) -> _Ranks:
    """The rank table of ``column`` from ranks that order its values but may
    skip some: the ranks met are renumbered in order, and each stands in the
    image by its object at the lowest index, the one ``_rank_objects`` picks."""
    first = dict(zip(reversed(rank), range(len(rank) - 1, -1, -1)))  # the last write is the lowest index
    met = sorted(first)
    if met and met[-1] >= len(met):
        rank = list(map({r: k for k, r in enumerate(met)}.__getitem__, rank))
    return _Ranks.of(rank, [column[first[r]] for r in met], scale)


def _suffix_masks(rank: List[int], m: int) -> List[int]:
    """suffix[r], the mask of the elements of rank r or more, for the m ranks,
    and suffix[m] = 0.  Per element, each OR copies a mask of up to n bits;
    per rank, one byte string of the n ranks is translated and parsed.  The
    switch weighs the two by their costs as timed on CPython 3.11, in units
    of about 3.5 ns: 24 + n/400 per element against n + 200 per rank.  Below
    32 elements the per-rank build's fixed cost loses, so it is not tried."""
    n = len(rank)
    if n >= 32 and m < 256 and m * (n + 200) < n * (24 + n // 400):
        return _suffix_by_rank(rank, m)
    return _suffix_by_element(rank, m)


def _suffix_by_rank(rank: List[int], m: int) -> List[int]:
    """``_suffix_masks`` from one byte per element, the last element first:
    rank r's table maps each rank of r or more to "1", and ``int(..., 2)``
    reads element i's digit as bit i.  Needs m < 256."""
    raw = bytes(rank[::-1])
    return [int(raw.translate(b"0" * r + b"1" * (256 - r)), 2) for r in range(m)] + [0]


def _suffix_by_element(rank: List[int], m: int) -> List[int]:
    """``_suffix_masks`` by setting each element's bit in its rank's mask,
    then OR-ing the masks down the ranks."""
    suffix = [0] * (m + 1)
    for i, k in enumerate(rank):
        suffix[k] |= 1 << i
    for k in range(m - 2, -1, -1):
        suffix[k] |= suffix[k + 1]
    return suffix


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
        self._scale = scale
        self.certified = False
        self._rank_table: Optional[_Ranks] = ranks

    @property
    def scale(self) -> Scale:
        """The value scale.  Setting it bands a rank table already made anew
        on the new scale; its ranks stand, as they do not read the scale."""
        return self._scale

    @scale.setter
    def scale(self, scale: Scale) -> None:
        self._scale = scale
        t = self._rank_table
        if t is not None:
            self._rank_table = _Ranks.of(t.rank, t.image, scale)

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
        merged with ``extra``, in a new list: the levels of ``_probes``.  On
        the exact scale a level set only changes at an attained value, so
        these decide every level; scales without arithmetic (any totally
        ordered values work) probe the attained values alone.  On a tolerant
        scale a level set also changes at v + tolerance for an attained v,
        which no probe need hit: with 0.0 < 1.0 < 1.2 < 3.0 on a < b < c,
        b < d and tolerance 0.5, every probe's set has a least element, but
        the set at 1.65 is {c, d}."""
        return [lam for lam, _ in self._probes(extra)]

    def _probes(self, extra: Iterable = ()) -> List[Tuple[Any, int]]:
        """The probe levels, each paired with the rank where its level set
        starts.  The default pairs are made once per rank table, in one walk
        up the ranks that hashes and sorts no value and keeps each attained
        value the image's own object: image[r] starts at lo[r], and the
        midpoint of ranks k-1 and k at ``_start(mid, k)``.  The midpoint of
        two Fractions p/q and r/s is made as (ps + rq)/2qs, one normalisation
        in place of a sum's and a division's; that of two ints is an exact
        Fraction (their true division rounds to a float, and overflows past
        a float's range), and so is that of a float and an int past a
        float's range, unless the float is infinite: the midpoint is then
        the infinity.  A float midpoint that rounds onto a neighbour is left
        out; one that falls outside its neighbours (a sum that overflows to
        an infinity, an int that rounds on its way to a float) is a stray.  Strays and ``extra`` are merged
        in by one sort of the set, each with its start from ``_start``.
        """
        t = self._ranks()
        if t.probes is None:
            img, lo = t.image, t.lo
            pairs, strays = [], []
            for k in range(1, len(img)):
                a, b = img[k - 1], img[k]
                pairs.append((a, lo[k - 1]))
                try:
                    if type(a) is Fraction and type(b) is Fraction:
                        (p, q), (r, s) = a.as_integer_ratio(), b.as_integer_ratio()
                        mid = Fraction(p * s + r * q, 2 * q * s)
                    else:
                        mid = a + b
                        mid = Fraction(mid, 2) if type(mid) is int else mid / 2
                except TypeError:
                    pairs += zip(img[k:], lo[k:])
                    break
                except OverflowError:  # a float next to an int past a float's range
                    inf = [v for v in (a, b) if v in (math.inf, -math.inf)]
                    mid = inf[0] if inf else (Fraction(a) + Fraction(b)) / 2  # an infinity is left out below
                if type(mid) is not float or a < mid < b:
                    pairs.append((mid, self._start(mid, k)))
                elif mid != a and mid != b:
                    strays.append(mid)
            else:
                pairs += zip(img[-1:], lo[-1:])
            t.probes = tuple(pairs)
            if strays:
                t.probes = tuple(self._probes(strays))
        extra = tuple(extra)
        if not extra:
            return list(t.probes)
        return [(lam, self._start(lam)) for lam in sorted({lam for lam, _ in t.probes}.union(extra))]

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
        """The record of the level set at ``lam``, read where it starts."""
        return self._record(self._start(lam))

    def level_of(self, i: int) -> LevelSet:
        """The level set at the value of element index i: it starts at lo[rank[i]]."""
        t = self._ranks()
        return self._record(t.lo[t.rank[i]])

    def _start(self, lam, r: Optional[int] = None) -> int:
        """The rank where the level set at ``lam`` starts, given r, the first
        rank at or above ``lam`` (bisected if not given): r on the exact scale.
        On a tolerant one the set can take in lower ranks, and le(lam, v) is
        monotone in v, so a bisection below r finds the start."""
        img = self._ranks().image
        if r is None:
            r = bisect_left(img, lam)
        if self.scale.kind == "exact":
            return r
        le = self.scale.le
        return bisect_left(img, True, 0, r, key=lambda v: le(lam, v))

    def _record(self, s: int) -> LevelSet:
        """The record of the level set that starts at rank s, built on first
        use and cached by s; the empty suffix, s = len(image), is ``_EMPTY``."""
        t = self._ranks()
        if s == len(t.image):
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
        least, up = poset._least_and_up(mask)
        if least is None:
            mins = poset._unmask(poset._minimal_in(mask))
            return LevelSet(mask, None, mins[:2], "has no least element")
        m = poset.point(least)
        outside = up & ~mask
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
        return self._top()[0] + 1

    def _top(self) -> Tuple[int, Any]:
        """n and the top point: the grid is lo + i * step for i < n, then the
        top.  Where a bound is a float and n steps reach ``hi`` up to rounding
        (n is ``math.isclose`` to the span in steps), the top is ``hi``
        itself when lo + n * step rounds off it, above or below."""
        if self.step is None:
            raise UtilityError("axis has no grid step")
        span = (self.hi - self.lo) / self.step
        if isinstance(span, float) and not math.isfinite(span):
            raise UtilityError(f"axis {self!r} has no finite number of grid points")
        n = int(round(span)) if isinstance(span, float) else int(span)
        if float in {type(self.lo), type(self.hi), type(self.step)} and math.isclose(n, span):
            top = self.lo + n * self.step
            return n, top if top == self.hi else self.hi
        while self.lo + n * self.step > self.hi:
            n -= 1
        return n, self.lo + n * self.step

    def points(self) -> Tuple:
        n, top = self._top()
        check_size(n + 1)
        # index arithmetic avoids float accumulation drift
        return tuple(self.lo + i * self.step for i in range(n)) + (top,)

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


def _scale_of(values: Iterable, scales: Iterable[Scale] = ()) -> Scale:
    """The one scale rule of a made table: exact when every one of ``values``
    is an int or a Fraction, else the first tolerant one of ``scales`` (those
    of its inputs), else ``tolerant()``."""
    if set(map(type, values)) <= _RATIONAL:
        return EXACT
    return next((s for s in scales if s.kind == "tolerant"), None) or tolerant()


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
    is exact unless a coefficient is not rational (``_scale_of``)."""
    a = tuple(a)
    return PowerLeontief(a, (1,) * len(a), box, scale=scale if scale is not None else _scale_of(a))


def _require_tables(name: str, utilities: Sequence) -> None:
    if not all(isinstance(u, TabulatedUtility) for u in utilities):
        raise UtilityError(f"{name} needs tables; a closed form is a table only on a gridded box")


def min_product(*factors) -> TabulatedUtility:
    """min_i u_i(x_i): the uncertified table on the ``ProductSpace`` of the
    factor posets, on the scale ``_scale_of`` reads off its values and the
    factors' scales, with its rank table from ``_min_table``.  Every factor
    must be a table; ``tabulate`` gives the table of a closed form on a
    gridded box."""
    if not factors:
        raise UtilityError("min-product needs at least one factor")
    _require_tables("min-product", factors)
    space = ProductSpace([f.poset for f in factors])
    check_size(len(space))
    # the factor columns in mixed radix, last fastest: the order of ``points``
    return _min_table(space, factors, _iproduct, [f.scale for f in factors])


def min_pointwise(*parts) -> TabulatedUtility:
    """min_i u_i(x): the uncertified table of the minimum of tables on one
    domain poset, on the scale ``_scale_of`` reads off its values and the
    parts' scales, with its rank table from ``_min_table``."""
    if not parts:
        raise UtilityError("pointwise min needs at least one part")
    if not all(isinstance(p, TabulatedUtility) and p.poset == parts[0].poset for p in parts):
        raise UtilityError("pointwise min needs tables that share one domain poset")
    return _min_table(parts[0].poset, parts, zip, [p.scale for p in parts])


def _min_table(poset: FinitePoset, parts: Sequence[TabulatedUtility], combine, scales) -> TabulatedUtility:
    """The table of the minimum of ``parts`` at each point of ``poset``,
    where ``combine`` (``zip`` or ``product``) lists each point's entries,
    one per part, and its rank table, with no value compared per point.

    One sort merges the parts' images (the whole column of a part with no
    rank table yet).  Entry i of the parts' columns, listed one after the
    other (n entries), gets the key merged rank * n + i, so the least key
    at a point names its least value and, among equal ones, the first,
    the object ``min`` picks; ``_ranks_of`` drops the ranks no point
    attains."""
    entries = [v for p in parts for v in p.column]
    n = len(entries)
    ranked = [(p.column, range(len(p.column))) if p._rank_table is None
              else (p._rank_table.image, p._rank_table.rank) for p in parts]
    merged, _ = _rank_objects([v for image, _ in ranked for v in image])
    keys, at, i = [], 0, 0
    for image, rank in ranked:
        scaled = [r * n for r in merged[at:at + len(image)]]
        keys.append(list(map(add, map(scaled.__getitem__, rank), count(i))))
        at, i = at + len(image), i + len(rank)
    least = list(map(min, combine(*keys)))
    column = list(map(entries.__getitem__, map(mod, least, repeat(n))))
    scale = _scale_of(column, scales)
    rank = list(map(floordiv, least, repeat(n)))
    return TabulatedUtility._of_column(poset, column, scale, _ranks_of(column, rank, scale))


def affine_transform(u: TabulatedUtility, a, b) -> TabulatedUtility:
    """a * u + b with a > 0: the table of the transformed values, whose
    interior map is u's, on the scale ``_scale_of`` reads off them and u's
    scale.  It is certified when u is and both scales are exact; a tolerant
    one compares the rescaled gaps to the same tolerance.  On the exact
    scale every value is rational and the map strictly increasing, so the
    table keeps u's ranks; on a tolerant one rounding may merge values, and
    they are sorted."""
    _require_tables("affine transform", [u])
    if a <= 0:
        raise UtilityError("affine factor must be strictly positive")
    column = [a * v + b for v in u.column]
    scale = _scale_of(column, [u.scale])
    bad = next((i for i, v in enumerate(column) if not _in_float_range(v, scale)), None)
    if bad is not None:
        raise UtilityError(f"the affine transform at {u.poset.point(bad)!r} overflows a float")
    ranks = _ranks_of(column, u._ranks().rank, scale) if scale.kind == "exact" else None
    new = TabulatedUtility._of_column(u.poset, column, scale, ranks)
    new.certified = u.certified and u.scale.kind == scale.kind == "exact"
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
    of one chain per axis; every axis needs a step.  It is ``_min_table`` of
    one table per axis, so each axis term a_i t^alpha_i is computed once and
    the table comes with its ranks.  The table is on the scale ``_scale_of``
    reads off its values and u's scale; u keeps its own.  Where a grid point
    leaves the box or a term fails (a power over ``MAX_POWER_BITS``, a float
    overflow), the table is made point by point, which raises at the first
    point that fails."""
    check_size(math.prod(check_size(a.count()) for a in u.box.axes))  # before any chain is built
    chains = [FinitePoset.chain(a.points()) for a in u.box.axes]
    space = ProductSpace(chains)
    le = u.scale.le
    try:
        axes = [TabulatedUtility._of_column(chain, [c * u._pow(t, e) for t in chain.elements], u.scale)
                for chain, c, e in zip(chains, u.a, u.alpha)]
        table = _min_table(space, axes, _iproduct, [u.scale])
        fault = not all(le(ax.lo, t) and le(t, ax.hi) for ax, chain in zip(u.box.axes, chains)
                        for t in chain.elements) or not all(_in_float_range(v, u.scale) for v in table.image())
    except (OverflowError, UtilityError):
        fault = True
    if fault:
        column = list(map(u.value, space.points()))
        return TabulatedUtility._of_column(space, column, _scale_of(column, [u.scale]))
    return table


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

