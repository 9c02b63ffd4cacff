"""Quasi-Leontief utility objects: tabulated tables, closed-form families, combinators.

A utility u maps a partially ordered domain into a totally ordered scale.
It is quasi-Leontief when every upper level set u^-1(up(u(x))) has a least
element u°(x) (the interior map); it is regular when every nonempty level
set u^-1(up(lam)) has one (the dual map u#).  Closed forms carry their dual
in formula form; a table reads its dual off its cached level records once
the oracle has certified it (see the oracle module).  Both read the interior
off the dual, u° = u# ∘ u.  ``tabulate`` turns a closed form on a gridded
box into its table.
Every combinator maps tables to a table (``affine_transform``, ``restrict``,
``min_product``, ``min_pointwise``), so a combined table is certified like
any other.  ``min_product`` and ``min_pointwise`` take tables only;
``affine_transform`` and ``restrict`` also wrap a closed form, and only
those wrappers compute a dual by formula.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .order import DownSet, EXACT, Element, FinitePoset, ProductSpace, Scale, _bits, check_size, tolerant


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


class HomogeneityError(UtilityError):
    """Coefficient recovery found a homogeneity violation."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"homogeneity violated at {witness!r}")


class MinFormError(UtilityError):
    """Coefficient recovery found a point where u differs from min_i a_i x_i."""

    def __init__(self, witness, coefficients, expected, got):
        self.witness = witness
        self.coefficients = tuple(coefficients)
        self.expected = expected
        self.got = got
        super().__init__(
            f"min-form identity fails at {witness!r}: "
            f"u={expected!r} but min(a_i x_i)={got!r} with a={self.coefficients!r}"
        )


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
    element, if it has one.  ``fault`` is empty exactly when the set is
    empty or equals up(least); otherwise it says why not, free of the level,
    and ``witnesses`` replay it.
    """

    mask: int
    least: Optional[Element]
    witnesses: Tuple = ()
    fault: str = ""

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
    use: ``probes``, the default probe levels; ``regular``, whether every
    level set at them is the up-set of its least element; and ``pairs``, the
    oracle's first failing pairs of property Phi and of the meet identity.
    """

    __slots__ = ("rank", "image", "suffix", "levels", "probes", "regular", "pairs")

    def __init__(self, values: Sequence):
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
        suffix = [0] * (r + 2)
        if len(distinct) < len(values):
            # each element takes its object's rank; the masks OR up per rank,
            # then down the ranks, with no second sort of the elements; when
            # no object is shared, the running mask below ORs half as often
            rank = list(map(dict(zip(objects, rank)).__getitem__, map(id, values)))
            for i, k in enumerate(rank):
                suffix[k] |= 1 << i
            for k in range(r - 1, -1, -1):
                suffix[k] |= suffix[k + 1]
        else:
            mask = 0
            for i in reversed(order):
                mask |= 1 << i
                suffix[rank[i]] = mask
        self.rank = rank
        self.image = tuple(image)
        self.suffix = suffix
        self.levels: List[Optional[LevelSet]] = [None] * (r + 1)
        self.probes: Optional[Tuple] = None
        self.regular: Optional[bool] = None
        self.pairs: Optional[Tuple] = None

    def restrict(self, indices: Iterable[int]) -> "_Ranks":
        """The rank table of the values at ``indices``, listed in that order:
        the ranks they meet, renumbered in order, with no value compared."""
        sub = [self.rank[i] for i in indices]
        met = sorted(set(sub))
        new = object.__new__(_Ranks)
        new.rank = rank = list(map({r: k for k, r in enumerate(met)}.__getitem__, sub))
        new.image = tuple(map(self.image.__getitem__, met))
        new.suffix = suffix = [0] * (len(met) + 1)
        for i, k in enumerate(rank):
            suffix[k] |= 1 << i
        for k in range(len(met) - 2, -1, -1):
            suffix[k] |= suffix[k + 1]
        new.levels = [None] * len(met)
        new.probes = new.regular = new.pairs = None
        return new


class TabulatedUtility(_Closure):
    """Utility given by an explicit value table on a finite poset.

    The table must assign exactly one value to every element of ``poset``, a
    ``ProductSpace`` for a product domain (``space``, if given, must be it).
    Interior and dual queries require certification; the oracle module
    produces certified copies, it never mutates.  Every question about the
    order of the values reads one rank table (``_ranks``): the image, the
    level sets and the oracle's value bands.
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
            table = {e: values[e] for e in poset.elements}
        except KeyError as exc:
            raise UtilityError(f"no value for element {exc.args[0]!r}") from None
        if len(table) < len(values):  # every element has its value, so the rest are extra
            extra = next(e for e in values if e not in table)
            raise UtilityError(f"value for unknown element {extra!r}")
        self._fill(poset, table, scale)

    def _fill(self, poset, table, scale, ranks=None) -> None:
        self.poset = poset
        self.values = table
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
        new._fill(poset, dict(zip(poset.elements, column)), scale, ranks)
        return new

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

    def _norm(self, x: Element) -> Element:
        try:
            if x in self.values:
                return x
        except TypeError:
            pass
        # product points may arrive as lists
        if self.space is not None:
            t = tuple(x)
            if t in self.values:
                return t
        raise DomainError(f"point {x!r} outside domain")

    def value(self, x: Element):
        return self.values[self._norm(x)]

    def _ranks(self) -> _Ranks:
        """The rank table of the values, built on first use and shared with
        certified copies."""
        if self._rank_table is None:
            self._rank_table = _Ranks(list(self.values.values()))
        return self._rank_table

    def image(self) -> Tuple:
        """Sorted distinct attained values."""
        return self._ranks().image

    def probe_levels(self, extra: Iterable = ()) -> List:
        """Attained values plus midpoints between consecutive distinct values,
        merged with ``extra``.

        On a finite domain level sets only change at these thresholds; scales
        without arithmetic (any totally ordered values work) probe the attained
        values alone, which already decides every verdict.  The default
        probes are made once per rank table; each call returns a new list.
        """
        t = self._ranks()
        if t.probes is None:
            img = t.image
            probes = list(img)
            for a, b in zip(img, img[1:]):
                try:
                    probes.append((a + b) / 2)
                except TypeError:
                    break
            t.probes = tuple(sorted(set(probes)))
        extra = tuple(extra)
        return sorted(set(t.probes).union(extra)) if extra else list(t.probes)

    def level_set(self, lam) -> LevelSet:
        """The level set at ``lam`` (see ``_level``)."""
        return self._level(lam, bisect_left(self._ranks().image, lam))

    def level_of(self, i: int) -> LevelSet:
        """The level set at the value of element index i, found by its rank."""
        t = self._ranks()
        r = t.rank[i]
        return self._level(t.image[r], r)

    def _level(self, lam, r: int) -> LevelSet:
        """The record of the level set at ``lam``, given r, the first rank at
        or above ``lam``: built on first use and cached by the rank where its
        suffix starts."""
        s = self._level_start(lam, r)
        levels = self._rank_table.levels
        if s == len(levels):
            return _EMPTY
        rec = levels[s]
        if rec is None:
            rec = levels[s] = self._build_level_set(s)
        return rec

    def _level_start(self, lam, r: int) -> int:
        """The lowest rank in the level set at ``lam``, given r, the first
        rank at or above ``lam``.

        le(lam, v) is monotone in v on both scales (float addition rounds
        monotonically), so the level set is a suffix of the sorted values.  On
        the exact scale le is <=, so the suffix starts at r; a tolerant scale
        can take in lower ranks, and a bisection below r finds the first.
        """
        if self.scale.kind == "exact":
            return r
        le = self.scale.le
        return bisect_left(self._ranks().image, True, 0, r, key=lambda v: le(lam, v))

    def _build_level_set(self, s: int) -> LevelSet:
        # The defining relation is the set equality u^-1(up(lam)) = up(m), not
        # bare least-element existence: a level set of a non-isotone table can
        # have a least element without being upward closed.
        poset = self.poset
        mask = self._rank_table.suffix[s]
        up = poset._up
        least = None
        for i in _bits(mask):
            if mask & ~up[i] == 0:
                least = i
                break
        if least is None:
            down = poset._down
            mins = [poset.elements[i] for i in _bits(mask) if mask & down[i] == 1 << i]
            return LevelSet(mask, None, tuple(mins[:2]), "has no least element")
        m = poset.elements[least]
        outside = up[least] & ~mask
        if outside:
            y = poset.elements[(outside & -outside).bit_length() - 1]
            return LevelSet(mask, m, (m, y), f"is not the up-set of {m!r}: "
                                             f"{y!r} lies above it with a smaller value")
        return LevelSet(mask, m)

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

    def admissible_levels(self, extra: Iterable = ()) -> Tuple:
        """Probe levels (see ``probe_levels``) where the dual is defined."""
        if not self.certified:
            raise NotCertifiedError("dual requires a certified utility")
        return tuple(
            lam for lam in self.probe_levels(extra) if self.level_set(lam).least is not None
        )

    def __repr__(self) -> str:
        tag = "certified" if self.certified else "uncertified"
        return f"TabulatedUtility({len(self.poset)} elements, {tag})"


def constant_utility(poset: FinitePoset, level) -> TabulatedUtility:
    """Constant map; only a poset with a bottom element admits one as quasi-Leontief."""
    if poset.bottom() is None:
        raise UtilityError("constant utility needs a domain with a bottom element")
    return TabulatedUtility(poset, {e: level for e in poset.elements})


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

    @classmethod
    def integer_grid(cls, n: int, lo: int, hi: int) -> "Box":
        return cls([BoxAxis(lo, hi, 1) for _ in range(n)])

    @property
    def n_axes(self) -> int:
        return len(self.axes)

    def top(self) -> Tuple:
        return tuple(a.hi for a in self.axes)

    def bottom(self) -> Tuple:
        return tuple(a.lo for a in self.axes)

    def contains(self, x: Sequence, scale: Scale) -> bool:
        return len(x) == len(self.axes) and all(
            scale.le(a.lo, c) and scale.le(c, a.hi) for a, c in zip(self.axes, x)
        )

    def is_grid(self) -> bool:
        return all(a.step is not None for a in self.axes)

    def __repr__(self) -> str:
        return "Box(" + " x ".join(map(repr, self.axes)) + ")"


def _leq_pointwise(scale: Scale, x: Sequence, y: Sequence) -> bool:
    return all(scale.le(a, b) for a, b in zip(x, y))


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
            if self.scale.kind == "tolerant":
                float(min(terms))  # the scale adds a float tolerance to every value
            return terms
        except OverflowError:
            raise UtilityError(f"the power form at {x!r} overflows a float") from None

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

    def on_efficiency_locus(self, x: Sequence) -> bool:
        terms = self._terms(x)
        return all(self.scale.eq(terms[0], t) for t in terms[1:])

    def leq_points(self, x: Sequence, y: Sequence) -> bool:
        return _leq_pointwise(self.scale, self._check(x), self._check(y))

    def __repr__(self) -> str:
        return f"PowerLeontief(a={self.a}, alpha={self.alpha})"


class PriceMatrixLeontief(_Closure):
    """u(x) = min_i p_i . x for linearly independent nonnegative price rows.

    The domain is R^n ordered by x <=_P y iff P x <= P y componentwise.
    The solved vector x_P with P x_P = 1 gives interior(x) = u(x) x_P and
    dual(lam) = lam x_P.
    """

    def __init__(self, P: Sequence[Sequence[float]], *, scale: Optional[Scale] = None):
        import numpy as np

        self._np = np
        mat = np.asarray(P, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise UtilityError("price matrix must be square")
        if (mat < 0).any():
            raise UtilityError("price rows must be nonnegative")
        self.P = mat
        self.scale = scale if scale is not None else tolerant()
        ones = np.ones(mat.shape[0])
        try:
            xp = np.linalg.solve(mat, ones)
        except np.linalg.LinAlgError as exc:
            raise UtilityError(f"singular price matrix: {exc}") from exc
        if not np.allclose(mat @ xp, ones, atol=max(self.scale.tolerance, 1e-12)):
            raise UtilityError("linear solve failed to satisfy P x_P = 1")
        self.x_P = tuple(float(t) for t in xp)

    @property
    def n_axes(self) -> int:
        return self.P.shape[0]

    def _check(self, x: Sequence) -> Any:
        if len(x) != self.n_axes:
            raise DomainError(f"point {x!r} has wrong arity")
        return self._np.asarray(x, dtype=float)

    def value(self, x: Sequence) -> float:
        return float((self.P @ self._check(x)).min())

    def dual(self, lam) -> Tuple:
        return tuple(float(lam) * t for t in self.x_P)

    def leq_points(self, x: Sequence, y: Sequence) -> bool:
        px = self.P @ self._check(x)
        py = self.P @ self._check(y)
        return bool((px <= py + self.scale.tolerance).all())

    def __repr__(self) -> str:
        return f"PriceMatrixLeontief(n={self.n_axes})"


class AffineUtility(_Closure):
    """a * u + b with a > 0; shares the interior map of the base utility."""

    def __init__(self, base, a, b):
        if a <= 0:
            raise UtilityError("affine factor must be strictly positive")
        self.base = base
        self.a = a
        self.b = b
        self.scale = base.scale

    def value(self, x):
        return self.a * self.base.value(x) + self.b

    def interior(self, x):
        # not dual(value(x)): (a * v + b - b) / a need not equal v in floats
        return self.base.interior(x)

    def dual(self, lam):
        return self.base.dual((lam - self.b) / self.a)

    def leq_points(self, x, y):
        return self.base.leq_points(x, y)

    def __repr__(self) -> str:
        return f"AffineUtility({self.a} * {self.base!r} + {self.b})"


class RestrictedUtility(_Closure):
    """Restriction of a closed-form utility to a generated comprehensive subset."""

    def __init__(self, base, generators: Sequence):
        self.base = base
        self.generators = tuple(tuple(g) for g in generators)
        if not self.generators:
            raise UtilityError("restriction needs at least one generator")
        self.scale = base.scale

    def _member(self, x) -> bool:
        return any(self.base.leq_points(x, g) for g in self.generators)

    def value(self, x):
        if not self._member(x):
            raise DomainError(f"point {x!r} outside the restricted domain")
        return self.base.value(x)

    def interior(self, x):
        self.value(x)
        return self.base.interior(x)

    def dual(self, lam):
        d = self.base.dual(lam)
        if d is None or not self._member(d):
            return None
        return d

    def leq_points(self, x, y):
        return self.base.leq_points(x, y)

    def __repr__(self) -> str:
        return f"RestrictedUtility({self.base!r}, {len(self.generators)} generators)"


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


def power_leontief(
    a: Sequence, alpha: Sequence, box: Box, *, scale: Optional[Scale] = None
) -> PowerLeontief:
    """The power form; a box outside the nonnegative orthant needs every exponent 1."""
    return PowerLeontief(a, alpha, box, scale=scale)


def price_matrix_leontief(P: Sequence[Sequence[float]], *, scale: Optional[Scale] = None) -> PriceMatrixLeontief:
    return PriceMatrixLeontief(P, scale=scale)


def _shared_scale(utilities: Sequence, name: str, noun: str) -> Scale:
    """The scale of the first of ``utilities``, which must be nonempty and
    agree on exact versus tolerant."""
    if not utilities:
        raise UtilityError(f"{name} needs at least one {noun}")
    if len({u.scale.kind for u in utilities}) > 1:
        raise UtilityError(f"{noun}s mix exact and tolerant scales")
    return utilities[0].scale


def min_product(*factors) -> TabulatedUtility:
    """min_i u_i(x_i): the uncertified table on the ``ProductSpace`` of the
    factor posets.  Every factor must be a table; ``tabulate`` gives the
    table of a closed form on a gridded box."""
    if not all(isinstance(f, TabulatedUtility) for f in factors):
        raise UtilityError("min-product needs tables; a closed form is a table only on a gridded box")
    scale = _shared_scale(factors, "min-product", "factor")
    space = ProductSpace([f.poset for f in factors])
    vals = {p: min(f.values[c] for f, c in zip(factors, p)) for p in space.points()}
    return TabulatedUtility(space, vals, scale=scale)


def min_pointwise(*parts) -> TabulatedUtility:
    """min_i u_i(x): the uncertified table of the minimum of tables on one
    domain poset."""
    if not all(isinstance(p, TabulatedUtility) and p.poset == parts[0].poset for p in parts):
        raise UtilityError("pointwise min needs tables that share one domain poset")
    scale = _shared_scale(parts, "pointwise min", "part")
    vals = {e: min(p.values[e] for p in parts) for e in parts[0].poset.elements}
    return TabulatedUtility(parts[0].poset, vals, scale=scale)


def affine_transform(u, a, b):
    """a * u + b with a > 0; the interior map is unchanged.

    Tabulated utilities are materialized with transformed values, certified
    only on the exact scale (a tolerant one compares the rescaled gaps to the
    same tolerance); closed forms get a wrapper.
    """
    if a <= 0:
        raise UtilityError("affine factor must be strictly positive")
    if isinstance(u, TabulatedUtility):
        new = TabulatedUtility(
            u.poset,
            {e: a * v + b for e, v in u.values.items()},
            scale=u.scale,
        )
        new.certified = u.certified and u.scale.kind == "exact"
        return new
    return AffineUtility(u, a, b)


def restrict(u, downset: Union[DownSet, Sequence]):
    """Restrict u to a comprehensive subset.

    Tabulated utilities are restricted to the induced sub-poset (certification
    carries over: interiors of members stay inside a comprehensive set).
    Closed forms take a finite generator list.
    """
    if isinstance(u, TabulatedUtility):
        if not isinstance(downset, DownSet):
            raise UtilityError("tabulated restriction needs a DownSet")
        if downset.space != u.poset:
            raise UtilityError("down-set lives in a different poset")
        sub = u.poset.induced(downset.sorted_members())
        new = TabulatedUtility(
            sub, {e: u.values[e] for e in sub.elements}, scale=u.scale
        )
        new.certified = u.certified
        return new
    return RestrictedUtility(u, downset)


def tabulate(u) -> TabulatedUtility:
    """Explicit table of a closed-form utility on its grid box, the product
    of one chain per axis; every axis needs a step."""
    check_size(math.prod(check_size(a.count()) for a in u.box.axes))  # before any chain is built
    space = ProductSpace([FinitePoset.chain(a.points()) for a in u.box.axes])
    vals = {p: u.value(p) for p in space.points()}
    return TabulatedUtility(space, vals, scale=u.scale)


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
    on the factor of ``axis``.

    Its points sit at a fixed stride in the parent's index order, so the
    slice reads the parent's values there and, when the parent holds its rank
    table, the parent's ranks too; no value is compared.
    """
    space = u.space
    factor = space.factors[axis]
    # the index of the slice's first point; u names a point off its domain
    base = u.poset._index[u._norm(space.substitute(rest, axis, factor.elements[0]))]
    step = space._strides()[axis]
    indices = range(base, base + len(factor) * step, step)
    column = [u.values[u.poset.elements[i]] for i in indices]
    ranks = u._rank_table.restrict(indices) if u._rank_table is not None else None
    return TabulatedUtility._of_column(factor, column, u.scale, ranks)


def recover_leontief_coefficients(
    u,
    probes: Iterable[Sequence],
    top: Sequence,
    *,
    scale: Optional[Scale] = None,
    homogeneity_factors: Sequence = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
    max_halvings: int = 60,
) -> Tuple:
    """Recover coefficients a with u(x) = min_i a_i x_i on a positive box.

    Each a_i is read off the one-axis function t -> u(top with axis i at t):
    the ratio u(.)/t is tracked down a halving sequence of t and accepted once
    it stabilizes (exact for min-of-linear forms); if it never stabilizes the
    ratio at the top is used and the min-form check below reports the witness.
    Homogeneity of u is probed multiplicatively first.
    """
    value = u.value if hasattr(u, "value") else u
    probes = [tuple(p) for p in probes]
    top = tuple(top)
    if any(t <= 0 for t in top):
        raise UtilityError("recovery needs a strictly positive top corner")
    sc = scale if scale is not None else getattr(u, "scale", _infer_scale(*top))

    for x in probes:
        ux = value(x)
        for lam in homogeneity_factors:
            scaled = tuple(lam * c for c in x)
            lhs = value(scaled)
            rhs = lam * ux
            tol = max(sc.tolerance, 1e-9 * max(1, abs(rhs))) if sc.kind == "tolerant" else 0
            if abs(lhs - rhs) > tol:
                raise HomogeneityError((x, lam, lhs, rhs))

    coeffs = []
    for axis in range(len(top)):
        def axis_value(t):
            pt = top[:axis] + (t,) + top[axis + 1 :]
            return value(pt)

        t = top[axis]
        first = axis_value(t) / t
        ratio = first
        found = None
        for _ in range(max_halvings):
            t2 = t / 2
            r2 = axis_value(t2) / t2
            if sc.eq(r2, ratio):
                found = r2
                break
            ratio, t = r2, t2
        coeffs.append(found if found is not None else first)

    for x in probes:
        got = min(c * t for c, t in zip(coeffs, x))
        expected = value(x)
        if not sc.eq(expected, got):
            raise MinFormError(x, coeffs, expected, got)
    return tuple(coeffs)
