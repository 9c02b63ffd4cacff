"""Quasi-Leontief utility objects: tabulated tables, closed-form families, combinators.

A utility u maps a partially ordered domain into a totally ordered scale.
It is quasi-Leontief when every upper level set u^-1(up(u(x))) has a least
element u°(x) (the interior map); it is regular when every nonempty level
set u^-1(up(lam)) has one (the dual map u#).  Closed forms carry their
interior and dual in formula form; tabulated utilities acquire them through
brute-force certification (see the oracle module).
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as _iproduct
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


class JoinMissingError(UtilityError):
    """A pointwise-min dual needs a join the domain does not provide."""


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
    def closure(self, lam):
        """The closure map value(dual(lam)); extensive, isotone, idempotent."""
        d = self.dual(lam)
        if d is None:
            raise DualDomainError(f"level {lam!r} outside the admissible dual domain")
        return self.value(d)


class LevelSet(NamedTuple):
    """The upper level set {x : u(x) >= lam} of a tabulated utility.

    ``mask`` marks its members by element index and ``least`` is its least
    element, if it has one.  ``detail`` is empty exactly when the set is
    empty or equals up(least); otherwise it says why not, and ``witnesses``
    replay it.
    """

    mask: int
    least: Optional[Element]
    witnesses: Tuple = ()
    detail: str = ""


class TabulatedUtility(_Closure):
    """Utility given by an explicit value table on a finite poset.

    The table must assign exactly one value to every element of ``poset``, a
    ``ProductSpace`` for a product domain (``space``, if given, must be it).
    Interior and dual queries require certification; the oracle module
    produces certified copies, it never mutates.
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
        missing = [e for e in poset.elements if e not in values]
        if missing:
            raise UtilityError(f"no value for element {missing[0]!r}")
        extra = [e for e in values if e not in poset]
        if extra:
            raise UtilityError(f"value for unknown element {extra[0]!r}")
        self.poset = poset
        self.values = {e: values[e] for e in poset.elements}
        self.scale = scale
        self.certified = False
        self._interior: Optional[Dict[Element, Element]] = None
        self._levels: Dict[Any, LevelSet] = {}
        self._image: Optional[Tuple] = None

    @property
    def space(self) -> Optional[ProductSpace]:
        """The domain when it is a product, else None."""
        return self.poset if isinstance(self.poset, ProductSpace) else None

    def _certified_copy(self, interior_table: Dict[Element, Element]) -> "TabulatedUtility":
        new = TabulatedUtility(self.poset, self.values, scale=self.scale)
        new.certified = True
        new._interior = dict(interior_table)
        # same poset, values and scale: every level set carries over
        new._levels = self._levels
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

    def image(self) -> Tuple:
        """Sorted distinct attained values."""
        if self._image is None:
            self._image = tuple(sorted(set(self.values.values())))
        return self._image

    def probe_levels(self, extra: Iterable = ()) -> List:
        """Attained values plus midpoints between consecutive distinct values,
        merged with ``extra``.

        On a finite domain level sets only change at these thresholds; scales
        without arithmetic (any totally ordered values work) probe the attained
        values alone, which already decides every verdict.
        """
        img = self.image()
        probes = list(img)
        for a, b in zip(img, img[1:]):
            try:
                probes.append((a + b) / 2)
            except TypeError:
                break
        probes.extend(extra)
        return sorted(set(probes))

    def level_set(self, lam) -> LevelSet:
        """The level set at ``lam``, built on first use and cached."""
        rec = self._levels.get(lam)
        if rec is None:
            rec = self._levels[lam] = self._build_level_set(lam)
        return rec

    def _build_level_set(self, lam) -> LevelSet:
        # The defining relation is the set equality u^-1(up(lam)) = up(m), not
        # bare least-element existence: a level set of a non-isotone table can
        # have a least element without being upward closed.
        poset, le = self.poset, self.scale.le
        mask = 0
        for i, v in enumerate(self.values.values()):
            if le(lam, v):
                mask |= 1 << i
        if not mask:
            return LevelSet(0, None)
        up = poset._up
        least = next((i for i in _bits(mask) if mask & ~up[i] == 0), None)
        if least is None:
            down = poset._down
            mins = [poset.elements[i] for i in _bits(mask) if mask & down[i] == 1 << i]
            return LevelSet(
                mask, None, tuple(mins[:2]), f"level set at {lam!r} has no least element"
            )
        m = poset.elements[least]
        outside = up[least] & ~mask
        if outside:
            y = poset.elements[(outside & -outside).bit_length() - 1]
            return LevelSet(
                mask,
                m,
                (m, y),
                f"level set at {lam!r} is not the up-set of {m!r}: "
                f"{y!r} lies above it with a smaller value",
            )
        return LevelSet(mask, m)

    def interior(self, x: Element) -> Element:
        if not self.certified:
            raise NotCertifiedError("interior requires a certified utility")
        return self._interior[self._norm(x)]

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

    def grid_points(self) -> Iterable[Tuple]:
        check_size(math.prod(a.count() for a in self.axes))
        return _iproduct(*(a.points() for a in self.axes))

    def grid_space(self) -> ProductSpace:
        return ProductSpace([FinitePoset.chain(a.points()) for a in self.axes])

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


_ORTHANT = "power form needs a domain in the nonnegative orthant"

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
            raise UtilityError(_ORTHANT)
        self.box = box
        self.scale = scale if scale is not None else tolerant()
        self.certified = True

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

    def interior(self, x: Sequence) -> Tuple:
        v = self.value(x)
        return tuple(
            max(ax.lo, self._root(v / c, e))
            for ax, c, e in zip(self.box.axes, self.a, self.alpha)
        )

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
        self.certified = True

    @property
    def n_axes(self) -> int:
        return self.P.shape[0]

    def _check(self, x: Sequence) -> Any:
        if len(x) != self.n_axes:
            raise DomainError(f"point {x!r} has wrong arity")
        return self._np.asarray(x, dtype=float)

    def value(self, x: Sequence) -> float:
        return float((self.P @ self._check(x)).min())

    def interior(self, x: Sequence) -> Tuple:
        v = self.value(x)
        return tuple(v * t for t in self.x_P)

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
        self.certified = getattr(base, "certified", True)

    def value(self, x):
        return self.a * self.base.value(x) + self.b

    def interior(self, x):
        return self.base.interior(x)

    def dual(self, lam):
        return self.base.dual((lam - self.b) / self.a)

    def leq_points(self, x, y):
        return self.base.leq_points(x, y)

    def __repr__(self) -> str:
        return f"AffineUtility({self.a} * {self.base!r} + {self.b})"


class MinProductUtility(_Closure):
    """u(x_1..x_n) = min_i u_i(x_i) over the product of the factor domains.

    All factors must be regular on their own domains; the dual is the tuple
    of factor duals and the interior follows as dual(value(x)).
    """

    def __init__(self, factors: Sequence):
        if not factors:
            raise UtilityError("min-product needs at least one factor")
        self.factors = tuple(factors)
        kinds = {f.scale.kind for f in self.factors}
        if len(kinds) > 1:
            raise UtilityError("factors mix exact and tolerant scales")
        self.scale = self.factors[0].scale
        for f in self.factors:
            if isinstance(f, TabulatedUtility) and not f.certified:
                raise UtilityError("min-product factors must be certified")
        tabulated = all(isinstance(f, TabulatedUtility) for f in self.factors)
        self.space = ProductSpace([f.poset for f in self.factors]) if tabulated else None
        self.certified = True

    def _check(self, x) -> Tuple:
        x = tuple(x)
        if len(x) != len(self.factors):
            raise DomainError(f"point {x!r} has wrong arity")
        return x

    def value(self, x):
        x = self._check(x)
        return min(f.value(c) for f, c in zip(self.factors, x))

    def dual(self, lam) -> Optional[Tuple]:
        parts = []
        for f in self.factors:
            d = f.dual(lam)
            if d is None:
                return None
            parts.append(d)
        return tuple(parts)

    def interior(self, x) -> Tuple:
        d = self.dual(self.value(x))
        assert d is not None
        return d

    def tabulate(self) -> TabulatedUtility:
        """Explicit table on the product poset (factors must be tabulated)."""
        if self.space is None:
            raise UtilityError("only tabulated factors can be tabulated")
        vals = {p: self.value(p) for p in self.space.points()}
        return TabulatedUtility(self.space, vals, scale=self.scale)

    def __repr__(self) -> str:
        return f"MinProductUtility({len(self.factors)} factors)"


class MinPointwiseUtility(_Closure):
    """min_i u_i(x) for utilities on one common domain with binary joins.

    The dual is the join of the factor duals; a missing join is an error.
    """

    def __init__(self, parts: Sequence):
        if not parts:
            raise UtilityError("pointwise min needs at least one part")
        self.parts = tuple(parts)
        kinds = {p.scale.kind for p in self.parts}
        if len(kinds) > 1:
            raise UtilityError("parts mix exact and tolerant scales")
        self.scale = self.parts[0].scale
        first = self.parts[0]
        if isinstance(first, TabulatedUtility):
            for p in self.parts:
                if not isinstance(p, TabulatedUtility) or p.poset != first.poset:
                    raise UtilityError("parts must share one domain poset")
                if not p.certified:
                    raise UtilityError("pointwise-min parts must be certified")
            self.poset: Optional[FinitePoset] = first.poset
            self.box: Optional[Box] = None
        else:
            self.poset = None
            self.box = getattr(first, "box", None)
            if self.box is None:
                raise UtilityError("parts need a shared poset or box domain")
        self.certified = True

    def value(self, x):
        return min(p.value(x) for p in self.parts)

    def dual(self, lam):
        duals = []
        for p in self.parts:
            d = p.dual(lam)
            if d is None:
                return None
            duals.append(d)
        if self.poset is not None:
            out = duals[0]
            for d in duals[1:]:
                j = self.poset.join(out, d)
                if j is None:
                    raise JoinMissingError(f"no join for {out!r} and {d!r}")
                out = j
            return out
        return tuple(max(cs) for cs in zip(*duals))

    def interior(self, x):
        d = self.dual(self.value(x))
        assert d is not None
        return d

    def tabulate(self) -> TabulatedUtility:
        if self.poset is None:
            raise UtilityError("only tabulated parts can be tabulated")
        vals = {e: self.value(e) for e in self.poset.elements}
        return TabulatedUtility(self.poset, vals, scale=self.scale)

    def __repr__(self) -> str:
        return f"MinPointwiseUtility({len(self.parts)} parts)"


class RestrictedUtility(_Closure):
    """Restriction of a closed-form utility to a generated comprehensive subset."""

    def __init__(self, base, generators: Sequence):
        self.base = base
        self.generators = tuple(tuple(g) for g in generators)
        if not self.generators:
            raise UtilityError("restriction needs at least one generator")
        self.scale = base.scale
        self.certified = getattr(base, "certified", True)

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
    """The power form on a box in the nonnegative orthant, whatever the exponents."""
    u = PowerLeontief(a, alpha, box, scale=scale)
    if any(ax.lo < 0 for ax in box.axes):
        raise UtilityError(_ORTHANT)
    return u


def price_matrix_leontief(P: Sequence[Sequence[float]], *, scale: Optional[Scale] = None) -> PriceMatrixLeontief:
    return PriceMatrixLeontief(P, scale=scale)


def min_product(*factors) -> MinProductUtility:
    return MinProductUtility(factors)


def min_pointwise(*parts) -> MinPointwiseUtility:
    return MinPointwiseUtility(parts)


def affine_transform(u, a, b):
    """a * u + b with a > 0; the interior map is unchanged.

    Tabulated utilities are materialized with transformed values (the
    certification table carries over verbatim); closed forms get a wrapper.
    """
    if a <= 0:
        raise UtilityError("affine factor must be strictly positive")
    if isinstance(u, TabulatedUtility):
        new = TabulatedUtility(
            u.poset,
            {e: a * v + b for e, v in u.values.items()},
            scale=u.scale,
        )
        if u.certified:
            new.certified = True
            new._interior = dict(u._interior)
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
        if u.certified:
            new.certified = True
            new._interior = {e: u._interior[e] for e in sub.elements}
        return new
    return RestrictedUtility(u, downset)


def tabulate(u, box: Optional[Box] = None) -> TabulatedUtility:
    """Explicit table of a closed-form utility on its grid box."""
    box = box if box is not None else u.box
    if not box.is_grid():
        raise UtilityError("tabulation needs a fully gridded box")
    space = box.grid_space()
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
    out = []
    for axis, factor in enumerate(space.factors):
        rest = space.delete(xbar, axis)
        vals = {
            t: u.value(space.substitute(rest, axis, t)) for t in factor.elements
        }
        out.append(TabulatedUtility(factor, vals, scale=u.scale))
    return out


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
