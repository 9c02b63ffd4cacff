"""Brute-force certifiers for quasi-Leontief structure on finite posets.

Every certifier enumerates; a pass verdict is re-checkable by independent
re-enumeration and a fail verdict carries a concrete witness that violates
the stated predicate when replayed.  The certifiers cross-check each other:
on a finite poset, regular quasi-Leontief (every nonempty upper level set
has a least element) is equivalent to isotone + common-lower-bound minima
(property Phi) + lower-bounded level sets, and on inf-semilattices to the
meet-homomorphism identity u(x ^ y) = min(u(x), u(y)).  On a finite domain
the lowest level set is the whole domain, so lower-bounded level sets is one
test for a least element.

The CLI's ``check`` runs ``certify_regular`` once ``certify_quasi_leontief``
passes and lists every other certificate as passed, on either scale.  The
quasi-Leontief certificate shows that each attained level set L(u(x)) is
up(m_x), the up-set of its least element.  Then up(x) lies in L(u(x)), so u
is isotone, and the lowest level set, the whole domain, is up(bottom).  For
u(x) <= u(y), m = m_x lies below x and y, and x lies in L(u(m)) = up(m_u(m)),
so ``le`` holds both ways between u(m) and u(x) (``eq`` is the symmetric part
of ``le``): property Phi.  The same with p = x ^ y in place of m (m <= p <= x)
gives the meet identity.  Each level record that regularity reads has shown
mask == up(least), so its dual table passes ``verify_galois``.  Only
regularity can fail after that, and only on a tolerant scale: where the
scale orders the attained values strictly (``_strictly_ordered``), every
level set is an attained one.  Every certifier here sweeps, and none keeps
its verdict on the rank table; they stay the independent reference of the
``corpus`` suites and the tests.  Property Phi and the meet identity are
read off one plain pass over the index pairs (``_pair_failures``).
"""
from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .leontief import TabulatedUtility
from .order import Element, OrderError


class InconsistencyError(AssertionError):
    """Two certifiers that must agree disagreed; this is a bug, not a verdict."""


class CertificationError(ValueError):
    """A required certification failed; carries the failing certificate."""

    def __init__(self, certificate: "Certificate"):
        self.certificate = certificate
        super().__init__(
            f"{certificate.prop} failed: {certificate.detail} "
            f"witnesses={list(certificate.witnesses)!r}"
        )


class _CertificateFields(NamedTuple):
    ok: bool
    prop: str
    witnesses: Tuple
    dual_table: Optional[Dict[Any, Element]]
    detail: str
    utility: Optional[TabulatedUtility]
    data: Dict[str, Any]


class Certificate(_CertificateFields):
    """Verdict of one certifier run.

    A failing certificate always carries witnesses re-checkable against the
    property named in ``prop``; a passing regularity certificate carries the
    dual table it built.  A certificate made without ``data`` gets a dict of
    its own.
    """

    __slots__ = ()

    def __new__(cls, ok: bool, prop: str, witnesses: Tuple = (),
                dual_table: Optional[Dict[Any, Element]] = None, detail: str = "",
                utility: Optional[TabulatedUtility] = None,
                data: Optional[Dict[str, Any]] = None) -> "Certificate":
        return super().__new__(cls, ok, prop, witnesses, dual_table, detail, utility,
                               {} if data is None else data)

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        """The certificate as a report object.  Nothing is sorted: the report
        writer orders every object's keys.  A dual table's key is its level's
        string form (``encode_value``'s, for a Fraction), and distinct levels
        have distinct ones; each distinct least point is encoded once, and
        the levels it answers share its encoding."""
        from .io import encode_elem

        out: Dict[str, Any] = {
            "verdict": "pass" if self.ok else "fail",
            "property": self.prop,
            "witnesses": [encode_elem(w) for w in self.witnesses],
        }
        if self.dual_table is not None:
            encoded = {x: encode_elem(x) for x in set(self.dual_table.values())}
            out["dual_table"] = {str(lam): encoded[x] for lam, x in self.dual_table.items()}
        if self.detail:
            out["detail"] = self.detail
        if self.data:
            out["data"] = dict(self.data)
        return out


def certify_quasi_leontief(u: TabulatedUtility) -> Certificate:
    """Check that every upper level set u^-1(up(u(x))) is the up-set of a
    single point (its least element), one record per attained value.

    A failure reports the lowest-index element whose record fails; on pass
    the certificate carries a certified copy of the utility.
    """
    t = u._rank_table
    bad = 0
    for r, s in enumerate(t.lo):
        if u._record(s).fault:
            bad |= t.suffix[r] ^ t.suffix[r + 1]
    if bad:
        i = (bad & -bad).bit_length() - 1
        level = u.level_of(i)
        detail = level.detail(t.image[t.rank[i]])  # 1 and an equal Fraction print apart
        return Certificate(False, "quasi-leontief", witnesses=level.witnesses,
                           detail=f"for {u.poset.point(i)!r}: {detail}")
    return Certificate(True, "quasi-leontief", utility=u._certified_copy())


def certify_regular(
    u: TabulatedUtility, probe_levels: Iterable = ()
) -> Certificate:
    """Check least elements of every nonempty level set over the probe levels.

    Probes default to the attained values plus midpoints between consecutive
    ones; extra levels are merged in.  On the exact scale level sets only
    change at attained values, so the default probes see every one; on a
    tolerant scale they also change at v + tolerance, which the probes need
    not hit (``TabulatedUtility.probe_levels`` has an example), so a pass
    vouches for the probed levels alone.  Each
    level set is read at the rank where the probe walk found it to start
    (``TabulatedUtility._probes``): on the exact scale no value is compared.
    On pass the certificate carries the full dual table and a certified
    copy: on a finite domain the attained values sit among the probes, so
    regularity subsumes the quasi-Leontief property.
    """
    table: Dict[Any, Element] = {}
    for lam, s in u._probes(probe_levels):
        level = u._record(s)
        if level.fault:
            return Certificate(False, "regular", witnesses=level.witnesses, detail=level.detail(lam))
        if level.least is not None:
            table[lam] = level.least
    return Certificate(True, "regular", dual_table=table, utility=u._certified_copy())


def check_isotone(u: TabulatedUtility) -> Certificate:
    """Monotonicity over all comparable pairs: up(x) lies inside the level set
    at u(x).  The witness y is the first element of up(x) outside it."""
    poset, column = u.poset.as_poset(), u.column
    for i, vx in enumerate(column):
        above = poset._up[i] & ~u.level_of(i).mask
        if above:
            j = (above & -above).bit_length() - 1
            x, y = poset.point(i), poset.point(j)
            return Certificate(False, "isotone", witnesses=(x, y),
                               detail=f"u({x!r})={vx!r} > u({y!r})={column[j]!r}")
    return Certificate(True, "isotone")


_Pair = Tuple[int, int]
_Meet = Tuple[int, int, int]  # (i, j, index of the meet)


def _value_bands(t) -> Tuple[List[Tuple[int, int]], List[int]]:
    """(runs, bands) of a rank table: per rank w, the run (lo, hi) of the
    ranks the scale counts equal to rank w, and its band, the mask of the
    elements whose rank lies in that run, read off the suffix masks (see
    ``_Ranks``)."""
    runs = [(s, bisect_right(t.lo, r)) for r, s in enumerate(t.lo)]
    return runs, [t.suffix[lo] ^ t.suffix[hi] for lo, hi in runs]


def _pair_failures(u: TabulatedUtility) -> Tuple[Optional[_Pair], Optional[_Meet]]:
    """``(phi, meet)``: ``phi`` is the first index pair (i, j), in row-major
    order of the pairs i <= j, at which property Phi fails, and on an
    inf-semilattice ``meet`` is the first (i, j, m) with u(m) != min(u(x_i),
    u(x_j)) at the meet m = x_i ^ x_j; None where the property holds
    (``meet`` is None too on a poset without a total meet).

    Ranks order values like the values do, so min(u(x), u(y)) has rank
    w = min(rank(x), rank(y)); the meet identity holds at a pair iff the rank
    of the meet lies in the run of w, and Phi holds iff down(x) & down(y)
    meets the band of w (``_value_bands``).  On an inf-semilattice down(x) &
    down(y) is down(x ^ y), so Phi fails only where the identity fails: the
    pass stops at the first Phi failure with the first meet failure found.
    The meet of x and y is the point whose down row is down(x) & down(y),
    read from the poset's dict of down rows (``_by_down_row``), on a product
    too, once ``as_poset`` has filled its rows.
    """
    t = u._rank_table
    runs, bands = _value_bands(t)
    poset, ranks = u.poset.as_poset(), t.rank
    down = poset._down
    by_down = poset._by_down_row() if poset.is_inf_semilattice() else None
    meet = None
    n = len(ranks)
    for i in range(n):
        ri, di = ranks[i], down[i]
        for j in range(i, n):
            rj = ranks[j]
            w = rj if rj < ri else ri
            if meet is None and by_down is not None:
                m = by_down[di & down[j]]
                lo, hi = runs[w]
                if not lo <= ranks[m] < hi:
                    meet = (i, j, m)
            if not di & down[j] & bands[w]:
                return (i, j), meet
    return None, meet


def check_property_phi(u: TabulatedUtility) -> Certificate:
    """Every pair has a common lower bound attaining the min of their values:
    down(x) & down(y) meets the band of min(u(x), u(y)) (see
    ``_pair_failures``)."""
    phi = _pair_failures(u)[0]
    if phi is None:
        return Certificate(True, "property-phi")
    x, y = map(u.poset.point, phi)
    target = min(map(u.column.__getitem__, phi))
    return Certificate(
        False,
        "property-phi",
        witnesses=(x, y),
        detail=f"no common lower bound attains {target!r}",
    )


def check_lower_bounded_level_sets(
    u: TabulatedUtility, probe_levels: Iterable = ()
) -> Certificate:
    """Every nonempty upper level set has a common lower bound in the domain.

    Level sets shrink as the level rises, and the lowest probe's level set
    holds every element, so this holds iff the domain has a least element.
    On failure the witnesses are the first two minimal elements in element
    order: both lie in the level set at the lowest probe, and two distinct
    minimal elements have no common lower bound.
    """
    if u.poset.is_filtered():
        return Certificate(True, "lower-bounded-level-sets")
    poset = u.poset.as_poset()
    lam = u.probe_levels(probe_levels)[0]
    return Certificate(
        False,
        "lower-bounded-level-sets",
        witnesses=poset._unmask(poset._minimal_in((1 << len(poset)) - 1))[:2],
        detail=f"level set at {lam!r} has no common lower bound",
    )


def _meet_failure(u: TabulatedUtility):
    """The first pair (x, y), in row-major order of the index pairs i <= j,
    with u(x ^ y) != min(u(x), u(y)), as (x, y, u(x ^ y), min(u(x), u(y)));
    None when the identity holds.  Needs a total meet; read off
    ``_pair_failures``."""
    meet = _pair_failures(u)[1]
    if meet is None:
        return None
    (i, j, m), column = meet, u.column
    return u.poset.point(i), u.poset.point(j), column[m], min(column[i], column[j])


def _strictly_ordered(u: TabulatedUtility) -> bool:
    """Whether the scale orders the attained values strictly, so that the
    rank table stores no tolerance band (always so on the exact scale)."""
    return type(u._rank_table.lo) is range


def check_meet_homomorphism(u: TabulatedUtility) -> Certificate:
    """u(x ^ y) = min(u(x), u(y)) for all pairs; needs a total meet.

    On finite inf-semilattices this identity is equivalent to regular
    quasi-Leontief certification where the scale orders the attained values
    strictly; there a mismatch raises InconsistencyError (a bug, never a
    verdict).  Elsewhere the identity can hold on a table that is not
    regular, and its verdict stands alone.
    """
    if not u.poset.is_inf_semilattice():
        raise OrderError("meet-homomorphism check needs a total meet")
    failure = _meet_failure(u)
    if failure is None:
        verdict = Certificate(True, "meet-homomorphism")
    else:
        x, y, got, want = failure
        verdict = Certificate(
            False,
            "meet-homomorphism",
            witnesses=(x, y),
            detail=f"u({x!r} ^ {y!r})={got!r} != {want!r}",
        )
    if _strictly_ordered(u) and certify_regular(u).ok != verdict.ok:
        raise InconsistencyError(
            f"meet-homomorphism={verdict.ok} but regular-certification={not verdict.ok}"
        )
    return verdict


def check_characterization_equivalence(u: TabulatedUtility) -> Certificate:
    """Cross-check the characterizations of regular quasi-Leontief functions.

    Side A: direct certification (least elements of all upper level sets).
    Side B: isotone + property Phi + lower-bounded level sets.
    Side C (only when meets are total): the meet-homomorphism identity.
    The sides are theorems of one another only where the scale orders the
    attained values strictly (see ``check_meet_homomorphism``); there the
    certificate passes iff all computed sides agree, and elsewhere it
    passes and only reports them.
    """
    side_a = certify_regular(u).ok
    phi, meet = _pair_failures(u)
    side_b = check_isotone(u).ok and phi is None and check_lower_bounded_level_sets(u).ok
    sides = {"definition": side_a, "isotone+phi+lower-bounded": side_b}
    if u.poset.is_inf_semilattice():
        sides["meet-homomorphism"] = meet is None
    ok = not _strictly_ordered(u) or len(set(sides.values())) == 1
    detail = ", ".join(f"{k}={v}" for k, v in sides.items())
    return Certificate(
        ok,
        "characterization-equivalence",
        witnesses=() if ok else (u.poset.point(0),),
        detail=detail,
        data={"sides": sides},
    )


def verify_galois(u: TabulatedUtility, dual_table: Dict[Any, Element]) -> Certificate:
    """Exhaustive two-sided adjunction check of a dual table, such as a
    passing ``certify_regular``'s: x >= u#(lam) iff u(x) >= lam."""
    poset = u.poset.as_poset()
    for lam, d in dual_table.items():
        up = poset._up[poset.index_of(d)]
        differ = up ^ u.level_set(lam).mask
        if differ:
            i = (differ & -differ).bit_length() - 1
            x = poset.point(i)
            lhs = bool(up >> i & 1)
            return Certificate(
                False,
                "galois-adjunction",
                witnesses=(x, lam),
                detail=f"x>=u#({lam!r}) is {lhs} but u(x)>={lam!r} is {not lhs}",
            )
    return Certificate(True, "galois-adjunction", dual_table=dict(dual_table))


def require_certified(u: TabulatedUtility) -> TabulatedUtility:
    """Certify and return a certified copy, or raise CertificationError."""
    if u.certified:
        return u
    cert = certify_quasi_leontief(u)
    if not cert.ok:
        raise CertificationError(cert)
    return cert.utility
