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
level set is an attained one.  Every certifier here sweeps; they stay the
independent reference of the ``corpus`` suites and the tests.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .leontief import TabulatedUtility
from .order import Element, FinitePoset, OrderError


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


@dataclass
class Certificate:
    """Verdict of one certifier run.

    A failing certificate always carries witnesses re-checkable against the
    property named in ``prop``; a passing regularity certificate carries the
    dual table it built.
    """

    ok: bool
    prop: str
    witnesses: Tuple = ()
    dual_table: Optional[Dict[Any, Element]] = None
    detail: str = ""
    utility: Optional[TabulatedUtility] = None
    data: Dict[str, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        from .io import encode_elem, encode_value

        out: Dict[str, Any] = {
            "verdict": "pass" if self.ok else "fail",
            "property": self.prop,
            "witnesses": [encode_elem(w) for w in self.witnesses],
        }
        if self.dual_table is not None:
            out["dual_table"] = {
                str(encode_value(lam)): encode_elem(x)
                for lam, x in sorted(self.dual_table.items())
            }
        if self.detail:
            out["detail"] = self.detail
        if self.data:
            out["data"] = {k: self.data[k] for k in sorted(self.data)}
        return out


def certify_quasi_leontief(u: TabulatedUtility) -> Certificate:
    """Check that every upper level set u^-1(up(u(x))) is the up-set of a
    single point (its least element), one record per attained value.

    A failure reports the lowest-index element whose record fails; on pass
    the certificate carries a certified copy of the utility.
    """
    t = u._ranks()
    bad = 0
    for r, lam in enumerate(t.image):
        if u._level(lam, r).fault:
            bad |= t.suffix[r] ^ t.suffix[r + 1]
    if bad:
        i = (bad & -bad).bit_length() - 1
        level = u.level_of(i)
        detail = level.detail(t.image[t.rank[i]])  # 1 and an equal Fraction print apart
        return Certificate(False, "quasi-leontief", witnesses=level.witnesses,
                           detail=f"for {u.poset.elements[i]!r}: {detail}")
    return Certificate(True, "quasi-leontief", utility=u._certified_copy())


def certify_regular(
    u: TabulatedUtility, probe_levels: Iterable = ()
) -> Certificate:
    """Check least elements of every nonempty level set over the probe levels.

    Probes default to the attained values plus midpoints between consecutive
    ones (level sets only change there); extra levels are merged in.  On pass
    the certificate carries the full dual table and a certified copy: on a
    finite domain the attained values sit among the probes, so regularity
    subsumes the quasi-Leontief property.
    """
    probes = u.probe_levels(probe_levels)
    table: Dict[Any, Element] = {}
    failed = None
    for lam, level in zip(probes, u.level_sets(probes)):
        if level.fault:
            failed = level
            break
        if level.least is not None:
            table[lam] = level.least
    t = u._ranks()
    if len(probes) == len(t.probes):  # no extra level beyond the default probes
        t.regular = failed is None
    if failed is not None:
        return Certificate(False, "regular", witnesses=failed.witnesses, detail=failed.detail(lam))
    return Certificate(True, "regular", dual_table=table, utility=u._certified_copy())


def _is_regular(u: TabulatedUtility) -> bool:
    """``certify_regular(u).ok``, recorded on the rank table."""
    t = u._ranks()
    if t.regular is None:
        certify_regular(u)
    return t.regular


def check_isotone(u: TabulatedUtility) -> Certificate:
    """Monotonicity over all comparable pairs: up(x) lies inside the level set
    at u(x).  The witness y is the first element of up(x) outside it."""
    poset, column = u.poset, u.column
    for i, vx in enumerate(column):
        above = poset._up[i] & ~u.level_of(i).mask
        if above:
            j = (above & -above).bit_length() - 1
            x, y = poset.elements[i], poset.elements[j]
            return Certificate(False, "isotone", witnesses=(x, y),
                               detail=f"u({x!r})={vx!r} > u({y!r})={column[j]!r}")
    return Certificate(True, "isotone")


_Pair = Tuple[int, int]
_Meet = Tuple[int, int, int]  # (i, j, index of the meet)


def _pair_failures(u: TabulatedUtility) -> Tuple[Optional[_Pair], Optional[_Meet]]:
    """``(phi, meet)``, cached on the rank table: ``phi`` is the first index
    pair (i, j), in row-major order of the pairs i <= j, at which property Phi
    fails, and on an inf-semilattice ``meet`` is the first (i, j, m) with
    u(m) != min(u(x_i), u(x_j)) at the meet m = x_i ^ x_j; None where the
    property holds (``meet`` is None too on a poset without a total meet).

    Ranks order values like the values do, so min(u(x), u(y)) has rank
    w = min(rank(x), rank(y)), and the band of rank w is the mask of the
    elements whose value the scale counts equal to it, read off the suffix
    masks of its run of ranks (see ``_Ranks``).  Phi holds at a pair iff
    down(x) & down(y) meets that band.
    """
    t = u._ranks()
    if t.pairs is None:
        runs = [(s, bisect_right(t.lo, r)) for r, s in enumerate(t.lo)]
        bands = [t.suffix[lo] ^ t.suffix[hi] for lo, hi in runs]
        if u.poset.is_inf_semilattice():
            t.pairs = _meet_sweep(u.poset, t.rank, runs, bands)
        else:
            t.pairs = _phi_scan(u.poset, t.rank, bands), None
    return t.pairs


def _meet_sweep(poset: FinitePoset, ranks: List[int], runs: List[Tuple[int, int]],
                bands: List[int]) -> Tuple[Optional[_Pair], Optional[_Meet]]:
    """Both first failures of ``_pair_failures`` from one pass over the upper
    meet rows (``meet_rows``; a product combines them from its factor meets).

    The meet identity holds at (i, j) iff the rank of the meet lies in the run
    of w = min(rank i, rank j), and the run holds w itself, so a row passes in
    bulk when its meet ranks equal the minimum ranks; only a row that does not
    is scanned pair by pair.  down(x) & down(y) is down(x ^ y), so where the
    identity holds the meet itself attains the minimum and Phi holds; where
    it fails, Phi is one test, down(m) & band(w).
    """
    meet = None
    for i, row in enumerate(poset.meet_rows()):
        ri = ranks[i]
        got = list(map(ranks.__getitem__, row))
        want = [r if r < ri else ri for r in ranks[i:]]
        if got == want:
            continue
        for j, (g, w) in enumerate(zip(got, want), i):
            lo, hi = runs[w]
            if lo <= g < hi:
                continue
            m = row[j - i]
            if meet is None:
                meet = (i, j, m)
            if not poset._down[m] & bands[w]:
                return (i, j), meet
    return None, meet


def _phi_scan(poset: FinitePoset, ranks: List[int], bands: List[int]) -> Optional[_Pair]:
    """The first pair of ``_pair_failures`` at which Phi fails, testing the
    common lower bounds of every pair."""
    down = poset._down
    n = len(ranks)
    for i in range(n):
        ri, di = ranks[i], down[i]
        for j in range(i, n):
            rj = ranks[j]
            if not di & down[j] & bands[rj if rj < ri else ri]:
                return i, j
    return None


def check_property_phi(u: TabulatedUtility) -> Certificate:
    """Every pair has a common lower bound attaining the min of their values:
    down(x) & down(y) meets the band of min(u(x), u(y)) (see
    ``_pair_failures``)."""
    phi = _pair_failures(u)[0]
    if phi is None:
        return Certificate(True, "property-phi")
    x, y = (u.poset.elements[k] for k in phi)
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
    poset = u.poset
    if poset.is_filtered():
        return Certificate(True, "lower-bounded-level-sets")
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
    None when the identity holds.  Needs a total meet; read off the meet
    sweep of ``_pair_failures``."""
    meet = _pair_failures(u)[1]
    if meet is None:
        return None
    (i, j, m), column = meet, u.column
    return u.poset.elements[i], u.poset.elements[j], column[m], min(column[i], column[j])


def _strictly_ordered(u: TabulatedUtility) -> bool:
    """Whether the scale orders the attained values strictly, so that the
    rank table stores no tolerance band (always so on the exact scale)."""
    return type(u._ranks().lo) is range


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
    if _strictly_ordered(u) and _is_regular(u) != verdict.ok:
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
    side_a = _is_regular(u)
    iso = check_isotone(u)
    phi = check_property_phi(u)
    lbd = check_lower_bounded_level_sets(u)
    side_b = iso.ok and phi.ok and lbd.ok
    sides = {"definition": side_a, "isotone+phi+lower-bounded": side_b}
    if u.poset.is_inf_semilattice():
        sides["meet-homomorphism"] = _meet_failure(u) is None
    ok = not _strictly_ordered(u) or len(set(sides.values())) == 1
    detail = ", ".join(f"{k}={v}" for k, v in sides.items())
    return Certificate(
        ok,
        "characterization-equivalence",
        witnesses=() if ok else tuple(u.poset.elements[:1]),
        detail=detail,
        data={"sides": sides},
    )


def verify_galois(u: TabulatedUtility, dual_table: Dict[Any, Element]) -> Certificate:
    """Exhaustive two-sided adjunction check of a dual table, such as a
    passing ``certify_regular``'s: x >= u#(lam) iff u(x) >= lam."""
    poset = u.poset
    for (lam, d), level in zip(dual_table.items(), u.level_sets(dual_table)):
        up = poset._up[poset.index_of(d)]
        differ = up ^ level.mask
        if differ:
            i = (differ & -differ).bit_length() - 1
            x = poset.elements[i]
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
