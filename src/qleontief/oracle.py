"""Brute-force certifiers for quasi-Leontief structure on finite posets.

Every certifier enumerates; a pass verdict is re-checkable by independent
re-enumeration and a fail verdict carries a concrete witness that violates
the stated predicate when replayed.  The certifiers cross-check each other:
on a finite poset, regular quasi-Leontief (every nonempty upper level set
has a least element) is equivalent to isotone + common-lower-bound minima
(property Phi) + lower-bounded level sets, and on inf-semilattices to the
meet-homomorphism identity u(x ^ y) = min(u(x), u(y)).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Tuple

from .leontief import TabulatedUtility
from .order import Element, OrderError, _bits


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
    single point (its least element).

    On pass the certificate carries a certified copy of the utility with the
    interior table filled in.
    """
    interior_table: Dict[Element, Element] = {}
    for x, lam in u.values.items():
        level = u.level_set(lam)
        if level.detail:
            return Certificate(
                False,
                "quasi-leontief",
                witnesses=level.witnesses,
                detail=f"for {x!r}: {level.detail}",
            )
        interior_table[x] = level.least
    return Certificate(
        True, "quasi-leontief", utility=u._certified_copy(interior_table)
    )


def certify_regular(
    u: TabulatedUtility, probe_levels: Iterable = ()
) -> Certificate:
    """Check least elements of every nonempty level set over the probe levels.

    Probes default to the attained values plus midpoints between consecutive
    ones (level sets only change there); extra levels are merged in.  On pass
    the certificate carries the full dual table and a certified copy: on a
    finite domain the attained values sit among the probes, so regularity
    subsumes the quasi-Leontief property and the interior table falls out of
    the dual table.
    """
    table: Dict[Any, Element] = {}
    for lam in u.probe_levels(probe_levels):
        level = u.level_set(lam)
        if level.detail:
            return Certificate(False, "regular", witnesses=level.witnesses, detail=level.detail)
        if level.least is not None:
            table[lam] = level.least
    if u.certified:
        out = u._certified_copy(u._interior)
    else:
        out = u._certified_copy({x: table[v] for x, v in u.values.items()})
    return Certificate(True, "regular", dual_table=table, utility=out)


def _is_regular(u: TabulatedUtility) -> bool:
    """``certify_regular(u).ok``, read from the cached level sets."""
    return not any(u.level_set(lam).detail for lam in u.probe_levels())


def check_isotone(u: TabulatedUtility) -> Certificate:
    """Monotonicity over all comparable pairs."""
    poset = u.poset
    for x in poset.elements:
        vx = u.values[x]
        for y in poset.up_set(x):
            if not u.scale.le(vx, u.values[y]):
                return Certificate(
                    False,
                    "isotone",
                    witnesses=(x, y),
                    detail=f"u({x!r})={vx!r} > u({y!r})={u.values[y]!r}",
                )
    return Certificate(True, "isotone")


def check_property_phi(u: TabulatedUtility) -> Certificate:
    """Every pair has a common lower bound attaining the min of their values."""
    poset = u.poset
    n = len(poset.elements)
    for i in range(n):
        x = poset.elements[i]
        for j in range(i, n):
            y = poset.elements[j]
            target = min(u.values[x], u.values[y])
            lows = poset._down[i] & poset._down[j]
            ok = False
            m = lows
            while m:
                low = m & -m
                k = low.bit_length() - 1
                if u.scale.eq(u.values[poset.elements[k]], target):
                    ok = True
                    break
                m ^= low
            if not ok:
                return Certificate(
                    False,
                    "property-phi",
                    witnesses=(x, y),
                    detail=f"no common lower bound attains {target!r}",
                )
    return Certificate(True, "property-phi")


def check_lower_bounded_level_sets(
    u: TabulatedUtility, probe_levels: Iterable = ()
) -> Certificate:
    """Every nonempty upper level set has a common lower bound in the domain."""
    poset = u.poset
    for lam in u.probe_levels(probe_levels):
        idxs = list(_bits(u.level_set(lam).mask))
        if not idxs:
            continue
        m = poset._down[idxs[0]]
        for i in idxs[1:]:
            m &= poset._down[i]
            if m == 0:
                break
        if m == 0:
            return Certificate(
                False,
                "lower-bounded-level-sets",
                witnesses=tuple(poset.elements[i] for i in idxs[:2]),
                detail=f"level set at {lam!r} has no common lower bound",
            )
    return Certificate(True, "lower-bounded-level-sets")


def _meet_failure(u: TabulatedUtility):
    """The first pair (x, y) with u(x ^ y) != min(u(x), u(y)), as
    (x, y, u(x ^ y), min(u(x), u(y))); None when the identity holds.  Needs a
    total meet."""
    poset = u.poset
    for i, x in enumerate(poset.elements):
        for y in poset.elements[i:]:
            got = u.values[poset.meet(x, y)]
            want = min(u.values[x], u.values[y])
            if not u.scale.eq(got, want):
                return x, y, got, want
    return None


def check_meet_homomorphism(u: TabulatedUtility) -> Certificate:
    """u(x ^ y) = min(u(x), u(y)) for all pairs; needs a total meet.

    On finite inf-semilattices this identity is equivalent to regular
    quasi-Leontief certification; the equivalence is asserted and a mismatch
    raises InconsistencyError (a bug, never a verdict).
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
    regular_side = _is_regular(u)
    if regular_side != verdict.ok:
        raise InconsistencyError(
            f"meet-homomorphism={verdict.ok} but regular-certification={regular_side}"
        )
    return verdict


def check_characterization_equivalence(u: TabulatedUtility) -> Certificate:
    """Cross-check the characterizations of regular quasi-Leontief functions.

    Side A: direct certification (least elements of all upper level sets).
    Side B: isotone + property Phi + lower-bounded level sets.
    Side C (only when meets are total): the meet-homomorphism identity.
    The certificate passes iff all computed sides agree.
    """
    side_a = _is_regular(u)
    iso = check_isotone(u)
    phi = check_property_phi(u)
    lbd = check_lower_bounded_level_sets(u)
    side_b = iso.ok and phi.ok and lbd.ok
    sides = {"definition": side_a, "isotone+phi+lower-bounded": side_b}
    ok = side_a == side_b
    if u.poset.is_inf_semilattice():
        side_c = _meet_failure(u) is None
        sides["meet-homomorphism"] = side_c
        ok = ok and side_a == side_c
    detail = ", ".join(f"{k}={v}" for k, v in sides.items())
    return Certificate(
        ok,
        "characterization-equivalence",
        witnesses=() if ok else tuple(u.poset.elements[:1]),
        detail=detail,
        data={"sides": sides},
    )


def verify_galois(
    u: TabulatedUtility, dual_table: Optional[Dict[Any, Element]] = None
) -> Certificate:
    """Exhaustive two-sided adjunction check: x >= u#(lam) iff u(x) >= lam."""
    if dual_table is None:
        cert = certify_regular(u)
        if not cert.ok:
            raise OrderError("no dual table: utility is not regular")
        dual_table = cert.dual_table
    poset = u.poset
    for lam, d in dual_table.items():
        up = poset._up[poset.index_of(d)]
        differ = up ^ u.level_set(lam).mask
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
