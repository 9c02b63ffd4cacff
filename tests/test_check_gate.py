"""``check`` against the full certifier battery, pair sweep included.

Where a table is regular quasi-Leontief, ``check`` lists property Phi and
the meet identity as passed without sweeping a pair, on either scale.  The
reference here runs every certifier on a fresh copy of the table, as
``check`` did before it read those two certificates off regularity, and the
two certificate lists must agree in every verdict, witness and detail.  The tables cover corpus tables on chain products and
random posets with and without a bottom, tables that are not isotone, and
tolerant tables whose values are well apart or lie within the tolerance,
and a tolerant table that is quasi-Leontief but not regular.
"""
from __future__ import annotations

import json
from fractions import Fraction as F

import pytest

import qleontief as q
from qleontief import cli, corpus
from qleontief.cli import main
from qleontief.oracle import _is_regular, _strictly_ordered


def with_values(u, values, scale):
    return q.TabulatedUtility(u.poset, dict(zip(u.poset.elements, values)), scale=scale)


def copy(u):
    """A fresh table with u's values, so that no record or sweep cached on u
    is read."""
    return with_values(u, u.column, u.scale)


def ungated(u):
    """Every certificate ``check`` lists, each from its own certifier."""
    certs = [q.certify_quasi_leontief(u)]
    if certs[0].ok:
        reg = q.certify_regular(certs[0].utility)
        certs.append(reg)
        if reg.ok:
            certs.append(q.verify_galois(reg.utility, reg.dual_table))
        certs.append(q.check_isotone(u))
        certs.append(q.check_property_phi(u))
        certs.append(q.check_lower_bounded_level_sets(u))
        if u.poset.is_inf_semilattice():
            certs.append(q.check_meet_homomorphism(u))
    return [c.to_json() for c in certs]


def checked(u, monkeypatch, capsys):
    """(exit code, certificate list) of ``check --json`` on a copy of u."""
    monkeypatch.setattr(cli, "_load_utility", lambda path, tolerance: copy(u))
    code = main(["check", "--json", "table.json"])
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] == (code == 0)
    return code, report["certificates"]


def gated(u) -> bool:
    """Whether ``check`` reads property Phi and the meet identity off
    regularity for u."""
    u = copy(u)
    return q.certify_quasi_leontief(u).ok and _is_regular(u)


def corrupted(rng, u):
    """u with one value raised above the maximum: not isotone unless the
    point is maximal."""
    values = list(u.column)
    values[rng.randrange(len(values))] = max(values) + 1
    return with_values(u, values, u.scale)


def floats(u, tolerance, jitter=0.0, rng=None):
    """u's values as floats on a tolerant scale, each moved by up to ``jitter``."""
    values = [float(v) + (rng.uniform(-jitter, jitter) if jitter else 0.0) for v in u.column]
    return with_values(u, values, q.tolerant(tolerance))


def diamond():
    """Regular, with 1.1 and 1.0 at tolerance 0.1 on the rounding boundary:
    1.1 <= 1.0 + 0.1 holds though 1.1 - 1.0 rounds above 0.1.  ``eq`` is
    ``le`` both ways, so the scale counts them equal, and property Phi and
    the meet identity hold at (bot, a)."""
    poset = q.FinitePoset.from_covers(
        ["bot", "a", "b", "top"], [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])
    return q.TabulatedUtility(poset, {"bot": 1.1, "a": 1.0, "b": 1.1, "top": 2.2},
                              scale=q.tolerant(0.1))


def split_v():
    """bot below a and b, valued 0.0, 0.3 and 1.0 at tolerance 0.5: every
    attained level set is the up-set of its least element, but the level set
    at the midpoint 0.65 is {a, b}, so the table is quasi-Leontief and not
    regular, and ``check`` sweeps its pairs."""
    poset = q.FinitePoset.from_covers(["bot", "a", "b"], [("bot", "a"), ("bot", "b")])
    return q.TabulatedUtility(poset, {"bot": 0.0, "a": 0.3, "b": 1.0}, scale=q.tolerant(0.5))


def tables(seed):
    rng = corpus.derive_rng(seed, "check-gate")
    chains = corpus.random_product_of_chains(rng)
    bottom = corpus.random_poset(rng, 12, with_bottom=True)
    bare = corpus.random_poset(rng, 12)
    exact = [
        corpus.random_isotone_utility(rng, chains),
        corpus.random_quasileontief_utility(rng, chains),
        corpus.random_isotone_utility(rng, bottom),
        corpus.random_quasileontief_utility(rng, bottom),
        corpus.random_isotone_utility(rng, bare),
    ]
    out = list(exact)
    out += [corrupted(rng, u) for u in exact]
    out += [with_values(u, [F(rng.randint(0, 3), 2) for _ in u.column], q.EXACT)
            for u in (exact[0], exact[2], exact[4])]
    for u in exact[:4]:
        out.append(floats(u, 1e-9))  # the values are half-steps, well apart
        out.append(floats(u, 1e-9, 4e-10, rng))  # jitter inside the tolerance
        out.append(floats(u, 0.5))  # neighbouring half-steps within the tolerance
    return out + [diamond(), split_v()]


@pytest.mark.parametrize("seed", range(30))
def test_check_matches_the_ungated_battery(seed, monkeypatch, capsys):
    for u in tables(seed):
        code, certs = checked(u, monkeypatch, capsys)
        assert certs == ungated(copy(u))
        assert code == (0 if all(c["verdict"] == "pass" for c in certs) else 1)


def test_check_sweeps_within_the_tolerance(monkeypatch, capsys):
    """The gate fires on the diamond, whose values lie within the tolerance
    of each other: regularity holds and so do property Phi and the meet
    identity.  On the table that is not regular ``check`` sweeps, and only
    regularity fails."""
    u = diamond()
    assert q.certify_regular(copy(u)).ok and not _strictly_ordered(copy(u)) and gated(u)
    code, certs = checked(u, monkeypatch, capsys)
    assert certs == ungated(copy(u)) and code == 0
    u = split_v()
    assert q.certify_quasi_leontief(copy(u)).ok and not gated(u)
    code, certs = checked(u, monkeypatch, capsys)
    assert certs == ungated(copy(u)) and code == 1
    failed = {c["property"]: c["witnesses"] for c in certs if c["verdict"] == "fail"}
    assert failed == {"regular": ["a", "b"]}
    assert {c["property"] for c in certs} >= {"property-phi", "meet-homomorphism"}


def test_the_tables_reach_every_branch():
    """The seeds above cover the gate on inf-semilattices and on other posets,
    on both scales, and sweeps.  A sweep runs only on a tolerant scale: on the
    exact scale quasi-Leontief implies regular.  Where it runs, property Phi
    passes: the least element of the level set at the smaller value lies
    below both points, and an attained level set holds each point above its
    least element."""
    seen = set()
    for seed in range(30):
        for u in tables(seed):
            if not q.certify_quasi_leontief(copy(u)).ok:
                seen.add("not quasi-leontief")
                continue
            if gated(u):
                seen.add(("gate", u.poset.is_inf_semilattice(), u.scale.kind))
            else:
                phi = q.check_property_phi(copy(u)).ok
                seen.add(("sweep", phi, u.scale.kind))
    assert {
        "not quasi-leontief",
        ("gate", True, "exact"), ("gate", False, "exact"),
        ("gate", True, "tolerant"), ("gate", False, "tolerant"),
        ("sweep", True, "tolerant"),
    } <= seen
    assert not any(tag[0] == "sweep" and (tag[2] == "exact" or not tag[1]) for tag in seen)
