"""``check`` against the full certifier battery, pair sweep included.

Once a table is quasi-Leontief, ``check`` runs only ``certify_regular`` and
lists isotonicity, property Phi, a least element, the meet identity and the
adjunction of regular's dual table as passed, on either scale (the argument
is in the ``oracle`` module docstring).  The reference here runs every
certifier on a fresh copy of the table, as ``check`` did before it read
those certificates off the quasi-Leontief records, and the two certificate
lists must agree in every verdict, witness and detail.  The tables cover
corpus tables on chain products and random posets with and without a
bottom, tables that are not isotone, tolerant tables whose values are well
apart or lie within the tolerance, and a tolerant table that is
quasi-Leontief but not regular.  No input file gives that last table (a
tabulated file is exact), so ``check`` reads every table through a patched
``_load_utility``.
"""
from __future__ import annotations

import json
from fractions import Fraction as F

import pytest

import qleontief as q
from qleontief import cli, corpus, oracle
from qleontief.cli import main
from qleontief.oracle import _strictly_ordered


def with_values(u, values, scale):
    return q.TabulatedUtility(u.poset, dict(zip(u.poset, values)), scale=scale)


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
    """Whether ``check`` reads every certificate but regularity off the
    quasi-Leontief records for u: whenever u is quasi-Leontief."""
    return q.certify_quasi_leontief(copy(u)).ok


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
    regular.  ``check`` sweeps none of its pairs."""
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


SWEEPERS = ("check_isotone", "check_property_phi", "check_lower_bounded_level_sets",
            "check_meet_homomorphism", "verify_galois", "_pair_failures")


def test_check_calls_no_other_certifier(monkeypatch, capsys):
    """With every certifier but the quasi-Leontief and regularity ones made to
    raise, and the pair sweep too, ``check`` still lists exactly the
    certificates of the ungated battery."""
    def refuse(*args, **kwargs):
        raise AssertionError("check ran a certifier it reads off the quasi-Leontief records")

    for u in [t for seed in range(30) for t in tables(seed)]:  # split_v included
        want = ungated(copy(u))
        with monkeypatch.context() as m:
            for name in SWEEPERS:
                m.setattr(oracle, name, refuse)
            code, certs = checked(u, m, capsys)
        assert certs == want
        assert code == (0 if all(c["verdict"] == "pass" for c in certs) else 1)


def test_check_does_not_sweep_within_the_tolerance(monkeypatch, capsys):
    """On the diamond, whose values lie within the tolerance of each other,
    regularity holds and so do property Phi and the meet identity.  On
    split_v, which is quasi-Leontief and not regular, ``check`` sweeps no
    pair either, and only regularity fails."""
    u = diamond()
    assert q.certify_regular(copy(u)).ok and not _strictly_ordered(copy(u)) and gated(u)
    code, certs = checked(u, monkeypatch, capsys)
    assert certs == ungated(copy(u)) and code == 0
    u = split_v()
    assert gated(u) and not q.certify_regular(copy(u)).ok
    code, certs = checked(u, monkeypatch, capsys)
    assert certs == ungated(copy(u)) and code == 1
    failed = {c["property"]: c["witnesses"] for c in certs if c["verdict"] == "fail"}
    assert failed == {"regular": ["a", "b"]}
    assert {c["property"] for c in certs} >= {"property-phi", "meet-homomorphism"}


def test_the_tables_reach_every_branch():
    """The seeds above cover tables that are not quasi-Leontief and, on both
    scales, quasi-Leontief tables on inf-semilattices and on other posets,
    and tolerant ones that are not regular; on the exact scale
    quasi-Leontief implies regular.  On every quasi-Leontief table the
    library's pair sweep passes property Phi and, on an inf-semilattice, the
    meet identity, as the ``oracle`` module docstring argues."""
    seen = set()
    for seed in range(30):
        for u in tables(seed):
            if not gated(u):
                seen.add("not quasi-leontief")
                continue
            lattice = u.poset.is_inf_semilattice()
            assert q.check_property_phi(copy(u)).ok
            if lattice:
                assert q.check_meet_homomorphism(copy(u)).ok
            seen.add((lattice, u.scale.kind, q.certify_regular(copy(u)).ok))
    assert {
        "not quasi-leontief",
        (True, "exact", True), (False, "exact", True),
        (True, "tolerant", True), (False, "tolerant", True),
        (True, "tolerant", False),
    } <= seen
    assert (True, "exact", False) not in seen and (False, "exact", False) not in seen
