"""The per-level record of a tabulated utility against a brute-force reference.

The reference builds each upper level set as a tuple of elements and finds
its least and minimal elements by pairwise scans over ``poset.leq``; it never
touches the bitmasks the record is built from.
"""
from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

import qleontief as q
from qleontief import corpus
from qleontief.cli import main
from qleontief.io import load_json, utility_from_json

from conftest import brute_least, brute_minimal

DATA = Path(__file__).parent / "data"


def ref_level_set(u, lam):
    return tuple(x for x in u.poset.elements if u.scale.le(lam, u.values[x]))


def ref_least_of_upper_set(u, lam):
    """Least element m with level set exactly up(m): (m, None) on success,
    (None, (witnesses, detail)) on failure, (None, None) for an empty set."""
    leq = u.poset.leq
    level = ref_level_set(u, lam)
    if not level:
        return None, None
    least = brute_least(level, leq)
    if least is None:
        mins = brute_minimal(level, leq)
        return None, (tuple(mins[:2]), f"level set at {lam!r} has no least element")
    for y in u.poset.elements:
        if leq(least, y) and y not in level:
            return None, (
                (least, y),
                f"level set at {lam!r} is not the up-set of {least!r}: "
                f"{y!r} lies above it with a smaller value",
            )
    return least, None


def ref_dual(u, lam):
    """Least element of the level set (bare existence), None when empty."""
    level = ref_level_set(u, lam)
    if not level:
        return None
    least = brute_least(level, u.poset.leq)
    if least is None:
        raise q.LeastlessLevelSetError(lam, tuple(brute_minimal(level, u.poset.leq)[:2]))
    return least


def levels_to_probe(u):
    """Every probe level plus levels below and above the image."""
    img = u.image()
    return u.probe_levels([img[0] - 1, img[-1] + 1])


def assert_record_matches_reference(u):
    for lam in levels_to_probe(u):
        rec = u.level_set(lam)
        level = ref_level_set(u, lam)
        assert rec.mask == sum(1 << u.poset.index_of(x) for x in level)
        assert rec.least == (brute_least(level, u.poset.leq) if level else None)
        least, failure = ref_least_of_upper_set(u, lam)
        if failure is None:
            assert (rec.witnesses, rec.detail) == ((), "")
            assert rec.least == least
        else:
            assert (rec.witnesses, rec.detail) == failure


def assert_dual_matches_reference(u):
    assert u.certified
    for lam in levels_to_probe(u):
        try:
            want = ref_dual(u, lam)
        except q.LeastlessLevelSetError as exc:
            with pytest.raises(q.LeastlessLevelSetError) as got:
                u.dual(lam)
            assert got.value.witnesses == exc.witnesses
        else:
            assert u.dual(lam) == want


def random_table(rng, poset):
    """Arbitrary values: neither isotone nor quasi-Leontief in general."""
    return q.TabulatedUtility(poset, {e: F(rng.randint(0, 3), 2) for e in poset.elements})


def utilities(seed):
    """One utility from each corpus generator, on posets with and without a bottom."""
    rng = corpus.derive_rng(seed, "levels")
    with_bottom = corpus.random_poset(rng, 12, with_bottom=True)
    without = corpus.random_poset(rng, 12)
    space = corpus.random_product_of_chains(rng)
    return [
        corpus.random_isotone_utility(rng, with_bottom),
        corpus.random_isotone_utility(rng, without),
        corpus.random_quasileontief_utility(rng, with_bottom),
        corpus.random_isotone_utility(rng, space),
        random_table(rng, with_bottom),
        random_table(rng, without),
    ]


def tolerant_table(seed):
    """Float values jittered inside the tolerance band of a min form."""
    rng = random.Random(seed)
    space = q.grid_space(range(4), range(4))
    vals = {
        p: float(min(p)) + rng.choice((0.0, 4e-10, -4e-10)) for p in space.points()
    }
    return q.TabulatedUtility(space.as_poset(), vals, scale=q.tolerant(1e-9), space=space)


@pytest.mark.parametrize("seed", range(40))
def test_record_matches_reference_on_corpus(seed):
    for u in utilities(seed):
        assert_record_matches_reference(u)


@pytest.mark.parametrize("seed", range(40))
def test_dual_matches_reference_on_certified_corpus(seed):
    for u in utilities(seed):
        cert = q.certify_quasi_leontief(u)
        if cert.ok:
            assert_dual_matches_reference(cert.utility)
            assert_dual_matches_reference(q.certify_regular(cert.utility).utility)


@pytest.mark.parametrize("seed", range(5))
def test_record_matches_reference_on_tolerant_scale(seed):
    u = tolerant_table(seed)
    assert_record_matches_reference(u)
    assert_dual_matches_reference(q.certify_quasi_leontief(u).utility)


def test_dual_keeps_bare_least_element_test():
    # Quasi-Leontief within the tolerance, yet the level set at the midpoint
    # a + 0.75 tol holds x but not y >= x.  The dual still returns its least
    # element x; the regularity certificate reports the set.
    tol = 1e-9
    poset = q.FinitePoset.from_covers(["x", "y", "z"], [("x", "y"), ("x", "z")])
    u = q.TabulatedUtility(
        poset, {"x": 1.0, "y": 1.0 - 0.9 * tol, "z": 1.0 + 1.5 * tol}, scale=q.tolerant(tol)
    )
    cu = q.certify_quasi_leontief(u).utility
    lam = (1.0 + 1.0 + 1.5 * tol) / 2
    assert cu.dual(lam) == "x"
    assert_dual_matches_reference(cu)
    reg = q.certify_regular(u)
    assert not reg.ok and reg.witnesses == ("x", "y")


def ref_galois_failure(u, dual_table):
    """First (x, lam) where x >= u#(lam) and u(x) >= lam disagree, with its detail."""
    for lam, d in dual_table.items():
        for x in u.poset.elements:
            lhs = u.poset.leq(d, x)
            rhs = u.scale.le(lam, u.values[x])
            if lhs != rhs:
                return (x, lam), f"x>=u#({lam!r}) is {lhs} but u(x)>={lam!r} is {rhs}"
    return None


@pytest.mark.parametrize("seed", range(20))
def test_galois_matches_reference_on_corrupted_tables(seed):
    for u in utilities(seed):
        reg = q.certify_regular(u)
        if not reg.ok:
            continue
        assert q.verify_galois(reg.utility, reg.dual_table).ok
        for lam in reg.dual_table:
            for alt in u.poset.elements:
                table = dict(reg.dual_table)
                table[lam] = alt
                cert = q.verify_galois(reg.utility, table)
                want = ref_galois_failure(u, table)
                if want is None:
                    assert cert.ok
                else:
                    assert (cert.witnesses, cert.detail) == want


def test_certified_copies_share_the_records(min_on_4x4):
    reg = q.certify_regular(min_on_4x4)
    assert reg.utility.level_set(F(2)) is min_on_4x4.level_set(F(2))


def count_builds(monkeypatch):
    built = Counter()
    build = q.TabulatedUtility._build_level_set

    def counting(self, lam):
        built[lam] += 1
        return build(self, lam)

    monkeypatch.setattr(q.TabulatedUtility, "_build_level_set", counting)
    return built


@pytest.mark.parametrize("name", ["min_grid", "plain_poset", "tolerant_power", "classical"])
def test_check_builds_each_probe_level_once(name, monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    u = utility_from_json(load_json(f"{name}.json"))
    if not isinstance(u, q.TabulatedUtility):
        u = q.tabulate(u)
    probes = u.probe_levels()
    built = count_builds(monkeypatch)
    assert main(["check", "--json", f"{name}.json"]) == 0
    capsys.readouterr()
    assert sorted(built) == probes
    assert set(built.values()) == {1}


def test_corrupted_check_stops_at_the_first_bad_level(monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    probes = utility_from_json(load_json("corrupted.json")).probe_levels()
    built = count_builds(monkeypatch)
    assert main(["check", "--json", "corrupted.json"]) == 1
    capsys.readouterr()
    assert set(built.values()) == {1}
    assert len(built) < len(probes)
