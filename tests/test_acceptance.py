"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every randomized sweep
is seeded; expected values come from independent enumeration oracles defined
inline, never from the code paths they check.
"""
import time
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import product as iproduct

import pytest

import qleontief as q
from qleontief import corpus

from conftest import brute_least, tuple_leq

SEED = 42


@contextmanager
def criterion(k, desc, budget=None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {k}: {desc}")
        raise
    elapsed = time.monotonic() - t0
    print(f"PASS criterion {k}: {desc} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {k} took {elapsed:.2f}s, budget {budget}s"


# ---------------------------------------------------------------------------
# shared corpora (session scoped so criteria 2/4/5 reuse one sweep)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def certified_corpus():
    out = []
    for i in range(500):
        rng = corpus.derive_rng(SEED, "certified", i)
        poset = corpus.random_poset(rng, 16, with_bottom=True)
        u = corpus.random_quasileontief_utility(rng, poset)
        reg = q.certify_regular(u)
        assert reg.ok, f"instance {i} failed regular certification"
        out.append((reg.utility, reg.dual_table))
    return out


class TestAcceptance:
    def test_criterion_1_closed_form_agreement(self):
        with criterion(1, "closed-form interior matches brute-force least element", 10):
            checked = 0
            for i in range(50):
                rng = corpus.derive_rng(SEED, "criterion1", i)
                n = rng.randint(1, 4)
                nums = [rng.randint(1, 6) for _ in range(n)]
                den = rng.randint(1, 5)
                a = [F(k, den) for k in nums]
                u = q.classical_leontief(a, q.Box.cube(n, F(0), F(6)))
                # oracle axis grids are refined so every least element that
                # exists over the rationals is present: step 1/k_j on axis j
                axis_grids = [
                    [F(m, k) for m in range(6 * k + 1)] for k in nums
                ]

                def oracle_least(lam):
                    # the level set of a componentwise-min form factorizes
                    # over the axes; scan each axis grid upward for the first
                    # point clearing the level
                    out = []
                    for coeff, grid in zip(a, axis_grids):
                        t = next(t for t in grid if coeff * t >= lam)
                        out.append(t)
                    return tuple(out)

                cache = {}
                for p in iproduct(range(7), repeat=n):
                    x = tuple(F(c) for c in p)
                    lam = u.value(x)
                    if lam not in cache:
                        cache[lam] = oracle_least(lam)
                    assert u.interior(x) == cache[lam]
                    checked += 1
            # anti-circularity spot check: on a small instance the factorized
            # oracle agrees with a fully naive scan of the refined grid
            a = [F(2), F(3)]
            u = q.classical_leontief(a, q.Box.cube(2, F(0), F(6)))
            grids = [[F(m, 2) for m in range(13)], [F(m, 3) for m in range(19)]]
            all_pts = list(iproduct(*grids))
            for probe in ((1, 1), (3, 1), (4, 3)):
                lam = u.value(tuple(F(c) for c in probe))
                level = [p for p in all_pts if u.value(p) >= lam]
                naive = brute_least(level, tuple_leq)
                assert naive == u.dual(lam)
            assert checked > 0

    def test_criterion_2_galois_adjunction(self, certified_corpus):
        with criterion(2, "adjunction x >= u#(lam) iff u(x) >= lam on 500 instances", 30):
            pairs = 0
            for u, table in certified_corpus:
                for lam, d in table.items():
                    for x in u.poset.elements:
                        assert u.poset.leq(d, x) == (lam <= u.value(x))
                        pairs += 1
            assert pairs > 0

    def test_criterion_3_characterization_triangle(self):
        with criterion(3, "characterization triangle on 500 isotone instances", 60):
            outcomes = {True: 0, False: 0}
            for i in range(500):
                rng = corpus.derive_rng(SEED, "triangle", i)
                poset = corpus.random_poset(rng, 16, with_bottom=True)
                u = corpus.random_isotone_utility(rng, poset)
                cert = q.check_characterization_equivalence(u)
                assert cert.ok, f"instance {i}: one-sided outcome ({cert.detail})"
                outcomes[cert.data["sides"]["definition"]] += 1
            assert outcomes[True] > 0 and outcomes[False] > 0

    def test_criterion_4_interior_and_closure_laws(self, certified_corpus):
        with criterion(4, "interior and closure operator laws on every instance"):
            for u, table in certified_corpus:
                poset = u.poset
                for x in poset.elements:
                    ix = u.interior(x)
                    assert poset.leq(ix, x)
                    assert u.interior(ix) == ix
                    for y in poset.up_set(x):
                        assert poset.leq(ix, u.interior(y))
                levels = sorted(table)
                closures = [u.value(table[lam]) for lam in levels]
                image = set(u.image())
                for lam, c in zip(levels, closures):
                    assert lam <= c
                    assert u.value(table[c]) == c
                    assert (c == lam) == (lam in image)
                assert closures == sorted(closures)

    def test_criterion_5_efficiency_structure(self, certified_corpus):
        with criterion(5, "efficient sets are chains, meet-closed, dual-parametrized"):
            for u, table in certified_corpus:
                poset = u.poset
                eff = q.efficient_set(u)
                assert poset.is_chain(eff.points)
                if poset.is_inf_semilattice():
                    for x in eff.points:
                        for y in eff.points:
                            assert poset.meet(x, y) in eff.points
                image = u.image()
                duals = [u.dual(lam) for lam in image]
                assert set(duals) == set(eff.points)
                for l1, l2 in zip(image, image[1:]):
                    assert poset.lt(u.dual(l1), u.dual(l2))
                for lam, d in zip(image, duals):
                    assert u.value(d) == lam

    def test_criterion_6_charpar_equivalence(self):
        with criterion(6, "minimal efficiency matches coordinatewise membership", 60):
            for i in range(200):
                rng = corpus.derive_rng(SEED, "charpar", i)
                space = corpus.random_product_of_chains(rng, 3, 4)
                u = corpus.random_isotone_utility(rng, space)
                cert = q.check_charpar(u)
                assert cert.ok, f"instance {i}: {cert.detail}"

    def test_criterion_7_refinement_theorem(self):
        with criterion(7, "every maximizer refines to an efficient maximizer", 60):
            refined = 0
            for i in range(200):
                rng = corpus.derive_rng(SEED, "refinement", i)
                space = corpus.random_product_of_chains(rng, 3, 4)
                u = corpus.random_isotone_utility(rng, space)
                sets = corpus.random_prefix_downsets(rng, space)
                S = q.product_downset(space, sets)
                members = S.sorted_members()
                best = max(u.value(x) for x in members)
                for x_star in members:
                    if u.value(x_star) != best:
                        continue
                    trace = q.efficient_refinement(u, S, x_star)
                    assert u.value(trace.result) == best
                    assert space.leq(trace.result, x_star)
                    assert q.is_efficient_minimal(u, trace.result)
                    refined += 1
            assert refined > 0

    def test_criterion_8_maximization_theorems(self):
        with criterion(8, "argmax structure and localization on 200 down-sets"):
            for i in range(200):
                rng = corpus.derive_rng(SEED, "maximize", i)
                poset = corpus.random_poset(rng, 12, with_bottom=True)
                u = corpus.random_quasileontief_utility(rng, poset)
                cu = q.require_certified(u)
                S = corpus.random_downset(rng, poset)
                res = q.argmax_over_downset(cu, S)
                assert res.largest_efficient in res.maximizers
                for x in res.maximizers:
                    assert poset.leq(res.largest_efficient, x)
                mm = res.maximal_maximizer
                assert cu.value(mm) == res.value
                assert mm in res.maximizers
                assert all(
                    y == mm for y in poset.up_set(mm) if y in S.members()
                )
                assert q.check_argmax_localization(cu, S).ok

    def test_criterion_9_min_decomposition_and_recovery(self):
        with criterion(9, "min-decomposition identity and coefficient round-trips", 10):
            for i in range(100):
                rng = corpus.derive_rng(SEED, "decompose", i)
                space = corpus.random_product_of_chains(rng, 3, 4)
                poset = space.as_poset()
                u = corpus.random_quasileontief_utility(rng, poset)
                u = q.TabulatedUtility(poset, u.values, space=space)
                gens = [rng.choice(poset.elements)]
                S = q.DownSet.from_generators(poset, gens)
                members = S.sorted_members()
                xbar = tuple(
                    max(m[axis] for m in members) for axis in range(space.n_axes)
                )
                parts = q.min_decompose(u, members, xbar)
                for x in members:
                    assert u.value(x) == min(
                        p.value(c) for p, c in zip(parts, x)
                    )
            for i in range(20):
                rng = corpus.derive_rng(SEED, "recover", i)
                n = rng.randint(1, 4)
                a = tuple(F(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(n))
                u = q.classical_leontief(a, q.Box.cube(n, F(0), F(4)))
                probes = [
                    tuple(F(c) for c in p) for p in iproduct(range(1, 5), repeat=n)
                ]
                got = q.recover_leontief_coefficients(u, probes, (F(4),) * n)
                assert got == a
            import math

            cobb_douglas = lambda x: math.sqrt(x[0] * x[1])
            with pytest.raises(q.MinFormError):
                q.recover_leontief_coefficients(
                    cobb_douglas,
                    [(1.0, 1.0), (4.0, 1.0), (2.0, 2.0)],
                    (4.0, 4.0),
                    scale=q.tolerant(1e-9),
                )

    def test_criterion_10_known_negatives(self):
        with criterion(10, "known negative instances reproduce exactly"):
            # additive utility on the unit square: certification fails on the
            # antichain of the middle level set
            space = q.grid_space(range(2), range(2))
            u_sum = q.TabulatedUtility(
                space.as_poset(),
                {p: F(p[0] + p[1]) for p in space.points()},
                space=space,
            )
            cert = q.certify_quasi_leontief(u_sum)
            assert not cert.ok
            assert set(cert.witnesses) == {(0, 1), (1, 0)}

            # min(x1, x1*x2) on a positive grid with values below one:
            # globally leastless, individually certifiable on every axis
            vals = [F(1, 4), F(1, 2), F(1), F(2), F(4)]
            space2 = q.grid_space(vals, vals)
            u_mix = q.TabulatedUtility(
                space2.as_poset(),
                {p: min(p[0], p[0] * p[1]) for p in space2.points()},
                space=space2,
            )
            glob = q.certify_quasi_leontief(u_mix)
            assert not glob.ok
            w1, w2 = glob.witnesses
            assert not space2.leq(w1, w2) and not space2.leq(w2, w1)
            for axis in range(2):
                for frozen in vals:
                    pu = q.partial_utility(u_mix, (frozen,), axis)
                    assert q.certify_quasi_leontief(pu.utility).ok
