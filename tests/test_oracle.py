from fractions import Fraction as F

import pytest

import qleontief as q
from qleontief import corpus

from conftest import grid_utility


def sum_on_unit_square():
    return grid_utility(lambda a, b: F(a + b), range(2), range(2))


class TestCertifyQuasiLeontief:
    def test_identity_on_chain_passes_with_identity_interior(self):
        chain = q.FinitePoset.chain(range(3))
        u = q.TabulatedUtility(chain, {t: F(t) for t in range(3)})
        cert = q.certify_quasi_leontief(u)
        assert cert.ok
        for t in range(3):
            assert cert.utility.interior(t) == t

    def test_sum_on_unit_square_fails_with_antichain_witnesses(self):
        cert = q.certify_quasi_leontief(sum_on_unit_square())
        assert not cert.ok
        assert set(cert.witnesses) == {(0, 1), (1, 0)}

    def test_min_on_unit_square_passes(self):
        u = grid_utility(lambda a, b: F(min(a, b)), range(2), range(2))
        assert q.certify_quasi_leontief(u).ok

    def test_witnesses_replay_against_the_predicate(self):
        u = sum_on_unit_square()
        cert = q.certify_quasi_leontief(u)
        w1, w2 = cert.witnesses
        p = u.poset
        # both witnesses sit in one level set and are incomparable minimal points
        lam = min(u.value(w1), u.value(w2))
        level = [x for x in p if u.value(x) >= lam]
        assert w1 in level and w2 in level
        assert not p.comparable(w1, w2)

    def test_certification_does_not_mutate(self):
        u = grid_utility(lambda a, b: F(min(a, b)), range(2), range(2))
        q.certify_quasi_leontief(u)
        assert not u.certified

    def test_level_set_must_be_an_up_set(self):
        # a decreasing table has least elements in every level set, but the
        # sets are not upward closed, so the defining equality fails
        chain = q.FinitePoset.chain(range(2))
        u = q.TabulatedUtility(chain, {0: F(1), 1: F(0)})
        cert = q.certify_quasi_leontief(u)
        assert not cert.ok
        assert set(cert.witnesses) == {0, 1}
        assert "not the up-set" in cert.detail
        reg = q.certify_regular(u)
        assert not reg.ok


class TestCertifyRegular:
    def test_chain_with_midpoint_probes(self):
        chain = q.FinitePoset.chain(range(3))
        u = q.TabulatedUtility(chain, {t: F(t) for t in range(3)})
        cert = q.certify_regular(u, probe_levels=[F(1, 2), F(3, 2)])
        assert cert.ok
        assert cert.dual_table[F(1, 2)] == 1
        assert cert.dual_table[F(3, 2)] == 2

    def test_finite_truncation_of_gap_chain_is_regular(self):
        # a finite chain with a value gap cannot reproduce the infinite
        # pathology: its level sets always attain their minimum
        values = [F(0), F(1)] + [F(2) + F(1, k) for k in range(5, 1, -1)] + [F(3)]
        chain = q.FinitePoset.chain(values)
        u = q.TabulatedUtility(chain, {v: v for v in values})
        cert = q.certify_regular(u, probe_levels=[F(2)])
        assert cert.ok
        assert cert.dual_table[F(2)] == F(2) + F(1, 5)

    def test_leastless_level_fails_with_witnesses(self):
        poset = q.FinitePoset.from_covers(
            ["bot", "a", "b"], [("bot", "a"), ("bot", "b")]
        )
        u = q.TabulatedUtility(poset, {"bot": F(0), "a": F(1), "b": F(1)})
        cert = q.certify_regular(u, probe_levels=[F(1)])
        assert not cert.ok
        assert set(cert.witnesses) == {"a", "b"}

    def test_quasileontief_implies_regular_on_finite_domains(self):
        for i in range(40):
            rng = corpus.derive_rng(7, "ql-implies-regular", i)
            poset = corpus.random_poset(rng, 10, with_bottom=True)
            u = corpus.random_quasileontief_utility(rng, poset)
            assert q.certify_quasi_leontief(u).ok
            assert q.certify_regular(u).ok


class TestPropertyPhi:
    def test_certified_utilities_have_phi(self, min_on_4x4):
        assert q.check_property_phi(min_on_4x4).ok

    def test_sum_fails_at_the_antichain_pair(self):
        cert = q.check_property_phi(sum_on_unit_square())
        assert not cert.ok
        assert set(cert.witnesses) == {(0, 1), (1, 0)}

    def test_any_isotone_on_chain_passes(self):
        chain = q.FinitePoset.chain(range(5))
        u = q.TabulatedUtility(chain, {t: F(t // 2) for t in range(5)})
        assert q.check_property_phi(u).ok


class TestIsotone:
    def test_constant_passes(self):
        chain = q.FinitePoset.chain(range(3))
        assert q.check_isotone(q.TabulatedUtility(chain, {t: F(7) for t in range(3)})).ok

    def test_identity_passes(self):
        chain = q.FinitePoset.chain(range(3))
        assert q.check_isotone(q.TabulatedUtility(chain, {t: F(t) for t in range(3)})).ok

    def test_decreasing_fails_with_witness(self):
        chain = q.FinitePoset.chain(range(2))
        cert = q.check_isotone(q.TabulatedUtility(chain, {0: F(1), 1: F(0)}))
        assert not cert.ok
        assert cert.witnesses == (0, 1)


class TestLowerBoundedLevelSets:
    def test_bottom_always_passes(self, min_on_4x4):
        assert q.check_lower_bounded_level_sets(min_on_4x4).ok

    def test_antichain_fails(self):
        poset = q.FinitePoset.antichain(["a", "b"])
        u = q.TabulatedUtility(poset, {"a": F(1), "b": F(1)})
        cert = q.check_lower_bounded_level_sets(u)
        assert not cert.ok
        assert set(cert.witnesses) == {"a", "b"}

    def test_witnesses_replay_when_two_elements_are_comparable(self):
        """a < b and c isolated: the witnesses are the minimal a and c, not
        the first two elements, and they have no common lower bound."""
        poset = q.FinitePoset.from_covers(["a", "b", "c"], [("a", "b")])
        u = q.TabulatedUtility(poset, {"a": F(0), "b": F(1), "c": F(0)})
        cert = q.check_lower_bounded_level_sets(u)
        assert not cert.ok and cert.witnesses == ("a", "c")
        x, y = cert.witnesses
        assert not poset.down_set(x) & poset.down_set(y)

    def test_empty_level_sets_are_vacuous(self):
        poset = q.FinitePoset.antichain(["a", "b"])
        u = q.TabulatedUtility(poset, {"a": F(1), "b": F(1)})
        assert q.check_lower_bounded_level_sets(u, probe_levels=[F(99)]).ok is False
        # the failure above comes from level 1; a probe above the maximum
        # contributes nothing
        chain = q.FinitePoset.chain(range(2))
        v = q.TabulatedUtility(chain, {0: F(0), 1: F(1)})
        assert q.check_lower_bounded_level_sets(v, probe_levels=[F(99)]).ok


class TestMeetHomomorphism:
    def test_min_on_grid_passes(self, min_on_4x4):
        assert q.check_meet_homomorphism(min_on_4x4).ok

    def test_sum_fails_at_the_meet(self):
        cert = q.check_meet_homomorphism(sum_on_unit_square())
        assert not cert.ok
        assert set(cert.witnesses) == {(0, 1), (1, 0)}

    def test_isotone_on_chain_passes(self):
        chain = q.FinitePoset.chain(range(4))
        u = q.TabulatedUtility(chain, {t: F(t // 2) for t in range(4)})
        assert q.check_meet_homomorphism(u).ok

    def test_needs_total_meet(self):
        poset = q.FinitePoset.antichain(["a", "b"])
        u = q.TabulatedUtility(poset, {"a": F(0), "b": F(0)})
        with pytest.raises(q.OrderError):
            q.check_meet_homomorphism(u)


class TestCharacterizationEquivalence:
    def test_min_on_grid_all_sides_pass(self):
        u = grid_utility(lambda a, b: F(min(a, b)), range(3), range(3))
        cert = q.check_characterization_equivalence(u)
        assert cert.ok
        assert all(cert.data["sides"].values())

    def test_sum_all_sides_fail(self):
        cert = q.check_characterization_equivalence(sum_on_unit_square())
        assert cert.ok
        assert not any(cert.data["sides"].values())

    def test_randomized_filtered_posets_agree(self):
        hits = {True: 0, False: 0}
        for i in range(100):
            rng = corpus.derive_rng(13, "triangle-unit", i)
            poset = corpus.random_poset(rng, 12, with_bottom=True)
            u = corpus.random_isotone_utility(rng, poset)
            cert = q.check_characterization_equivalence(u)
            assert cert.ok, cert.detail
            hits[cert.data["sides"]["definition"]] += 1
        # the corpus must exercise both outcomes
        assert hits[True] > 0 and hits[False] > 0

    def test_randomized_arbitrary_tables_agree(self):
        # values drawn with no isotonicity constraint: the equivalence must
        # still hold (both sides reject non-isotone tables)
        for i in range(100):
            rng = corpus.derive_rng(41, "triangle-arbitrary", i)
            poset = corpus.random_poset(rng, 10, with_bottom=True)
            values = {e: F(rng.randint(0, 4), 2) for e in poset.elements}
            u = q.TabulatedUtility(poset, values)
            cert = q.check_characterization_equivalence(u)
            assert cert.ok, cert.detail

    def test_certification_implies_isotone_and_phi(self):
        for i in range(40):
            rng = corpus.derive_rng(17, "monotone-closure", i)
            poset = corpus.random_poset(rng, 10, with_bottom=True)
            u = corpus.random_quasileontief_utility(rng, poset)
            assert q.certify_quasi_leontief(u).ok
            assert q.check_isotone(u).ok
            assert q.check_property_phi(u).ok


class TestVerifyGalois:
    def _tabulated_classical(self):
        u = q.classical_leontief(
            [F(1), F(2)], q.Box([q.BoxAxis(F(0), F(4), F(1))] * 2)
        )
        return q.tabulate(u)

    def test_classical_on_grid_passes(self):
        tab = self._tabulated_classical()
        cert = q.certify_regular(tab, probe_levels=[F(k) for k in range(5)])
        assert cert.ok
        gal = q.verify_galois(cert.utility, cert.dual_table)
        assert gal.ok
        assert set(tab.image()) == {F(k) for k in range(5)}

    def test_corrupted_entry_fails_with_witness(self):
        tab = self._tabulated_classical()
        cert = q.certify_regular(tab)
        table = dict(cert.dual_table)
        x1, x2 = table[F(2)]
        table[F(2)] = (x1 - 1, x2)  # lowered by one grid step
        gal = q.verify_galois(cert.utility, table)
        assert not gal.ok
        x, lam = gal.witnesses
        # replay: the corrupted bound admits x without the value reaching lam
        assert cert.utility.poset.leq(table[lam], x)
        assert cert.utility.value(x) < lam

    def test_empty_table_is_vacuous(self, min_on_4x4):
        assert q.verify_galois(min_on_4x4, {}).ok


class TestBeyondGridsAndNumbers:
    def test_triangular_semilattice_instance(self):
        # {(a, b) : a + b <= 3} is an inf-semilattice that is not a lattice:
        # meets are componentwise, but e.g. (0,3) and (3,0) have no join
        full = q.grid_space(range(4), range(4)).as_poset()
        tri = full.induced([p for p in full if p[0] + p[1] <= 3])
        assert tri.is_inf_semilattice()
        assert tri.join((0, 3), (3, 0)) is None
        u = q.TabulatedUtility(tri, {p: F(min(p)) for p in tri.elements})
        assert q.check_meet_homomorphism(u).ok
        reg = q.certify_regular(u)
        assert reg.ok
        assert q.verify_galois(reg.utility, reg.dual_table).ok
        assert set(q.efficient_set(reg.utility)) == {(0, 0), (1, 1)}

    def test_lexicographic_value_scale(self):
        # the value scale only needs a total order: tuples under
        # lexicographic comparison certify like numbers (no midpoint probes)
        chain = q.FinitePoset.chain(range(4))
        values = {0: (0, 0), 1: (0, 2), 2: (1, 0), 3: (1, 0)}
        u = q.TabulatedUtility(chain, values)
        reg = q.certify_regular(u)
        assert reg.ok
        assert reg.utility.dual((0, 2)) == 1
        assert reg.utility.dual((1, 0)) == 2
        assert reg.utility.interior(3) == 2
        assert q.verify_galois(reg.utility, reg.dual_table).ok


class TestCertificateSerialization:
    def test_fail_certificate_round_trips_to_json(self):
        cert = q.certify_quasi_leontief(sum_on_unit_square())
        obj = cert.to_json()
        assert obj["verdict"] == "fail"
        assert obj["property"] == "quasi-leontief"
        assert [[0, 1], [1, 0]] == sorted(obj["witnesses"])

    def test_pass_certificate_carries_dual_table(self, min_on_4x4):
        cert = q.certify_regular(min_on_4x4)
        obj = cert.to_json()
        assert obj["verdict"] == "pass"
        assert obj["dual_table"]["2"] == [2, 2]
