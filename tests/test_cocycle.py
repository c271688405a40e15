"""Cocycles, pullbacks, and the twisting construction."""

import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest

from kleintwist.cocycle import (Cocycle2, build_s4tau, double_twist,
                                klein_bicharacter, pullback, rebind,
                                trivial_cocycle, twist, verify_cocycle)
from kleintwist.errors import KleintwistError, TwistNotHopf
from kleintwist.hopf import (HopfMap, all_axioms_pass, character_group,
                             characters, function_algebra, fourier_iso,
                             group_algebra, restriction_surjection,
                             verify_hopf_axioms)
from kleintwist.perm import (Permutation, easy_klein, generate,
                             isomorphism_type, klein_group, symmetric_group)

S4 = symmetric_group(4)


def _s4tau_once():
    if not hasattr(_s4tau_once, "value"):
        _s4tau_once.value = build_s4tau()
    return _s4tau_once.value


class TestBicharacter:
    def test_pinned_table(self):
        sigma = klein_bicharacter()
        assert sigma.table == ((1, 1, 1, 1), (1, -1, 1, -1),
                               (1, -1, -1, 1), (1, 1, -1, -1))
        assert sigma.inverse_table == sigma.table
        minus = {(i, j) for i in range(4) for j in range(4)
                 if sigma.table[i][j] == -1}
        assert minus == {(1, 1), (1, 3), (2, 1), (2, 2), (3, 2), (3, 3)}

    def test_verifies(self):
        assert verify_cocycle(klein_bicharacter())

    def test_value_accessor(self):
        sigma = klein_bicharacter()
        assert sigma.value({1: 1}, {1: 1}) == -1
        assert sigma.value({0: 1}, {3: 1}) == 1
        assert sigma.value({1: 2}, {1: 3}) == -6       # bilinear

    def test_flipped_entry_fails(self):
        sigma = klein_bicharacter()
        rows = [list(r) for r in sigma.table]
        rows[1][2] = -rows[1][2]
        tampered = Cocycle2.build(sigma.carrier, rows, rows,
                                  sigma.star_corrector)
        assert not verify_cocycle(tampered)

    def test_trivial_cocycle_verifies(self):
        H = function_algebra(symmetric_group(3))
        assert verify_cocycle(trivial_cocycle(H))


class TestClearedTables:
    def test_cleared_once_and_read_only(self):
        sigma = _s4tau_once().cocycle
        for name, field in (("cleared_table", sigma.table),
                            ("cleared_inverse_table", sigma.inverse_table),
                            ("cleared_star_corrector", sigma.star_corrector)):
            A, d = getattr(sigma, name)
            assert getattr(sigma, name)[0] is A
            assert not A.flags.writeable
            assert (A.astype(object) * Fraction(1, d)).tolist() == \
                np.array(field, dtype=object).tolist()
            with pytest.raises(ValueError):
                A[(0,) * A.ndim] = 7

    def test_fields_and_equality_unchanged(self):
        sigma = klein_bicharacter()
        sigma.cleared_table
        assert Cocycle2.build(sigma.carrier, sigma.table, sigma.inverse_table,
                              sigma.star_corrector) == sigma


class TestPullback:
    def test_pullback_verifies(self):
        pi = restriction_surjection(S4, easy_klein()).then(
            fourier_iso(easy_klein()))
        sig = pullback(klein_bicharacter(), pi)
        assert verify_cocycle(sig)
        assert sig.carrier.dim == 24

    def test_target_dimension_guard(self):
        z2 = generate(4, [Permutation.from_cycles(4, [(1, 2)])])
        pi = restriction_surjection(S4, z2).then(fourier_iso(z2))
        with pytest.raises(ValueError):
            pullback(klein_bicharacter(), pi)

    def test_broken_map_rejected(self):
        pi = restriction_surjection(S4, easy_klein()).then(
            fourier_iso(easy_klein()))
        broken = HopfMap(pi.source, pi.target, [{} for _ in range(24)])
        with pytest.raises(KleintwistError, match="failed at"):
            pullback(klein_bicharacter(), broken)


class TestTwist:
    def test_carrier_must_be_the_algebra(self):
        with pytest.raises(ValueError, match="rebind"):
            twist(function_algebra(S4), klein_bicharacter())

    def test_trivial_twist_is_identity(self):
        H = function_algebra(symmetric_group(3))
        assert twist(H, trivial_cocycle(H)).structure_equal(H)

    def test_trivial_twist_of_group_algebra_is_identity(self):
        H = group_algebra(symmetric_group(3))
        assert not H.is_commutative()
        assert twist(H, trivial_cocycle(H)).structure_equal(H)

    def test_s4tau_is_noncommutative_hopf(self):
        t = _s4tau_once()
        A = t.algebra
        assert not A.is_commutative()
        i, j = A.noncommutative_witness()
        assert {A.basis_labels[i], A.basis_labels[j]} == {"d_(23)", "d_(234)"}
        assert all_axioms_pass(verify_hopf_axioms(A))

    def test_s4tau_metadata(self):
        t = _s4tau_once()
        assert t.group.order == 24
        assert t.subgroup == easy_klein()
        assert t.base.structure_equal(function_algebra(S4))
        assert t.restriction.verify()

    def test_s4tau_characters_dihedral(self):
        t = _s4tau_once()
        chars = characters(t.algebra)
        assert len(chars) == 8
        g = character_group(t.algebra, chars)
        assert g.order == 8
        assert isomorphism_type(g).name == "D4"

    def test_naive_star_fails_exactly_at_star(self):
        pi = restriction_surjection(S4, easy_klein()).then(
            fourier_iso(easy_klein()))
        sig = pullback(klein_bicharacter(), pi)
        with pytest.raises(TwistNotHopf, match="star"):
            twist(sig.carrier, sig, correct_star=False)

    def test_double_twist_restores_everything(self):
        t = _s4tau_once()
        assert double_twist(t).structure_equal(t.base)

    def test_rebind_carries_tables(self):
        t = _s4tau_once()
        sig = rebind(t.cocycle, t.algebra)
        assert sig.table == t.cocycle.table
        assert sig.carrier is t.algebra


class TestLabelingIndependence:
    def test_all_six_labelings_give_dihedral(self):
        V = easy_klein()
        nonid = [p for p in V.sorted_elements() if not p.is_identity()]
        seen = set()
        for g1, g2 in itertools.permutations(nonid, 2):
            t = build_s4tau(dual_generators=(g1, g2))
            chars = characters(t.algebra)
            g = character_group(t.algebra, chars)
            name = isomorphism_type(g).name
            seen.add((len(chars), g.order, name))
        assert seen == {(8, 8, "D4")}

    def test_conjugate_klein_copy_agrees(self):
        other = generate(4, [Permutation.from_cycles(4, [(1, 3)]),
                             Permutation.from_cycles(4, [(2, 4)])])
        t = build_s4tau(V=other)
        assert not t.algebra.is_commutative()
        chars = characters(t.algebra)
        g = character_group(t.algebra, chars)
        assert (len(chars), g.order, isomorphism_type(g).name) == (8, 8, "D4")


# sha256 of build_s4tau(V, (g1, g2)).algebra.dump() for every Klein subgroup
# V of S4 and every ordered pair of distinct involutions in it, as the
# entry-by-entry twist produced them before it became a contraction.
_NORMAL = "460f8a2e938f28314949ca7d822a7b307541cd57df59c87dcb510cedf4f846ea"
_V12_A = "12a3412473c721774652b3851e6c405c33373bea418dff9a12d4b57f7a0f354c"
_V12_B = "6907ee29654ffcb71daeccbf48b5971019edc9a6f273a45fa5eddcae67282544"
_V13_A = "2a72015e99a2456ecb34518f995de8b05831498b57e362b44b3d60e8d68a6f06"
_V13_B = "143baaa66a420d81c88776de3d110ea8f3ab2b05a8af8c78b5f8a4446a09fe52"
_V14_A = "e633c72c183f5d016cdccc165db39299db6f77229444ce49ed5557c035b17dcd"
_V14_B = "be0df12eeef54ac5a57909601763066e34c294e59d39971ab978701c864b9944"
TWIST_DUMP_SHA256 = {
    ("(12)(34)", "(13)(24)"): _NORMAL, ("(12)(34)", "(14)(23)"): _NORMAL,
    ("(13)(24)", "(12)(34)"): _NORMAL, ("(13)(24)", "(14)(23)"): _NORMAL,
    ("(14)(23)", "(12)(34)"): _NORMAL, ("(14)(23)", "(13)(24)"): _NORMAL,
    ("(34)", "(12)"): _V12_A, ("(12)", "(12)(34)"): _V12_A, ("(12)(34)", "(34)"): _V12_A,
    ("(12)", "(34)"): _V12_B, ("(34)", "(12)(34)"): _V12_B, ("(12)(34)", "(12)"): _V12_B,
    ("(24)", "(13)"): _V13_A, ("(13)", "(13)(24)"): _V13_A, ("(13)(24)", "(24)"): _V13_A,
    ("(13)", "(24)"): _V13_B, ("(24)", "(13)(24)"): _V13_B, ("(13)(24)", "(13)"): _V13_B,
    ("(23)", "(14)"): _V14_A, ("(14)", "(14)(23)"): _V14_A, ("(14)(23)", "(23)"): _V14_A,
    ("(14)", "(23)"): _V14_B, ("(23)", "(14)(23)"): _V14_B, ("(14)(23)", "(14)"): _V14_B,
}


def _klein_pairs():
    """(V, (g1, g2)) for the four Klein subgroups of S4, normal first, and
    the six ordered pairs of distinct involutions of each."""
    plain = [generate(4, [Permutation.from_cycles(4, [a]), Permutation.from_cycles(4, [b])])
             for a, b in (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)))]
    for V in [klein_group()] + plain:
        involutions = [g for g in V.sorted_elements() if not g.is_identity()]
        for gens in itertools.permutations(involutions, 2):
            yield V, gens


@pytest.mark.parametrize("V,gens", [
    pytest.param(V, gens, id="-".join(g.cycle_string() for g in gens))
    for V, gens in _klein_pairs()])
def test_every_klein_twist_is_pinned_and_undone(V, gens):
    t = build_s4tau(V, gens)
    key = tuple(g.cycle_string() for g in gens)
    assert hashlib.sha256(t.algebra.dump().encode()).hexdigest() == TWIST_DUMP_SHA256[key]
    assert double_twist(t).structure_equal(t.base)


def test_pinned_twists_cover_all_pairs():
    assert {tuple(g.cycle_string() for g in gens)
            for _, gens in _klein_pairs()} == set(TWIST_DUMP_SHA256)
