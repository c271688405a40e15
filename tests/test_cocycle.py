"""Cocycles, pullbacks, and the twisting construction."""

import hashlib
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from kleintwist import cocycle
from kleintwist.cocycle import (Cocycle2, _grouplike_corrector, build_s4tau,
                                double_twist, klein_bicharacter, pullback,
                                rebind, trivial_cocycle, twist, verify_cocycle)
from kleintwist.errors import KleintwistError, TwistNotHopf
from kleintwist.hopf import (FDHopf, all_axioms_pass, character_group,
                             characters, function_algebra, fourier_iso,
                             group_algebra, restriction_surjection,
                             verify_hopf_axioms)
from kleintwist.perm import (Permutation, easy_klein, generate,
                             isomorphism_type, klein_group, symmetric_group)
from oracles import cocycle_value, hopf_map

S4 = symmetric_group(4)
Z5 = generate(5, [Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])])


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
        assert cocycle_value(sigma, {1: 1}, {1: 1}) == -1
        assert cocycle_value(sigma, {0: 1}, {3: 1}) == 1
        assert cocycle_value(sigma, {1: 2}, {1: 3}) == -6       # bilinear

    def test_flipped_entry_fails(self):
        sigma = klein_bicharacter()
        rows = [list(r) for r in sigma.table]
        rows[1][2] = -rows[1][2]
        tampered = Cocycle2.build(sigma.carrier, rows, rows,
                                  sigma.star_corrector)
        assert not verify_cocycle(tampered)

    # Doubling one table's scale halves it.  The spy lets every identity
    # run: exactly those of unequal degree in that table on their two sides
    # differ, its two unit identities and both convolutions; the cocycle
    # identity, of degree 2 in the table on each side, still holds.
    @pytest.mark.parametrize("k", [0, 1], ids=["table", "inverse_table"])
    def test_halved_table_fails_exactly_its_unbalanced_identities(self, monkeypatch, k):
        sigma = build_s4tau().cocycle
        pairs = [(A, 2 * d if j == k else d) for j, (A, d) in enumerate(sigma._pairs)]
        halved = Cocycle2._from_tensors(sigma.carrier, *pairs)
        assert verify_cocycle(sigma) and not verify_cocycle(halved)
        real, differ = cocycle._first_difference, []

        def spy(x, y):
            if real(x, y) is not None:
                differ.append((x[0], any(p is halved._pairs[k] for p in x[1:])))

        monkeypatch.setattr(cocycle, "_first_difference", spy)
        assert verify_cocycle(halved)
        assert sorted(differ) == [("i,ij->j", True), ("iab,jde,ad,be->ij", True),
                                  ("iab,jde,ad,be->ij", True), ("j,ij->i", True)]

    def test_trivial_cocycle_verifies(self):
        H = function_algebra(symmetric_group(3))
        assert verify_cocycle(trivial_cocycle(H))

    @pytest.mark.parametrize("build,counit", [
        (function_algebra, (1, 0, 0, 0, 0, 0)), (group_algebra, (1,) * 6)])
    def test_trivial_cocycle_views(self, build, counit):
        sigma = trivial_cocycle(build(symmetric_group(3)))
        table = tuple(tuple(a * b for b in counit) for a in counit)
        assert sigma.table == sigma.inverse_table == table
        assert sigma.star_corrector == counit
        assert {type(v) for row in sigma.table for v in row} == {int}
        assert {type(v) for v in sigma.star_corrector} == {int}


def _halved_product(H):
    return FDHopf._from_tensors(H.basis_labels, *[(A, 2 * d if k == 1 else d)
                                                  for k, (A, d) in enumerate(H._pairs)])


def _replaced(H, k, A):
    """H with its k-th tensor (order U, M, C, E, S, T) replaced by A, scale 1."""
    return FDHopf._from_tensors(H.basis_labels, *[(A, 1) if m == k else pair
                                                  for m, pair in enumerate(H._pairs)])


def _every_product_e0(H):
    M = np.zeros_like(H.M)
    M[:, :, 0] = 1
    return _replaced(H, 1, M)


def _two_term_unit(H):
    U = np.zeros_like(H.U)
    U[:2] = 1
    return _replaced(H, 0, U)


# a loop of order 5 with identity 0: a Latin square whose elements are all
# self-inverse, so not the cyclic group of order 5, so not associative
_LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def _loop_product(H):
    M = np.zeros_like(H.M)
    for i, row in enumerate(_LOOP5):
        M[i, range(5), row] = 1
    return _replaced(H, 1, M)


@pytest.mark.parametrize("carrier,table,message", [
    (lambda: function_algebra(symmetric_group(3)), [[1] * 6] * 6, "group-like basis"),
    (lambda: _halved_product(group_algebra(klein_group())), [[1] * 4] * 4,
     "group basis"),
    (lambda: group_algebra(klein_group()),
     [[1, 1, 1, 1], [1, 1, -1, 1], [1, 1, 1, 1], [1, 1, 1, 1]], "does not correct"),
    (lambda: _every_product_e0(group_algebra(klein_group())), [[1] * 4] * 4,
     "group basis"),
    (lambda: _two_term_unit(group_algebra(klein_group())), [[1] * 4] * 4,
     "group basis"),
    (lambda: _loop_product(group_algebra(Z5)), [[1] * 5] * 5, "group basis"),
])
def test_grouplike_corrector_refusals(carrier, table, message):
    with pytest.raises(KleintwistError, match=message):
        _grouplike_corrector(carrier(), table)


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

    def test_equality_and_hash(self):
        sigma = _s4tau_once().cocycle
        again = Cocycle2.build(sigma.carrier, sigma.table, sigma.inverse_table,
                               sigma.star_corrector)
        assert again == sigma and hash(again) == hash(sigma)
        rows = [list(r) for r in sigma.table]
        rows[1][1] = -rows[1][1]
        assert Cocycle2.build(sigma.carrier, rows, sigma.inverse_table,
                              sigma.star_corrector) != sigma
        twin = FDHopf._from_tensors(sigma.carrier.basis_labels, *sigma.carrier._pairs)
        assert twin.structure_equal(sigma.carrier)
        assert Cocycle2.build(twin, sigma.table, sigma.inverse_table,
                              sigma.star_corrector) != sigma
        hash(_s4tau_once())         # a TwistedS4 holding the cocycle stays hashable

    def test_build_copies_an_array_it_is_given(self):
        sigma = klein_bicharacter()
        A = np.array(sigma.table)
        again = Cocycle2.build(sigma.carrier, A, A, sigma.star_corrector)
        assert again == sigma and again.cleared_table[0] is not A
        assert A.flags.writeable

    def test_rebind_shares_the_arrays(self):
        t = _s4tau_once()
        sig = rebind(t.cocycle, t.algebra)
        for name in ("cleared_table", "cleared_inverse_table", "cleared_star_corrector"):
            assert getattr(sig, name)[0] is getattr(t.cocycle, name)[0]


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
        broken = hopf_map(pi.source, pi.target, [{} for _ in range(24)])
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
        """The twist with the carrier's star left uncorrected fails the
        star suite and no other; the twist itself passes all six."""
        pi = restriction_surjection(S4, easy_klein()).then(
            fourier_iso(easy_klein()))
        sig = pullback(klein_bicharacter(), pi)
        twisted = twist(sig.carrier, sig, verify=False)
        rep = verify_hopf_axioms(twisted)
        assert len(rep) == 6 and all_axioms_pass(rep)
        naive = FDHopf._from_tensors(twisted.basis_labels, *twisted._pairs[:5],
                                     sig.carrier._pairs[5])
        assert {k for k, ok in verify_hopf_axioms(naive).items() if not ok} == {"star"}
        # the counit as star corrector gives the same naive star, and
        # twist's own check refuses it
        counit = Cocycle2._from_tensors(sig.carrier, *sig._pairs[:2], sig.carrier._pairs[3])
        with pytest.raises(TwistNotHopf, match=r"^twisted structure fails \['star'\]"):
            twist(sig.carrier, counit)

    def test_double_twist_restores_everything(self):
        t = _s4tau_once()
        assert double_twist(t).structure_equal(t.base)

    def test_rebind_carries_tables(self):
        t = _s4tau_once()
        sig = rebind(t.cocycle, t.algebra)
        assert sig.table == t.cocycle.table
        assert sig.carrier is t.algebra


def _double_coproduct(H, i):
    """(a, b, c, coefficient) over the terms of (delta x id) delta(e_i)."""
    return [(a, b, c, u * v) for x, c, u in H.comult[i] for a, b, v in H.comult[x]]


def _term_by_term_twist(H, sigma):
    """The twisted product and antipode of H summed term by term from the
    dict views, skipping every term where sigma or sigma^-1 vanishes:

        x *_sigma y = sum sigma(x1, y1) sigma^-1(x3, y3) x2 y2,
        S_sigma(x)  = f(x1) S(x2) g(x3),

    f(x) = sigma(x1, S x2) and g(x) = sigma^-1(S x1, x2)."""
    n, sg, sv = H.dim, sigma.table, sigma.inverse_table
    delta2 = [_double_coproduct(H, i) for i in range(n)]
    # the x and y legs that meet a nonzero row, resp. column, of both tables
    rows = [[(a, b, c, u) for a, b, c, u in terms if any(sg[a]) and any(sv[c])]
            for terms in delta2]
    cols = [[(p, q, r, v) for p, q, r, v in terms
             if any(row[p] for row in sg) and any(row[r] for row in sv)]
            for terms in delta2]
    mult = {}
    for i, j in itertools.product(range(n), repeat=2):
        acc = {}
        for a, b, c, u in rows[i]:
            for p, q, r, v in cols[j]:
                if not sg[a][p] or not sv[c][r]:
                    continue
                for k, w in H.mult.get((b, q), {}).items():
                    acc[k] = acc.get(k, 0) + sg[a][p] * sv[c][r] * u * v * w
        acc = {k: w for k, w in acc.items() if w}
        if acc:
            mult[i, j] = acc
    f = [sum(c * w * sg[a][k] for a, b, c in H.comult[i]
             for k, w in H.antipode[b].items() if sg[a][k]) for i in range(n)]
    g = [sum(c * w * sv[k][b] for a, b, c in H.comult[i]
             for k, w in H.antipode[a].items() if sv[k][b]) for i in range(n)]
    antipode = {}
    for i in range(n):
        acc = {}
        for a, b, c, u in delta2[i]:
            if f[a] and g[c]:
                for k, w in H.antipode[b].items():
                    acc[k] = acc.get(k, 0) + f[a] * g[c] * u * w
        antipode[i] = {k: w for k, w in acc.items() if w}
    return mult, antipode


def test_twist_matches_term_by_term_oracle():
    a, b = Permutation.from_cycles(4, [(1, 2)]), Permutation.from_cycles(4, [(3, 4)])
    t = build_s4tau(generate(4, [a, b]), (a, b), verify=False)     # not normal in S4
    assert not t.base.structure_equal(t.algebra)
    twisted = twist(t.base, t.cocycle, verify=False)
    mult, antipode = _term_by_term_twist(t.base, t.cocycle)
    assert twisted.mult == mult
    assert twisted.antipode == antipode


def test_twist_peak_memory_stays_under_the_axiom_check():
    """The product's intermediates stay below the axiom check's and are
    freed before that check runs inside twist(verify=True); both evaluate
    slab by slab, so neither holds a whole n^4 array but the one
    contracted j-side factor of the bialgebra identity."""
    sigma = _s4tau_once().cocycle
    H = sigma.carrier
    twist(H, sigma, verify=False)                       # warm every lazy cache
    tracemalloc.start()
    try:
        out = twist(H, sigma, verify=False)
        twist_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        verify_hopf_axioms(out)
        verify_peak = tracemalloc.get_traced_memory()[1]
        del out
        tracemalloc.reset_peak()
        twist(H, sigma)
        verified_twist_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert twist_peak <= verify_peak
    # one n^4 int64 array (24^4 * 8 bytes = 2.65 MB) kept alive would show
    assert verified_twist_peak <= verify_peak + 2 ** 20
    # whole-array evaluation peaked at 13.1 MiB and 10.3 MiB at dim 24
    assert verify_peak <= 6.5 * 2 ** 20
    assert twist_peak <= 3.5 * 2 ** 20


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

# sha256 of repr((table, inverse_table, star_corrector)) of the pulled-back
# cocycle build_s4tau(V, (g1, g2)).cocycle, as the Fraction-valued tables
# read before the cocycle was stored only as cleared integer arrays.
_SIG_N_A = "77d66e49715fd08077194926adde77ac9ff5b60c59674d1abb2dc22ff164e296"
_SIG_N_B = "1e91eea75bf283682e18a899b2561d51c22a7ff56c1389a8318c22c0b90632bc"
_SIG_12_A = "4a6f9dfddb1f661d31d0b68293bef4adf8befe37612a0cda9fa58231d0679899"
_SIG_12_B = "86818db39d2dc58b2b1d2f022eca00616a2175e72c7d35b6ebfcddb65de42c6c"
_SIG_13_A = "303ab1aa4224536f763a6203cda744c22d14495801f8b930f1391cff2a910ee6"
_SIG_13_B = "817ae904054c12b06e1c9e39c325513c17741ace18e5d9c01b68ba25f01de620"
_SIG_14_A = "ba8a0b98048d0174a420ee4ae6804ba9dd61d42b12566bd93b309b6db0a6c958"
_SIG_14_B = "c8cc524e75b1944e8270bf617a76a44d3e4a191ad76c0f31bdf37a7961603fab"
COCYCLE_SHA256 = {
    ("(12)(34)", "(13)(24)"): _SIG_N_A, ("(13)(24)", "(14)(23)"): _SIG_N_A,
    ("(14)(23)", "(12)(34)"): _SIG_N_A,
    ("(12)(34)", "(14)(23)"): _SIG_N_B, ("(13)(24)", "(12)(34)"): _SIG_N_B,
    ("(14)(23)", "(13)(24)"): _SIG_N_B,
    ("(34)", "(12)"): _SIG_12_A, ("(12)", "(12)(34)"): _SIG_12_A, ("(12)(34)", "(34)"): _SIG_12_A,
    ("(12)", "(34)"): _SIG_12_B, ("(34)", "(12)(34)"): _SIG_12_B, ("(12)(34)", "(12)"): _SIG_12_B,
    ("(24)", "(13)"): _SIG_13_A, ("(13)", "(13)(24)"): _SIG_13_A, ("(13)(24)", "(24)"): _SIG_13_A,
    ("(13)", "(24)"): _SIG_13_B, ("(24)", "(13)(24)"): _SIG_13_B, ("(13)(24)", "(13)"): _SIG_13_B,
    ("(23)", "(14)"): _SIG_14_A, ("(14)", "(14)(23)"): _SIG_14_A, ("(14)(23)", "(23)"): _SIG_14_A,
    ("(14)", "(23)"): _SIG_14_B, ("(23)", "(14)(23)"): _SIG_14_B, ("(14)(23)", "(14)"): _SIG_14_B,
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
    sigma = t.cocycle
    views = repr((sigma.table, sigma.inverse_table, sigma.star_corrector))
    assert hashlib.sha256(views.encode()).hexdigest() == COCYCLE_SHA256[key]
    assert double_twist(t).structure_equal(t.base)


def test_pinned_twists_cover_all_pairs():
    assert {tuple(g.cycle_string() for g in gens)
            for _, gens in _klein_pairs()} == set(TWIST_DUMP_SHA256) == set(COCYCLE_SHA256)
