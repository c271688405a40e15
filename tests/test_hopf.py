"""Hopf structure tensors, axiom verification, maps, and characters."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kleintwist import hopf
from kleintwist.cocycle import Cocycle2, build_s4tau
from kleintwist.errors import KleintwistError, NonSplitQuotient, NotASubgroup
from kleintwist.hopf import (FDHopf, HopfMap, all_axioms_pass, character_group,
                             character_to_permutation, characters, convolution_identity,
                             function_algebra, fourier_iso, group_algebra,
                             restriction_surjection, verify_hopf_axioms)
from kleintwist.perm import (Permutation, easy_klein, generate,
                             isomorphism_type, klein_group, symmetric_group)
from oracles import convolution, convolution_inverse, evaluate

S3 = symmetric_group(3)
S4 = symmetric_group(4)
Z3 = generate(3, [Permutation.from_cycles(3, [(1, 2, 3)])])


def _cs4_chars():
    if not hasattr(_cs4_chars, "value"):
        H = function_algebra(S4)
        _cs4_chars.value = (H, characters(H))
    return _cs4_chars.value


class TestAxioms:
    @pytest.mark.parametrize("build,G", [
        (group_algebra, S3), (function_algebra, S3),
        (group_algebra, S4), (function_algebra, S4),
        (group_algebra, klein_group()), (function_algebra, klein_group()),
    ])
    def test_all_suites_pass(self, build, G):
        report = verify_hopf_axioms(build(G))
        assert all_axioms_pass(report), report

    def test_report_keys(self):
        report = verify_hopf_axioms(group_algebra(Z3))
        assert sorted(report) == ["antipode", "associativity", "bialgebra",
                                  "coassociativity", "counit", "star"]

    def test_fault_injection_breaks_associativity(self):
        H = function_algebra(S3)
        mult = dict(H.mult)
        mult[(0, 1)] = {2: 1}          # cross term where the product is zero
        broken = FDHopf(H.dim, H.basis_labels, H.unit, mult, H.comult,
                        H.counit, H.antipode, H.star)
        report = verify_hopf_axioms(broken)
        assert not report["associativity"]
        assert not all_axioms_pass(report)

    def test_fault_injection_breaks_star(self):
        H = group_algebra(S3)
        star = dict(H.star)
        star[1], star[2] = star[2], star[1]
        broken = FDHopf(H.dim, H.basis_labels, H.unit, H.mult, H.comult,
                        H.counit, H.antipode, star)
        assert not verify_hopf_axioms(broken)["star"]

    @pytest.mark.parametrize("suite,subscripts", [
        ("associativity", "ijw,wkp->ijkp"), ("coassociativity", "iab,axy->ixyb"),
        ("bialgebra", "iab,jcd,acp,bdq->ijpq")])
    @pytest.mark.parametrize("height,row", [(4, 0), (4, 23), (5, 17), (5, 23)])
    def test_one_entry_in_any_slab_flips_only_its_suite(self, monkeypatch, suite,
                                                        subscripts, height, row):
        # of 24 rows: the first and the last of six 4-row slabs, then the last
        # full 5-row slab and the 4-row remainder slab after it
        H = _s4tau()
        real = hopf._first_difference

        def perturbed(x, y):
            if x[0] == subscripts:              # one entry of the sliced operand
                (A, d), *rest = x[1:]
                A = A.copy()
                A[row, 0, 0] += 1
                x = (x[0], (A, d), *rest)
            return real(x, y)

        monkeypatch.setattr(hopf, "_slab_height", lambda widest: height)
        monkeypatch.setattr(hopf, "_first_difference", perturbed)
        report = verify_hopf_axioms(H)
        assert report == {k: k != suite for k in report}

    # Doubling one scale halves that tensor; the sides of an identity are
    # cross-multiplied by their scales, so exactly the suites with an
    # identity of unequal degree in that tensor on its two sides fail.
    @pytest.mark.parametrize("k,failing", [
        (0, {"associativity", "bialgebra", "antipode"}),
        (1, {"associativity", "bialgebra", "antipode"}),
        (2, {"counit", "bialgebra", "antipode"}),
        (3, {"counit", "bialgebra", "antipode"}),
        (4, {"antipode"}),
        (5, {"star"}),
    ], ids=list("UMCEST"))
    @pytest.mark.parametrize("build", [lambda: _s4tau(),
                                       lambda: group_algebra(S3)], ids=["s4tau", "qs3"])
    def test_halved_tensor_fails_exactly_its_unbalanced_suites(self, build, k, failing):
        H = build()
        pairs = [(A, 2 * d if j == k else d) for j, (A, d) in enumerate(H._pairs)]
        report = verify_hopf_axioms(FDHopf._from_tensors(H.basis_labels, *pairs))
        assert {name for name, ok in report.items() if not ok} == failing

    def test_bialgebra_contracts_its_j_side_factor_once(self, monkeypatch):
        H = _s4tau()
        steps = []
        real = hopf._Contraction._step

        def spy(self, parts, out):
            steps.append(frozenset(term for term, _, _ in parts))
            return real(self, parts, out)

        monkeypatch.setattr(hopf, "_slab_height", lambda widest: 5)
        monkeypatch.setattr(hopf._Contraction, "_step", spy)
        assert all_axioms_pass(verify_hopf_axioms(H))
        assert steps.count(frozenset({"jcd", "bdq"})) == 1
        assert steps.count(frozenset({"iab", "acp"})) == 5      # one per slab


class TestAlgebras:
    def test_group_algebra_multiplies_like_group(self):
        H = group_algebra(S3)
        elems = S3.sorted_elements()
        idx = {g: i for i, g in enumerate(elems)}
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                assert H.mult[(i, j)] == {idx[a * b]: 1}

    def test_function_algebra_is_commutative(self):
        H = function_algebra(S3)
        assert H.is_commutative()
        assert H.noncommutative_witness() is None

    def test_group_algebra_s3_noncommutative(self):
        H = group_algebra(S3)
        assert not H.is_commutative()
        assert H.noncommutative_witness() is not None

    def test_structure_equal(self):
        assert function_algebra(S3).structure_equal(function_algebra(S3))
        assert not function_algebra(S3).structure_equal(group_algebra(S3))

    def test_dump_mentions_every_section(self):
        text = function_algebra(Z3).dump()
        for tag in ("dim 3", "basis[0]", "u ->", "m[", "d[", "e[", "s[", "t["):
            assert tag in text


def _s4tau():
    if not hasattr(_s4tau, "value"):
        _s4tau.value = build_s4tau().algebra
    return _s4tau.value


ALGEBRAS = {"qs4": lambda: group_algebra(S4), "cs4": lambda: function_algebra(S4),
            "s4tau": _s4tau}


def _dict_form(H):
    return dict(dim=H.dim, basis_labels=H.basis_labels, unit=H.unit, mult=H.mult,
                comult=H.comult, counit=H.counit, antipode=H.antipode, star=H.star)


def _spelled_out(H):
    """H's dict form written another way: every value as a Fraction with
    numerator and denominator doubled, explicit zeros in every vector and
    for every missing product, and each coproduct term split into halves
    plus a pair of terms that cancel."""
    def q(c):
        c = Fraction(c)
        return Fraction(2 * c.numerator, 2 * c.denominator)

    def vec(v):
        return {**{k: 0 for k in range(H.dim)}, **{k: q(c) for k, c in v.items()}}

    rng = range(H.dim)
    return dict(
        dim=H.dim, basis_labels=H.basis_labels, unit=vec(H.unit),
        mult={(i, j): vec(H.mult.get((i, j), {})) for i in rng for j in rng},
        comult={i: [(j, k, q(c) / 2) for j, k, c in H.comult[i] for _ in range(2)]
                + [(0, 1, 1), (0, 1, -1)] for i in rng},
        counit=[q(c) for c in H.counit],
        antipode={i: vec(H.antipode[i]) for i in rng},
        star={i: vec(H.star[i]) for i in rng})


class TestStoredForm:
    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_views_rebuild_the_algebra(self, name):
        H = ALGEBRAS[name]()
        again = FDHopf(**_dict_form(H))
        assert again.structure_equal(H)
        assert again.dump() == H.dump()

    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_spelling_does_not_matter(self, name):
        H = ALGEBRAS[name]()
        again = FDHopf(**_spelled_out(H))
        assert again.structure_equal(H)
        assert again.dump() == H.dump()
        assert _dict_form(again) == _dict_form(H)

    @pytest.mark.parametrize("k", range(6), ids=list("UMCEST"))
    def test_halved_tensor_differs(self, k):
        H = _s4tau()
        pairs = [(A, 2 * d if j == k else d) for j, (A, d) in enumerate(H._pairs)]
        assert not FDHopf._from_tensors(H.basis_labels, *pairs).structure_equal(H)

    def test_tensors_are_canonical_and_read_only(self):
        H = _s4tau()
        for A, d in ((H.U, H.dU), (H.M, H.dM), (H.C, H.dC), (H.E, H.dE),
                     (H.S, H.dS), (H.T, H.dT)):
            assert d > 0 and np.gcd(np.gcd.reduce(A, axis=None), d) == 1
            assert not A.flags.writeable
        with pytest.raises(ValueError):
            H.M[0, 0, 0] = 1

    def test_views_keep_their_shape(self):
        H = _s4tau()
        assert set(H.comult) == set(H.antipode) == set(H.star) == set(range(H.dim))
        for i in range(H.dim):
            assert [(j, k) for j, k, _ in H.comult[i]] == sorted((j, k) for j, k, _ in H.comult[i])
        values = [c for v in H.mult.values() for c in v.values()]
        assert {type(c) for c in values} == {int, Fraction}
        assert all(c.denominator > 1 for c in values if isinstance(c, Fraction))

    @pytest.mark.parametrize("part,bad", [
        ("unit", {-4: 1}), ("mult", {(0, 4): {0: 1}}), ("mult", {(0, 0): {-1: 1}}),
        ("comult", {i: [(i, -1, 1)] for i in range(4)}), ("star", {i: {4: 1} for i in range(4)}),
    ])
    def test_indices_outside_the_basis_are_refused(self, part, bad):
        H = group_algebra(klein_group())
        with pytest.raises(ValueError, match="out of range"):
            FDHopf(**{**_dict_form(H), part: bad})

    @pytest.mark.parametrize("build", [
        lambda K: FDHopf(**{**_dict_form(K), "unit": {0: 0.5}}),
        lambda K: FDHopf(**{**_dict_form(K), "counit": np.ones(4)}),
        lambda K: HopfMap(K, K, [{i: 0.5} for i in range(4)]),
        lambda K: HopfMap(K, K, [dict(enumerate(row)) for row in np.eye(4)]),
        lambda K: Cocycle2.build(K, [[0.5] * 4] * 4, [[1] * 4] * 4, [1] * 4),
        lambda K: Cocycle2.build(K, np.ones((4, 4)), np.ones((4, 4)), np.ones(4)),
    ], ids=["FDHopf-0.5", "FDHopf-float64", "HopfMap-0.5", "HopfMap-float64",
            "Cocycle2-0.5", "Cocycle2-float64"])
    def test_inexact_entries_are_refused(self, build):
        with pytest.raises(TypeError, match="cannot clear"):
            build(group_algebra(klein_group()))

    def test_witness_is_the_first_pair_in_row_major_order(self):
        H = _s4tau()
        assert H.noncommutative_witness() == (2, 3)
        assert [H.basis_labels[i] for i in (2, 3)] == ["d_(23)", "d_(234)"]


class TestMaps:
    def test_restriction_to_easy_klein(self):
        pi = restriction_surjection(S4, easy_klein())
        assert pi.verify()
        # delta at a group element outside V dies
        outside = S4.sorted_elements().index(Permutation.from_cycles(4, [(1, 3)]))
        assert pi.images[outside] == {}

    def test_restriction_rejects_non_subgroup(self):
        with pytest.raises(NotASubgroup):
            restriction_surjection(S4, symmetric_group(3))

    def test_fourier_orders(self):
        assert fourier_iso(klein_group()).verify()
        z2 = generate(2, [Permutation.from_cycles(2, [(1, 2)])])
        assert fourier_iso(z2).verify()
        with pytest.raises(ValueError):
            fourier_iso(Z3)

    def test_fourier_inverse_roundtrip(self):
        f = fourier_iso(klein_group())
        g = f.inverse()
        assert g.verify()
        comp = f.then(g)
        assert comp.images == [{i: 1} for i in range(4)]

    def test_composition_needs_matching_algebras(self):
        # the Fourier map ends in Q[K]; a second one would start from C(V)
        f = fourier_iso(klein_group())
        with pytest.raises(ValueError, match="source"):
            f.then(fourier_iso(klein_group()))

    def test_images_outside_the_target_are_refused(self):
        H = group_algebra(klein_group())
        with pytest.raises(ValueError, match="out of range"):
            HopfMap(H, H, [{-1: 1}] * 4)

    def test_composed_projection(self):
        pi = restriction_surjection(S4, easy_klein()).then(fourier_iso(easy_klein()))
        assert pi.verify()

    def test_identity_and_zero_maps(self):
        H = function_algebra(S3)
        ident = HopfMap(H, H, [{i: 1} for i in range(H.dim)])
        assert ident.verify() and ident.failure is None
        zero = HopfMap(H, H, [{} for _ in range(H.dim)])
        assert not zero.verify()
        assert zero.failure == "unit"

    # One structure entry of the target perturbed: the identity images then
    # fail exactly one suite, at the perturbed index.
    @pytest.mark.parametrize("failure,perturb", [
        ("unit", lambda H: {"unit": {**H.unit, 0: 2}}),
        ("mult at (0,1)", lambda H: {"mult": {**H.mult, (0, 1): {2: 1}}}),
        ("comult at 2", lambda H: {"comult": {**H.comult, 2: [(0, 2, 2)] + H.comult[2][1:]}}),
        ("counit at 0", lambda H: {"counit": (2,) + H.counit[1:]}),
        ("antipode at 3", lambda H: {"antipode": {**H.antipode, 3: {4: 2}}}),
        ("star at 4", lambda H: {"star": {**H.star, 4: {3: 1}}}),
    ])
    def test_perturbed_target_names_the_suite(self, failure, perturb):
        H = function_algebra(S3)
        parts = {"unit": H.unit, "mult": H.mult, "comult": H.comult, "counit": H.counit,
                 "antipode": H.antipode, "star": H.star, **perturb(H)}
        broken = FDHopf(H.dim, H.basis_labels, **parts)
        pi = HopfMap(H, broken, [{i: 1} for i in range(H.dim)])
        assert not pi.verify()
        assert pi.failure == failure

    def test_doubled_scale_fails_at_unit(self):
        pi = restriction_surjection(S4, easy_klein()).then(fourier_iso(easy_klein()))
        halved = HopfMap._from_matrix(pi.source, pi.target, pi.P, 2 * pi.d)
        assert pi.verify() and not halved.verify()
        assert halved.failure == "unit"

    def test_first_failing_index_is_named(self):
        H = function_algebra(S3)
        mult = {**H.mult, (1, 0): {2: 1}, (0, 1): {2: 1}}
        star = {**H.star, 5: {3: 1}, 4: {3: 1}}
        broken = FDHopf(H.dim, H.basis_labels, H.unit, mult, H.comult, H.counit,
                        H.antipode, star)
        pi = HopfMap(H, broken, [{i: 1} for i in range(H.dim)])
        assert not pi.verify()
        assert pi.failure == "mult at (0,1)"
        broken = FDHopf(H.dim, H.basis_labels, H.unit, H.mult, H.comult, H.counit,
                        H.antipode, star)
        pi = HopfMap(H, broken, [{i: 1} for i in range(H.dim)])
        assert not pi.verify()
        assert pi.failure == "star at 4"


class TestCharacters:
    def test_function_algebra_characters_recover_group(self):
        H, chars = _cs4_chars()
        assert len(chars) == 24
        g = character_group(H, chars)
        assert g.order == 24
        assert isomorphism_type(g).name == "S4"
        recovered = {character_to_permutation(S4, c) for c in chars}
        assert recovered == set(S4.sorted_elements())

    def test_group_algebra_of_klein(self):
        H = group_algebra(klein_group())
        chars = characters(H)
        assert len(chars) == 4
        g = character_group(H, chars)
        assert isomorphism_type(g).name == "Klein"

    def test_nonsplit_quotient_refused(self):
        # x^3 - 1 = (x - 1)(x^2 + x + 1): the quadratic factor stays
        with pytest.raises(NonSplitQuotient, match=r"minimal polynomial does not split "
                           r"over the rationals: \[1, 1, 1\]"):
            characters(group_algebra(Z3))

    def test_character_values_are_unital(self):
        H = function_algebra(S3)
        for chi in characters(H):
            assert evaluate(chi, H.unit) == 1

    def test_convolution_group_structure(self):
        H = function_algebra(S3)
        chars = characters(H)
        eps = convolution_identity(H)
        for chi in chars:
            inv = convolution_inverse(H, chi)
            assert convolution(H, chi, inv).values == eps.values

    @settings(deadline=None)
    @given(st.integers(0, 23), st.integers(0, 23))
    def test_convolution_matches_group_product(self, i, j):
        H, chars = _cs4_chars()
        prod = convolution(H, chars[i], chars[j])
        pi = character_to_permutation(S4, chars[i])
        pj = character_to_permutation(S4, chars[j])
        assert character_to_permutation(S4, prod) == pi * pj
        assert prod.values in {c.values for c in chars}
