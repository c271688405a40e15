"""Hopf structure tensors, axiom verification, maps, and characters."""

import pytest
from hypothesis import given, settings, strategies as st

from kleintwist.errors import KleintwistError, NonSplitQuotient, NotASubgroup
from kleintwist.hopf import (FDHopf, HopfMap, all_axioms_pass, character_group,
                             character_to_permutation, characters, convolution,
                             convolution_identity, convolution_inverse,
                             function_algebra, fourier_iso, group_algebra,
                             restriction_surjection, verify_hopf_axioms)
from kleintwist.perm import (Permutation, easy_klein, generate,
                             isomorphism_type, klein_group, symmetric_group)

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

    def test_cocommutativity_swaps_sides(self):
        assert group_algebra(S3).is_cocommutative()
        assert not function_algebra(S3).is_cocommutative()
        assert function_algebra(klein_group()).is_cocommutative()

    def test_structure_equal(self):
        assert function_algebra(S3).structure_equal(function_algebra(S3))
        assert not function_algebra(S3).structure_equal(group_algebra(S3))

    def test_dump_mentions_every_section(self):
        text = function_algebra(Z3).dump()
        for tag in ("dim 3", "basis[0]", "u ->", "m[", "d[", "e[", "s[", "t["):
            assert tag in text


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
        for i in range(4):
            assert comp.apply({i: 1}) == {i: 1}

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
        with pytest.raises(NonSplitQuotient):
            characters(group_algebra(Z3))

    def test_character_values_are_unital(self):
        H = function_algebra(S3)
        for chi in characters(H):
            assert chi(H.unit) == 1

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
