"""Hopf structure tensors, axiom verification, maps, and characters."""

from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kleintwist import checks, hopf
from kleintwist.cocycle import Cocycle2, build_s4tau, double_twist
from kleintwist.errors import NonSplitQuotient, NotASubgroup
from kleintwist.hopf import (FDHopf, HopfMap, _first_difference, _safe_einsum, all_axioms_pass,
                             character_group,
                             character_to_permutation, characters, convolution_identity,
                             function_algebra, fourier_iso, group_algebra,
                             restriction_surjection, verify_hopf_axioms)
from kleintwist.perm import (Permutation, all_subgroups, easy_klein, generate,
                             isomorphism_type, klein_group, symmetric_group)
from kleintwist.ratlinalg import RowSpace, _is_prime
import oracles
from oracles import convolution, convolution_inverse, evaluate, hopf_map

S3 = symmetric_group(3)
S4 = symmetric_group(4)
REDUCED_BIALGEBRA = "gi,iab,acp,ycd,bdq->gypq"
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
        ("bialgebra", "iab,jcd,acp,bdq->ijpq"), ("bialgebra", REDUCED_BIALGEBRA)])
    @pytest.mark.parametrize("height,row", [(4, 0), (4, 23), (5, 17), (5, 23)])
    def test_one_entry_in_any_slab_flips_only_its_suite(self, monkeypatch, suite,
                                                        subscripts, height, row):
        # of 24 rows: the first and the last of six 4-row slabs, then the last
        # full 5-row slab and the 4-row remainder slab after it.  The reduced
        # bialgebra identity slabs over its two generators, so there the row
        # is one of the 24 of its coproduct operand iab.
        H = _s4tau()
        real = hopf._first_difference
        if subscripts == "iab,jcd,acp,bdq->ijpq":
            # the full identity runs only when generation is not certified
            monkeypatch.setattr(hopf, "_generates", lambda H, G: False)

        def perturbed(x, y):
            if x[0] == subscripts:              # one entry of the first 3-axis operand
                k = next(k for k, (A, _) in enumerate(x[1:]) if A.ndim == 3)
                pairs = list(x[1:])
                A, d = pairs[k]
                A = A.copy()
                A[row, 0, 0] += 1
                pairs[k] = (A, d)
                x = (x[0], *pairs)
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
        # {1} generates no more than Q 1, so the full identity runs
        H = _s4tau()
        steps = []
        real = hopf._Contraction._step

        def spy(self, parts, out):
            steps.append(frozenset(term for term, _, _ in parts))
            return real(self, parts, out)

        monkeypatch.setattr(hopf, "_generic", lambda n, k: H.U[None])
        monkeypatch.setattr(hopf, "_slab_height", lambda widest: 5)
        monkeypatch.setattr(hopf._Contraction, "_step", spy)
        assert all_axioms_pass(verify_hopf_axioms(H))
        assert steps.count(frozenset({"jcd", "bdq"})) == 1
        assert steps.count(frozenset({"iab", "acp"})) == 5      # one per slab

    def test_reduced_bialgebra_forms_its_fixed_factor_once_in_its_readers_layout(
            self, monkeypatch):
        H = _s4tau()
        steps = []
        real = hopf._Contraction._step

        def spy(self, parts, out):
            value = real(self, parts, out)
            steps.append((frozenset(term for term, _, _ in parts), out, value))
            return value

        monkeypatch.setattr(hopf._Contraction, "_step", spy)
        assert all_axioms_pass(verify_hopf_axioms(H))
        fixed = [(out, value) for terms, out, value in steps if terms == {"ycd", "bdq"}]
        assert [out for out, _ in fixed] == ["bcyq"]
        assert fixed[0][1].flags.c_contiguous
        # the big step reads it as is: one (k n) x n^2 x n^2 matrix product
        assert [terms for terms, _, _ in steps].count(frozenset({"gbcp", "bcyq"})) == 1
        assert not any("jcd" in terms for terms, _, _ in steps)


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


class TestArrayBuilders:
    """The array builders against the dict-form reference in oracles."""

    @staticmethod
    def _assert_match_reference(G):
        for build, reference in ((group_algebra, oracles.group_algebra),
                                 (function_algebra, oracles.function_algebra)):
            H, R = build(G), reference(G)
            assert H.structure_equal(R) and H.basis_labels == R.basis_labels

    @pytest.mark.parametrize("degree,count", [(3, 6), (4, 30), (5, 156)])
    def test_every_subgroup_of_a_symmetric_group_matches(self, degree, count):
        # each subgroup of S_n, n <= 5, is generated by two elements, so one
        # generator of each cyclic subgroup joined with another finds them all
        S = symmetric_group(degree)
        cyclic = {generate(degree, [g]): g for g in S.sorted_elements()}
        subgroups = {generate(degree, [a, b]) for a in cyclic.values() for b in cyclic.values()}
        assert len(subgroups) == count
        if degree < 5:
            assert subgroups == set(all_subgroups(S))
        for G in subgroups:
            self._assert_match_reference(G)

    def test_the_regular_group_of_degree_24_matches(self):
        # image tuples of degree 24 overflow a base-24 int64 code
        G = character_group(build_s4tau(V=klein_group()).algebra)
        assert (G.degree, G.order) == (24, 24)
        self._assert_match_reference(G)

    def test_no_dict_form_is_built(self, monkeypatch):
        # every algebra here is built afresh, not read from a cache an
        # earlier test may have filled
        def refuse(*args, **kwargs):
            raise AssertionError("an FDHopf was built from dicts")

        monkeypatch.setattr(FDHopf, "__init__", refuse)
        easy, diagonal = build_s4tau(), build_s4tau(V=klein_group())
        for t in (easy, diagonal):
            assert double_twist(t).structure_equal(t.base)
        for H, order in ((function_algebra(S4), 24), (group_algebra(S4), 2), (easy.algebra, 8)):
            assert character_group(H, characters(H)).order == order
        chars = characters(diagonal.algebra)
        ev = checks._evaluation_map(diagonal.algebra, chars,
                                    character_group(diagonal.algebra, chars))
        assert ev.verify()


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
        lambda K: HopfMap(K, K, [[0.5 if i == p else 0 for p in range(4)] for i in range(4)], 1),
        lambda K: HopfMap(K, K, np.eye(4), 1),
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


def _exact_closure(H, G):
    """The dimensions, round by round, of the span of 1 closed under left
    multiplication by the rows of G, in exact RowSpace arithmetic."""
    L = _safe_einsum("gi,iyw->gyw", G, H.M)
    space = RowSpace(H.dim)
    grown = space.extend(H.U[None])
    dims = [space.dim]
    while len(grown):
        grown = space.extend(np.concatenate([_safe_einsum("ry,yw->rw", grown, A) for A in L]))
        dims.append(space.dim)
    return dims


def _rescaled(H, k, c):
    """H on the basis with e_k replaced by c e_k."""
    s = [c if i == k else 1 for i in range(H.dim)]
    return FDHopf(
        dim=H.dim, basis_labels=H.basis_labels,
        unit={i: Fraction(v) / s[i] for i, v in H.unit.items()},
        mult={(i, j): {w: Fraction(s[i] * s[j] * v, s[w]) for w, v in vec.items()}
              for (i, j), vec in H.mult.items()},
        comult={i: [(a, b, Fraction(s[i] * v, s[a] * s[b])) for a, b, v in terms]
                for i, terms in H.comult.items()},
        counit=[s[i] * v for i, v in enumerate(H.counit)],
        antipode={i: {w: Fraction(s[i] * v, s[w]) for w, v in vec.items()}
                  for i, vec in H.antipode.items()},
        star={i: {w: Fraction(s[i] * v, s[w]) for w, v in vec.items()}
              for i, vec in H.star.items()})


# the prime the generation certificate takes first at dimensions up to 64
TOP_PRIME = next(q for q in range(2 ** 28 - 1, 8, -2) if _is_prime(q))


class TestReducedBialgebra:
    """Delta(xy) = Delta(x) Delta(y) decided on certified generators."""

    @pytest.mark.parametrize("build", [_s4tau, lambda: group_algebra(S3)], ids=["s4tau", "qs3"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_one_entry_of_c_gets_the_same_verdict_on_both_routes(self, build, data):
        H = build()
        n = H.dim
        C, dC = H._pairs[2]
        C = C.copy()
        at = tuple(data.draw(st.integers(0, n - 1)) for _ in range(3))
        C[at] += data.draw(st.sampled_from([1, -1, 2, -3]))
        pairs = list(H._pairs)
        pairs[2] = (C, dC)
        broken = FDHopf._from_tensors(H.basis_labels, *pairs)
        reduced = hopf._multiplicativity(broken, True)
        assert reduced[0][0] == REDUCED_BIALGEBRA
        full = hopf._multiplicativity(broken, False)
        assert full[0][0] == "iab,jcd,acp,bdq->ijpq"
        assert (_first_difference(*reduced) is None) == (_first_difference(*full) is None)
        with patch.object(hopf, "_generates", lambda H, G: False):
            full_report = verify_hopf_axioms(broken)
        assert verify_hopf_axioms(broken) == full_report

    def test_qs4_needs_a_third_generator(self, monkeypatch):
        H = group_algebra(S4)
        assert _exact_closure(H, hopf._generic(24, 2)) == [1, 3, 7, 14, 20, 22, 22]
        assert _exact_closure(H, hopf._generic(24, 3))[-1] == 24
        assert not hopf._generates(H, hopf._generic(24, 2))
        assert hopf._generates(H, hopf._generic(24, 3))
        sides = []
        real = hopf._first_difference

        def spy(x, y):
            sides.append((x[0], x[1][0].shape))
            return real(x, y)

        monkeypatch.setattr(hopf, "_first_difference", spy)
        assert all_axioms_pass(verify_hopf_axioms(H))
        assert (REDUCED_BIALGEBRA, (3, 24)) in sides
        # with the third element refused too, the full identity decides
        sides.clear()
        monkeypatch.setattr(hopf, "_generates", lambda H, G: False)
        assert all_axioms_pass(verify_hopf_axioms(H))
        assert [s for s, _ in sides if "bdq" in s] == ["iab,jcd,acp,bdq->ijpq"]

    @pytest.mark.parametrize("build", [_s4tau, lambda: group_algebra(S3)], ids=["s4tau", "qs3"])
    def test_unit_alone_generates_nothing(self, build):
        H = build()
        assert not hopf._generates(H, H.U[None])

    def test_unit_alone_is_never_trusted(self, monkeypatch):
        # Q[S3] with one coproduct entry off outside the unit's row e_0:
        # Delta(1) = 1 (x) 1 still holds, and on {1} alone so does the
        # reduced identity, Delta(1 y) = Delta(1) Delta(y)
        Q = group_algebra(S3)
        C, dC = Q._pairs[2]
        C = C.copy()
        C[1, 0, 0] += 1
        pairs = list(Q._pairs)
        pairs[2] = (C, dC)
        broken = FDHopf._from_tensors(Q.basis_labels, *pairs)
        one, M, C = (Q.U[None], 1), broken._pairs[1], broken._pairs[2]
        assert _first_difference((REDUCED_BIALGEBRA, one, C, M, C, M),
                                 ("gi,iyw,wpq->gypq", one, M, C)) is None
        monkeypatch.setattr(hopf, "_generic", lambda n, k: Q.U[None])
        report = verify_hopf_axioms(broken)
        assert report["associativity"] and not report["bialgebra"]

    def test_a_prime_dividing_the_product_scale_is_never_used(self, monkeypatch):
        primes = []
        real = hopf.closure_dim_mod

        def spy(u, ops, p):
            primes.append(p)
            return real(u, ops, p)

        monkeypatch.setattr(hopf, "closure_dim_mod", spy)
        plain = group_algebra(S3)
        assert all_axioms_pass(verify_hopf_axioms(plain))
        assert primes == [TOP_PRIME]
        primes.clear()
        H = _rescaled(plain, 1, TOP_PRIME)
        assert H.dM % TOP_PRIME == 0
        assert all_axioms_pass(verify_hopf_axioms(H))
        assert primes and TOP_PRIME not in primes


class TestMaps:
    def test_restriction_to_easy_klein(self):
        pi = restriction_surjection(S4, easy_klein())
        assert pi.verify()
        # delta at a group element outside V dies
        outside = S4.sorted_elements().index(Permutation.from_cycles(4, [(1, 3)]))
        assert not pi.P[outside].any()

    def test_restriction_rejects_non_subgroup(self):
        with pytest.raises(NotASubgroup):
            restriction_surjection(S4, symmetric_group(3))

    def test_fourier_orders(self):
        assert fourier_iso(klein_group()).verify()
        z2 = generate(2, [Permutation.from_cycles(2, [(1, 2)])])
        assert fourier_iso(z2).verify()
        with pytest.raises(ValueError):
            fourier_iso(Z3)

    def test_fourier_refusals(self):
        # a wrong group, or dual generators that are too many, too few, not
        # in V, repeated, trivial or not involutions of V, are all refused
        K = klein_group()
        g1, g2, g3 = K.sorted_elements()[1:]
        e, t = Permutation.identity(4), Permutation.from_cycles(4, [(1, 2)])
        z2, trivial = generate(4, [g1]), generate(4, [])
        cube = generate(6, [Permutation.from_cycles(6, [(1, 2)]),
                            Permutation.from_cycles(6, [(3, 4)]),
                            Permutation.from_cycles(6, [(5, 6)])])
        for V, gens in [(Z3, None), (cube, None), (S3, None), (trivial, (e,)), (z2, (g2,)),
                        (z2, ()), (z2, (g1, g1)), (K, (g1,)), (K, (g1, g2, g3)),
                        (K, (g1, g1)), (K, (e, g1)), (K, (g1, t))]:
            with pytest.raises(ValueError):
                fourier_iso(V, gens)
        assert fourier_iso(trivial, ()).verify() and fourier_iso(z2, [g1]).verify()

    def test_fourier_inverse_roundtrip(self):
        f = fourier_iso(klein_group())
        g = f.inverse()
        assert g.verify()
        comp = f.then(g)
        assert comp.d == 1 and np.array_equal(comp.P, np.eye(4))

    def test_composition_needs_matching_algebras(self):
        # the Fourier map ends in Q[K]; a second one would start from C(V)
        f = fourier_iso(klein_group())
        with pytest.raises(ValueError, match="source"):
            f.then(fourier_iso(klein_group()))

    @pytest.mark.parametrize("shape", [(4, 4), (6, 4), (3, 6), (4, 6, 1), (24,)],
                             ids=["4x4", "6x4", "3x6", "4x6x1", "24"])
    def test_a_matrix_of_the_wrong_shape_is_refused(self, shape):
        # Q[K] -> C(S3) takes a 4 x 6 matrix; a 4 x 4 one used to be
        # accepted, and verify() then raised instead of returning False
        K, C3 = group_algebra(klein_group()), function_algebra(S3)
        with pytest.raises(ValueError, match="shape"):
            HopfMap(K, C3, np.ones(shape, dtype=np.int64), 1)
        assert not HopfMap(K, C3, np.zeros((4, 6), dtype=np.int64), 1).verify()

    def test_composed_projection(self):
        pi = restriction_surjection(S4, easy_klein()).then(fourier_iso(easy_klein()))
        assert pi.verify()

    def test_identity_and_zero_maps(self):
        H = function_algebra(S3)
        ident = hopf_map(H, H, [{i: 1} for i in range(H.dim)])
        assert ident.verify() and ident.failure is None
        zero = hopf_map(H, H, [{} for _ in range(H.dim)])
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
        pi = hopf_map(H, broken, [{i: 1} for i in range(H.dim)])
        assert not pi.verify()
        assert pi.failure == failure

    def test_doubled_scale_fails_at_unit(self):
        pi = restriction_surjection(S4, easy_klein()).then(fourier_iso(easy_klein()))
        halved = HopfMap(pi.source, pi.target, pi.P, 2 * pi.d)
        assert pi.verify() and not halved.verify()
        assert halved.failure == "unit"

    def test_first_failing_index_is_named(self):
        H = function_algebra(S3)
        mult = {**H.mult, (1, 0): {2: 1}, (0, 1): {2: 1}}
        star = {**H.star, 5: {3: 1}, 4: {3: 1}}
        broken = FDHopf(H.dim, H.basis_labels, H.unit, mult, H.comult, H.counit,
                        H.antipode, star)
        pi = hopf_map(H, broken, [{i: 1} for i in range(H.dim)])
        assert not pi.verify()
        assert pi.failure == "mult at (0,1)"
        broken = FDHopf(H.dim, H.basis_labels, H.unit, H.mult, H.comult, H.counit,
                        H.antipode, star)
        pi = hopf_map(H, broken, [{i: 1} for i in range(H.dim)])
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
