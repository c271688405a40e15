"""Twisted coordinate model: signed matrices, star product, automorphisms."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from kleintwist.cocycle import klein_bicharacter
from kleintwist.errors import RelationFailure
from kleintwist.perm import (Permutation, generate, isomorphism_type,
                             klein_group, symmetric_group)
from kleintwist.present import Bidegree, commutation_sign
from kleintwist.twistcalc import (GenerationReport, SignedMatrix,
                                  TwistedElement, all_automorphism_actions,
                                  all_signed_permutations, automorphism_check,
                                  character_value, embedding_character_images,
                                  generation_counterexample, generator_matrix,
                                  is_zero, klein_diag_matrices,
                                  klein_normalizer_so3, matrices_to_subgroup,
                                  phi_embedding, rho, rho_image,
                                  verify_twisted_presentation)

S4 = symmetric_group(4)


class TestSignedMatrix:
    def test_det(self):
        assert SignedMatrix(((0, 1), (1, 0))).det() == -1
        assert SignedMatrix(((1, 0, 0), (0, 0, -1), (0, 1, 0))).det() == 1

    def test_det_size_guard(self):
        m4 = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
        with pytest.raises(ValueError):
            SignedMatrix(m4).det()

    def test_mul_transpose_neg(self):
        a = SignedMatrix(((0, 1), (1, 0)))
        b = SignedMatrix(((1, 0), (0, -1)))
        assert (a * b).rows == ((0, -1), (1, 0))
        assert a.transpose() == a
        assert (-b).rows == ((-1, 0), (0, 1))

    def test_signed_permutation_predicate(self):
        assert SignedMatrix(((0, -1), (1, 0))).is_signed_permutation()
        assert not SignedMatrix(((1, 1), (0, 1))).is_signed_permutation()

    def test_enumeration_count(self):
        assert len(all_signed_permutations(2)) == 8
        assert len(all_signed_permutations(3)) == 48


class TestRho:
    def test_pinned_values(self):
        assert rho(Permutation.from_cycles(4, [(1, 2)])).rows == (
            (0, -1, 0), (-1, 0, 0), (0, 0, 1))
        assert rho(Permutation.from_cycles(4, [(3, 4)])).rows == (
            (0, 1, 0), (1, 0, 0), (0, 0, 1))
        assert rho(Permutation.from_cycles(4, [(1, 2), (3, 4)])).rows == (
            (-1, 0, 0), (0, -1, 0), (0, 0, 1))

    def test_homomorphism_and_det(self):
        for x in S4:
            assert rho(x).det() == x.sign()
            for y in (Permutation.from_cycles(4, [(1, 2, 3)]),
                      Permutation.from_cycles(4, [(1, 4)])):
                assert rho(x * y) == rho(x) * rho(y)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            rho(Permutation.identity(3))

    def test_image_size(self):
        assert len(rho_image()) == 24

    def test_faithful_and_klein_goes_diagonal(self):
        eye = SignedMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        kernel = [x for x in S4 if rho(x) == eye]
        assert kernel == [Permutation.identity(4)]
        assert {rho(v) for v in klein_group()} == set(klein_diag_matrices())


class TestNormalizer:
    def test_klein_diag(self):
        mats = klein_diag_matrices()
        assert len(mats) == 4
        assert SignedMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1))) in mats
        for m in mats:
            assert m.det() == 1
            assert all(m.rows[i][j] == 0 for i in range(3) for j in range(3)
                       if i != j)

    def test_normalizer_count_and_shape(self):
        norm = klein_normalizer_so3()
        assert len(norm) == 24
        expected = set()
        for x in S4:
            expected.add(rho(x) if x.sign() == 1 else -rho(x))
        assert set(norm) == expected


def _gens(kind):
    return generator_matrix(kind)


class TestTwistedElements:
    def test_generator_bidegrees(self):
        g = _gens("so3minus")
        for i in range(3):
            for j in range(3):
                (deg,) = g[i][j].components.keys()
                assert deg == Bidegree(i + 1, j + 1)

    def test_homogeneity_enforced(self):
        g = _gens("o2minus")
        with pytest.raises(ValueError):
            TwistedElement("o2minus", {
                Bidegree(1, 1): {(1, 0, 0, 0): 1},
                Bidegree(1, 2): {(1, 0, 0, 0): 1},
            })

    def test_add_sub_scale(self):
        g = _gens("o2minus")
        x = g[0][0] + g[0][0]
        assert x == g[0][0].scale(2)
        assert (x - g[0][0]) == g[0][0]
        assert (x - x).is_structurally_zero()

    def test_unit_laws(self):
        one = TwistedElement.one("so3minus")
        g = _gens("so3minus")
        for i in range(3):
            for j in range(3):
                assert one * g[i][j] == g[i][j]
                assert g[i][j] * one == g[i][j]

    def test_anticommutation_matches_sign_table(self):
        sigma = klein_bicharacter()
        g = _gens("so3minus")
        for (i, j) in ((0, 0), (1, 2), (2, 1)):
            for (k, l) in ((0, 1), (2, 2), (1, 0)):
                a, b = g[i][j], g[k][l]
                s = commutation_sign(sigma, Bidegree(i + 1, j + 1),
                                     Bidegree(k + 1, l + 1))
                assert a * b == (b * a).scale(s)


def _random_element(kind, rng_bits):
    # small pseudo-random combination of generator products
    g = generator_matrix(kind)
    n = 2 if kind == "o2minus" else 3
    flat = [g[i][j] for i in range(n) for j in range(n)]
    acc = TwistedElement.zero(kind)
    for t in range(3):
        c = (rng_bits >> (4 * t)) & 0xF
        i = c % len(flat)
        j = (c // 3) % len(flat)
        term = (flat[i] * flat[j]).scale((c % 5) - 2)
        acc = acc + term
    return acc


class TestStarProduct:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1),
           st.integers(0, 2**12 - 1), st.sampled_from(["o2minus", "so3minus"]))
    def test_associativity(self, a_bits, b_bits, c_bits, kind):
        a = _random_element(kind, a_bits)
        b = _random_element(kind, b_bits)
        c = _random_element(kind, c_bits)
        assert (a * b) * c == a * (b * c)

    def test_distributivity(self):
        g = _gens("o2minus")
        a, b, c = g[0][0], g[0][1], g[1][0]
        assert a * (b + c) == a * b + a * c


class TestZeroTest:
    def test_orthogonality_relations_vanish(self):
        g = _gens("o2minus")
        one = TwistedElement.one("o2minus")
        for i in range(2):
            for j in range(2):
                row = g[i][0] * g[j][0] + g[i][1] * g[j][1]
                target = one if i == j else TwistedElement.zero("o2minus")
                assert is_zero(row - target)

    def test_nonzero_detected(self):
        g = _gens("o2minus")
        one = TwistedElement.one("o2minus")
        assert not is_zero(g[0][0] * g[0][0] - one)
        assert not is_zero(g[0][0] - g[1][1])

    def test_so3_det_relation(self):
        ids = verify_twisted_presentation("so3minus")
        assert "det" in ids

    def test_relation_id_counts(self):
        assert len(verify_twisted_presentation("o2minus")) == 24
        assert len(verify_twisted_presentation("so3minus")) == 100

    def test_swapped_generators_fail(self):
        g = _gens("o2minus")
        bad = ((g[0][1], g[0][0]), (g[1][0], g[1][1]))
        with pytest.raises(RelationFailure):
            verify_twisted_presentation("o2minus", bad)

    @pytest.mark.parametrize("kind", ["o2minus", "so3minus"])
    @pytest.mark.parametrize("perturb", ["none", "swap-00-01", "negate-10", "copy-10-to-01",
                                         "transpose"])
    def test_matches_relation_by_relation_reference(self, kind, perturb):
        g = [list(row) for row in _gens(kind)]
        if perturb == "swap-00-01":
            g[0][0], g[0][1] = g[0][1], g[0][0]
        elif perturb == "negate-10":
            g[1][0] = g[1][0].scale(-1)
        elif perturb == "copy-10-to-01":
            g[0][1] = g[1][0]
        elif perturb == "transpose":
            g = [list(col) for col in zip(*g)]
        gens = tuple(map(tuple, g))
        try:
            expected = _relations_one_by_one(kind, gens)
        except RelationFailure as err:
            with pytest.raises(RelationFailure, match=f"^{err}$"):
                verify_twisted_presentation(kind, gens)
        else:
            assert verify_twisted_presentation(kind, gens) == expected


def _relations_one_by_one(kind, gens):
    """Reference for verify_twisted_presentation: every relation built
    from its own products, in the same order and with the same ids."""
    n = len(gens)
    one, zero = TwistedElement.one(kind), TwistedElement.zero(kind)
    checked = []

    def demand(rel_id, element):
        if not is_zero(element):
            raise RelationFailure(f"relation {rel_id} does not vanish")
        checked.append(rel_id)

    for i in range(n):
        for j in range(n):
            target = one if i == j else zero
            row = col = zero
            for k in range(n):
                row = row + gens[i][k] * gens[j][k]
                col = col + gens[k][i] * gens[k][j]
            demand(f"orth-row-{i + 1}{j + 1}", row - target)
            demand(f"orth-col-{i + 1}{j + 1}", col - target)
    sigma = klein_bicharacter()
    for i, j, k, l in itertools.product(range(1, n + 1), repeat=4):
        s = commutation_sign(sigma, Bidegree(i, j), Bidegree(k, l))
        a, b = gens[i - 1][j - 1], gens[k - 1][l - 1]
        demand(f"comm-{i}{j}-{k}{l}", a * b - (b * a).scale(s))
    if kind == "so3minus":
        det = zero
        for tau in symmetric_group(3).sorted_elements():
            det = det + gens[0][tau(1) - 1] * gens[1][tau(2) - 1] * gens[2][tau(3) - 1]
        demand("det", det - one)
    return checked


class TestCharacters:
    def test_identity_action(self):
        assert automorphism_check(Permutation.identity(4)) == \
            Permutation.identity(24)

    def test_all_actions_distinct(self):
        actions = all_automorphism_actions()
        assert len(actions) == 24
        assert len(set(actions.values())) == 24

    def test_action_composition_is_reversed(self):
        # conjugation by rho(x)^T on the left composes contravariantly
        actions = all_automorphism_actions()
        a = Permutation.from_cycles(4, [(1, 2)])
        b = Permutation.from_cycles(4, [(2, 3, 4)])
        assert actions[a] * actions[b] == actions[b * a]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1),
           st.integers(0, 7))
    def test_character_multiplicative(self, a_bits, b_bits, which):
        from kleintwist.twistcalc import _o2_solution_matrices
        m = _o2_solution_matrices()[which]
        a = _random_element("o2minus", a_bits)
        b = _random_element("o2minus", b_bits)
        assert character_value(a * b, m) == \
            character_value(a, m) * character_value(b, m)

    def test_character_unital(self):
        from kleintwist.twistcalc import _so3_solution_matrices
        one = TwistedElement.one("so3minus")
        for m in _so3_solution_matrices():
            assert character_value(one, m) == 1


class TestEmbedding:
    def test_identity_gives_block(self):
        e = phi_embedding(Permutation.identity(4))
        g = _gens("o2minus")
        for i in range(2):
            for j in range(2):
                assert e[i][j] == g[i][j]
        corner = g[0][0] * g[1][1] + g[0][1] * g[1][0]
        assert e[2][2] == corner
        for k in range(2):
            assert e[2][k].is_structurally_zero()
            assert e[k][2].is_structurally_zero()

    def test_three_images(self):
        images = embedding_character_images()
        assert len(images) == 3
        subs = [matrices_to_subgroup(m) for m in images]
        diag = klein_group()
        from kleintwist.perm import are_conjugate
        for h in subs:
            assert h.order == 8
            assert isomorphism_type(h).name == "D4"
            assert diag.is_subgroup_of(h)
        assert are_conjugate(S4, subs[0], subs[1]) is not None
        assert are_conjugate(S4, subs[0], subs[2]) is not None
        assert are_conjugate(S4, subs[1], subs[2]) is not None

    def test_matrices_to_subgroup_rejects_outsiders(self):
        bad = SignedMatrix(((1, 0, 0), (0, -1, 0), (0, 0, 1)))  # det -1
        with pytest.raises(ValueError):
            matrices_to_subgroup([bad])


class TestGeneration:
    def test_counterexample_report(self):
        rep = generation_counterexample()
        assert isinstance(rep, GenerationReport)
        assert rep.matches_reference
        assert rep.d_group.order == 8
        assert rep.self_join.order == 8
        assert rep.self_join == rep.d_group
        assert rep.full_join.order == 24
        assert rep.full_join == generate(4, list(S4))
