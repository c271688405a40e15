"""Universal presentations: sign patterns, character solvers, groups."""

import math

import pytest
from hypothesis import given, strategies as st

from kleintwist import checks, present
from kleintwist.cocycle import Cocycle2, klein_bicharacter
from kleintwist.errors import (ClosureFailure, InfiniteCharacterSpace,
                               PatternMismatch, SignMismatch)
from kleintwist.incseq import all_sequences, matrix_rep
from kleintwist.perm import Permutation, isomorphism_type
from kleintwist.present import (KLEIN_PRODUCT, Bidegree, IncSeq, O2, O2Minus,
                                SO3, SO3Minus, SnPlus, character_group_of,
                                commutation_sign,
                                determinant_to_permanent_signs,
                                parse_presentation, relation_sign_table,
                                solve_characters)
from oracles import character_group_by_bytes


class TestBidegree:
    def test_klein_product_is_xor(self):
        for i in range(4):
            for j in range(4):
                assert KLEIN_PRODUCT[i][j] == i ^ j

    def test_mul_and_identity(self):
        d = Bidegree(1, 2) * Bidegree(3, 2)
        assert (d.left, d.right) == (2, 0)
        assert Bidegree.identity() == Bidegree(0, 0)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            Bidegree(4, 0)

    def test_commutation_sign_symmetry(self):
        sigma = klein_bicharacter()
        for a in (Bidegree(1, 2), Bidegree(3, 3), Bidegree(0, 1)):
            for b in (Bidegree(2, 2), Bidegree(1, 0)):
                assert commutation_sign(sigma, a, b) == commutation_sign(sigma, b, a)
                assert commutation_sign(sigma, a, b) in (1, -1)


class TestSignTable:
    def test_pattern(self):
        table = relation_sign_table(klein_bicharacter())
        assert len(table) == 81
        for ((i, j), (k, l)), v in table.items():
            expected = -1 if (i == k) != (j == l) else 1
            assert v == expected

    def test_minus_count(self):
        table = relation_sign_table(klein_bicharacter())
        assert sum(1 for v in table.values() if v == -1) == 36

    def test_tampered_cocycle_detected(self):
        sigma = klein_bicharacter()
        rows = [list(r) for r in sigma.table]
        rows[2][1] = -rows[2][1]
        tampered = Cocycle2.build(sigma.carrier, rows, rows, sigma.star_corrector)
        with pytest.raises(PatternMismatch):
            relation_sign_table(tampered)


class TestDetToPerm:
    def test_sizes_two_and_three(self):
        for size in (2, 3):
            signs = determinant_to_permanent_signs(size)
            assert len(signs) == math.factorial(size)
            for tau, s in signs.items():
                assert s * tau.sign() == 1

    def test_size_guard(self):
        with pytest.raises(ValueError):
            determinant_to_permanent_signs(4)

    def test_tampered_cocycle_detected(self):
        sigma = klein_bicharacter()
        rows = [list(r) for r in sigma.table]
        rows[1][1] = -rows[1][1]
        tampered = Cocycle2.build(sigma.carrier, rows, rows, sigma.star_corrector)
        with pytest.raises(SignMismatch):
            determinant_to_permanent_signs(3, tampered)


class TestSpecs:
    def test_names_roundtrip(self):
        for spec in (O2Minus(), SO3Minus(), SnPlus(4), IncSeq(2, 4), O2(), SO3()):
            assert parse_presentation(spec.name) == spec

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            parse_presentation("so5minus")


SOLS_O2 = solve_characters(O2Minus())
SOLS_SO3 = solve_characters(SO3Minus())


class TestSolutions:
    def test_o2minus_count_and_group(self):
        assert len(SOLS_O2) == 8
        g = character_group_of(O2Minus())
        assert g.order == 8
        assert isomorphism_type(g).name == "D4"

    def test_so3minus_count_and_group(self):
        assert len(SOLS_SO3) == 24
        g = character_group_of(SO3Minus())
        assert g.order == 24
        assert isomorphism_type(g).name == "S4"

    def test_so3minus_matrices_are_special_signed_perms(self):
        for sol in SOLS_SO3:
            m = sol.matrix
            prod = 1
            for row in m:
                nonzero = [v for v in row if v]
                assert len(nonzero) == 1 and nonzero[0] in (1, -1)
                prod *= nonzero[0]
            assert prod == 1

    def test_snplus_counts(self):
        for n in (3, 4, 5):
            assert len(solve_characters(SnPlus(n))) == math.factorial(n)

    def test_snplus_group(self):
        g = character_group_of(SnPlus(4))
        assert g.order == 24
        assert isomorphism_type(g).name == "S4"

    def test_grid_cap(self):
        with pytest.raises(ValueError):
            solve_characters(SnPlus(6))

    def test_incseq_solutions(self):
        sols = solve_characters(IncSeq(2, 4))
        assert len(sols) == 6
        for sol in sols:
            supports = [next(i for i in range(1, 5) if sol[i, j]) for j in (1, 2)]
            assert supports[0] < supports[1]

    def test_incseq_has_no_character_group(self):
        with pytest.raises(ValueError, match="rectangular"):
            character_group_of(IncSeq(2, 4))

    @pytest.mark.parametrize("spec", [O2Minus(), SO3Minus(), SnPlus(3), SnPlus(4)],
                             ids=lambda p: p.name)
    def test_character_group_matches_matrix_products(self, spec):
        # reference: every product as a term-by-term matrix product
        mats = [s.matrix for s in solve_characters(spec)]
        index = {m: i for i, m in enumerate(mats)}
        n = spec.rows

        def matmul(a, b):
            return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n))
                         for i in range(n))

        expected = {Permutation([index[matmul(a, b)] + 1 for b in mats]) for a in mats}
        assert character_group_of(spec).elements == expected

    @pytest.mark.parametrize("check,spec", [("check_characters_o2minus", O2Minus()),
                                            ("check_characters_so3minus", SO3Minus())],
                             ids=["o2minus", "so3minus"])
    def test_a_character_check_solves_its_presentation_once(self, monkeypatch, check, spec):
        solved = []
        monkeypatch.setattr(present, "solve_characters",
                            lambda p, real=present.solve_characters: solved.append(p.name)
                            or real(p))
        monkeypatch.setattr(checks, "solve_characters", present.solve_characters)
        assert getattr(checks, check)(checks.RunConfig()).status == "pass"
        assert solved == [spec.name]
        sols = solve_characters(spec)
        assert character_group_of(spec, sols).elements == character_group_of(spec).elements

    def test_incseq_solutions_are_the_matrix_representations(self):
        # an independent route: the sequences themselves, not the search
        for n in range(6):
            for k in range(n + 1):
                got = {sol.matrix for sol in solve_characters(IncSeq(k, n))}
                assert got == {matrix_rep(s).entries for s in all_sequences(k, n)}, (k, n)

    @pytest.mark.parametrize("spec", [O2Minus(), SO3Minus(), SnPlus(3), SnPlus(4), SnPlus(5)],
                             ids=lambda p: p.name)
    def test_character_group_matches_byte_lookup(self, spec):
        assert character_group_of(spec).elements == character_group_by_bytes(spec).elements

    def test_character_group_refuses_open_sets(self, monkeypatch):
        sols = solve_characters(O2Minus())
        # M = [[0, -1], [1, -1]] has order 3: {1, M, M^2} is a group whose
        # transposes are dropped
        cyclic = [present.CharacterSolution(O2Minus(), m)
                  for m in (((1, 0), (0, 1)), ((0, -1), (1, -1)), ((-1, 1), (-1, 0)))]
        # J J = 2 J; put first, so its block is coded before any lookup fails
        doubling = [present.CharacterSolution(O2Minus(), ((1, 1), (1, 1)))] + sols
        for edited, message in [
            ([s for s in sols if s.matrix != ((1, 0), (0, 1))],
             "identity matrix is not a character"),
            # a group with one element dropped is no longer product-closed
            ([s for s in sols if s.matrix != ((0, 1), (1, 0))], "character product escapes"),
            (cyclic, "character inverse escapes"),
            (doubling, r"character product has an entry outside \{-1, 0, 1\}"),
        ]:
            monkeypatch.setattr(present, "solve_characters", lambda p, e=edited: e)
            with pytest.raises(ClosureFailure, match=message):
                character_group_of(O2Minus())

    def test_continuous_presentations_refused(self):
        with pytest.raises(InfiniteCharacterSpace):
            solve_characters(O2())
        with pytest.raises(InfiniteCharacterSpace):
            solve_characters(SO3())

    def test_solution_indexing_is_one_based(self):
        sol = SOLS_O2[0]
        assert sol[1, 1] == sol.matrix[0][0]
        assert sol[2, 1] == sol.matrix[1][0]


_DIAG_SIGNS = [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]


class TestInvariance:
    @given(st.sampled_from(SOLS_SO3), st.sampled_from(_DIAG_SIGNS))
    def test_symmetric_rescaling_preserves_solutions(self, sol, d):
        # conjugating by a diagonal sign matrix keeps every defining
        # property, so the solution set is stable under it
        m = sol.matrix
        rescaled = tuple(tuple(d[i] * m[i][j] * d[j] for j in range(3))
                         for i in range(3))
        assert rescaled in {s.matrix for s in SOLS_SO3}

    @given(st.sampled_from(SOLS_SO3), st.sampled_from(SOLS_SO3))
    def test_solutions_closed_under_product(self, a, b):
        prod = tuple(tuple(sum(a.matrix[i][t] * b.matrix[t][j] for t in range(3))
                           for j in range(3)) for i in range(3))
        assert prod in {s.matrix for s in SOLS_SO3}

    @given(st.sampled_from(SOLS_SO3))
    def test_rows_orthonormal(self, sol):
        m = sol.matrix
        for i in range(3):
            for j in range(3):
                dot = sum(m[i][t] * m[j][t] for t in range(3))
                assert dot == (1 if i == j else 0)
