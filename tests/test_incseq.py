"""Increasing sequences and their completion to permutations.

The two completion routes are written independently; their agreement on
every sequence is the correctness oracle for both.
"""

import math

import pytest
from hypothesis import given, strategies as st

from kleintwist import incseq
from kleintwist.errors import EvaluationNotPermutation
from kleintwist.incseq import (BinaryRectMatrix, IncreasingSequence,
                               _formula_matrix, all_sequences,
                               complete_diagram, complete_formula,
                               generated_completion_group, matrix_rep)
from oracles import formula_matrix_term_by_term

UP_TO_8 = [s for n in range(1, 9) for k in range(n + 1) for s in all_sequences(k, n)]


class TestSequences:
    def test_counts(self):
        for n in range(1, 7):
            for k in range(0, n + 1):
                assert len(all_sequences(k, n)) == math.comb(n, k)

    def test_validation(self):
        with pytest.raises(ValueError):
            IncreasingSequence(2, 4, (3, 2))     # not increasing
        with pytest.raises(ValueError):
            IncreasingSequence(2, 4, (0, 2))     # out of range
        with pytest.raises(ValueError):
            IncreasingSequence(3, 2, (1, 2, 2))  # k > n

    def test_matrix_rep(self):
        s = IncreasingSequence(2, 4, (2, 4))
        A = matrix_rep(s)
        assert A[2, 1] == 1 and A[4, 2] == 1
        assert sum(A[i, 1] for i in range(1, 5)) == 1

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            BinaryRectMatrix(3, 2, ((1, 0), (1, 0), (0, 1)))   # column sums
        with pytest.raises(ValueError):
            BinaryRectMatrix(3, 2, ((0, 1), (1, 0), (0, 0)))   # support order

    def test_matrix_rep_builds_without_the_public_checks(self, monkeypatch):
        # the same matrices as the public constructor, which checks each one
        expected = {s: BinaryRectMatrix(s.n, s.k, matrix_rep(s).entries) for s in UP_TO_8}
        checked = []
        real = BinaryRectMatrix.__post_init__
        monkeypatch.setattr(BinaryRectMatrix, "__post_init__",
                            lambda self: checked.append(self) or real(self))
        for s in UP_TO_8:
            A = matrix_rep(s)
            assert A == expected[s] and hash(A) == hash(expected[s])
            assert (A.rows, A.cols) == (s.n, s.k)
        assert not checked
        with pytest.raises(ValueError):
            BinaryRectMatrix(2, 1, ((1,), (1,)))
        assert len(checked) == 1                         # the spy is live


class TestCompletionOracle:
    def test_routes_agree_everywhere(self):
        # dual-route agreement for every sequence up to n = 6
        for n in range(1, 7):
            for k in range(0, n + 1):
                for s in all_sequences(k, n):
                    assert complete_formula(s) == complete_diagram(s), s

    def test_diagram_shape(self):
        s = IncreasingSequence(2, 4, (2, 4))
        p = complete_diagram(s)
        assert [p(i) for i in range(1, 5)] == [2, 4, 1, 3]

    @pytest.mark.parametrize("p00", [1, 0])
    def test_formula_matrix_matches_term_by_term(self, p00):
        # prefix counts against the telescoping sums summed symbol by symbol
        assert len(UP_TO_8) == 510
        for s in UP_TO_8:
            assert _formula_matrix(s, p00=p00) == formula_matrix_term_by_term(s, p00=p00), s

    def test_formula_reads_the_matrix_representation_only(self, monkeypatch):
        expected = {s: complete_diagram(s) for s in UP_TO_8}
        reads = []

        def no_diagram(s):
            raise AssertionError("complete_formula called complete_diagram")

        def counted_rep(s):
            reads.append(s)
            return matrix_rep(s)

        monkeypatch.setattr(incseq, "complete_diagram", no_diagram)
        monkeypatch.setattr(incseq, "matrix_rep", counted_rep)
        for s in UP_TO_8:
            assert complete_formula(s) == expected[s]
        assert reads == UP_TO_8

    @given(st.integers(2, 6).flatmap(
        lambda n: st.integers(0, n).flatmap(
            lambda k: st.sampled_from(all_sequences(k, n)))))
    def test_completion_extends_sequence(self, s):
        p = complete_diagram(s)
        for pos, val in enumerate(s.values, start=1):
            assert p(pos) == val


class TestBoundaryFault:
    def test_corner_value_is_load_bearing(self):
        # with the corner symbol forced to 0 the formula stops producing
        # permutation matrices somewhere; with 1 it never does
        broken = 0
        for n in range(1, 5):
            for k in range(0, n + 1):
                for s in all_sequences(k, n):
                    U = _formula_matrix(s, p00=0)
                    ok = (all(v in (0, 1) for row in U for v in row)
                          and all(sum(row) == 1 for row in U)
                          and all(sum(U[i][j] for i in range(n)) == 1
                                  for j in range(n)))
                    if not ok:
                        broken += 1
        assert broken > 0

    def test_error_type(self, monkeypatch):
        # every refusal of the audit, reached through the public route
        s = IncreasingSequence(1, 3, (2,))
        for U, message in [
            ([[1, 0, 0], [0, 2, 0], [0, 0, 1]], r"entry \(2,2\) = 2"),
            ([[1, 0, 0], [0, 0, -1], [0, 1, 1]], r"entry \(2,3\) = -1"),
            ([[1, 1, 0], [0, 0, 0], [0, 0, 1]], "row 1 sum != 1"),
            ([[1, 0, 0], [1, 0, 0], [0, 0, 1]], "column 1 sum != 1"),
            # a bad entry outranks an earlier bad row sum
            ([[0, 0, 0], [0, 1, 0], [1, 0, 2]], r"entry \(3,3\) = 2"),
        ]:
            monkeypatch.setattr(incseq, "_formula_matrix", lambda s, U=U: [list(r) for r in U])
            with pytest.raises(EvaluationNotPermutation, match=message):
                complete_formula(s)

    def test_corner_zero_is_refused_by_the_public_route(self, monkeypatch):
        monkeypatch.setattr(incseq, "_formula_matrix",
                            lambda s: _formula_matrix(s, p00=0))
        refused = 0
        for s in UP_TO_8:
            try:
                assert complete_formula(s) == complete_diagram(s), s
            except EvaluationNotPermutation:
                refused += 1
        assert refused > 0


class TestGeneration:
    def test_generated_orders(self):
        for n in range(2, 9):
            for k in range(0, n + 1):
                g = generated_completion_group(k, n, bound=8)
                expected = math.factorial(n) if 0 < k < n else 1
                assert g.order == expected, (k, n)

    def test_six_completions_generate_s4(self):
        seqs = all_sequences(2, 4)
        assert len(seqs) == 6
        g = generated_completion_group(2, 4)
        assert g.order == 24

    def test_bound_guard(self):
        with pytest.raises(ValueError):
            generated_completion_group(1, 9)
