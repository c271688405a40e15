"""Twisted coordinate model: signed matrices, star product, automorphisms."""

import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kleintwist
from kleintwist.cocycle import klein_bicharacter
from kleintwist.errors import CharacterActionMismatch, RelationFailure
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
from kleintwist import twistcalc
from kleintwist.twistcalc import _first_nonzero, _grid, _point_matrices
from oracles import (O2_MISSED, is_zero_term_by_term, o2_numerator, twisted_product,
                     value_at)

S4 = symmetric_group(4)
# the determinant of the 2x2 model as a commutative polynomial: +1 on the
# rotations, -1 on the reflections
DET_O2 = TwistedElement("o2minus", {Bidegree(3, 3): {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}})


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

    def test_nonzero_term_under_a_wrong_bidegree_is_refused(self):
        for components, monomial, bidegree in (
                ({Bidegree(1, 2): {(1, 0, 0, 0): 1}}, (1, 0, 0, 0), "Bidegree(left=1, right=2)"),
                ({Bidegree(1, 1): {(1, 0, 0, 0): 1},
                  Bidegree(2, 2): {(1, 0, 0, 0): 0, (0, 1, 0, 0): Fraction(5, 3)}},
                 (0, 1, 0, 0), "Bidegree(left=2, right=2)")):
            msg = f"monomial {monomial} is not homogeneous of bidegree {bidegree}"
            with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
                TwistedElement("o2minus", components)
        with pytest.raises(ValueError, match="^unknown algebra tag 'bogus'$"):
            TwistedElement("bogus", {})

    def test_zero_term_under_a_wrong_bidegree_is_dropped(self):
        g = _gens("o2minus")
        x = TwistedElement("o2minus", {
            Bidegree(1, 1): {(1, 0, 0, 0): 1},
            Bidegree(1, 2): {(1, 0, 0, 0): 0, (0, 1, 0, 0): 1},
            Bidegree(3, 3): {(0, 0, 1, 0): Fraction(0)},
        })
        assert x == g[0][0] + g[0][1]
        assert x.terms == {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1}
        assert x.components == {Bidegree(1, 1): {(1, 0, 0, 0): 1},
                                Bidegree(1, 2): {(0, 1, 0, 0): 1}}
        assert TwistedElement("o2minus", {Bidegree(3, 3): {(1, 0, 0, 0): 0}}) == \
            TwistedElement.zero("o2minus")

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1),
           st.sampled_from(["o2minus", "so3minus"]),
           st.fractions(min_value=-3, max_value=3, max_denominator=7))
    def test_components_round_trip(self, a_bits, b_bits, kind, scale):
        x = _random_element(kind, a_bits) * _random_element(kind, b_bits).scale(scale)
        components = x.components
        assert TwistedElement(kind, components) == x
        assert sum(len(p) for p in components.values()) == len(x.terms)
        assert all(components.values()) and all(x.terms.values())

    def test_repr(self):
        g = _gens("o2minus")
        one = TwistedElement.one("o2minus")
        assert repr(g[0][0]) == "TwistedElement(o2minus, 1 bidegrees, 1 terms)"
        assert repr(g[0][0] + g[0][1] + g[0][0] * g[0][1]) == \
            "TwistedElement(o2minus, 3 bidegrees, 3 terms)"
        assert repr(g[0][0] * g[0][0] + g[0][1] * g[0][1] + one.scale(Fraction(1, 2))) == \
            "TwistedElement(o2minus, 1 bidegrees, 3 terms)"
        assert repr(TwistedElement.zero("so3minus")) == \
            "TwistedElement(so3minus, 0 bidegrees, 0 terms)"

    def test_add_sub_scale(self):
        g = _gens("o2minus")
        x = g[0][0] + g[0][0]
        assert x == g[0][0].scale(2)
        assert (x - g[0][0]) == g[0][0]
        assert not (x - x).components

    def test_unit_laws(self):
        one = TwistedElement.one("so3minus")
        g = _gens("so3minus")
        for i in range(3):
            for j in range(3):
                assert one * g[i][j] == g[i][j]
                assert g[i][j] * one == g[i][j]

    def test_anticommutation_matches_sign_table(self):
        # all 16 o2minus and all 81 so3minus generator pairs
        sigma = klein_bicharacter()
        for kind in ("o2minus", "so3minus"):
            g = _gens(kind)
            for i, j, k, l in itertools.product(range(len(g)), repeat=4):
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

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1),
           st.sampled_from(["o2minus", "so3minus"]),
           st.fractions(min_value=-3, max_value=3, max_denominator=7))
    def test_product_matches_bidegree_oracle(self, a_bits, b_bits, kind, scale):
        x = _random_element(kind, a_bits).scale(scale)
        y = _random_element(kind, b_bits)
        for u, v in ((x, y), (y, x), (x, x), (x + y, x - y), (x, y - y)):
            product = u * v
            assert product == twisted_product(u, v)
            assert all(product.terms.values())     # cancelled terms are dropped

    @pytest.mark.parametrize("kind", ["o2minus", "so3minus"])
    def test_cancelled_cross_terms_are_dropped(self, kind):
        # g11 and g12 anticommute, so the cross terms of the square cancel
        g = _gens(kind)
        a, b = g[0][0], g[0][1]
        square = (a + b) * (a + b)
        assert square == a * a + b * b == twisted_product(a + b, a + b)
        assert len(square.terms) == 2
        assert not (a * b + b * a).terms

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
        _assert_matches_reference(kind, tuple(map(tuple, g)))

    @pytest.mark.parametrize("source", ["o2minus", "so3minus", "phi-(12)", "phi-(123)",
                                        "phi-(1234)", "automorphism-(1324)"])
    @pytest.mark.parametrize("change", ["double", "negate", "plus-one"])
    def test_every_single_entry_change_matches_reference(self, source, change):
        kind, gens = _relation_source(source)
        alg = gens[0][0].algebra
        failed = 0
        for i, j in itertools.product(range(len(gens)), repeat=2):
            g = [list(row) for row in gens]
            if change == "double":
                g[i][j] = g[i][j].scale(2)
            elif change == "negate":
                g[i][j] = g[i][j].scale(-1)
            else:
                g[i][j] = g[i][j] + TwistedElement.one(alg)
            failed += not _assert_matches_reference(kind, tuple(map(tuple, g)))
        assert failed      # the changes do break relations, so the comparison is not vacuous


def _relation_source(source):
    """(presentation kind, generator matrix) behind a test source name."""
    if source in ("o2minus", "so3minus"):
        return source, _gens(source)
    name, cycle = source.split("-")
    x = Permutation.from_cycles(4, [tuple(int(ch) for ch in cycle.strip("()"))])
    if name == "phi":
        return "so3minus", phi_embedding(x)
    return "so3minus", _substituted(x)


def _substituted(x):
    """b_ij = sum_kl rho(x)_ki rho(x)_lj a_kl, built term by term."""
    R, a = rho(x).rows, _gens("so3minus")
    zero = TwistedElement.zero("so3minus")
    return tuple(tuple(sum((a[k][l].scale(R[k][i] * R[l][j]) for k in range(3) for l in range(3)),
                           zero) for j in range(3)) for i in range(3))


def _assert_matches_reference(kind, gens):
    """verify_twisted_presentation agrees with _relations_one_by_one: the
    same id list, or the same RelationFailure message.  True when the
    relations hold."""
    try:
        expected = _relations_one_by_one(kind, gens)
    except RelationFailure as err:
        with pytest.raises(RelationFailure, match=f"^{err}$"):
            verify_twisted_presentation(kind, gens)
        return False
    assert verify_twisted_presentation(kind, gens) == expected
    return True


def _relations_one_by_one(kind, gens):
    """Reference for verify_twisted_presentation: every relation built
    from its own products, taken bidegree by bidegree by the oracle
    twisted_product, and zero-tested on its own by the term-by-term
    oracle, in the same order and with the same ids."""
    checked = []
    for rel_id, element in _relation_elements(kind, gens):
        if not is_zero_term_by_term(element):
            raise RelationFailure(f"relation {rel_id} does not vanish")
        checked.append(rel_id)
    return checked


def _relation_elements(kind, gens):
    """(id, element) of every relation of the presentation on gens, in
    order, each element built from twisted_product."""
    n = len(gens)
    alg = gens[0][0].algebra
    one, zero = TwistedElement.one(alg), TwistedElement.zero(alg)
    for i in range(n):
        for j in range(n):
            target = one if i == j else zero
            row = col = zero
            for k in range(n):
                row = row + twisted_product(gens[i][k], gens[j][k])
                col = col + twisted_product(gens[k][i], gens[k][j])
            yield f"orth-row-{i + 1}{j + 1}", row - target
            yield f"orth-col-{i + 1}{j + 1}", col - target
    sigma = klein_bicharacter()
    for i, j, k, l in itertools.product(range(1, n + 1), repeat=4):
        s = commutation_sign(sigma, Bidegree(i, j), Bidegree(k, l))
        a, b = gens[i - 1][j - 1], gens[k - 1][l - 1]
        yield f"comm-{i}{j}-{k}{l}", twisted_product(a, b) - twisted_product(b, a).scale(s)
    if kind == "so3minus":
        det = zero
        for tau in symmetric_group(3).sorted_elements():
            det = det + twisted_product(twisted_product(gens[0][tau(1) - 1], gens[1][tau(2) - 1]),
                                        gens[2][tau(3) - 1])
        yield "det", det - one


def _vanishing(alg, bits):
    """An element that vanishes on the group and mixes bidegrees and
    total degrees: an orthogonality relation times 1 + g_kl, the
    relation and the generator picked by bits."""
    g = _gens(alg)
    n = len(g)
    one, zero = TwistedElement.one(alg), TwistedElement.zero(alg)
    i, j = divmod(bits % (n * n), n)
    k, l = divmod((bits >> 4) % (n * n), n)
    relation = sum((g[i][m] * g[j][m] for m in range(n)), zero) - (one if i == j else zero)
    return relation * (one + g[k][l])


def _edited(gens, edits):
    """The generator matrix with each (position, change, factor, bits)
    applied to the entry at that position, numbered row by row: replaced
    by zero, scaled by the factor, or plus the factor times a vanishing
    element or times a random multi-term element."""
    alg = gens[0][0].algebra
    n = len(gens)
    g = [list(row) for row in gens]
    for position, change, factor, bits in edits:
        i, j = divmod(position % (n * n), n)
        if change == "zero":
            g[i][j] = TwistedElement.zero(alg)
        elif change == "scale":
            g[i][j] = g[i][j].scale(factor)
        elif change == "vanishing":
            g[i][j] = g[i][j] + _vanishing(alg, bits).scale(factor)
        else:
            g[i][j] = g[i][j] + _random_element(alg, bits).scale(factor)
    return tuple(map(tuple, g))


_EDITS = st.lists(st.tuples(st.integers(0, 8),
                            st.sampled_from(["zero", "scale", "vanishing", "add"]),
                            st.sampled_from([1, -2, Fraction(1, 3), Fraction(-5, 2),
                                             2 ** 40, 2 ** 70, 2 ** 200]),
                            st.integers(0, 2 ** 12 - 1)), max_size=2)


@pytest.fixture
def fresh_twistcalc():
    """Empty every cache of the module before and after the test, so that
    a patched table is what the code under test reads, and no value
    computed under the patch is left behind."""
    caches = [f for f in vars(twistcalc).values() if hasattr(f, "cache_clear")]
    for c in caches:
        c.cache_clear()
    yield
    for c in caches:
        c.cache_clear()


class TestValueRoute:
    """verify_twisted_presentation reads every relation from the
    generators' values at the grid; these compare it with the relation by
    relation reference and break it on purpose."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["o2minus", "so3minus", "phi-(12)", "phi-(1234)",
                            "automorphism-(1324)"]), _EDITS)
    def test_matches_relation_by_relation_reference(self, source, edits):
        kind, gens = _relation_source(source)
        _assert_matches_reference(kind, _edited(gens, edits))

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["o2minus", "so3minus", "phi-(12)", "automorphism-(1324)"]), _EDITS)
    def test_values_are_the_relations_at_the_grid(self, source, edits):
        """Each row of _presentation_values is L^k times its relation
        element, built from twisted_product, evaluated at the grid of its
        own degree ke and homogenised to ke (k = 2, or 3 for det), where e
        is the largest degree of the entries and L their common
        denominator: the values themselves, not only the verdicts."""
        kind, gens = _relation_source(source)
        gens = _edited(gens, edits)
        alg = gens[0][0].algebra
        entries = [x for row in gens for x in row]
        e = max((sum(m) for x in entries for m in x.terms), default=0)
        L = math.lcm(*(Fraction(c).denominator for x in entries for c in x.terms.values()))
        rows = [r for block in twistcalc._presentation_values(kind, alg, entries)
                for r in block.tolist()]
        ids = [rel_id for rel_id, _ in _relation_elements(kind, gens)]
        assert len(rows) == len(ids)
        for (rel_id, element), row in zip(_relation_elements(kind, gens), rows):
            k = 3 if rel_id == "det" else 2
            expected = [L ** k * sum(c * norm ** (k * e - sum(m))
                                     * math.prod(X[v // len(X)][v % len(X)] ** p
                                                 for v, p in enumerate(m))
                                     for m, c in element.terms.items())
                        for norm, X in _point_matrices(alg, k * e)]
            assert row == expected, rel_id

    @pytest.mark.parametrize("source, edits, dtype", [
        ("so3minus", [], np.float64),
        ("so3minus", [(4, "scale", 2 ** 13, 0)], np.int64),
        ("so3minus", [(4, "scale", 2 ** 40, 0)], object),
        ("o2minus", [(3, "scale", 2 ** 24, 0)], np.int64),
        ("o2minus", [(0, "vanishing", 2 ** 70, 5)], object),
        ("phi-(123)", [(0, "scale", 16, 0)], np.int64),
        ("phi-(123)", [(8, "vanishing", 2 ** 200, 77), (2, "zero", 1, 0)], object),
        ("automorphism-(1324)", [(1, "vanishing", Fraction(-5, 3), 300)], object),
    ])
    def test_each_tier_matches_reference(self, monkeypatch, source, edits, dtype):
        """The bound picks the tier the comparison runs in."""
        kind, gens = _relation_source(source)
        tiers = []
        real = twistcalc._tier
        monkeypatch.setattr(twistcalc, "_tier",
                            lambda bound: tiers.append(real(bound)) or tiers[-1])
        _assert_matches_reference(kind, _edited(gens, edits))
        assert tiers == [dtype]

    def test_flipped_value_product_sign_breaks_a_relation(self, monkeypatch, fresh_twistcalc):
        verify_twisted_presentation("so3minus")
        sign = twistcalc._CODE_SIGN.copy()
        sign[4 * 1 + 1, 4 * 1 + 2] *= -1            # bidegrees (1, 1) and (1, 2)
        monkeypatch.setattr(twistcalc, "_CODE_SIGN", sign)
        with pytest.raises(RelationFailure):
            verify_twisted_presentation("so3minus")

    def test_corrupted_character_table_breaks_the_action(self, monkeypatch, fresh_twistcalc):
        x = Permutation.from_cycles(4, [(1, 2)])
        automorphism_check(x)
        real = twistcalc._so3_character_table

        def corrupted(monos):
            table = real(monos).copy()
            table[tuple(np.argwhere(table)[0])] *= -1       # its first nonzero entry
            return table

        monkeypatch.setattr(twistcalc, "_so3_character_table", corrupted)
        with pytest.raises(CharacterActionMismatch, match="^direct evaluation disagrees"):
            automorphism_check(x)

    def test_presentations_make_no_twisted_products(self, monkeypatch):
        systems = [("o2minus", _gens("o2minus")), ("so3minus", _gens("so3minus"))]
        systems += [_relation_source(s) for s in ("phi-(12)", "automorphism-(1324)")]
        systems.append(("so3minus", _edited(_gens("so3minus"), [(2, "vanishing", 3, 77)])))
        calls = []
        real = twistcalc.twisted_mul
        monkeypatch.setattr(twistcalc, "twisted_mul", lambda x, y: calls.append(1) or real(x, y))
        for kind, gens in systems:
            verify_twisted_presentation(kind, gens)
        assert not calls
        _gens("o2minus")[0][0] * _gens("o2minus")[0][1]
        assert calls                                        # the spy is live

    def test_action_matches_entrywise_evaluation(self):
        """automorphism_check's table product against character_value on
        each substituted generator, and its permutation against the
        conjugated character matrices."""
        from kleintwist.twistcalc import _so3_solution_matrices
        sols = _so3_solution_matrices()
        for x in S4:
            B = _substituted(x)
            R = rho(x)
            images = [(R.transpose() * SignedMatrix(m) * R).rows for m in sols]
            for m, img in zip(sols, images):
                assert all(character_value(B[i][j], m) == img[i][j]
                           for i in range(3) for j in range(3))
            assert automorphism_check(x) == Permutation([sols.index(img) + 1 for img in images])

    def test_rho_is_computed_once_per_permutation(self, fresh_twistcalc):
        all_automorphism_actions()
        for x in S4:
            phi_embedding(x)
        embedding_character_images()
        generation_counterexample()
        rho_image()
        assert matrices_to_subgroup(klein_diag_matrices()) == klein_group()
        assert rho.cache_info().misses == 24
        assert twistcalc._rho_inverse.cache_info().misses == 1


class TestZeroTestOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1),
           st.sampled_from(["o2minus", "so3minus"]), st.sampled_from([0, 1, 2]),
           st.fractions(min_value=-3, max_value=3, max_denominator=7))
    def test_is_zero_matches_term_by_term(self, a_bits, b_bits, kind, shape, scale):
        x = _random_element(kind, a_bits)
        if shape:
            # times a relation, so the element vanishes on the group
            g = _gens(kind)
            one = TwistedElement.one(kind)
            i, j = divmod(b_bits % 4, 2)
            relation = (g[i][0] * g[j][0] + g[i][1] * g[j][1]
                        + (g[i][2] * g[j][2] if kind == "so3minus" else TwistedElement.zero(kind))
                        - (one if i == j else TwistedElement.zero(kind)))
            x = x * relation if shape == 1 else x + _random_element(kind, b_bits) * relation
        for y in (x, x.scale(scale), x.scale(scale) + x):
            assert is_zero(y) == is_zero_term_by_term(y)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1), st.integers(0, 3),
           st.sampled_from([0, 1, -1]), st.integers(-3, 3))
    def test_vanishing_on_a_branch_reaches_its_missed_point(self, a_bits, b_bits, which,
                                                            det, c):
        """The continuity step of the point-set zero test: an o2minus
        polynomial whose numerator vanishes on a circle branch also
        vanishes at the matrix that branch misses, its limit as t grows.
        The elements lie in the ideal of an orthogonality relation, plus
        c (det - 1), which vanishes on the rotations only, or c (det + 1),
        on the reflections only."""
        g = _gens("o2minus")
        one, zero = TwistedElement.one("o2minus"), TwistedElement.zero("o2minus")
        i, j = divmod(which, 2)
        relation = g[i][0] * g[j][0] + g[i][1] * g[j][1] - (one if i == j else zero)
        x = (_random_element("o2minus", a_bits) * relation
             + relation * _random_element("o2minus", b_bits))
        if det:
            x = x + (DET_O2 - one.scale(det)).scale(c)
        for branch, point in enumerate(O2_MISSED):
            vanishes = not x.terms or not o2_numerator(x.terms, branch)
            # by construction: branch 0 holds the rotations, det = 1
            assert vanishes == (not det or not c or (branch == 0) == (det == 1))
            assert (value_at(x.terms, point) == 0) == vanishes

    @pytest.mark.parametrize("kind", ["o2minus", "so3minus"])
    @pytest.mark.parametrize("power", [1, 40, 70, 200])     # float64, int64, object tiers
    def test_large_coefficients_stay_exact(self, kind, power):
        g = _gens(kind)
        one = TwistedElement.one(kind)
        row = g[0][0] * g[0][0] + g[0][1] * g[0][1] - one
        if kind == "so3minus":
            row = row + g[0][2] * g[0][2]
        big = row.scale(2 ** power)
        for x, zero in ((big, True), (big + one, False),
                        (big + g[1][1].scale(-1) * g[1][1] + g[1][1] * g[1][1], True),
                        (big + (g[1][0] * g[1][0]).scale(3), False)):
            assert is_zero(x) is zero
            assert is_zero_term_by_term(x) is zero

    def test_oracle_sees_zero_and_nonzero(self):
        g = _gens("so3minus")
        one = TwistedElement.one("so3minus")
        row = g[0][0] * g[0][0] + g[0][1] * g[0][1] + g[0][2] * g[0][2] - one
        assert is_zero_term_by_term(row) and is_zero(row)
        assert not is_zero_term_by_term(row + one.scale(Fraction(1, 3)))
        assert not is_zero(row + one.scale(Fraction(1, 3)))
        assert is_zero(row.scale(Fraction(2, 3)))


def _coordinates(p):
    """A grid point as a tuple: (t,) for O(2), (b, c, d) for SO(3)."""
    return p if isinstance(p, tuple) else (p,)


def _free_monomials(alg, top):
    """Exponents of every monomial of total degree at most top in the free
    grid coordinates: t for O(2), (b, c, d) for SO(3)."""
    if alg == "o2minus":
        return [(e,) for e in range(top + 1)]
    return [e for e in itertools.product(range(top + 1), repeat=3) if sum(e) <= top]


def _rank_mod(rows, p=2 ** 31 - 1):
    """Rank of an integer matrix modulo the prime p, a lower bound on its
    rank over Q: a minor that is nonzero modulo p is nonzero."""
    A = np.array([[v % p for v in row] for row in rows], dtype=np.int64)
    rank = 0
    for col in range(A.shape[1]):
        hits = np.flatnonzero(A[rank:, col])
        if not hits.size:
            continue
        A[[rank, rank + hits[0]]] = A[[rank + hits[0], rank]]
        A[rank] = A[rank] * pow(int(A[rank, col]), -1, p) % p
        others = np.flatnonzero(A[:, col])
        others = others[others != rank]
        A[others] = (A[others] - A[others, col:col + 1] * A[rank]) % p
        rank += 1
        if rank == len(A):
            break
    return rank


class TestPointSet:
    """The zero test is exact only if its points determine every
    polynomial of degree 2D in the grid coordinates; these controls show
    that the grid does and that one size smaller does not."""

    @pytest.mark.parametrize("alg", ["o2minus", "so3minus"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_grid_determines_degree_2d(self, alg, degree):
        points = _grid(alg, 2 * degree)
        monomials = _free_monomials(alg, 2 * degree)
        V = [[math.prod(x ** e for x, e in zip(_coordinates(p), mono))
              for mono in monomials] for p in points]
        assert len(points) == len(monomials) == _rank_mod(V)

    @pytest.mark.parametrize("alg", ["o2minus", "so3minus"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_smaller_grid_misses_a_degree_2d_polynomial(self, alg, degree):
        top = 2 * degree
        assert len(_grid(alg, top - 1)) < len(_free_monomials(alg, top))
        # prod over k < 2D of (s - k), s = t or b + c + d: degree 2D, zero on
        # the smaller grid and not on the grid itself
        def witness(p):
            return math.prod(sum(_coordinates(p)) - k for k in range(top))
        assert not any(map(witness, _grid(alg, top - 1)))
        assert any(map(witness, _grid(alg, top)))

    @pytest.mark.parametrize("alg", ["o2minus", "so3minus"])
    @pytest.mark.parametrize("degree", [0, 1, 3])
    def test_points_lie_on_the_group(self, alg, degree):
        n = 2 if alg == "o2minus" else 3
        points = _point_matrices(alg, degree)
        assert len(points) == (2 if n == 2 else 1) * len(_grid(alg, 2 * degree))
        dets = set()
        for norm, X in points:
            X = SignedMatrix(X)
            eye = tuple(tuple(norm * norm * (i == j) for j in range(n)) for i in range(n))
            assert (X * X.transpose()).rows == eye
            dets.add(X.det() // norm ** n)
            assert X.det() % norm ** n == 0
        assert dets == ({1, -1} if n == 2 else {1})


# 4 times each quadratic monomial in the quaternion (a, b, c, d), as a
# linear form in the norm N (key None) and the entries (i, j) of the
# rotation matrix X of _point_matrices
_QUATERNION_PRODUCTS = {
    "aa": {None: 1, (0, 0): 1, (1, 1): 1, (2, 2): 1},
    "bb": {None: 1, (0, 0): 1, (1, 1): -1, (2, 2): -1},
    "cc": {None: 1, (0, 0): -1, (1, 1): 1, (2, 2): -1},
    "dd": {None: 1, (0, 0): -1, (1, 1): -1, (2, 2): 1},
    "bc": {(0, 1): 1, (1, 0): 1}, "bd": {(0, 2): 1, (2, 0): 1}, "cd": {(1, 2): 1, (2, 1): 1},
    "ab": {(2, 1): 1, (1, 2): -1}, "ac": {(0, 2): 1, (2, 0): -1}, "ad": {(1, 0): 1, (0, 1): -1},
}


def _linear_form(alg, coefficients):
    """{monomial: coefficient} of sum c * (1 if key is None else x_key)."""
    n = 2 if alg == "o2minus" else 3
    out = {}
    for key, c in coefficients.items():
        mono = [0] * (n * n)
        if key is not None:
            mono[key[0] * n + key[1]] = 1
        out[tuple(mono)] = out.get(tuple(mono), 0) + c
    return out


def _planted(alg, degree):
    """A polynomial f of the given degree D in the entries whose
    homogenised form N^D f(X / N) at the grid point t, or (b, c, d) with
    s = b + c + d, is a nonzero multiple of prod over k < 2D of (t - k), or
    of (s - k): it vanishes on _grid(alg, 2D - 1) and not on _grid(alg, 2D),
    so it is not zero on the group.  Each pair (k, k') of roots is one
    linear form in N and X: on the circle points 2 (t - k)(t - k') is
    (1 + k k') N + (k k' - 1) X11 - (k + k') X21 on both branches; on the
    quaternion rotations 4 (s - k a)(s - k' a) is read off
    _QUATERNION_PRODUCTS."""
    terms = {(0,) * (4 if alg == "o2minus" else 9): 1}
    for k, k2 in zip(range(0, 2 * degree, 2), range(1, 2 * degree, 2)):
        if alg == "o2minus":
            form = {None: 1 + k * k2, (0, 0): k * k2 - 1, (1, 0): -(k + k2)}
        else:
            weights = {"bb": 1, "cc": 1, "dd": 1, "bc": 2, "bd": 2, "cd": 2,
                       "ab": -(k + k2), "ac": -(k + k2), "ad": -(k + k2), "aa": k * k2}
            form = {}
            for name, w in weights.items():
                for key, c in _QUATERNION_PRODUCTS[name].items():
                    form[key] = form.get(key, 0) + w * c
        factor = _linear_form(alg, form)
        product = {}
        for m1, c1 in terms.items():
            for m2, c2 in factor.items():
                m = tuple(map(sum, zip(m1, m2)))
                product[m] = product.get(m, 0) + c1 * c2
        terms = {m: c for m, c in product.items() if c}
    return TwistedElement._make(alg, terms)


def _orthogonality_rows(alg):
    """The rows sum_k x_ik x_jk - delta_ij of the canonical generators,
    which vanish on the group."""
    g = _gens(alg)
    n = len(g)
    one, zero = TwistedElement.one(alg), TwistedElement.zero(alg)
    return [(sum((g[i][k] * g[j][k] for k in range(n)), zero) - (one if i == j else zero)).terms
            for i in range(n) for j in range(n)]


def _assert_zero_test_matches_oracle(alg, degree):
    """End to end against the term-by-term oracle: is_zero on the planted
    polynomial, and _first_nonzero on the orthogonality system with the
    planted degree-2 row last."""
    x = _planted(alg, degree)
    assert is_zero(x) == is_zero_term_by_term(x) is False
    rows = _orthogonality_rows(alg) + [_planted(alg, 2).terms]
    expected = next(r for r, row in enumerate(rows)
                    if not is_zero_term_by_term(TwistedElement._make(alg, row)))
    assert _first_nonzero(alg, rows) == expected == len(rows) - 1


@pytest.fixture
def fresh_zero_map():
    """Empty the zero-map caches before and after the test, so a patched
    grid neither reads nor leaves cached points."""
    caches = (twistcalc._point_matrices, twistcalc._zero_map_row)
    for c in caches:
        c.cache_clear()
    yield
    for c in caches:
        c.cache_clear()


class TestPlantedRelation:
    @pytest.mark.parametrize("alg", ["o2minus", "so3minus"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_planted_relation_is_the_product_of_its_roots(self, alg, degree):
        # at every point of the grid, N^D f(X / N) = c prod over k < 2D of
        # (s - k), the witness of test_smaller_grid_misses_a_degree_2d_polynomial
        x = _planted(alg, degree)
        assert max(map(sum, x.terms)) == degree
        n = 2 if alg == "o2minus" else 3
        coords = [p for p in _grid(alg, 2 * degree) for _ in range(4 - n)]
        points = _point_matrices(alg, degree)
        assert len(coords) == len(points)
        scale = (2 if alg == "o2minus" else 4) ** degree
        for p, (norm, X) in zip(coords, points):
            value = sum(c * norm ** (degree - sum(m))
                        * math.prod(X[v // n][v % n] ** e for v, e in enumerate(m))
                        for m, c in x.terms.items())
            assert value == scale * math.prod(sum(_coordinates(p)) - k
                                              for k in range(2 * degree))

    @pytest.mark.parametrize("alg", ["o2minus", "so3minus"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_zero_test_finds_the_planted_relation(self, alg, degree):
        _assert_zero_test_matches_oracle(alg, degree)

    @pytest.mark.parametrize("alg", ["o2minus", "so3minus"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_grid_one_size_too_small_fails_the_comparison(self, monkeypatch, alg, degree,
                                                          fresh_zero_map):
        monkeypatch.setattr(twistcalc, "_grid", lambda a, top: _grid(a, top - 1))
        with pytest.raises(AssertionError):
            _assert_zero_test_matches_oracle(alg, degree)
        assert is_zero(_planted(alg, degree))
        assert _first_nonzero(alg, _orthogonality_rows(alg) + [_planted(alg, 2).terms]) is None


class TestGatedCosts:
    def test_import_fills_no_twistcalc_cache(self):
        """import kleintwist builds nothing in twistcalc: a fresh process
        finds every lru_cache of the module empty."""
        src = str(Path(kleintwist.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import kleintwist, kleintwist.twistcalc as t\n"
                "caches = {k: f.cache_info().currsize for k, f in vars(t).items()"
                " if hasattr(f, 'cache_info')}\n"
                "print(sorted(caches.items()))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        caches = eval(proc.stdout)
        assert {"_mono_mul", "_mono_factors", "_point_matrices", "_zero_map_row",
                "_mono_bidegree", "_relation_table", "_grid_table",
                "_so3_solution_lookup", "_so3_character_table", "rho",
                "_rho_inverse", "_rho_positions"} <= {k for k, _ in caches}
        assert all(size == 0 for _, size in caches), caches

    def test_automorphism_actions_peak_memory(self):
        """One x at a time over sparse monomial maps: no dense product
        tensor or 24-way batch is alive during the automorphism check."""
        all_automorphism_actions()                      # warm the lru_caches
        tracemalloc.start()
        try:
            all_automorphism_actions()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20


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

    @pytest.mark.parametrize("kind", ["o2minus", "so3minus"])
    def test_character_multiplicative_on_generator_products(self, kind):
        # products of three generators carry reordering signs that the
        # eight and 24 signed-permutation characters can see
        from kleintwist.twistcalc import _o2_solution_matrices, _so3_solution_matrices
        sols = _o2_solution_matrices() if kind == "o2minus" else _so3_solution_matrices()
        g = _gens(kind)
        flat = [e for row in g for e in row]
        for length in (2, 3):
            for factors in itertools.product(flat, repeat=length):
                prod = factors[0]
                for f in factors[1:]:
                    prod = prod * f
                for m in sols:
                    expected = 1
                    for f in factors:
                        expected *= character_value(f, m)
                    value = character_value(prod, m)
                    assert value == expected and type(value) is int

    def test_character_value_types(self):
        from kleintwist.twistcalc import _so3_solution_matrices
        m = _so3_solution_matrices()[5]
        a = _gens("so3minus")[0][0]
        assert type(character_value(a.scale(3), m)) is int
        assert type(character_value(a.scale(Fraction(3)), m)) is int
        half = character_value(a.scale(Fraction(1, 2)), m)
        assert half == Fraction(m[0][0], 2) and isinstance(half, (int, Fraction))
        assert character_value(TwistedElement.zero("so3minus"), m) == 0

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
            assert not e[2][k].components
            assert not e[k][2].components

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
        assert rep.full_join.order == 24
        assert rep.full_join == generate(4, list(S4))
