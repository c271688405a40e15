"""Permutations, subgroup enumeration, and type recognition."""

import itertools

import pytest
from hypothesis import given, strategies as st

from kleintwist import perm
from kleintwist.errors import NotASubgroup
from kleintwist.incseq import all_sequences, complete_diagram
from kleintwist.perm import (GroupType, PermGroup, Permutation, _closure, _schreier_sims,
                             all_subgroups, are_conjugate, as_subgroup,
                             easy_klein, generate, is_characteristic_under_inner,
                             isomorphism_type, klein_group, normalizer,
                             subgroups_of_type, symmetric_group)
from oracles import all_subgroups_every_g

S4 = symmetric_group(4)
S4_ELEMS = S4.sorted_elements()


def cyc(*cycles):
    return Permutation.from_cycles(4, cycles)


class TestPermutation:
    def test_identity_and_call(self):
        e = Permutation.identity(4)
        assert all(e(i) == i for i in range(1, 5))
        assert e.is_identity()

    def test_compose_right_to_left(self):
        a = cyc((1, 2))
        b = cyc((2, 3))
        # (a*b)(2) = a(b(2)) = a(3) = 3
        assert (a * b)(2) == 3
        assert (b * a)(2) == 1

    def test_from_cycles_roundtrip(self):
        p = cyc((1, 3, 2, 4))
        assert p.cycle_string() == "(1324)"
        assert Permutation.from_cycles(4, p.cycles()) == p

    def test_inverse_and_power(self):
        p = cyc((1, 2, 3))
        assert p * p.inverse() == Permutation.identity(4)
        assert p ** 3 == Permutation.identity(4)
        assert p ** -1 == p.inverse()

    def test_order_and_sign(self):
        assert cyc((1, 2)).order() == 2
        assert cyc((1, 2, 3)).order() == 3
        assert cyc((1, 2), (3, 4)).order() == 2
        assert cyc((1, 2, 3, 4)).order() == 4
        assert cyc((1, 2)).sign() == -1
        assert cyc((1, 2, 3)).sign() == 1
        assert cyc((1, 2, 3, 4)).sign() == -1

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Permutation([1, 1, 3])

    @given(st.sampled_from(S4_ELEMS), st.sampled_from(S4_ELEMS))
    def test_sign_multiplicative(self, a, b):
        assert (a * b).sign() == a.sign() * b.sign()

    @given(st.sampled_from(S4_ELEMS))
    def test_order_divides_group_order(self, a):
        assert 24 % a.order() == 0


class TestGroups:
    def test_symmetric_orders(self):
        for n in range(1, 6):
            import math
            assert symmetric_group(n).order == math.factorial(n)

    def test_klein_groups(self):
        diag = klein_group()
        assert diag.order == 4
        assert diag.sorted_elements() == [
            Permutation.identity(4), cyc((1, 2), (3, 4)),
            cyc((1, 3), (2, 4)), cyc((1, 4), (2, 3))]
        easy = easy_klein()
        assert easy.order == 4
        assert cyc((1, 2)) in easy and cyc((3, 4)) in easy
        assert diag != easy

    def test_generate_closure(self):
        g = generate(4, [cyc((1, 2)), cyc((1, 2, 3, 4))])
        assert g.order == 24

    def test_as_subgroup_rejects_unclosed(self):
        with pytest.raises(NotASubgroup):
            as_subgroup(S4, [Permutation.identity(4), cyc((1, 2)), cyc((1, 3))])
        with pytest.raises(NotASubgroup):
            as_subgroup(S4, [cyc((1, 2))])        # identity missing


def oracle_closure(degree, gens):
    """Reference closure: breadth-first search multiplying every element
    by every generator, on image tuples."""
    ident = tuple(range(1, degree + 1))
    gens = [g for g in set(gens) if g != ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = tuple(a[j - 1] for j in g)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return frozenset(seen)


@st.composite
def generator_lists(draw):
    """Random generators of degree 1-6, with the identity, repeats and
    products of earlier generators (already in their span) mixed in."""
    degree = draw(st.integers(1, 6))
    perm = st.permutations(range(1, degree + 1)).map(Permutation)
    gens = draw(st.lists(perm, max_size=8))
    extras = []
    if draw(st.booleans()):
        extras.append(Permutation.identity(degree))
    if gens and draw(st.booleans()):
        extras.append(draw(st.sampled_from(gens)))
    if gens and draw(st.booleans()):
        extras.append(draw(st.sampled_from(gens)) * draw(st.sampled_from(gens)))
    for e in extras:
        gens.insert(draw(st.integers(0, len(gens))), e)
    return degree, gens[:8]


class TestClosure:
    @given(generator_lists())
    def test_matches_all_generator_search(self, case):
        degree, gens = case
        G = generate(degree, gens)
        expected = oracle_closure(degree, [g.images for g in gens])
        assert {p.images for p in G.elements} == expected
        assert G.generators == tuple(gens)

    @given(generator_lists())
    def test_schreier_sims_transversals(self, case):
        # every transversal element lies in the group, maps its base point
        # to its key and fixes the base points before it
        degree, gens = case
        group = oracle_closure(degree, [g.images for g in gens])
        base, transversals = _schreier_sims(degree, [g.images for g in gens])
        assert len(set(base)) == len(base) == len(transversals)
        for i, (b, orbit) in enumerate(zip(base, transversals)):
            assert b in orbit and len(orbit) > 1
            for c, u in orbit.items():
                assert tuple(p + 1 for p in u) in group
                assert u[b] == c and all(u[p] == p for p in base[:i])

    def test_degree_one(self):
        e = Permutation.identity(1)
        for gens in ([], [e], [e, e]):
            assert generate(1, gens).elements == {e}
        assert _closure(1, [(1,)]) == {(1,)}

    def test_degree_two(self):
        e, s = Permutation.identity(2), Permutation([2, 1])
        assert generate(2, []).elements == {e}
        assert generate(2, [e]).elements == {e}
        for gens in ([s], [e, s], [s, s], [s, e, s]):
            assert generate(2, gens).elements == {e, s}
        assert _closure(2, [(2, 1)]) == {(1, 2), (2, 1)}

    def test_s4_census_sets_and_order(self):
        # every subgroup of S4 is generated by at most two elements
        found = {oracle_closure(4, [a.images, b.images])
                 for a, b in itertools.product(S4_ELEMS, repeat=2)}
        expected = sorted(found, key=lambda S: (len(S), sorted(S)))
        assert len(expected) == 30
        assert [{p.images for p in H.elements} for H in all_subgroups(S4)] == expected


class TestConstructionPaths:
    """generate() builds its group from image tuples (PermGroup._from_images);
    the public constructor takes Permutation objects. Both must give the
    same group."""

    @given(generator_lists(), st.data())
    def test_generate_matches_public_constructor(self, case, data):
        degree, gens = case
        G = generate(degree, gens)
        expected = oracle_closure(degree, [g.images for g in gens])
        # the order comes from Schreier-Sims, before any image set exists
        assert G.order == len(expected)
        elems = [Permutation(t) for t in expected]
        P = PermGroup(degree, elems)
        assert G == P and P == G
        assert hash(G) == hash(P)
        assert G.order == P.order == len(elems)
        assert G.sorted_elements() == P.sorted_elements() == sorted(elems)
        assert list(G) == list(P)
        for p in data.draw(st.lists(st.sampled_from(elems), max_size=4)):
            assert p in G and p in P
        perm = st.permutations(range(1, degree + 1)).map(Permutation)
        for q in data.draw(st.lists(perm, max_size=4)):
            assert (q in G) == (q in P) == (q in elems)
        if G.order <= 24:
            assert isomorphism_type(G) == isomorphism_type(P)

    def test_hash_is_the_hash_of_the_permutation_set(self):
        V = klein_group()
        assert hash(V) == hash((4, frozenset(V.sorted_elements())))
        assert hash(V) == hash((4, frozenset({Permutation.identity(4), cyc((1, 2), (3, 4)),
                                              cyc((1, 3), (2, 4)), cyc((1, 4), (2, 3))})))

    def test_symmetric_group(self):
        for n in range(1, 6):
            G = symmetric_group(n)
            P = PermGroup(n, map(Permutation, itertools.permutations(range(1, n + 1))))
            assert G == P
            assert G.sorted_elements() == P.sorted_elements()
            assert list(G) == sorted(map(Permutation, itertools.permutations(range(1, n + 1))))
        assert symmetric_group(1).generators == ()
        assert symmetric_group(2).generators == (Permutation([2, 1]),)
        assert symmetric_group(4).generators == (cyc((1, 2)), cyc((1, 2, 3, 4)))

    def test_order_builds_no_permutation(self, monkeypatch):
        gens = [complete_diagram(s) for s in all_sequences(4, 8)]
        assert len(gens) == 70
        built = []
        init = Permutation.__init__

        def counting_init(self, images):
            built.append(1)
            init(self, images)

        closures = []
        closure = perm._closure

        def counting_closure(degree, seed):
            closures.append(1)
            return closure(degree, seed)

        monkeypatch.setattr(Permutation, "__init__", counting_init)
        monkeypatch.setattr(perm, "_closure", counting_closure)
        G = generate(8, gens)
        assert G.order == 40320
        assert built == [] and closures == []
        elems = G.elements
        assert len(built) == 40320 and closures == [1]
        assert len(elems) == 40320 and all(type(p) is Permutation for p in elems)
        assert G.elements is elems
        assert len(built) == 40320

    def test_order_and_closure_must_agree(self, monkeypatch):
        # a closure that loses (123) and its inverse (132) still passes
        # _store, so only the Schreier-Sims count can catch it
        closure = perm._closure
        monkeypatch.setattr(perm, "_closure", lambda degree, seed: closure(degree, seed)
                            - {(2, 3, 1, 4), (3, 1, 2, 4)})
        gens = [cyc((1, 2)), cyc((1, 2, 3, 4))]
        assert len(generate(4, gens).images) == 22
        G = generate(4, gens)
        assert G.order == 24
        for _ in range(2):
            with pytest.raises(ValueError, match="closure lists 22 elements, Schreier-Sims counts 24"):
                G.images

    def test_public_constructor_keeps_its_permutations(self):
        elems = frozenset(klein_group().elements)
        assert PermGroup(4, elems).elements is elems


class TestGroupRefusals:
    def test_empty(self):
        with pytest.raises(ValueError, match="a group needs at least the identity"):
            PermGroup(4, [])

    def test_identity_missing(self):
        with pytest.raises(ValueError, match="identity missing"):
            PermGroup(4, [cyc((1, 2))])

    def test_inverse_missing(self):
        with pytest.raises(ValueError, match=r"inverse of Permutation\(\(123\), degree=4\) missing"):
            PermGroup(4, [Permutation.identity(4), cyc((1, 2, 3))])

    def test_mixed_degrees(self):
        with pytest.raises(ValueError, match="mixed degrees in group element set"):
            PermGroup(4, [Permutation.identity(4), Permutation.identity(3)])

    @pytest.mark.parametrize("images, message", [
        ([], "a group needs at least the identity"),
        ([(2, 1, 3, 4)], "identity missing"),
        ([(1, 2, 3, 4), (2, 3, 1, 4)], r"inverse of Permutation\(\(123\), degree=4\) missing"),
        ([(1, 2, 3, 4), (1, 2, 3)], "mixed degrees in group element set"),
    ])
    def test_from_images(self, images, message):
        with pytest.raises(ValueError, match=message):
            PermGroup._from_images(4, images)

    def test_inverse_missing_in_a_large_set(self):
        # 719 elements, through both constructors: the message names the
        # one element whose inverse is gone
        images = frozenset(itertools.permutations(range(1, 7))) - {(2, 3, 1, 4, 5, 6)}
        message = r"inverse of Permutation\(\(132\), degree=6\) missing"
        with pytest.raises(ValueError, match=message):
            PermGroup._from_images(6, images)
        with pytest.raises(ValueError, match=message):
            PermGroup(6, map(Permutation, images))

    def test_generate_degree_mismatch(self):
        with pytest.raises(ValueError):
            generate(4, [Permutation.from_cycles(3, [(1, 2)])])

    def test_generate_rejects_larger_degree(self):
        with pytest.raises(ValueError, match="has degree 5, not 4"):
            generate(4, [Permutation.from_cycles(5, [(4, 5)])])


def _degree_6(*cycles):
    return Permutation.from_cycles(6, cycles)


SEARCHED_GROUPS = {
    "S3": symmetric_group(3),
    "D4": generate(4, [cyc((1, 2, 3, 4)), cyc((1, 3))]),
    "A4": generate(4, [cyc((1, 2, 3)), cyc((1, 2), (3, 4))]),
    "S4": S4,
    # the signed permutations of three pairs {1,2}, {3,4}, {5,6}: order 48
    "C2wrS3": generate(6, [_degree_6((1, 2)), _degree_6((1, 3), (2, 4)),
                           _degree_6((1, 3, 5), (2, 4, 6))]),
}


class TestSubgroupCensus:
    @pytest.mark.parametrize("name", SEARCHED_GROUPS)
    def test_double_cosets_match_every_g_reference(self, name):
        G = SEARCHED_GROUPS[name]
        assert [H.images for H in all_subgroups(G)] == \
            [H.images for H in all_subgroups_every_g(G)]

    def test_wreath_product_census(self):
        # C2 wr S3 is C2 x S4, which has 98 subgroups
        G = SEARCHED_GROUPS["C2wrS3"]
        assert G.order == 48
        assert len(all_subgroups(G)) == 98

    def test_s4_search_takes_one_closure_per_double_coset(self, monkeypatch):
        calls = []
        real = perm._closure

        def counted(degree, seed):
            calls.append(1)
            return real(degree, seed)

        monkeypatch.setattr(perm, "_closure", counted)
        perm.all_subgroups.cache_clear()        # an earlier test may have enumerated S4
        assert len(all_subgroups(S4)) == 30
        assert len(calls) <= 117

    def test_subgroups_are_enumerated_once_per_group(self, monkeypatch):
        calls = []
        real = perm._closure
        monkeypatch.setattr(perm, "_closure", lambda degree, seed: calls.append(1)
                            or real(degree, seed))
        perm.all_subgroups.cache_clear()
        perm._typed_subgroups.cache_clear()
        subgroups = all_subgroups(S4)
        assert isinstance(subgroups, tuple) and calls
        # an equal group built another way takes the same enumeration
        same = generate(4, S4.generators or S4.sorted_elements())
        assert same == S4
        del calls[:]
        assert all_subgroups(same) is subgroups
        assert len(subgroups_of_type(S4, "Klein")) == 4 and len(subgroups_of_type(S4, "D4")) == 3
        assert not calls

    def test_s4_census(self):
        subs = all_subgroups(S4)
        assert len(subs) == 30
        by_type = {}
        for H in subs:
            by_type[isomorphism_type(H).name] = by_type.get(isomorphism_type(H).name, 0) + 1
        assert by_type == {"Trivial": 1, "Z2": 9, "Z3": 4, "Klein": 4,
                           "Z4": 3, "S3": 4, "D4": 3, "A4": 1, "S4": 1}

    def test_klein_classification(self):
        kleins = subgroups_of_type(S4, "Klein")
        assert len(kleins) == 4
        characteristic = [H for H in kleins if is_characteristic_under_inner(S4, H)]
        assert characteristic == [klein_group()]
        rest = [H for H in kleins if H != klein_group()]
        assert len(rest) == 3
        for a in rest:
            for b in rest:
                assert are_conjugate(S4, a, b) is not None
        # the normal copy is not conjugate to a plain copy
        assert are_conjugate(S4, klein_group(), rest[0]) is None

    def test_d4_classification(self):
        d4s = subgroups_of_type(S4, "D4")
        assert len(d4s) == 3
        diag = klein_group()
        for H in d4s:
            assert all(v in H for v in diag)
        for a in d4s:
            for b in d4s:
                w = are_conjugate(S4, a, b)
                assert w is not None
                assert PermGroup(4, {w * h * w.inverse() for h in a.elements}) == b

    def test_normalizers(self):
        assert normalizer(S4, klein_group()).order == 24
        n = normalizer(S4, easy_klein())
        assert n.order == 8
        assert isomorphism_type(n).name == "D4"


class TestTypeRecognition:
    def test_small_types(self):
        assert isomorphism_type(generate(4, [cyc((1, 2))])).name == "Z2"
        assert isomorphism_type(generate(4, [cyc((1, 2, 3))])).name == "Z3"
        assert isomorphism_type(generate(4, [cyc((1, 2, 3, 4))])).name == "Z4"
        assert isomorphism_type(klein_group()).name == "Klein"
        assert isomorphism_type(generate(4, [cyc((1, 2)), cyc((1, 2, 3))])).name == "S3"
        assert isomorphism_type(generate(4, [cyc((1, 2, 3)), cyc((1, 2), (3, 4))])).name == "A4"
        assert isomorphism_type(S4).name == "S4"

    def test_z4_vs_klein_distinguished(self):
        z4 = generate(4, [cyc((1, 2, 3, 4))])
        assert isomorphism_type(z4).name == "Z4"
        assert isomorphism_type(z4) != isomorphism_type(klein_group())

    def test_order_guard(self):
        with pytest.raises(ValueError):
            isomorphism_type(symmetric_group(5))

    def test_abelian_order8_types(self):
        z2z2z2 = generate(8, [Permutation.from_cycles(8, [(1, 2)]),
                              Permutation.from_cycles(8, [(3, 4)]),
                              Permutation.from_cycles(8, [(5, 6)])])
        assert isomorphism_type(z2z2z2).name == "Z2xZ2xZ2"
        z2z4 = generate(6, [Permutation.from_cycles(6, [(1, 2)]),
                            Permutation.from_cycles(6, [(3, 4, 5, 6)])])
        assert isomorphism_type(z2z4).name == "Z2xZ4"
        z8 = generate(8, [Permutation.from_cycles(8, [(1, 2, 3, 4, 5, 6, 7, 8)])])
        assert isomorphism_type(z8).name == "Z8"

    def test_grouptype_is_value(self):
        t = isomorphism_type(klein_group())
        assert t == GroupType("Klein", 4, True, ((1, 1), (2, 3)))
