"""Character enumeration and the character group against independent
references, and the exact verifiers under rational changes of basis."""

import hashlib
import random
import re
from fractions import Fraction
from functools import cache
from math import lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kleintwist import hopf, ratlinalg
from kleintwist.cocycle import (Cocycle2, build_s4tau, klein_bicharacter, pullback,
                                twist, verify_cocycle)
from kleintwist.errors import ClosureFailure, KleintwistError, NonSplitQuotient
from kleintwist.hopf import (Character, FDHopf, _q, _safe_einsum,
                             all_axioms_pass, character_group, characters,
                             convolution_identity, function_algebra, group_algebra,
                             verify_hopf_axioms)
from kleintwist.perm import (PermGroup, Permutation, generate, isomorphism_type,
                             klein_group, symmetric_group)
from kleintwist.ratlinalg import RowSpace, _cleared, _inverse, _rescale, _sub, integer_roots
from oracles import (convolution, convolution_inverse, generalized_eigenspace, hopf_map,
                     minimal_polynomial)

S3 = symmetric_group(3)
S4 = symmetric_group(4)
D4 = generate(4, [Permutation.from_cycles(4, [(1, 2, 3, 4)]),
                  Permutation.from_cycles(4, [(1, 3)])])


def invert(matrix) -> list[list[Fraction]]:
    """The inverse of a square matrix of ints/Fractions, as Fractions."""
    A, d = _cleared(matrix)
    B, e = _inverse(A)          # (A / d)^-1 = d B / e
    return [[Fraction(x * d, e) for x in row] for row in B.tolist()]


def transport(H: FDHopf, P) -> FDHopf:
    """H rewritten in the basis f_a = sum_i P[i][a] e_i (P invertible)."""
    n = H.dim
    Q = invert(P)
    # e_j = sum_l Q[l][j] f_l, kept sparse so permutation matrices stay cheap
    back = [{l: Q[l][j] for l in range(n) if Q[l][j]} for j in range(n)]
    fwd = [{i: P[i][a] for i in range(n) if P[i][a]} for a in range(n)]

    def coords(v):
        out = {}
        for j, c in v.items():
            for l, q in back[j].items():
                out[l] = out.get(l, 0) + q * c
        return {l: c for l, c in out.items() if c}

    def push(a, table):
        acc = {}
        for i, p in fwd[a].items():
            for k, c in table[i].items():
                acc[k] = acc.get(k, 0) + p * c
        return coords(acc)

    mult = {}
    for a in range(n):
        for b in range(n):
            acc = {}
            for i, p in fwd[a].items():
                for j, q in fwd[b].items():
                    for k, c in H.mult.get((i, j), {}).items():
                        acc[k] = acc.get(k, 0) + p * q * c
            mult[(a, b)] = coords(acc)
    comult = {}
    for a in range(n):
        acc = {}
        for i, p in fwd[a].items():
            for (j, k, c) in H.comult[i]:
                for l, q in back[j].items():
                    for m, r in back[k].items():
                        acc[(l, m)] = acc.get((l, m), 0) + p * c * q * r
        comult[a] = [(l, m, c) for (l, m), c in acc.items() if c]
    counit = [sum(p * H.counit[i] for i, p in fwd[a].items()) for a in range(n)]
    return FDHopf(n, H.basis_labels, coords(H.unit), mult, comult, counit,
                  {a: push(a, H.antipode) for a in range(n)},
                  {a: push(a, H.star) for a in range(n)})


def random_basis_change(n: int, height: int, seed: int):
    """An invertible matrix with entries p/q, |p| <= height, 1 <= q <= height."""
    rng = random.Random(seed)
    while True:
        P = [[Fraction(rng.randint(-height, height), rng.randint(1, height))
              for _ in range(n)] for _ in range(n)]
        try:
            invert(P)
            return P
        except ValueError:
            continue


def permutation_matrix(perm):
    n = len(perm)
    return [[Fraction(int(perm[a] == i)) for a in range(n)] for i in range(n)]


def values_digest(chars) -> str:
    text = ";".join(",".join(str(Fraction(v)) for v in ch.values) for ch in chars)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _build(name: str) -> FDHopf:
    if name == "cs4":
        return function_algebra(S4)
    if name == "qs4":
        return group_algebra(S4)
    if name == "s4tau":
        return build_s4tau().algebra
    if name == "diagtwist":
        return build_s4tau(V=klein_group()).algebra
    if name == "cs3":
        return function_algebra(S3)
    if name == "qs3":
        return group_algebra(S3)
    if name == "cd4":
        return function_algebra(D4)
    if name == "qklein":
        return group_algebra(klein_group())
    if name == "cs4_relabelled":
        perm = [(7 * i + 5) % 24 for i in range(24)]
        return transport(function_algebra(S4), permutation_matrix(perm))
    raise ValueError(name)


# Character count, character group type, and a digest of the sorted value
# tuples as the enumeration produced them before it kept echelon blocks
# (cs3, qs3, cd4 and qklein: before it ran on integer arrays).
EXPECTED = {
    "cs3": (6, "S3", "6f9fe1c358f4c35f"),
    "qs3": (2, "Z2", "ad5e9c96c30e6e2a"),
    "cd4": (8, "D4", "600e75d8518cc3bc"),
    "qklein": (4, "Klein", "42dc47696ad1064d"),
    "cs4": (24, "S4", "b051a993485b857d"),
    "qs4": (2, "Z2", "7a9f2b844d0106a2"),
    "s4tau": (8, "D4", "35d9ce6e94943c35"),
    "diagtwist": (24, "S4", "59406c6b22fb93b4"),
    "cs4_relabelled": (24, "S4", "b051a993485b857d"),
}


@pytest.fixture(scope="module")
def census():
    built = {}

    def get(name):
        if name not in built:
            H = _build(name)
            built[name] = (H, characters(H))
        return built[name]

    return get


def convolution_oracle_group(H: FDHopf, chars) -> PermGroup:
    """character_group rebuilt term by term from convolution and
    convolution_inverse, with the same slot convention."""
    chars = sorted(chars, key=lambda ch: tuple(Fraction(v) for v in ch.values))
    index = {ch.values: i for i, ch in enumerate(chars)}
    assert convolution_identity(H).values in index
    perms = set()
    for f in chars:
        perms.add(Permutation([index[convolution(H, f, g).values] + 1 for g in chars]))
        assert convolution_inverse(H, f).values in index
    return PermGroup(len(chars), perms)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_characters_unchanged(census, name):
    H, chars = census(name)
    count, gtype, digest = EXPECTED[name]
    assert len(chars) == count
    assert values_digest(chars) == digest
    assert isomorphism_type(character_group(H, chars)).name == gtype


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_character_group_matches_convolution_oracle(census, name):
    H, chars = census(name)
    assert character_group(H, chars).elements == convolution_oracle_group(H, chars).elements


def mult_only(labels, unit: dict, mult: dict) -> FDHopf:
    """An algebra given by its unit and multiplication, with zero coproduct
    and counit and the identity star: all that characters reads."""
    n = len(labels)
    return FDHopf(n, labels, unit, mult, {i: [] for i in range(n)}, [0] * n,
                  {i: {} for i in range(n)}, {i: {i: 1} for i in range(n)})


# Q[x]/(x^2) x Q in the basis (e1 + x, x, e2): a_1 = e1 + 3x + 3e2 has the
# minimal polynomial (y - 1)^2 (y - 3).
SQUARE_ZERO = mult_only(["e1+x", "x", "e2"], {0: 1, 1: -1, 2: 1},
                        {(0, 0): {0: 1, 1: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                         (2, 2): {2: 1}})


def test_non_semisimple_quotient():
    """x is a nonzero element whose square is zero, so the quotient is not
    reduced and no Hopf algebra has it: the two characters are not listed."""
    with pytest.raises(KleintwistError, match=re.escape(
            "the commutative quotient is not reduced: a_t has a repeated root "
            "at t = 1, so H is not a Hopf algebra")):
        characters(SQUARE_ZERO)


def recursive_characters(H: FDHopf) -> list:
    """The characters as the enumeration found them before it split with
    one generic element: a queue of invariant blocks, each split by the
    generalized eigenspaces of the first operator that has two eigenvalues
    on it, until every operator has one.  Values only, without the audit."""
    n = H.dim
    M = H.M
    ideal = RowSpace(n)
    grown = ideal.extend(_sub(M, M.transpose(1, 0, 2)))
    while len(grown):
        grown = ideal.extend(np.concatenate([
            _safe_einsum("ka,ajp->kjp", grown, M).reshape(-1, n),
            _safe_einsum("ka,jap->kjp", grown, M).reshape(-1, n)]))
    free = ideal.free
    m = len(free)
    proj = ideal.reduce(np.eye(n, dtype=np.int64))[:, free]
    Q = _safe_einsum("jkp,pq->jkq", M[np.ix_(free, free)], proj)
    dQ = H.dM * ideal.scale

    whole = RowSpace(m)
    whole.extend(np.eye(m, dtype=np.int64))
    queue = [whole]
    blocks = []
    while queue:
        block = queue.pop()
        B, b = block.rows, block.dim
        Y = _safe_einsum("rk,jkq->jrq", B, Q)
        assert not (block.reduce(Y.reshape(-1, m)) != 0).any()
        D = _safe_einsum("jrc,c->jrc", Y[:, :, block.pivots], block.cofactors())
        for R in D:
            roots = integer_roots(minimal_polynomial(R), R)
            if len(roots) > 1:
                for r, k in roots:
                    piece = RowSpace(m)
                    piece.extend(_safe_einsum("xr,rq->xq", generalized_eigenspace(R, r, k), B))
                    queue.append(piece)
                break
        else:
            blocks.append((b * block.scale * dQ * ideal.scale, _safe_einsum("jrr->j", D)))
    dX = lcm(*(den for den, _ in blocks))
    X = [_rescale(_safe_einsum("iq,q->i", proj, tr), dX // den) for den, tr in blocks]
    return [Character(H, tuple(_q(x, dX) for x in row))
            for row in sorted(tuple(int(x) for x in row) for row in X)]


# Q[x]/(x^2) x Q in the basis (e1, x, e2 / 3): a_1 = e1 + 2x + e2 takes the
# value 1 at both characters, with the minimal polynomial (y - 1)^2.
UNSEPARATED = mult_only(["e1", "x", "e2/3"], {0: 1, 2: 3},
                        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                         (2, 2): {2: Fraction(1, 3)}})
# Q[x,y]/(x,y)^2 x Q in the basis (e1, x, y, e2): no element generates it,
# and a_1 = e1 + 2x + 3y + 4e2 has the minimal polynomial (y - 1)^2 (y - 4).
NON_MONOGENIC = mult_only(["e1", "x", "y", "e2"], {0: 1, 3: 1},
                          {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                           (0, 2): {2: 1}, (2, 0): {2: 1}, (3, 3): {3: 1}})
# The permutation that the character-census benchmark draws for its diagonal
# twist at seed 1, pass 0 (basis vector i becomes basis vector PERM_1_0[i]).
# There a_1 takes 18 values on the 24 characters, so the search goes on to t = 2.
PERM_1_0 = [1, 22, 14, 0, 8, 21, 17, 16, 15, 11, 2, 10, 13, 23, 4, 6, 12, 3, 18, 9, 7,
            19, 5, 20]


def relabelled(H: FDHopf, perm) -> FDHopf:
    """H with basis vector i renamed perm[i]."""
    inverse = sorted(range(len(perm)), key=perm.__getitem__)
    return transport(H, permutation_matrix(inverse))


@cache
def oracle_case(name: str, height: int, seed: int) -> FDHopf:
    """A fixed algebra by name, or C(S3), Q[S3], Q[Klein] or C(D4) relabelled
    by a seeded permutation (height 1) or under a seeded basis change."""
    fixed = {"square_zero": lambda: SQUARE_ZERO, "unseparated": lambda: UNSEPARATED,
             "non_monogenic": lambda: NON_MONOGENIC,
             "diagtwist_1_0": lambda: relabelled(_build("diagtwist"), PERM_1_0)}
    if name in fixed:
        return fixed[name]()
    K = _build(name)
    if height == 1:
        perm = list(range(K.dim))
        random.Random(seed).shuffle(perm)
        return relabelled(K, perm)
    return transport(K, random_basis_change(K.dim, height, seed))


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(["cs3", "qs3", "qklein", "cd4"]),
       st.one_of(st.just(1), st.integers(2, 10 ** 4)), st.integers(0, 2 ** 32))
@example("diagtwist_1_0", 1, 0)
def test_characters_match_recursive_splitter(name, height, seed):
    H = oracle_case(name, height, seed)
    assert ([ch.values for ch in characters(H)]
            == [ch.values for ch in recursive_characters(H)])


@pytest.mark.parametrize("name,degrees", [
    ("square_zero", [3]), ("unseparated", [2]), ("non_monogenic", [3]),
    ("diagtwist_1_0", [18, 24])])
def test_generic_element_routes(monkeypatch, name, degrees):
    """The degree of a_t's minimal polynomial at each t tried.  On the
    relabelled diagonal twist, a_1's is squarefree of degree 18 < 24, so
    the search moves on, and a_2 generates the quotient.  The other three
    algebras are no Hopf algebras: their quotients hold a nonzero element
    whose square is zero, a_1's polynomial has a repeated root, and the
    quotient is refused at once, with no second t."""
    seen = []

    def first_relation(K):
        f = ratlinalg.first_relation(K)
        seen.append(len(f) - 1)
        return f

    monkeypatch.setattr(hopf, "first_relation", first_relation)
    H = oracle_case(name, 1, 0)
    if name == "diagtwist_1_0":
        assert len(characters(H)) == 24
    else:
        with pytest.raises(KleintwistError, match=re.escape(
                "the commutative quotient is not reduced: a_t has a repeated root "
                "at t = 1, so H is not a Hopf algebra")):
            characters(H)
    assert seen == degrees


def test_characters_cost_guard(monkeypatch):
    """Counts that read no clock.  characters(C(S4)) inserts rows into one
    RowSpace, the commutator ideal (per-block echelon bases made 26
    insertions, the recursive splitter 186), and decides the Krylov relation
    of a_1, whose entries reach 24^24 < 2^111, modulo one batch of four
    primes: 24! < 2^80 needs three."""
    widths, drawn = [], []
    extend, primes = RowSpace.extend, ratlinalg._primes
    monkeypatch.setattr(RowSpace, "extend",
                        lambda self, v: widths.append(self.width) or extend(self, v))
    monkeypatch.setattr(ratlinalg, "_primes", lambda: (drawn.append(p) or p for p in primes()))
    assert len(characters(function_algebra(S4))) == 24
    assert widths == [24]
    assert len(drawn) == 4


def test_nonsplit_quotient_names_a_basis_element():
    """Q[Z3] with basis vector f_0 = sum_i P[i][0] g_i: f_0 takes the value
    c0 + c1 w + c2 w^2 at the characters through a cube root of unity w, a
    root of y^2 - (2 c0 - c1 - c2) y + c0^2 + c1^2 + c2^2 - c0 c1 - c1 c2 - c0 c2.
    The message names that factor of f_0's own operator, not the block
    scale's powers or a_t's factor."""
    Z3 = generate(3, [Permutation.from_cycles(3, [(1, 2, 3)])])
    P = random_basis_change(3, 50, 1)
    c0, c1, c2 = (P[i][0] for i in range(3))
    factor = [c0 * c0 + c1 * c1 + c2 * c2 - c0 * c1 - c1 * c2 - c0 * c2,
              -(2 * c0 - c1 - c2), 1]
    assert factor == [Fraction(52905052, 3286969), Fraction(10190, 1813), 1]
    with pytest.raises(NonSplitQuotient) as err:
        characters(transport(group_algebra(Z3), P))
    assert str(err.value) == ("minimal polynomial does not split over the rationals: "
                              "[52905052/3286969, 10190/1813, 1], basis element id")


NOT_SCALAR = "the unit does not act as a nonzero scalar on the commutative quotient"


@pytest.mark.parametrize("unit,message", [
    ({k: 2 for k in range(6)}, "character fails chi(1) = 1"),
    ({0: 1}, NOT_SCALAR), ({}, NOT_SCALAR),
], ids=["doubled", "one_delta", "zero"])
def test_wrong_unit_vector_refused(unit, message):
    """A unit vector twice too long still acts as a nonzero scalar and
    moves no socle row, so only the audit sees it: values normalised
    against the unit would hide it.  A vector that is no unit at all is
    refused before any Krylov row is built."""
    H = function_algebra(S3)
    broken = FDHopf(H.dim, H.basis_labels, unit, H.mult, H.comult, H.counit,
                    H.antipode, H.star)
    with pytest.raises(KleintwistError, match=re.escape(message)):
        characters(broken)


@pytest.mark.parametrize("key,product", [((0, 0), {0: 2}), ((1, 1), {1: 1, 2: 1})],
                         ids=["unit", "invariance"])
def test_broken_multiplication_refused(key, product):
    """A product that changes e_0 e_0 or e_1 e_1 of C(S3) also changes the
    unit's product with e_0 or e_1, so the unit no longer acts as a scalar."""
    H = function_algebra(S3)
    broken = FDHopf(H.dim, H.basis_labels, H.unit, {**H.mult, key: product},
                    H.comult, H.counit, H.antipode, H.star)
    with pytest.raises(KleintwistError, match=re.escape(NOT_SCALAR)):
        characters(broken)


def test_broken_star_refused():
    """Only the audit reads the star.  With e_1* = e_2 on C(S3), the first
    character that is 1 at e_1 or at e_2 fails chi(e_1*) = chi(e_1), and
    the message names the basis index 1, not the character's row."""
    H = function_algebra(S3)
    broken = FDHopf(H.dim, H.basis_labels, H.unit, H.mult, H.comult, H.counit,
                    H.antipode, {**H.star, 1: {2: 1}, 2: {1: 1}})
    with pytest.raises(KleintwistError, match=r"^character not star-compatible at 1$"):
        characters(broken)


def test_socle_rows_refuse_a_non_associative_product(monkeypatch):
    """C(S3) in the basis (unit, d_1, ..., d_5), with f_1 f_2 = f_2 f_1 = f_3
    in place of 0: still unital and commutative, and a_1 still generates,
    so the socle-row route runs, and its residual refuses the rows on
    which multiplication does not act by a scalar."""
    seen = []

    def first_relation(K):
        f = ratlinalg.first_relation(K)
        seen.append(len(f) - 1)
        return f

    monkeypatch.setattr(hopf, "first_relation", first_relation)
    H = transport(function_algebra(S3),
                  [[Fraction(int(a == 0 or a == i)) for a in range(6)] for i in range(6)])
    mult = {**H.mult, (1, 2): {3: 1}, (2, 1): {3: 1}}
    broken = FDHopf(H.dim, H.basis_labels, H.unit, mult, H.comult, H.counit,
                    H.antipode, H.star)
    with pytest.raises(KleintwistError, match="block not invariant under multiplication"):
        characters(broken)
    assert seen == [6]


def _flip_one_value(chars):
    i = next(k for k, ch in enumerate(chars) if ch.values != chars[0].parent.counit)
    ch = chars[i]
    j = next(k for k, v in enumerate(ch.values) if v)
    values = list(ch.values)
    values[j] = -values[j]
    return chars[:i] + [Character(ch.parent, tuple(values))] + chars[i + 1:]


@pytest.mark.parametrize("corrupt,message", [
    (lambda chars: chars[1:], "escapes"),
    (lambda chars: [c for c in chars if c.values != c.parent.counit], "counit"),
    (_flip_one_value, "escapes"),
    (lambda chars: chars + chars[-1:], "duplicates"),
])
def test_corrupted_character_list_refused(census, corrupt, message):
    H, chars = census("cs4")
    with pytest.raises(ClosureFailure, match=message):
        character_group(H, corrupt(list(chars)))


@pytest.mark.parametrize("name", ["cs4", "qs4", "s4tau", "diagtwist"])
def test_benchmark_algebras_stay_in_int64(census, name):
    H = census(name)[0]
    arrays = [H.U, H.M, H.C, H.E, H.S, H.T]
    if name == "s4tau":
        sigma = build_s4tau().cocycle
        arrays += [A for A, _ in (sigma.cleared_table, sigma.cleared_inverse_table,
                                  sigma.cleared_star_corrector)]
    assert all(a.dtype == "int64" for a in arrays)


@pytest.mark.parametrize("seed", [1, 5])
@pytest.mark.parametrize("height", [2, 3, 50, 10 ** 4])
@pytest.mark.parametrize("build,count,gtype", [
    (function_algebra, 6, "S3"), (group_algebra, 2, "Z2")])
def test_rational_basis_change_keeps_everything(build, count, gtype, height, seed):
    """Large denominators leave int64 behind; verification, characters and
    the character group must stay exact instead of wrapping around."""
    H = transport(build(S3), random_basis_change(6, height, seed))
    assert all_axioms_pass(verify_hopf_axioms(H))
    chars = characters(H)
    assert len(chars) == count
    assert isomorphism_type(character_group(H, chars)).name == gtype

    mult = dict(H.mult)
    (k, c), *_ = mult[(0, 0)].items()
    mult[(0, 0)] = {**mult[(0, 0)], k: c + 1}
    broken = FDHopf(H.dim, H.basis_labels, H.unit, mult, H.comult,
                    H.counit, H.antipode, H.star)
    assert not all_axioms_pass(verify_hopf_axioms(broken))


@settings(max_examples=5, deadline=None)
@given(st.sampled_from([(function_algebra, S3), (group_algebra, S3),
                        (group_algebra, klein_group())]),
       st.integers(2, 10 ** 4), st.integers(0, 2 ** 32), st.data())
def test_basis_change_is_metamorphic(case, height, seed, data):
    """A rational basis change of height up to 10^4 keeps all six axiom
    suites, the character count and the character group type; adding 1
    to one structure entry m(e_i, e_j) with unit coefficient u_i != 0
    breaks the left unit law, so some suite fails."""
    build, G = case
    K = build(G)
    H = transport(K, random_basis_change(K.dim, height, seed))
    assert all_axioms_pass(verify_hopf_axioms(H))
    chars, want = characters(H), characters(K)
    assert len(chars) == len(want)
    assert (isomorphism_type(character_group(H, chars)).name
            == isomorphism_type(character_group(K, want)).name)

    i = data.draw(st.sampled_from(sorted(H.unit)))
    j, k = data.draw(st.integers(0, H.dim - 1)), data.draw(st.integers(0, H.dim - 1))
    product = H.mult.get((i, j), {})
    mult = {**H.mult, (i, j): {**product, k: product.get(k, 0) + 1}}
    broken = FDHopf(H.dim, H.basis_labels, H.unit, mult, H.comult,
                    H.counit, H.antipode, H.star)
    assert not all_axioms_pass(verify_hopf_axioms(broken))


@pytest.mark.parametrize("seed", [1, 5])
@pytest.mark.parametrize("height", [2, 3, 50, 10 ** 4])
def test_basis_changed_klein_bicharacter(height, seed):
    """The Klein bicharacter pulled back to Q[Klein] in a rational basis is
    still a cocycle, and twisting that group-like algebra by it changes
    nothing, so the twist has an exact oracle at any height."""
    K = group_algebra(klein_group())
    P = random_basis_change(4, height, seed)
    H = transport(K, P)
    iso = hopf_map(H, K, [{i: P[i][a] for i in range(4) if P[i][a]} for a in range(4)])
    sigma = pullback(klein_bicharacter(), iso)
    assert verify_cocycle(sigma)
    if height >= 50:
        assert H.M.dtype == object and H.C.dtype == object
    assert twist(H, sigma).structure_equal(H)

    rows = [list(r) for r in sigma.table]
    rows[0][0] += 1
    assert not verify_cocycle(Cocycle2.build(H, rows, sigma.inverse_table,
                                             sigma.star_corrector))
