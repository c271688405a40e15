"""Character enumeration and the character group against independent
references, and the exact verifiers under rational changes of basis."""

import hashlib
import random
from fractions import Fraction

import pytest

from kleintwist.cocycle import (Cocycle2, build_s4tau, klein_bicharacter, pullback,
                                twist, verify_cocycle)
from kleintwist.errors import ClosureFailure, KleintwistError
from kleintwist.hopf import (Character, FDHopf, HopfMap, all_axioms_pass,
                             character_group, characters, convolution,
                             convolution_identity, convolution_inverse,
                             function_algebra, group_algebra, verify_hopf_axioms)
from kleintwist.perm import (PermGroup, Permutation, generate, isomorphism_type,
                             klein_group, symmetric_group)
from kleintwist.ratlinalg import invert

S3 = symmetric_group(3)
S4 = symmetric_group(4)
D4 = generate(4, [Permutation.from_cycles(4, [(1, 2, 3, 4)]),
                  Permutation.from_cycles(4, [(1, 3)])])


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


def test_non_semisimple_quotient():
    """Q[x]/(x^2) x Q in the basis (e1 + x, x, e2), multiplication only:
    the operator of e1 + x has minimal polynomial x (x - 1)^2, so its
    generalized eigenspace for 1 needs the square of (R - 1)."""
    mult = {(0, 0): {0: 1, 1: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (2, 2): {2: 1}}
    H = FDHopf(3, ["e1+x", "x", "e2"], {0: 1, 1: -1, 2: 1}, mult,
               {i: [] for i in range(3)}, [0, 0, 0], {i: {} for i in range(3)},
               {i: {i: 1} for i in range(3)})
    assert [ch.values for ch in characters(H)] == [(0, 0, 1), (1, 0, 0)]


@pytest.mark.parametrize("key,product,message", [
    ((0, 0), {0: 2}, r"character fails chi\(1\) = 1"),
    ((1, 1), {1: 1, 2: 1}, "block not invariant under multiplication"),
], ids=["unit", "invariance"])
def test_broken_multiplication_refused(key, product, message):
    H = function_algebra(S3)
    broken = FDHopf(H.dim, H.basis_labels, H.unit, {**H.mult, key: product},
                    H.comult, H.counit, H.antipode, H.star)
    with pytest.raises(KleintwistError, match=message):
        characters(broken)


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
@pytest.mark.parametrize("height", [2, 3, 50])
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


@pytest.mark.parametrize("seed", [1, 5])
@pytest.mark.parametrize("height", [2, 3, 50, 10 ** 4])
def test_basis_changed_klein_bicharacter(height, seed):
    """The Klein bicharacter pulled back to Q[Klein] in a rational basis is
    still a cocycle, and twisting that group-like algebra by it changes
    nothing, so the twist has an exact oracle at any height."""
    K = group_algebra(klein_group())
    P = random_basis_change(4, height, seed)
    H = transport(K, P)
    iso = HopfMap(H, K, [{i: P[i][a] for i in range(4) if P[i][a]} for a in range(4)])
    sigma = pullback(klein_bicharacter(), iso)
    assert verify_cocycle(sigma)
    if height >= 50:
        assert H.M.dtype == object and H.C.dtype == object
    assert twist(H, sigma).structure_equal(H)

    rows = [list(r) for r in sigma.table]
    rows[0][0] += 1
    assert not verify_cocycle(Cocycle2.build(H, rows, sigma.inverse_table,
                                             sigma.star_corrector))
