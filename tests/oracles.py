"""Term-by-term references that the tests compare the package's integer
contractions and its twisted monomial product with, the symbolic zero
test of the twisted models that its point-set zero test is compared
with, the dict-form builders of Q[G] and C(G) that its array builders
are compared with, the linear algebra of the recursive character
splitter, and the brute-force combinatorics (the term-by-term completion
formula, the every-g subgroup search, the byte-matched character group)
that the package's shortcuts are compared with; nothing in the package
calls them."""

from fractions import Fraction
from functools import lru_cache
from operator import add

import numpy as np

from kleintwist.cocycle import Cocycle2, klein_bicharacter
from kleintwist.hopf import Character, FDHopf, HopfMap, _q
from kleintwist.errors import ClosureFailure
from kleintwist.incseq import IncreasingSequence, matrix_rep
from kleintwist.perm import PermGroup, Permutation, _closure
from kleintwist.present import PresentationSpec, solve_characters
from kleintwist.ratlinalg import (RowSpace, _dot, _fit, _primitive, _rescale, _sub,
                                  first_relation)
from kleintwist.twistcalc import TwistedElement

_KLEIN_SIGNS = klein_bicharacter().table


def _n(q: Fraction):
    """q as an int when it is integral."""
    return _q(q.numerator, q.denominator)


def group_algebra(G: PermGroup) -> FDHopf:
    """Q[G] in dict form, one Permutation product per basis pair."""
    elems = G.sorted_elements()
    idx = {g: i for i, g in enumerate(elems)}
    n = len(elems)
    ident = Permutation.identity(G.degree)
    mult = {(i, j): {idx[elems[i] * elems[j]]: 1} for i in range(n) for j in range(n)}
    return FDHopf(
        dim=n,
        basis_labels=[g.cycle_string() for g in elems],
        unit={idx[ident]: 1},
        mult=mult,
        comult={i: [(i, i, 1)] for i in range(n)},
        counit=[1] * n,
        antipode={i: {idx[elems[i].inverse()]: 1} for i in range(n)},
        star={i: {idx[elems[i].inverse()]: 1} for i in range(n)},
    )


def function_algebra(G: PermGroup) -> FDHopf:
    """C(G) in dict form: delta(g) = sum over a of delta_a (x) delta_{a^-1 g}."""
    elems = G.sorted_elements()
    idx = {g: i for i, g in enumerate(elems)}
    n = len(elems)
    ident = Permutation.identity(G.degree)
    comult = {}
    for i, g in enumerate(elems):
        comult[i] = [(idx[a], idx[a.inverse() * g], 1) for a in elems]
    return FDHopf(
        dim=n,
        basis_labels=["d_" + g.cycle_string() for g in elems],
        unit={i: 1 for i in range(n)},
        mult={(i, i): {i: 1} for i in range(n)},
        comult=comult,
        counit=[1 if g == ident else 0 for g in elems],
        antipode={i: {idx[elems[i].inverse()]: 1} for i in range(n)},
        star={i: {i: 1} for i in range(n)},
    )


def hopf_map(source: FDHopf, target: FDHopf, images: list) -> HopfMap:
    """The map sending e_i to images[i], a vector {target index: int or
    Fraction}, given to HopfMap as its matrix over the scale 1."""
    P = np.zeros((len(images), target.dim), dtype=object)
    for i, v in enumerate(images):
        for p, c in v.items():
            P[i, p] = c
    return HopfMap(source, target, P, 1)


def first_difference(X: np.ndarray, Y: np.ndarray):
    """The first index, in row-major order, at which X and Y differ, or
    None: np.argwhere lists the differing indices in that order."""
    differ = np.argwhere(X != Y)
    return tuple(int(k) for k in differ[0]) if len(differ) else None


def evaluate(chi: Character, x: dict):
    """chi at the vector x = {basis index: coefficient}."""
    return _n(sum((a * chi.values[i] for i, a in x.items()), Fraction(0)))


def convolution(H: FDHopf, f: Character, g: Character) -> Character:
    """(f * g)(e_i) = sum f(e_a) g(e_b) over the coproduct terms of e_i."""
    values = []
    for i in range(H.dim):
        acc = Fraction(0)
        for (a, b, c) in H.comult[i]:
            acc += c * Fraction(f.values[a]) * Fraction(g.values[b])
        values.append(_n(acc))
    return Character(H, tuple(values))


def convolution_inverse(H: FDHopf, f: Character) -> Character:
    """f composed with the antipode."""
    values = []
    for i in range(H.dim):
        acc = Fraction(0)
        for w, c in H.antipode[i].items():
            acc += c * Fraction(f.values[w])
        values.append(_n(acc))
    return Character(H, tuple(values))


def cocycle_value(sigma: Cocycle2, x: dict, y: dict):
    """sigma(x, y) for vectors x and y, bilinear in both."""
    acc = Fraction(0)
    for i, a in x.items():
        for j, b in y.items():
            acc += a * b * sigma.table[i][j]
    return _n(acc)


def twisted_product(x: TwistedElement, y: TwistedElement) -> TwistedElement:
    """x y in a twisted coordinate model, bidegree pair by bidegree pair:
    components of bidegrees (g, h) and (g', h') multiply as commutative
    polynomials, times sigma(g, g') sigma(h, h') from the Klein
    bicharacter's table, filed under the bidegree (g, h) (g', h')."""
    if x.algebra != y.algebra:
        raise ValueError("mixed algebras")
    out = {}
    for d1, p1 in x.components.items():
        for d2, p2 in y.components.items():
            sign = _KLEIN_SIGNS[d1.left][d2.left] * _KLEIN_SIGNS[d1.right][d2.right]
            acc = out.setdefault(d1 * d2, {})
            for m1, c1 in p1.items():
                for m2, c2 in p2.items():
                    m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                    acc[m] = acc.get(m, 0) + sign * c1 * c2
    return TwistedElement(x.algebra, out)


# -- the symbolic zero test of the twisted models ---------------------------


def poly_mul(a: dict, b: dict) -> dict:
    """Commutative product of two sparse polynomials {exponent:
    coefficient}, cancelled terms dropped.  An exponent is a tuple (one
    entry per variable) or, for the one variable of the O(2) circle, an
    int."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2 if type(e1) is int else tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


# Circle parametrization c = (1-t^2)/(1+t^2), s = 2t/(1+t^2).  Branch 0
# is the rotation [[c,-s],[s,c]], branch 1 the reflection [[c,s],[s,-c]];
# each misses the single point t -> infinity, O2_MISSED[branch].
O2_NUMS = (
    ({2: -1, 0: 1}, {1: -2}, {1: 2}, {2: -1, 0: 1}),
    ({2: -1, 0: 1}, {1: 2}, {1: 2}, {2: 1, 0: -1}),
)
O2_MISSED = (((-1, 0), (0, -1)), ((-1, 0), (0, 1)))

# Unit quaternion rotation matrix; variables (a, b, c, d).
SO3_ENTRIES = (
    ({(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): -1, (0, 0, 0, 2): -1},
     {(0, 1, 1, 0): 2, (1, 0, 0, 1): -2},
     {(0, 1, 0, 1): 2, (1, 0, 1, 0): 2}),
    ({(0, 1, 1, 0): 2, (1, 0, 0, 1): 2},
     {(2, 0, 0, 0): 1, (0, 2, 0, 0): -1, (0, 0, 2, 0): 1, (0, 0, 0, 2): -1},
     {(0, 0, 1, 1): 2, (1, 1, 0, 0): -2}),
    ({(0, 1, 0, 1): 2, (1, 0, 1, 0): -2},
     {(0, 0, 1, 1): 2, (1, 1, 0, 0): 2},
     {(2, 0, 0, 0): 1, (0, 2, 0, 0): -1, (0, 0, 2, 0): -1, (0, 0, 0, 2): 1}),
)


@lru_cache(maxsize=None)
def qpow(k: int) -> tuple:
    """(1 + t^2)^k as a tuple of (exponent, coefficient)."""
    if k == 0:
        return ((0, 1),)
    prev = dict(qpow(k - 1))
    return tuple(sorted(poly_mul(prev, {0: 1, 2: 1}).items()))


@lru_cache(maxsize=None)
def subst_mono_o2(branch: int, mono: tuple) -> tuple:
    """Numerator polynomial in t of a generator monomial on the given
    O(2) branch, with its x-degree (the denominator is (1+t^2)^degree)."""
    acc = {0: 1}
    deg = 0
    for v, e in enumerate(mono):
        for _ in range(e):
            acc = poly_mul(acc, O2_NUMS[branch][v])
        deg += e
    return tuple(sorted(acc.items())), deg


def reduce_sphere(p: dict) -> dict:
    """Normal form modulo a^2 + b^2 + c^2 + d^2 = 1: every d^2 rewritten."""
    out: dict = {}
    work = list(p.items())
    while work:
        mono, c = work.pop()
        if mono[3] >= 2:
            a, b, cc, d = mono
            base = (a, b, cc, d - 2)
            work.append((base, c))
            work.append(((a + 2, b, cc, d - 2), -c))
            work.append(((a, b + 2, cc, d - 2), -c))
            work.append(((a, b, cc + 2, d - 2), -c))
        else:
            v = out.get(mono, 0) + c
            if v:
                out[mono] = v
            else:
                out.pop(mono, None)
    return out


@lru_cache(maxsize=None)
def subst_mono_so3(mono: tuple) -> tuple:
    """Sphere normal form of the quaternion substitution of a generator
    monomial.  A polynomial vanishing on the real sphere has zero normal
    form: the two square roots of d^2 separate its d-even and d-odd
    parts."""
    acc = {(0, 0, 0, 0): 1}
    for v, e in enumerate(mono):
        i, j = divmod(v, 3)
        for _ in range(e):
            acc = poly_mul(acc, SO3_ENTRIES[i][j])
    return tuple(sorted(reduce_sphere(acc).items()))


def o2_numerator(terms: dict, branch: int) -> dict:
    """The numerator on one circle branch of the polynomial {monomial:
    coefficient}, over (1+t^2) to the polynomial's own largest degree."""
    parts = [(*subst_mono_o2(branch, mono), c) for mono, c in terms.items()]
    dmax = max(deg for _, deg, _ in parts)
    acc = {}
    for numerator, deg, c in parts:
        for e1, c1 in numerator:
            for e2, c2 in qpow(dmax - deg):
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c * c1 * c2
    return {e: c for e, c in acc.items() if c}


def value_at(terms: dict, matrix: tuple):
    """The polynomial {monomial: coefficient} at a value matrix, the
    monomial's variables numbered row by row."""
    n = len(matrix)
    total = 0
    for mono, c in terms.items():
        val = c
        for v, e in enumerate(mono):
            if e:
                i, j = divmod(v, n)
                val *= matrix[i][j] ** e
        total += val
    return total


def is_zero_term_by_term(x: TwistedElement) -> bool:
    """Reference for is_zero: each element on its own, term by term
    through symbolic substitutions (SO(3) sphere normal form; O(2) both
    circle branches over the element's own largest degree, then the two
    missed points)."""
    total = {}
    for p in x.components.values():
        for mono, c in p.items():
            total[mono] = total.get(mono, 0) + c
    total = {m: c for m, c in total.items() if c}
    if not total:
        return True
    if x.algebra == "so3minus":
        acc = {}
        for mono, c in total.items():
            for m4, k in subst_mono_so3(mono):
                acc[m4] = acc.get(m4, 0) + c * k
        return not any(acc.values())
    if any(o2_numerator(total, branch) for branch in (0, 1)):
        return False
    return not any(value_at(total, point) for point in O2_MISSED)


def kernel(space: RowSpace) -> np.ndarray:
    """Primitive integer rows spanning {x : row . x = 0 for every row of
    space}, one per free column, in free-column order."""
    free = space.free
    K = np.zeros((len(free), space.width), dtype=object)
    K[np.arange(len(free)), free] = space.scale
    if space.pivots:
        W = _rescale(space.rows[:, free], space.cofactors()[:, None])
        K[:, space.pivots] = -W.T.astype(object)
    return _primitive(_fit(K))


def minimal_polynomial(A) -> list[int]:
    """Monic minimal polynomial of the square integer matrix A, integer
    coefficients in ascending degree order: the first power of A that
    depends on the powers before it, at width n^2."""
    A = _fit(A)
    powers, flats = RowSpace(A.size), [np.eye(len(A), dtype=np.int64)]
    while len(powers.extend(flats[-1].reshape(-1))):
        flats.append(_dot(flats[-1], A))
    return first_relation(np.array([P.reshape(-1) for P in flats], dtype=object))


def generalized_eigenspace(A, lam: int, k: int) -> np.ndarray:
    """Integer rows spanning {x : x (A - lam)^k = 0}, for a square integer
    matrix A acting on row vectors and an integer lam."""
    A = _fit(A)
    eye = np.eye(len(A), dtype=np.int64)
    N = _sub(A, _rescale(eye, lam))
    P = eye
    for _ in range(k):
        # each power's content is a positive factor: it leaves the kernel
        P = _dot(P, N)
        P = _fit(P // max(1, abs(int(np.gcd.reduce(P, axis=None)))))
    space = RowSpace(len(A))
    space.extend(P.T)          # x P = 0 exactly when x is orthogonal to P's columns
    return kernel(space)


def formula_matrix_term_by_term(s: IncreasingSequence, p00: int = 1) -> list[list[int]]:
    """Reference for incseq._formula_matrix: every telescoping sum
    evaluated term by term through the symbol p."""
    A = matrix_rep(s)
    k, n = s.k, s.n

    def p(i: int, j: int) -> int:
        if i == 0 and j == 0:
            return p00
        if 1 <= i <= n and 1 <= j <= k:
            return A[i, j]
        return 0

    U = [[0] * n for _ in range(n)]
    for j in range(1, k + 1):
        for i in range(1, n + 1):
            U[i - 1][j - 1] = p(i, j)
    for m in range(1, n - k + 1):
        for i in range(1, n + 1):
            if i < m or i > m + k:
                continue
            pp = i - m
            U[i - 1][k + m - 1] = sum(p(t, pp) - p(t + 1, pp + 1)
                                      for t in range(m + pp))
    return U


def all_subgroups_every_g(G: PermGroup) -> list[PermGroup]:
    """Reference for perm.all_subgroups: every known subgroup H extended
    by every g outside it."""
    if G.order > 48:
        raise ValueError(f"subgroup enumeration restricted to order <= 48, got {G.order}")
    ident = tuple(range(1, G.degree + 1))
    elems = sorted(G.images)
    trivial = frozenset({ident})
    found = {trivial}
    layer = [trivial]
    while layer:
        fresh = []
        for H in layer:
            for g in elems:
                if g in H:
                    continue
                K = _closure(G.degree, list(H) + [g])
                if K not in found:
                    found.add(K)
                    fresh.append(K)
        layer = fresh
    ordered = sorted(found, key=lambda S: (len(S), sorted(S)))
    return [PermGroup._from_images(G.degree, S) for S in ordered]


def character_group_by_bytes(p: PresentationSpec) -> PermGroup:
    """Reference for present.character_group_of: all products from one
    int64 contraction, each matched by its bytes in a dict."""
    sols = solve_characters(p)
    n = p.rows
    mats = np.array([s.matrix for s in sols], dtype=np.int64).reshape(len(sols), n, n)
    index = {m.tobytes(): i for i, m in enumerate(mats)}
    if np.eye(n, dtype=np.int64).tobytes() not in index:
        raise ClosureFailure("identity matrix is not a character")
    prods = np.einsum("aij,bjk->abik", mats, mats)
    perms = set()
    for m, row in zip(mats, prods):
        images = []
        for prod in row:
            pos = index.get(prod.tobytes())
            if pos is None:
                raise ClosureFailure("character product escapes the solution set")
            images.append(pos + 1)
        if m.T.tobytes() not in index:
            raise ClosureFailure("character inverse escapes the solution set")
        perms.add(Permutation(images))
    return PermGroup(len(mats), perms)
