"""Term-by-term references that the tests compare the package's integer
contractions and its twisted monomial product with, and the linear
algebra of the recursive character splitter; nothing in the package
calls them."""

from fractions import Fraction

import numpy as np

from kleintwist.cocycle import Cocycle2, klein_bicharacter
from kleintwist.hopf import Character, FDHopf, _q
from kleintwist.ratlinalg import (RowSpace, _dot, _fit, _primitive, _rescale, _sub,
                                  first_relation)
from kleintwist.twistcalc import TwistedElement

_KLEIN_SIGNS = klein_bicharacter().table


def _n(q: Fraction):
    """q as an int when it is integral."""
    return _q(q.numerator, q.denominator)


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
