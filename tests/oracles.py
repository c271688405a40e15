"""Term-by-term references that the tests compare the package's integer
contractions and its twisted monomial product with; nothing in the
package calls them."""

from fractions import Fraction

from kleintwist.cocycle import Cocycle2, klein_bicharacter
from kleintwist.hopf import Character, FDHopf, _q
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
