"""Term-by-term Fraction references that the tests compare the package's
integer contractions with; nothing in the package calls them."""

from fractions import Fraction

from kleintwist.cocycle import Cocycle2
from kleintwist.hopf import Character, FDHopf, _q


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
