"""Exact calculations in twisted coordinate models.

The twisted function algebras of the 2x2 and 3x3 presentations are
modeled on the classical coordinate rings: a TwistedElement is an
ordinary commutative polynomial in the matrix entries, one {monomial:
coefficient} map.  A monomial's Klein bidegree is a function of the
monomial, so the twisted product multiplies monomial by monomial: the
exponent sum with the bicharacter sign of the two bidegrees.

An element is zero exactly when its underlying polynomial vanishes on
every real point of the classical group, which both models decide by one
rule: a polynomial of degree at most D, brought to degree D by a power
of the norm, is evaluated at a fixed set of integer points, enough to
determine a polynomial of the degree 2D that results in the point
coordinates (O(2): t = 0..2D on the rotation and the reflection branch
of the circle parametrization; SO(3): the quaternions (1, b, c, d) with
b + c + d <= 2D).  is_zero and _first_nonzero apply it to rows over the
monomials: each monomial gets its row of point values (the zero map),
and one exact matrix product shows the first row that does not vanish.

A presentation is checked from point values (verify_twisted_presentation).
Each generator entry is split by Klein bidegree, and each piece is
evaluated once at the grid, homogenised to the largest degree e of the
entries.  Evaluation at a point is a ring map on the commutative
polynomials, and the twisted product of two pieces is their commutative
product times the bicharacter sign of their two bidegrees, so the values
of a product of entries are sums of signed products of the pieces'
values: exactly the values of that product, homogenised to 2e (3e for a
triple).  Every relation is a fixed integer combination of such
products, and the grid of its own degree determines it, so it holds
exactly when its values there are zero.  Characters are evaluated the
same way, through a (monomial x character) table of signed products of
the value matrix's entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import add, mul

import numpy as np

from .cocycle import klein_bicharacter
from .errors import (CharacterActionMismatch, CountMismatch, NotASubgroup,
                     RelationFailure)
from .hopf import _tier
from .incseq import generated_completion_group
from .perm import (PermGroup, Permutation, are_conjugate, as_subgroup,
                   generate, klein_group, symmetric_group)
from .present import (KLEIN_PRODUCT, Bidegree, O2Minus, SO3Minus,
                      solve_characters)
from .ratlinalg import _fit, _max_abs

_SIGMA = klein_bicharacter().table
_SIZES = {"o2minus": 2, "so3minus": 3}


# -- signed matrices ----------------------------------------------------


@dataclass(frozen=True)
class SignedMatrix:
    """Small square integer matrix; the ones that matter here are the
    signed permutation matrices acting on the twisted presentations."""

    rows: tuple

    def __post_init__(self):
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square")

    @property
    def size(self) -> int:
        return len(self.rows)

    def __mul__(self, other: "SignedMatrix") -> "SignedMatrix":
        cols = tuple(zip(*other.rows))
        return SignedMatrix(tuple(tuple(sum(map(mul, r, c)) for c in cols)
                                  for r in self.rows))

    def __neg__(self) -> "SignedMatrix":
        return SignedMatrix(tuple(tuple(-v for v in r) for r in self.rows))

    def transpose(self) -> "SignedMatrix":
        n = self.size
        return SignedMatrix(tuple(tuple(self.rows[j][i] for j in range(n))
                                  for i in range(n)))

    def det(self) -> int:
        r = self.rows
        if self.size == 2:
            return r[0][0] * r[1][1] - r[0][1] * r[1][0]
        if self.size == 3:
            return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
                    - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
                    + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))
        raise ValueError("determinant implemented for sizes 2 and 3")

    def is_signed_permutation(self) -> bool:
        n = self.size
        for r in self.rows:
            if sum(abs(v) for v in r) != 1 or any(abs(v) > 1 for v in r):
                return False
        for j in range(n):
            if sum(abs(self.rows[i][j]) for i in range(n)) != 1:
                return False
        return True

    def __lt__(self, other: "SignedMatrix") -> bool:
        return self.rows < other.rows


def all_signed_permutations(n: int) -> list:
    """All 2^n n! signed permutation matrices of size n, sorted."""
    out = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            rows = tuple(tuple(signs[i] if perm[i] == j else 0 for j in range(n))
                         for i in range(n))
            out.append(SignedMatrix(rows))
    return sorted(out)


# -- the three-dimensional sign representation --------------------------

_SIGN_VECTORS = ((1, -1, -1, 1), (1, -1, 1, -1), (1, 1, -1, -1))


@lru_cache(maxsize=None)
def rho(x: Permutation) -> SignedMatrix:
    """Matrix of the coordinate-permutation action on the span of the
    three even sign vectors; a group homomorphism from S4 onto the
    signed permutation matrices with entry product +1, with
    det rho(x) = sgn(x)."""
    if x.degree != 4:
        raise ValueError("rho is defined on degree-4 permutations")
    xi = x.inverse()
    rows = []
    for k in range(3):
        row = []
        for l in range(3):
            s = sum(_SIGN_VECTORS[k][i - 1] * _SIGN_VECTORS[l][xi(i) - 1]
                    for i in (1, 2, 3, 4))
            row.append(s // 4)
        rows.append(tuple(row))
    return SignedMatrix(tuple(rows))


def rho_image() -> dict:
    """rho(x) for all x in S4, keyed by the permutation."""
    return {x: rho(x) for x in symmetric_group(4).sorted_elements()}


def klein_diag_matrices() -> list:
    """Images of the diagonal Klein subgroup: the identity and the three
    diagonal sign matrices with two entries -1."""
    return [rho(v) for v in klein_group().sorted_elements()]


def klein_normalizer_so3() -> list:
    """Elements of SO(3) normalizing the diagonal Klein image.

    Conjugation permutes the common eigenlines of the diagonal
    involutions, so a normalizing rotation must be monomial; the search
    space is therefore the 48 signed permutation matrices, filtered by
    determinant 1 and the conjugation-stability condition.  Anything but
    24 survivors raises CountMismatch."""
    dset = {m.rows for m in klein_diag_matrices()}
    out = []
    for F in all_signed_permutations(3):
        if F.det() != 1:
            continue
        ft = F.transpose()
        conj = {(F * SignedMatrix(d) * ft).rows for d in dset}
        if conj == dset:
            out.append(F)
    if len(out) != 24:
        raise CountMismatch(f"normalizer has {len(out)} elements, expected 24")
    return out


# -- sparse polynomials over the generator grid -------------------------


def _pair_sign(left1: int, right1: int, left2: int, right2: int) -> int:
    """Bicharacter sign sigma(g,g') sigma(h,h') of the twisted product of
    bidegrees (g,h) and (g',h'); every product sign is read here."""
    return _SIGMA[left1][left2] * _SIGMA[right1][right2]


@lru_cache(maxsize=None)
def _mono_bidegree(alg: str, mono: tuple) -> tuple:
    n = _SIZES[alg]
    left = right = 0
    for v, e in enumerate(mono):
        if e % 2:
            i, j = divmod(v, n)
            left = KLEIN_PRODUCT[left][i + 1]
            right = KLEIN_PRODUCT[right][j + 1]
    return left, right


@lru_cache(maxsize=None)
def _mono_mul(alg: str, m1: tuple, m2: tuple) -> tuple:
    """Twisted product of two generator monomials: the exponent sum and
    the sign of their bidegrees (a monomial's bidegree is a function of
    the monomial)."""
    return (tuple(map(add, m1, m2)),
            _pair_sign(*_mono_bidegree(alg, m1), *_mono_bidegree(alg, m2)))


class TwistedElement:
    """Element of a twisted coordinate model, stored as terms: one
    {monomial: coefficient} map over the generator grid, with no zero
    coefficients.  A monomial's Klein bidegree is a function of the
    monomial, so the split by bidegree is a view (components).  The
    constructor takes that split and refuses a nonzero term filed under
    a bidegree that is not its own."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: str, components: dict):
        if algebra not in _SIZES:
            raise ValueError(f"unknown algebra tag {algebra!r}")
        terms = {}
        for d, p in components.items():
            for m, c in p.items():
                if not c:
                    continue
                if _mono_bidegree(algebra, m) != (d.left, d.right):
                    raise ValueError(f"monomial {m} is not homogeneous of bidegree {d}")
                terms[m] = c
        self.algebra = algebra
        self.terms = terms

    @classmethod
    def _make(cls, algebra: str, terms: dict) -> "TwistedElement":
        """Constructor for the operations, which build terms without zero
        coefficients: no re-check."""
        self = object.__new__(cls)
        self.algebra = algebra
        self.terms = terms
        return self

    @property
    def components(self) -> dict:
        """The terms filed by Klein bidegree, {Bidegree: {monomial:
        coefficient}}; a new dict on every read."""
        out: dict = {}
        for m, c in self.terms.items():
            out.setdefault(Bidegree(*_mono_bidegree(self.algebra, m)), {})[m] = c
        return out

    @staticmethod
    def zero(algebra: str) -> "TwistedElement":
        return TwistedElement(algebra, {})

    @staticmethod
    def one(algebra: str) -> "TwistedElement":
        n = _SIZES[algebra]
        return TwistedElement(algebra, {Bidegree(0, 0): {(0,) * (n * n): 1}})

    @staticmethod
    def generator(algebra: str, i: int, j: int) -> "TwistedElement":
        n = _SIZES[algebra]
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError("generator indices out of range")
        mono = [0] * (n * n)
        mono[(i - 1) * n + (j - 1)] = 1
        return TwistedElement._make(algebra, {tuple(mono): 1})    # of bidegree (i, j)

    def _plus(self, other: "TwistedElement", scale) -> "TwistedElement":
        if self.algebra != other.algebra:
            raise ValueError("mixed algebras")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c * scale
        return TwistedElement._make(self.algebra, {m: c for m, c in terms.items() if c})

    def __add__(self, other: "TwistedElement") -> "TwistedElement":
        return self._plus(other, 1)

    def __sub__(self, other: "TwistedElement") -> "TwistedElement":
        return self._plus(other, -1)

    def scale(self, c) -> "TwistedElement":
        if not c:
            return TwistedElement.zero(self.algebra)
        return TwistedElement._make(self.algebra, {m: cf * c for m, cf in self.terms.items()})

    def __mul__(self, other: "TwistedElement") -> "TwistedElement":
        return twisted_mul(self, other)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TwistedElement)
                and self.algebra == other.algebra
                and self.terms == other.terms)

    def __hash__(self):
        raise TypeError("TwistedElement is not hashable")

    def __repr__(self) -> str:
        bidegrees = len({_mono_bidegree(self.algebra, m) for m in self.terms})
        return f"TwistedElement({self.algebra}, {bidegrees} bidegrees, {len(self.terms)} terms)"


def twisted_mul(x: TwistedElement, y: TwistedElement) -> TwistedElement:
    """Product monomial by monomial: two monomials multiply to their
    exponent sum times sigma(g,g') sigma(h,h') for their bidegrees (g,h)
    and (g',h'); cancelled terms are dropped."""
    if x.algebra != y.algebra:
        raise ValueError("mixed algebras")
    out: dict = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            m, s = _mono_mul(x.algebra, m1, m2)
            out[m] = out.get(m, 0) + s * c1 * c2
    return TwistedElement._make(x.algebra, {m: c for m, c in out.items() if c})


def generator_matrix(algebra: str) -> tuple:
    n = _SIZES[algebra]
    return tuple(tuple(TwistedElement.generator(algebra, i, j)
                       for j in range(1, n + 1)) for i in range(1, n + 1))


@lru_cache(maxsize=None)
def _rho_positions(x: Permutation, transposed: bool = False) -> tuple:
    """(k, R[i][k]) for the one nonzero entry of each row i of the signed
    permutation matrix R = rho(x), or its transpose; found once per
    permutation, like rho(x) itself."""
    R = rho(x).transpose() if transposed else rho(x)
    if not R.is_signed_permutation():
        raise ValueError("substitution matrix must be a signed permutation")
    return tuple(next((k, v) for k, v in enumerate(row) if v) for row in R.rows)


def _conjugated(where: tuple, block: tuple) -> tuple:
    """R block R^T for R given by _rho_positions, over a block of model
    elements: entry (i, j) is R[i][k] R[j][l] block[k][l]."""
    return tuple(tuple(block[k][l].scale(u * v) for l, v in where) for k, u in where)


# -- exact zero test on the classical group -----------------------------


def _grid(alg: str, top: int) -> tuple:
    """The free coordinates of the test points: t = 0..top for O(2), the
    triples (b, c, d) of naturals with b + c + d <= top for SO(3)."""
    if alg == "o2minus":
        return tuple(range(top + 1))
    return tuple(p for p in itertools.product(range(top + 1), repeat=3) if sum(p) <= top)


@lru_cache(maxsize=None)
def _mono_factors(alg: str, mono: tuple) -> tuple:
    """A monomial as its character sign and its (row, column, exponent)
    factors.  A commutative monomial stands for the sign times the
    star-ordered monomial."""
    n = _SIZES[alg]
    left = right = 0
    sign = 1
    factors = []
    for v, e in enumerate(mono):
        if not e:
            continue
        i, j = divmod(v, n)
        factors.append((i, j, e))
        for _ in range(e):
            sign *= _pair_sign(left, right, i + 1, j + 1)
            left = KLEIN_PRODUCT[left][i + 1]
            right = KLEIN_PRODUCT[right][j + 1]
    return sign, tuple(factors)


def _eval_factors(factors: tuple, matrix: tuple):
    val = 1
    for i, j, e in factors:
        val *= matrix[i][j] ** e
    return val


@lru_cache(maxsize=None)
def _point_matrices(alg: str, degree: int) -> tuple:
    """(norm N, integer matrix X) at every point of _grid(alg, 2 degree):
    X / N lies on the classical group.  O(2): the rotation [[c, -s], [s,
    c]] and the reflection [[c, s], [s, -c]] of c = 1 - t^2, s = 2t, over
    N = 1 + t^2.  SO(3): the rotation of the quaternion (1, b, c, d), with
    quadratic entries over N = 1 + b^2 + c^2 + d^2."""
    out = []
    for p in _grid(alg, 2 * degree):
        if alg == "o2minus":
            c, s = 1 - p * p, 2 * p
            out += [(1 + p * p, ((c, -s), (s, c))), (1 + p * p, ((c, s), (s, -c)))]
            continue
        b, c, d = p
        out.append((1 + b * b + c * c + d * d,
                    ((1 + b * b - c * c - d * d, 2 * (b * c - d), 2 * (b * d + c)),
                     (2 * (b * c + d), 1 - b * b + c * c - d * d, 2 * (c * d - b)),
                     (2 * (b * d - c), 2 * (c * d + b), 1 - b * b - c * c + d * d))))
    return tuple(out)


@lru_cache(maxsize=None)
def _zero_map_row(alg: str, mono: tuple, degree: int, top: int = None) -> tuple:
    """Row of the zero map for one generator monomial of a system of the
    given degree, and its largest |entry|: the monomial homogenised to
    that degree by a power of the norm, N^(degree - deg) X^mono, at every
    point of _point_matrices(alg, top) (default: the degree), in the
    narrowest integer dtype."""
    factors = _mono_factors(alg, mono)[1]
    row = _fit([norm ** (degree - sum(mono)) * _eval_factors(factors, X)
                for norm, X in _point_matrices(alg, degree if top is None else top)])
    row.flags.writeable = False                 # shared through the cache
    return row, _max_abs(row)


def _integer_row(row: dict) -> dict:
    """The row times the least common denominator of its coefficients
    (the same zero set)."""
    row = {m: Fraction(c) for m, c in row.items()}
    den = lcm(*(c.denominator for c in row.values()))
    return {m: int(c * den) for m, c in row.items()}


def _first_nonzero(alg: str, rows: list):
    """Index of the first row, a {monomial: coefficient} map, whose
    polynomial does not vanish on the real points of the classical group
    behind the model; None when all of them vanish.

    Let D be the largest degree of a support monomial.  Each monomial m
    gets the row Z[m] of the zero map (_zero_map_row): its values,
    homogenised to degree D, at the points of _point_matrices.  A row's
    combination F = N^D f(X / N) is a polynomial of degree at most 2D in
    the grid coordinates, and the grid determines such a polynomial: 2D+1
    values of t, or the simplex b + c + d <= 2D (F = F|d=0 + d G by
    induction on 2D).  So F vanishes on the grid exactly when it is the
    zero polynomial; F is homogeneous, the quaternion rotation is onto
    SO(3), and the two matrices of O(2) that no t reaches are limits of
    the branches, so that is exactly when f vanishes on the group.  The
    system is tested by one exact product rows @ Z.  Its bound, the
    largest entries of both sides times the number of monomials, bounds
    every product and partial sum and picks the tier as in
    hopf._safe_einsum: float64 (BLAS) below 2^53, then int64, then exact
    Python ints."""
    if not all(type(c) is int for row in rows for c in row.values()):
        rows = [_integer_row(row) for row in rows]
    support = {}
    r_rows, r_cols, r_values = [], [], []
    for r, row in enumerate(rows):
        for m, c in row.items():
            if c:
                r_rows.append(r)
                r_cols.append(support.setdefault(m, len(support)))
                r_values.append(c)
    if not support:
        return None
    degree = max(map(sum, support))
    zero_map = [_zero_map_row(alg, m, degree) for m in support]
    bound = max(map(abs, r_values)) * max(peak for _, peak in zero_map) * len(support)
    dtype = _tier(bound)
    R = np.zeros((len(rows), len(support)), dtype=dtype)
    R[r_rows, r_cols] = r_values
    Z = np.stack([row for row, _ in zero_map]).astype(dtype, copy=False)
    bad = np.flatnonzero((R @ Z != 0).any(axis=1))
    return int(bad[0]) if bad.size else None


def is_zero(x: TwistedElement) -> bool:
    """Exact test: does the element vanish identically on the real
    points of the classical group behind the model?  Decided on the
    integer point set of its own largest degree (_first_nonzero)."""
    return _first_nonzero(x.algebra, [x.terms]) is None


# -- presentations in the model ------------------------------------------

# Bidegrees (left, right) coded as 4 left + right: the sign sigma(g, h) of
# the twisted product of a piece of bidegree g and one of bidegree h, and
# the bidegree g h of that product.
_CODE_SIGN = np.array([[_pair_sign(g >> 2, g & 3, h >> 2, h & 3) for h in range(16)]
                       for g in range(16)], dtype=np.int64)
_CODE_PRODUCT = np.array([[4 * KLEIN_PRODUCT[g >> 2][h >> 2] + KLEIN_PRODUCT[g & 3][h & 3]
                           for h in range(16)] for g in range(16)], dtype=np.int64)


@lru_cache(maxsize=None)
def _relation_table(kind: str) -> tuple:
    """The defining relations of a presentation, in order: (ids, then for
    the quadratic ones the product indices, the coefficients and the rows
    with constant 1, then the det triples).  A quadratic relation is a
    fixed sparse integer combination of the n^4 entry products, entry a
    times entry b at index a n^2 + b (entries numbered row by row), minus
    its constant, 0 or 1; row r of the index and coefficient arrays holds
    its n terms, padded with coefficient 0.  det, the last id of
    so3minus, is the sum of the triple products (entries[t1],
    entries[n + t2], entries[2n + t3]) over the permutations t, minus 1."""
    n = _SIZES[kind]
    nn = n * n
    ids, index, coefficient, constant = [], [], [], []

    def relation(rel_id: str, terms, delta: int = 0):
        terms += [(0, 0)] * (n - len(terms))
        ids.append(rel_id)
        constant.append(delta)
        coefficient.append([c for c, _ in terms])
        index.append([p for _, p in terms])

    for i in range(n):
        for j in range(n):
            relation(f"orth-row-{i + 1}{j + 1}",
                     [(1, (i * n + k) * nn + j * n + k) for k in range(n)], int(i == j))
            relation(f"orth-col-{i + 1}{j + 1}",
                     [(1, (k * n + i) * nn + k * n + j) for k in range(n)], int(i == j))
    bidegrees = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for a, (i, j) in enumerate(bidegrees):
        for b, (k, l) in enumerate(bidegrees):
            s = _pair_sign(i, j, k, l) * _pair_sign(k, l, i, j)
            relation(f"comm-{i}{j}-{k}{l}", [(1, a * nn + b), (-s, b * nn + a)])
    triples = ()
    if kind == "so3minus":
        ids.append("det")
        triples = tuple((t1, n + t2, 2 * n + t3)
                        for t1, t2, t3 in itertools.permutations(range(n)))
    return tuple(ids), np.array(index), np.array(coefficient), np.flatnonzero(constant), triples


@lru_cache(maxsize=None)
def _grid_table(alg: str, monos: tuple, degree: int, top: int) -> np.ndarray:
    """The zero-map rows of the monomials, homogenised to the degree, then
    the row of N^top, all at the points of _point_matrices(alg, top)."""
    rows = [_zero_map_row(alg, m, degree, top)[0] for m in monos]
    rows.append(_zero_map_row(alg, (0,) * (_SIZES[alg] ** 2), top, top)[0])
    table = np.stack(rows)
    table.flags.writeable = False               # shared through the cache
    return table


def _presentation_values(kind: str, alg: str, entries: list) -> list:
    """Every relation of the presentation on the generator entries, one
    row each in _relation_table order: its value, homogenised, at every
    point of a grid of the model alg that determines it.  The rows come
    as blocks that share a grid: the quadratic relations, then det.

    Each entry is split by Klein bidegree, and every piece is evaluated
    homogenised to the largest degree e of any entry's monomial.  The
    twisted product of pieces of bidegrees g and h is sigma(g, h) times
    their commutative product, and evaluation at a point is a ring map on
    commutative polynomials, so the values of entry a times entry b are
    sum sigma(g, h) V_ag V_bh over their pieces: the value of the product
    homogenised to 2e.  A quadratic relation's value is its fixed
    combination of these minus its constant times N^2e, a polynomial of
    degree 4e in the grid coordinates, so it is taken at the points of
    _point_matrices(alg, 2e), which determine such a polynomial (see
    _first_nonzero).  The det triples take sigma(g, h) sigma(gh, k) and
    the constant N^3e at the points of _point_matrices(alg, 3e).
    Fraction coefficients are first cleared by one common denominator L,
    the constants scaled by L^2 and L^3 to match.  Every value and
    partial sum is at most (n! + 1) max(L, |entry|)^k Nmax^ke, k = 3 with
    det and 2 without, where |entry| is the largest sum of an entry's
    cleared absolute coefficients and Nmax the largest norm of the larger
    grid (|X_ij| <= N on the group): a relation has at most n! terms and
    a constant.  That bound picks the dtype, as in hopf._safe_einsum."""
    ids, index, coefficient, unit_rows, triples = _relation_table(kind)
    n = _SIZES[kind]
    nn = n * n
    pieces, monos, first = {}, {}, []      # pieces are numbered entry by entry
    rows, cols, values = [], [], []
    e = size = 0
    for a, x in enumerate(entries):
        if x.terms:
            first.append(len(pieces))
        for m, c in x.terms.items():
            left, right = _mono_bidegree(alg, m)
            rows.append(pieces.setdefault((a, 4 * left + right), len(pieces)))
            cols.append(monos.setdefault(m, len(monos)))
            values.append(c)
            e = max(e, sum(m))
        size = max(size, sum(map(abs, x.terms.values())))
    L = 1
    if not all(type(c) is int for c in values):
        L = lcm(*(Fraction(c).denominator for c in values))
        values = [int(Fraction(c) * L) for c in values]
    k = 3 if triples else 2
    unit = (0,) * (_SIZES[alg] ** 2)
    nmax = _zero_map_row(alg, unit, 1, k * e)[1]
    dtype = _tier((factorial(n) + 1) * max(L, int(size * L)) ** k * nmax ** (k * e))
    C = np.zeros((len(pieces), len(monos)), dtype=dtype)
    C[rows, cols] = values
    code = np.array([g for _, g in pieces], dtype=np.intp)
    monos = tuple(monos)

    def at_grid(top: int) -> tuple:
        """The pieces' values and N^top at the points of _point_matrices(alg, top)."""
        T = _grid_table(alg, monos, e, top).astype(dtype, copy=False)
        return C @ T[:-1], T[-1]

    V, norm = at_grid(2 * e)
    # the pair products piece by piece, summed over the pieces of each entry
    signed = np.einsum("ip,jp,ij->ijp", V, V, _CODE_SIGN[code[:, None], code].astype(dtype))
    single = len(first) == len(pieces) == nn     # one piece per entry
    if single:
        products = signed
    else:
        if len(first) < len(pieces):
            signed = np.add.reduceat(np.add.reduceat(signed, first, axis=0), first, axis=1)
        present = np.array([a for a, x in enumerate(entries) if x.terms], dtype=np.intp)
        products = np.zeros((nn, nn, len(norm)), dtype=dtype)
        products[present[:, None], present] = signed
    out = np.einsum("rtp,rt->rp", products.reshape(nn * nn, -1)[index], coefficient.astype(dtype))
    out[unit_rows] -= L ** 2 * norm
    if not triples:
        return [out]
    V, norm = at_grid(3 * e)
    picks = triples
    if not single:
        of_entry: dict = {}
        for (a, _), p in pieces.items():
            of_entry.setdefault(a, []).append(p)
        picks = [q for t in triples for q in itertools.product(*(of_entry.get(a, ()) for a in t))]
    i, j, l = np.array(picks, dtype=np.intp).reshape(-1, 3).T
    sign = _CODE_SIGN[code[i], code[j]] * _CODE_SIGN[_CODE_PRODUCT[code[i], code[j]], code[l]]
    det = (sign.astype(dtype)[:, None] * V[i] * V[j] * V[l]).sum(axis=0) - L ** 3 * norm
    return [out, det[None, :]]


def verify_twisted_presentation(kind: str, gens: tuple = None) -> list:
    """Check every defining relation of the named presentation against a
    generator matrix of model elements (default: the canonical one).
    Raises RelationFailure naming the first violated relation; returns
    the list of relation ids.

    The relations are read from the generators' values at the points of
    the model's grid (_presentation_values), all at once: a relation
    holds exactly when its homogenised value vanishes at every point,
    which the grid decides as in _first_nonzero."""
    if kind not in _SIZES:
        raise ValueError(f"unknown presentation kind {kind!r}")
    n = _SIZES[kind]
    if gens is None:
        gens = generator_matrix(kind)
    entries = [gens[i][j] for i in range(n) for j in range(n)]
    alg = entries[0].algebra
    if any(e.algebra != alg for e in entries):
        raise ValueError("mixed algebras")
    ids = _relation_table(kind)[0]
    values = _presentation_values(kind, alg, entries)
    bad = np.flatnonzero(np.concatenate([v.any(axis=1) for v in values]))
    if bad.size:
        raise RelationFailure(f"relation {ids[bad[0]]} does not vanish")
    return list(ids)


def _character_table(alg: str, monos: tuple, matrices: tuple) -> np.ndarray:
    """T[k, s], the value of the monomial monos[k] at the character with
    value matrix matrices[s].  A commutative monomial stands for the sign
    times the star-ordered monomial, so the value is that sign times the
    product of the entry values (_mono_factors); narrowest integer
    dtype."""
    return _fit(np.array([[sign * _eval_factors(factors, m) for m in matrices]
                          for sign, factors in (_mono_factors(alg, mono) for mono in monos)],
                         dtype=object).reshape(len(monos), len(matrices)))


def character_value(x: TwistedElement, matrix: tuple):
    """Evaluate a character, given by its value matrix on the generators,
    on a model element: the one-character case of _character_table,
    summed in Python ints unless a coefficient is a Fraction; an integer
    value is returned as an int."""
    row = _character_table(x.algebra, tuple(x.terms), (matrix,))[:, 0].tolist()
    total = sum(map(mul, x.terms.values(), row))
    return int(total) if total.denominator == 1 else total


# -- automorphisms of the 3x3 model --------------------------------------


@lru_cache(maxsize=None)
def _so3_solution_matrices() -> tuple:
    return tuple(s.matrix for s in solve_characters(SO3Minus()))


@lru_cache(maxsize=None)
def _o2_solution_matrices() -> tuple:
    return tuple(s.matrix for s in solve_characters(O2Minus()))


@lru_cache(maxsize=None)
def _so3_solution_lookup() -> tuple:
    """The 24 so3minus character matrices as one read-only int64 array,
    and the index of each by its bytes."""
    mats = np.array(_so3_solution_matrices(), dtype=np.int64)
    mats.flags.writeable = False
    return mats, {m.tobytes(): i for i, m in enumerate(mats)}


@lru_cache(maxsize=None)
def _so3_character_table(monos: tuple) -> np.ndarray:
    """_character_table of the monomials at the 24 so3minus characters,
    shared read-only."""
    table = _character_table("so3minus", monos, _so3_solution_matrices())
    table.flags.writeable = False
    return table


def automorphism_check(x: Permutation) -> Permutation:
    """Substitute b_ij = sum_kl rho(x)_ki rho(x)_lj a_kl, check that the
    b generators satisfy every defining relation, and return the induced
    permutation of the 24 character matrices (M -> rho(x)^T M rho(x)).
    CharacterActionMismatch when the action fails to permute the
    character set or disagrees with direct evaluation, which is one
    integer product: the b entries' coefficients over their monomials
    times the (monomial x character) table."""
    where = _rho_positions(x, transposed=True)
    B = _conjugated(where, generator_matrix("so3minus"))
    verify_twisted_presentation("so3minus", B)

    sols, index = _so3_solution_lookup()
    perm, signs = zip(*where)
    images = sols[:, perm][:, :, perm] * np.multiply.outer(signs, signs)
    positions = [index.get(img.tobytes()) for img in images]
    if None in positions:
        raise CharacterActionMismatch("conjugated character matrix leaves the solution set")
    entries = [B[i][j].terms for i in range(3) for j in range(3)]
    monos = tuple(sorted({m for t in entries for m in t}))
    column = {m: c for c, m in enumerate(monos)}
    rows, cols, coefficients = zip(*((r, column[m], c) for r, t in enumerate(entries)
                                     for m, c in t.items()))
    table = _so3_character_table(monos)
    dtype = _tier(max(map(abs, coefficients)) * _max_abs(table) * len(monos))
    C = np.zeros((9, len(monos)), dtype=dtype)
    C[rows, cols] = coefficients
    wrong = np.flatnonzero((C @ table.astype(dtype, copy=False)).T != images.reshape(-1, 9))
    if wrong.size:
        i, j = divmod(int(wrong[0]) % 9, 3)
        raise CharacterActionMismatch(f"direct evaluation disagrees at entry ({i + 1},{j + 1})")
    try:
        return Permutation([pos + 1 for pos in positions])
    except ValueError as exc:
        raise CharacterActionMismatch(f"action is not a bijection: {exc}") from exc


def all_automorphism_actions() -> dict:
    """automorphism_check for every x in S4; the 24 actions are pairwise
    distinct (checked)."""
    out = {}
    for x in symmetric_group(4).sorted_elements():
        out[x] = automorphism_check(x)
    if len(set(out.values())) != 24:
        raise CharacterActionMismatch("automorphism actions are not distinct")
    return out


# -- the 2x2 model inside the 3x3 model -----------------------------------


def phi_embedding(x: Permutation) -> tuple:
    """Images of the 3x3 generators inside the 2x2 model: the block
    matrix of the 2x2 generators with the bidegree-(3,3) determinant
    element in the corner, conjugated by rho(x).  Every defining 3x3
    relation is verified in the 2x2 model before returning."""
    g = generator_matrix("o2minus")
    corner = twisted_mul(g[0][0], g[1][1]) + twisted_mul(g[0][1], g[1][0])
    zero = TwistedElement.zero("o2minus")
    block = (
        (g[0][0], g[0][1], zero),
        (g[1][0], g[1][1], zero),
        (zero, zero, corner),
    )
    E = _conjugated(_rho_positions(x), block)
    verify_twisted_presentation("so3minus", E)
    return E


def embedding_character_images() -> list:
    """Evaluate the embedded generator matrix at all eight 2x2 characters
    for every x in S4.  Each x yields an eight-element subset of the 24
    3x3 character matrices; the distinct subsets are returned sorted.
    NotASubgroup if a value matrix escapes the solution set or a subset
    is not closed under the character product."""
    sols, index = _so3_solution_lookup()
    blocks = np.array([((m[0][0], m[0][1], 0),
                        (m[1][0], m[1][1], 0),
                        (0, 0, m[0][0] * m[1][1] + m[0][1] * m[1][0]))
                       for m in _o2_solution_matrices()], dtype=np.int64)
    found = set()
    for x in symmetric_group(4).sorted_elements():
        perm, signs = zip(*_rho_positions(x))
        images = blocks[:, perm][:, :, perm] * np.multiply.outer(signs, signs)
        positions = frozenset(index.get(m.tobytes()) for m in images)
        if None in positions:
            raise NotASubgroup("embedded character leaves the solution set")
        found.add(positions)
    for S in found:
        mats = sols[sorted(S)]
        products = (mats[:, None] @ mats[None]).reshape(-1, 3, 3)
        if any(index.get(m.tobytes()) not in S for m in products):
            raise NotASubgroup("embedded image set is not closed")
    rows = _so3_solution_matrices()
    return sorted((frozenset(rows[i] for i in S) for S in found), key=sorted)


def matrices_to_subgroup(mats) -> PermGroup:
    """Pull a set of rho-image matrices back to the subgroup of S4 they
    come from (rho is injective on S4)."""
    inverse = _rho_inverse()
    elems = []
    for m in mats:
        rows = m.rows if isinstance(m, SignedMatrix) else m
        if rows not in inverse:
            raise ValueError("matrix is not in the image of rho")
        elems.append(inverse[rows])
    return as_subgroup(symmetric_group(4), elems)


@lru_cache(maxsize=None)
def _rho_inverse() -> dict:
    """The permutation x behind each matrix rho(x), keyed by its rows."""
    return {rho(x).rows: x for x in symmetric_group(4).sorted_elements()}


# -- the generation counterexample ----------------------------------------

_REFERENCE_D4 = ((), ((1, 2),), ((3, 4),), ((1, 2), (3, 4)), ((1, 3), (2, 4)),
                 ((1, 4), (2, 3)), ((1, 3, 2, 4),), ((1, 4, 2, 3),))


@dataclass(frozen=True)
class GenerationReport:
    """Outcome of the generation test around the embedded dihedral
    subgroup: the classical completions joined with it reach the full
    symmetric group.  self_join, the subgroup joined with itself, equals
    d_group for every group, so it shows nothing; it stays only for
    callers that still read it."""

    d_group: PermGroup
    self_join: PermGroup
    full_join: PermGroup
    matches_reference: bool


def generation_counterexample() -> GenerationReport:
    candidates = [matrices_to_subgroup(s) for s in embedding_character_images()]
    S4 = symmetric_group(4)
    ref = as_subgroup(S4, [Permutation.from_cycles(4, c) for c in _REFERENCE_D4])
    d_group = next((g for g in candidates if g == ref), None)
    if d_group is None:
        d_group = next((g for g in candidates
                        if are_conjugate(S4, g, ref) is not None), None)
    if d_group is None:
        raise ValueError("no embedded image is conjugate to the reference")
    self_join = generate(4, list(d_group) + list(d_group))
    full_join = generate(4, list(d_group) + list(generated_completion_group(2, 4)))
    return GenerationReport(d_group, self_join, full_join, d_group == ref)

