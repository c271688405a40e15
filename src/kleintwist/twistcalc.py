"""Exact calculations in twisted coordinate models.

The twisted function algebras of the 2x2 and 3x3 presentations are
modeled on the classical coordinate rings: a TwistedElement is an
ordinary commutative polynomial in the matrix entries, one {monomial:
coefficient} map.  A monomial's Klein bidegree is a function of the
monomial, so the twisted product multiplies monomial by monomial: the
exponent sum with the bicharacter sign of the two bidegrees.

An element is zero exactly when its underlying polynomial vanishes on
every real point of the classical group, which both models decide by one
rule: every monomial, brought to the system's largest degree D by a power
of the norm, is evaluated at a fixed set of integer points, enough to
determine a polynomial of the degree that results (O(2): t = 0..2D on the
rotation and the reflection branch of the circle parametrization; SO(3):
the quaternions (1, b, c, d) with b + c + d <= 2D).  The test is linear
in the coefficients, so it runs over a whole system at once: every
relation of a presentation is a sparse integer row over its monomials,
each monomial gets its row of point values (the zero map), and one exact
matrix product shows the first relation that does not vanish.  is_zero
is the one-row case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
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
        mono = tuple(1 if v == (i - 1) * n + (j - 1) else 0 for v in range(n * n))
        return TwistedElement(algebra, {Bidegree(i, j): {mono: 1}})

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


def _signed_positions(R: SignedMatrix) -> list:
    """(k, R[i][k]) for the one nonzero entry of each row i of a signed
    permutation matrix R."""
    if not R.is_signed_permutation():
        raise ValueError("substitution matrix must be a signed permutation")
    return [next((k, v) for k, v in enumerate(row) if v) for row in R.rows]


def _conjugated(where: list, block: tuple, scale) -> tuple:
    """R block R^T for R given by _signed_positions: entry (i, j) is
    R[i][k] R[j][l] block[k][l], scaled by scale(entry, sign)."""
    return tuple(tuple(scale(block[k][l], u * v) for l, v in where) for k, u in where)


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
def _zero_map_row(alg: str, mono: tuple, degree: int) -> tuple:
    """Row of the zero map for one generator monomial of a system of the
    given degree, and its largest |entry|: the monomial homogenised to
    that degree by a power of the norm, N^(degree - deg) X^mono, at every
    point of _point_matrices, in the narrowest integer dtype."""
    factors = _mono_factors(alg, mono)[1]
    row = _fit([norm ** (degree - sum(mono)) * _eval_factors(factors, X)
                for norm, X in _point_matrices(alg, degree)])
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


def verify_twisted_presentation(kind: str, gens: tuple = None) -> list:
    """Check every defining relation of the named presentation against a
    generator matrix of model elements (default: the canonical one).
    Raises RelationFailure naming the first violated relation; returns
    the list of relation ids.

    Every relation is read from one table of the n^4 products of two
    generator entries and assembled as a sparse row over the monomials;
    the whole system is zero-tested at once."""
    if kind not in _SIZES:
        raise ValueError(f"unknown presentation kind {kind!r}")
    n = _SIZES[kind]
    if gens is None:
        gens = generator_matrix(kind)
    entries = [gens[i][j] for i in range(n) for j in range(n)]
    alg = entries[0].algebra
    if any(e.algebra != alg for e in entries):
        raise ValueError("mixed algebras")
    # entries are numbered row by row; product[a * n^2 + b] = entries[a] entries[b]
    product = [p * q for p in entries for q in entries]
    unit = (0,) * (_SIZES[alg] ** 2)
    ids, rows = [], []

    def relation(rel_id: str, summands, constant: int = 0):
        row = {unit: -constant} if constant else {}
        for s, x in summands:
            for m, c in x.terms.items():
                row[m] = row.get(m, 0) + s * c
        ids.append(rel_id)
        rows.append(row)

    nn = n * n
    for i in range(n):
        for j in range(n):
            relation(f"orth-row-{i + 1}{j + 1}",
                     [(1, product[(i * n + k) * nn + j * n + k]) for k in range(n)], i == j)
            relation(f"orth-col-{i + 1}{j + 1}",
                     [(1, product[(k * n + i) * nn + k * n + j]) for k in range(n)], i == j)

    bidegrees = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for a, (i, j) in enumerate(bidegrees):
        for b, (k, l) in enumerate(bidegrees):
            s = _pair_sign(i, j, k, l) * _pair_sign(k, l, i, j)
            relation(f"comm-{i}{j}-{k}{l}",
                     [(1, product[a * nn + b]), (-s, product[b * nn + a])])

    if kind == "so3minus":
        relation("det", [(1, product[t1 * nn + n + t2] * entries[2 * n + t3])
                         for t1, t2, t3 in itertools.permutations(range(n))], 1)

    bad = _first_nonzero(alg, rows)
    if bad is not None:
        raise RelationFailure(f"relation {ids[bad]} does not vanish")
    return ids


def character_value(x: TwistedElement, matrix: tuple):
    """Evaluate a character, given by its value matrix on the generators,
    on a model element.  A commutative monomial stands for the sign
    times the star-ordered monomial, so evaluation multiplies the entry
    values by the reordering sign.  Summed in Python ints unless a
    coefficient is a Fraction; an integer value is returned as an int."""
    total = 0
    for mono, c in x.terms.items():
        sign, factors = _mono_factors(x.algebra, mono)
        total += sign * c * _eval_factors(factors, matrix)
    return int(total) if total.denominator == 1 else total


# -- automorphisms of the 3x3 model --------------------------------------


@lru_cache(maxsize=None)
def _so3_solution_matrices() -> tuple:
    return tuple(s.matrix for s in solve_characters(SO3Minus()))


@lru_cache(maxsize=None)
def _o2_solution_matrices() -> tuple:
    return tuple(s.matrix for s in solve_characters(O2Minus()))


def automorphism_check(x: Permutation) -> Permutation:
    """Substitute b_ij = sum_kl rho(x)_ki rho(x)_lj a_kl, check that the
    b generators satisfy every defining relation, and return the induced
    permutation of the 24 character matrices (M -> rho(x)^T M rho(x)).
    CharacterActionMismatch when the action fails to permute the
    character set or disagrees with direct evaluation."""
    where = _signed_positions(rho(x).transpose())
    B = _conjugated(where, generator_matrix("so3minus"), TwistedElement.scale)
    verify_twisted_presentation("so3minus", B)

    sols = _so3_solution_matrices()
    index = {m: i for i, m in enumerate(sols)}
    images = []
    for m in sols:
        img = _conjugated(where, m, mul)
        pos = index.get(img)
        if pos is None:
            raise CharacterActionMismatch(
                "conjugated character matrix leaves the solution set")
        for i in range(3):
            for j in range(3):
                if character_value(B[i][j], m) != img[i][j]:
                    raise CharacterActionMismatch(
                        f"direct evaluation disagrees at entry ({i + 1},{j + 1})")
        images.append(pos + 1)
    try:
        return Permutation(images)
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
    E = _conjugated(_signed_positions(rho(x)), block, TwistedElement.scale)
    verify_twisted_presentation("so3minus", E)
    return E


def embedding_character_images() -> list:
    """Evaluate the embedded generator matrix at all eight 2x2 characters
    for every x in S4.  Each x yields an eight-element subset of the 24
    3x3 character matrices; the distinct subsets are returned sorted.
    NotASubgroup if a value matrix escapes the solution set or a subset
    is not closed under the character product."""
    sols24 = set(_so3_solution_matrices())
    images = {}
    for x in symmetric_group(4).sorted_elements():
        where = _signed_positions(rho(x))
        mats = set()
        for m in _o2_solution_matrices():
            corner = m[0][0] * m[1][1] + m[0][1] * m[1][0]
            bhat = ((m[0][0], m[0][1], 0),
                    (m[1][0], m[1][1], 0),
                    (0, 0, corner))
            img = _conjugated(where, bhat, mul)
            if img not in sols24:
                raise NotASubgroup("embedded character leaves the solution set")
            mats.add(img)
        images[x] = frozenset(mats)
    distinct = sorted(set(images.values()), key=lambda s: sorted(s))
    for S in distinct:
        for a in S:
            for b in S:
                prod = (SignedMatrix(a) * SignedMatrix(b)).rows
                if prod not in S:
                    raise NotASubgroup("embedded image set is not closed")
    return distinct


def matrices_to_subgroup(mats) -> PermGroup:
    """Pull a set of rho-image matrices back to the subgroup of S4 they
    come from (rho is injective on S4)."""
    inverse = {rho(x).rows: x for x in symmetric_group(4).sorted_elements()}
    elems = []
    for m in mats:
        rows = m.rows if isinstance(m, SignedMatrix) else m
        if rows not in inverse:
            raise ValueError("matrix is not in the image of rho")
        elems.append(inverse[rows])
    return as_subgroup(symmetric_group(4), elems)


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

