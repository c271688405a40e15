"""Exact calculations in twisted coordinate models.

The twisted function algebras of the 2x2 and 3x3 presentations are
modeled on the classical coordinate rings: a TwistedElement stores, per
Klein bidegree, an ordinary commutative polynomial in the matrix
entries, and the twisted product multiplies componentwise with the
bicharacter sign of the two bidegrees.  An element is zero exactly when
its underlying polynomial vanishes on every real point of the classical
group, which is decided exactly: O(2) through the rational circle
parametrization of both components plus the two matrices the
parametrization misses, SO(3) through the unit quaternion substitution
followed by reduction modulo the sphere relation (the double cover is
onto, and a polynomial vanishing on the real sphere has zero normal
form because the two square roots separate the d-even and d-odd parts).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cocycle import klein_bicharacter
from .errors import (CharacterActionMismatch, CountMismatch, NotASubgroup,
                     RelationFailure)
from .incseq import generated_completion_group
from .perm import (PermGroup, Permutation, are_conjugate, as_subgroup,
                   generate, klein_group, symmetric_group)
from .present import (KLEIN_PRODUCT, Bidegree, O2Minus, SO3Minus,
                      commutation_sign, solve_characters)

_SIGMA_COCYCLE = klein_bicharacter()
_SIGMA = _SIGMA_COCYCLE.table
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
        n = self.size
        a, b = self.rows, other.rows
        return SignedMatrix(tuple(
            tuple(sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n))
            for i in range(n)))

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
    import itertools
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


def _poly_add_into(acc: dict, p: dict, scale=1) -> None:
    for m, c in p.items():
        v = acc.get(m, 0) + c * scale
        if v:
            acc[m] = v
        else:
            acc.pop(m, None)


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def _mono_bidegree(alg: str, mono: tuple) -> tuple:
    n = _SIZES[alg]
    left = right = 0
    for v, e in enumerate(mono):
        if e % 2:
            i, j = divmod(v, n)
            left = KLEIN_PRODUCT[left][i + 1]
            right = KLEIN_PRODUCT[right][j + 1]
    return left, right


class TwistedElement:
    """Element of a twisted coordinate model: commutative polynomials
    split by Klein bidegree.  Construction enforces homogeneity of each
    component."""

    __slots__ = ("algebra", "components")

    def __init__(self, algebra: str, components: dict):
        if algebra not in _SIZES:
            raise ValueError(f"unknown algebra tag {algebra!r}")
        comps = {}
        for d, p in components.items():
            clean = {m: c for m, c in p.items() if c}
            if not clean:
                continue
            for m in clean:
                if _mono_bidegree(algebra, m) != (d.left, d.right):
                    raise ValueError(f"monomial {m} is not homogeneous of bidegree {d}")
            comps[d] = clean
        self.algebra = algebra
        self.components = comps

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

    def __add__(self, other: "TwistedElement") -> "TwistedElement":
        if self.algebra != other.algebra:
            raise ValueError("mixed algebras")
        comps = {d: dict(p) for d, p in self.components.items()}
        for d, p in other.components.items():
            _poly_add_into(comps.setdefault(d, {}), p)
        return TwistedElement(self.algebra, comps)

    def __sub__(self, other: "TwistedElement") -> "TwistedElement":
        return self + other.scale(-1)

    def scale(self, c) -> "TwistedElement":
        if not c:
            return TwistedElement.zero(self.algebra)
        return TwistedElement(self.algebra, {
            d: {m: cf * c for m, cf in p.items()}
            for d, p in self.components.items()})

    def __mul__(self, other: "TwistedElement") -> "TwistedElement":
        return twisted_mul(self, other)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TwistedElement)
                and self.algebra == other.algebra
                and self.components == other.components)

    def __hash__(self):
        raise TypeError("TwistedElement is not hashable")

    def is_structurally_zero(self) -> bool:
        return not self.components

    def __repr__(self) -> str:
        terms = sum(len(p) for p in self.components.values())
        return f"TwistedElement({self.algebra}, {len(self.components)} bidegrees, {terms} terms)"


def twisted_mul(x: TwistedElement, y: TwistedElement) -> TwistedElement:
    """Componentwise product with the bicharacter sign of the bidegrees:
    homogeneous pieces multiply as sigma(g,g') sigma(h,h') times the
    commutative product."""
    if x.algebra != y.algebra:
        raise ValueError("mixed algebras")
    comps: dict = {}
    for d1, p1 in x.components.items():
        for d2, p2 in y.components.items():
            sign = _SIGMA[d1.left][d2.left] * _SIGMA[d1.right][d2.right]
            acc = comps.setdefault(d1 * d2, {})
            _poly_add_into(acc, _poly_mul(p1, p2), sign)
    return TwistedElement(x.algebra, comps)


def generator_matrix(algebra: str) -> tuple:
    n = _SIZES[algebra]
    return tuple(tuple(TwistedElement.generator(algebra, i, j)
                       for j in range(1, n + 1)) for i in range(1, n + 1))


# -- exact zero test on the classical group -----------------------------

# Circle parametrization c = (1-t^2)/(1+t^2), s = 2t/(1+t^2).  Branch 0
# is the rotation [[c,-s],[s,c]], branch 1 the reflection [[c,s],[s,-c]];
# each misses the single point t -> infinity, handled separately.
_O2_NUMS = (
    ({2: -1, 0: 1}, {1: -2}, {1: 2}, {2: -1, 0: 1}),
    ({2: -1, 0: 1}, {1: 2}, {1: 2}, {2: 1, 0: -1}),
)
_O2_MISSED = (((-1, 0), (0, -1)), ((-1, 0), (0, 1)))

# Unit quaternion rotation matrix; variables (a, b, c, d).
_SO3_ENTRIES = (
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


def _uni_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            v = out.get(e1 + e2, 0) + c1 * c2
            if v:
                out[e1 + e2] = v
            else:
                out.pop(e1 + e2, None)
    return out


@lru_cache(maxsize=None)
def _qpow(k: int) -> tuple:
    """(1 + t^2)^k as a tuple of (exponent, coefficient)."""
    if k == 0:
        return ((0, 1),)
    prev = dict(_qpow(k - 1))
    return tuple(sorted(_uni_mul(prev, {0: 1, 2: 1}).items()))


@lru_cache(maxsize=None)
def _subst_mono_o2(branch: int, mono: tuple) -> tuple:
    """Numerator polynomial in t of a generator monomial on the given
    O(2) branch, with its x-degree (the denominator is (1+t^2)^degree)."""
    acc = {0: 1}
    deg = 0
    for v, e in enumerate(mono):
        for _ in range(e):
            acc = _uni_mul(acc, _O2_NUMS[branch][v])
        deg += e
    return tuple(sorted(acc.items())), deg


def _reduce_sphere(p: dict) -> dict:
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
def _subst_mono_so3(mono: tuple) -> tuple:
    acc = {(0, 0, 0, 0): 1}
    for v, e in enumerate(mono):
        i, j = divmod(v, 3)
        for _ in range(e):
            acc = _poly_mul(acc, _SO3_ENTRIES[i][j])
    return tuple(sorted(_reduce_sphere(acc).items()))


def _eval_mono(mono: tuple, matrix: tuple, n: int):
    val = 1
    for v, e in enumerate(mono):
        if e:
            i, j = divmod(v, n)
            val *= matrix[i][j] ** e
    return val


def is_zero(x: TwistedElement) -> bool:
    """Exact test: does the element vanish identically on the real
    points of the classical group behind the model?"""
    total: dict = {}
    for p in x.components.values():
        _poly_add_into(total, p)
    if not total:
        return True
    if x.algebra == "so3minus":
        acc: dict = {}
        for mono, c in total.items():
            for m4, k in _subst_mono_so3(mono):
                v = acc.get(m4, 0) + c * k
                if v:
                    acc[m4] = v
                else:
                    acc.pop(m4, None)
        return not acc
    for branch in (0, 1):
        parts = []
        dmax = 0
        for mono, c in total.items():
            terms, deg = _subst_mono_o2(branch, mono)
            parts.append((terms, deg, c))
            dmax = max(dmax, deg)
        acc2: dict = {}
        for terms, deg, c in parts:
            for e1, c1 in terms:
                for e2, c2 in _qpow(dmax - deg):
                    e = e1 + e2
                    v = acc2.get(e, 0) + c * c1 * c2
                    if v:
                        acc2[e] = v
                    else:
                        acc2.pop(e, None)
        if acc2:
            return False
    for point in _O2_MISSED:
        if sum(c * _eval_mono(mono, point, 2) for mono, c in total.items()):
            return False
    return True


# -- presentations in the model ------------------------------------------


def verify_twisted_presentation(kind: str, gens: tuple = None) -> list:
    """Check every defining relation of the named presentation against a
    generator matrix of model elements (default: the canonical one),
    zero-testing each relation exactly.  Raises RelationFailure naming
    the first violated relation; returns the list of relation ids."""
    if kind not in _SIZES:
        raise ValueError(f"unknown presentation kind {kind!r}")
    n = _SIZES[kind]
    if gens is None:
        gens = generator_matrix(kind)
    alg = gens[0][0].algebra
    one = TwistedElement.one(alg)
    zero = TwistedElement.zero(alg)
    checked = []

    def demand(rel_id: str, element: TwistedElement):
        if not is_zero(element):
            raise RelationFailure(f"relation {rel_id} does not vanish")
        checked.append(rel_id)

    for i in range(n):
        for j in range(n):
            target = one if i == j else zero
            acc = zero
            accc = zero
            for k in range(n):
                acc = acc + twisted_mul(gens[i][k], gens[j][k])
                accc = accc + twisted_mul(gens[k][i], gens[k][j])
            demand(f"orth-row-{i + 1}{j + 1}", acc - target)
            demand(f"orth-col-{i + 1}{j + 1}", accc - target)

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    s = commutation_sign(_SIGMA_COCYCLE, Bidegree(i, j), Bidegree(k, l))
                    a = gens[i - 1][j - 1]
                    b = gens[k - 1][l - 1]
                    demand(f"comm-{i}{j}-{k}{l}",
                           twisted_mul(a, b) - twisted_mul(b, a).scale(s))

    if kind == "so3minus":
        acc = zero
        for tau in symmetric_group(3).sorted_elements():
            term = twisted_mul(twisted_mul(gens[0][tau(1) - 1], gens[1][tau(2) - 1]),
                               gens[2][tau(3) - 1])
            acc = acc + term
        demand("det", acc - one)
    return checked


def character_value(x: TwistedElement, matrix: tuple):
    """Evaluate a character, given by its value matrix on the generators,
    on a model element.  A commutative monomial stands for the sign
    times the star-ordered monomial, so evaluation multiplies the entry
    values by the reordering sign."""
    n = _SIZES[x.algebra]
    total = Fraction(0)
    for p in x.components.values():
        for mono, c in p.items():
            total += c * _mono_char_sign(x.algebra, mono) * _eval_mono(mono, matrix, n)
    return int(total) if total.denominator == 1 else total


@lru_cache(maxsize=None)
def _mono_char_sign(alg: str, mono: tuple) -> int:
    n = _SIZES[alg]
    left = right = 0
    sign = 1
    for v, e in enumerate(mono):
        if not e:
            continue
        i, j = divmod(v, n)
        ti, tj = i + 1, j + 1
        for _ in range(e):
            sign *= _SIGMA[left][ti] * _SIGMA[right][tj]
            left = KLEIN_PRODUCT[left][ti]
            right = KLEIN_PRODUCT[right][tj]
    return sign


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
    R = rho(x)
    gens = generator_matrix("so3minus")
    B = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = TwistedElement.zero("so3minus")
            for k in range(3):
                for l in range(3):
                    c = R.rows[k][i] * R.rows[l][j]
                    if c:
                        acc = acc + gens[k][l].scale(c)
            row.append(acc)
        B.append(tuple(row))
    B = tuple(B)
    verify_twisted_presentation("so3minus", B)

    sols = _so3_solution_matrices()
    index = {m: i for i, m in enumerate(sols)}
    rt = R.transpose()
    images = []
    for m in sols:
        img = (rt * SignedMatrix(m) * R).rows
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
    R = rho(x)
    E = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = TwistedElement.zero("o2minus")
            for k in range(3):
                for l in range(3):
                    c = R.rows[i][k] * R.rows[j][l]
                    if c:
                        acc = acc + block[k][l].scale(c)
            row.append(acc)
        E.append(tuple(row))
    E = tuple(E)
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
        R = rho(x)
        rt = R.transpose()
        mats = set()
        for m in _o2_solution_matrices():
            corner = m[0][0] * m[1][1] + m[0][1] * m[1][0]
            bhat = SignedMatrix(((m[0][0], m[0][1], 0),
                                 (m[1][0], m[1][1], 0),
                                 (0, 0, corner)))
            img = (R * bhat * rt).rows
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

_REFERENCE_D4 = (
    "id", "(12)", "(34)", "(12)(34)", "(13)(24)", "(14)(23)", "(1324)", "(1423)")


@dataclass(frozen=True)
class GenerationReport:
    """Outcome of the generation test around the embedded dihedral
    subgroup: joining it with itself stays dihedral while the classical
    completions do reach the full symmetric group."""

    d_group: PermGroup
    self_join: PermGroup
    full_join: PermGroup
    matches_reference: bool


def generation_counterexample() -> GenerationReport:
    candidates = [matrices_to_subgroup(s) for s in embedding_character_images()]
    S4 = symmetric_group(4)
    ref = as_subgroup(S4, [Permutation.from_cycles(4, _parse_cycles(c))
                           for c in _REFERENCE_D4])
    d_group = next((g for g in candidates if g == ref), None)
    if d_group is None:
        d_group = next((g for g in candidates
                        if are_conjugate(S4, g, ref) is not None), None)
    if d_group is None:
        raise ValueError("no embedded image is conjugate to the reference")
    self_join = generate(4, list(d_group) + list(d_group))
    full_join = generate(4, list(d_group) + list(generated_completion_group(2, 4)))
    return GenerationReport(d_group, self_join, full_join, d_group == ref)


def _parse_cycles(text: str) -> list:
    if text == "id":
        return []
    out = []
    for part in text.strip("()").split(")("):
        out.append(tuple(int(ch) for ch in part))
    return out
