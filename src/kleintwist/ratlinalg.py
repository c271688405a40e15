"""Exact linear algebra over the rationals on integer arrays, sized for the
small dimensions (<= 64) this package works at.

A subspace is kept fraction-free (RowSpace): integer rows, each primitive
(divided by the gcd of its entries), with a positive pivot at its leftmost
nonzero column and zeros in every other row's pivot column.  Up to a
positive factor per row this is the reduced row echelon form, so pivots
and free columns are canonical.  Row operations are whole-array numpy
steps, and each one takes its dtype from one guard, _int_dtype: int64
while a proven bound on every value it forms stays below 2^62, exact
Python ints in object arrays past that, never a silent wraparound.

Rationals appear only at the boundary, and _cleared is the one routine
that clears them: ints and Fractions of any shape to an integer array and
one scale in canonical form.  invert and kernel_basis take matrices of
ints/Fractions, clear their denominators once and return Fractions.  minimal_polynomial and generalized_eigenspace take such a
matrix too, or an integer array with a common denominator, so a caller
that already holds integers builds no Fraction per entry;
minimal_polynomial returns Fractions, generalized_eigenspace integer rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

_INT64_LIMIT = 2 ** 62


def _int_dtype(bound: int):
    """The one overflow guard: int64 when every entry is proven to stay
    below _INT64_LIMIT in absolute value, else exact Python ints in an
    object array, never a silent wraparound."""
    return np.int64 if bound < _INT64_LIMIT else object


def _max_abs(arr: np.ndarray) -> int:
    # max and min rather than abs(): no temporary copy of a large array
    return max(int(arr.max()), -int(arr.min())) if arr.size else 0


def _fit(arr) -> np.ndarray:
    """An integer array in the narrowest dtype the guard allows.  Anything
    not yet an array is read as Python ints first: np.asarray would turn
    entries past int64 into uint64 or rounded float64."""
    if not isinstance(arr, np.ndarray):
        arr = np.array(arr, dtype=object)
    return arr.astype(_int_dtype(_max_abs(arr)), copy=False)


def _rescale(arr: np.ndarray, k) -> np.ndarray:
    """arr * k over the integers, k an int or an integer array that
    broadcasts against arr, guarded like every other integer step."""
    k = _fit(k)
    bound = max(1, _max_abs(arr)) * max(1, _max_abs(k))
    dtype = _int_dtype(bound)
    return arr.astype(dtype, copy=False) * k.astype(dtype, copy=False)


def _sub(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X - Y over the integers, guarded."""
    dtype = _int_dtype(_max_abs(X) + _max_abs(Y))
    return X.astype(dtype, copy=False) - Y.astype(dtype, copy=False)


def _dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The matrix product X @ Y over the integers, guarded; the bound
    covers both operands too, so neither is cast to a dtype it overflows."""
    dtype = _int_dtype(max(1, _max_abs(X)) * max(1, _max_abs(Y)) * max(1, X.shape[-1]))
    return X.astype(dtype, copy=False) @ Y.astype(dtype, copy=False)


def _primitive(R: np.ndarray) -> np.ndarray:
    """R with every nonzero row divided by the gcd of its entries and
    signed so that its leftmost nonzero entry is positive."""
    if not R.size:
        return R
    lead = R[np.arange(len(R)), (R != 0).argmax(axis=1)]
    content = np.abs(np.gcd.reduce(R, axis=1))    # a lone entry comes back as is
    content = np.where(content == 0, 1, content)
    return _fit(R // np.where(lead < 0, -content, content)[:, None])


def _eliminate(R: np.ndarray, row: np.ndarray, col: int) -> np.ndarray:
    """R with column col cleared by the primitive row whose pivot is at
    col, each changed row made primitive again; row order is kept."""
    hit = np.flatnonzero(R[:, col] != 0)
    if not len(hit):
        return R
    changed = _primitive(_sub(_rescale(R[hit], row[col]), _dot(R[hit][:, [col]], row[None])))
    out = R.astype(np.result_type(R, changed), copy=True)
    out[hit] = changed
    return _fit(out)


class RowSpace:
    """A subspace of Q^width, kept fraction-free (see the module notes).

    rows is a (dim, width) integer array sorted by pivot column, pivots the
    matching list of pivot columns.  Methods take integer vectors."""

    def __init__(self, width: int):
        self.width = width
        self.rows = np.zeros((0, width), dtype=np.int64)
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def free(self) -> list[int]:
        """The columns that hold no pivot."""
        return [c for c in range(self.width) if c not in set(self.pivots)]

    @property
    def scale(self) -> int:
        """The lcm of the pivot entries, the factor reduce multiplies by."""
        return lcm(1, *(int(self.rows[k, p]) for k, p in enumerate(self.pivots)))

    def cofactors(self) -> np.ndarray:
        """Per row, scale over its pivot entry: row k times cofactors()[k]
        has pivot entry scale."""
        L = self.scale
        return _fit([L // int(self.rows[k, p]) for k, p in enumerate(self.pivots)])

    def reduce(self, vectors) -> np.ndarray:
        """scale times the residues of the integer vectors (rows of a
        matrix, or one vector) modulo the space: each residue has every
        pivot coordinate cleared, and it is zero exactly when the vector
        lies in the space."""
        V = _fit(vectors)
        if not self.pivots:
            return V
        # residue = V - sum_k V[p_k] / pv_k * row_k, times scale
        flat = V.reshape(-1, self.width)
        out = _sub(_rescale(flat, self.scale),
                   _dot(flat[:, self.pivots], _rescale(self.rows, self.cofactors()[:, None])))
        return out.reshape(V.shape)

    def contains(self, vec) -> bool:
        return not bool((self.reduce(vec) != 0).any())

    def extend(self, vectors) -> np.ndarray:
        """Insert the integer rows of `vectors` (zero and repeated rows
        allowed).  Returns the rows that grew the space: residues modulo
        the old space, in echelon form, one per new dimension."""
        R = _primitive(self.reduce(vectors).reshape(-1, self.width))
        R = R[(R != 0).any(axis=1)]
        grown = np.zeros((0, self.width), dtype=np.int64)
        cols: list[int] = []
        while len(R):
            col = int((R != 0).any(axis=0).argmax())
            hit = np.flatnonzero(R[:, col] != 0)
            k = hit[np.argmin(np.abs(R[hit, col]))]   # the smallest pivot grows least
            row = R[k]
            R = _eliminate(np.delete(R, k, axis=0), row, col)
            R = R[(R != 0).any(axis=1)]
            self.rows = _eliminate(self.rows, row, col)
            grown = _fit(np.vstack([_eliminate(grown, row, col), row[None]]))
            cols.append(col)
        if cols:
            pivots = self.pivots + cols
            order = np.argsort(pivots, kind="stable")
            self.rows = _fit(np.vstack([self.rows, grown]))[order]
            self.pivots = [pivots[k] for k in order]
        return grown

    def add(self, vec) -> bool:
        """Insert one integer vector; returns True when the dimension grew."""
        return len(self.extend(vec)) > 0

    def kernel(self) -> np.ndarray:
        """Primitive integer rows spanning {x : row . x = 0 for every row},
        one per free column, in free-column order."""
        free = self.free
        K = np.zeros((len(free), self.width), dtype=object)
        K[np.arange(len(free)), free] = self.scale
        if self.pivots:
            W = _rescale(self.rows[:, free], self.cofactors()[:, None])
            K[:, self.pivots] = -W.T.astype(object)
        return _primitive(_fit(K))


def _cleared(values, scale: int = 1) -> tuple[np.ndarray, int]:
    """(A, d) with A / d = values / scale, A an integer array of the same
    shape, d > 0 and no common factor of A and d: the canonical cleared
    form.  values is an integer array, or an object array or nested lists
    of any shape holding ints and Fractions, whose denominators are
    cleared here entry by nonzero entry.  Anything inexact, a float array
    or a nonzero entry without a denominator, raises TypeError rather
    than be truncated."""
    A = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    d = scale
    if A.dtype.kind not in "iuO":
        raise TypeError(f"cannot clear an array of dtype {A.dtype}: not exact")
    if A.dtype == object:
        nz = np.flatnonzero(A)
        entries = A.reshape(-1)[nz].tolist()
        try:
            den = lcm(1, *{x.denominator for x in entries})
        except AttributeError:
            bad = next(x for x in entries if not hasattr(x, "denominator"))
            raise TypeError(f"cannot clear {bad!r}: not an int or Fraction") from None
        A = np.zeros(A.shape, dtype=object)
        A.reshape(-1)[nz] = [x.numerator * (den // x.denominator) for x in entries]
        d *= den
    A = _fit(A)
    g = gcd(int(np.gcd.reduce(A, axis=None)) if A.size else 0, d)
    return (A, d) if g == 1 else (_fit(A // g), d // g)


def _inverse(A: np.ndarray) -> tuple[np.ndarray, int]:
    """(B, e) in canonical cleared form with B / e the inverse of the
    square integer matrix A."""
    n = len(A)
    space = RowSpace(2 * n)
    # [A | I] reduces to rows [pv_i e_i | pv_i * (row i of A^-1)]
    space.extend(np.hstack([A.astype(object), np.eye(n, dtype=object)]))
    if space.pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return _cleared(_rescale(space.rows[:, n:], space.cofactors()[:, None]), space.scale)


def invert(matrix) -> list[list[Fraction]]:
    A, d = _cleared(matrix)
    B, e = _inverse(A)          # (A / d)^-1 = d B / e
    return [[Fraction(x * d, e) for x in row] for row in B.tolist()]


def kernel_basis(M) -> list[list[Fraction]]:
    """Basis of {x : Mx = 0}; M is a list of rows, domain = column count.
    Each basis vector has a 1 at its own free column."""
    if not len(M):
        return []
    A, _ = _cleared(M)
    space = RowSpace(A.shape[1])
    space.extend(A)
    return [[Fraction(int(x), int(k[f])) for x in k]
            for k, f in zip(space.kernel(), space.free)]


def minimal_polynomial(M, scale: int = 1) -> list[Fraction]:
    """Monic minimal polynomial of the square rational matrix M / scale,
    coefficients in ascending degree order."""
    A, d = _cleared(M, scale)
    n = len(A)
    powers = RowSpace(n * n)
    flats = []
    power = np.eye(n, dtype=np.int64)
    while powers.add(power.reshape(-1)):
        flats.append(power.reshape(-1))
        power = _dot(power, A)
    # sum_t c_t A^t = 0 for the kernel vector c; A = d R for R = M / scale,
    # so the monic minimal polynomial of R has coefficients c_t d^t / (c_k d^k)
    columns = RowSpace(len(flats) + 1)
    columns.extend(_fit(np.array(flats + [power.reshape(-1)], dtype=object).T))
    (c,) = columns.kernel()
    k = len(flats)
    return [Fraction(int(c[t]) * d ** t, int(c[k]) * d ** k) for t in range(k + 1)]


def generalized_eigenspace(M, lam, k: int, scale: int = 1) -> np.ndarray:
    """Integer rows spanning {x : x (M / scale - lam)^k = 0}, for a square
    rational matrix M acting on row vectors."""
    A, d = _cleared(M, scale)
    lam = Fraction(lam)
    eye = np.eye(len(A), dtype=np.int64)
    # M / scale - lam = (q A - p d I) / (q d) for lam = p/q.  Positive
    # factors, such as 1 / (q d) or each power's content, leave the kernel
    N = _sub(_rescale(A, lam.denominator), _rescale(eye, lam.numerator * d))
    P = eye
    for _ in range(k):
        P = _dot(P, N)
        P = _fit(P // max(1, abs(int(np.gcd.reduce(P, axis=None)))))
    space = RowSpace(len(A))
    space.extend(P.T)          # x P = 0 exactly when x is orthogonal to P's columns
    return space.kernel()


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _poly_eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _deflate(coeffs, root: Fraction) -> list[Fraction]:
    """Synthetic division by (x - root); exact when root is a root."""
    out = [Fraction(0)] * (len(coeffs) - 1)
    acc = Fraction(0)
    for i in range(len(coeffs) - 1, 0, -1):
        acc = acc * root + coeffs[i]
        out[i - 1] = acc
    return out


def rational_roots(coeffs) -> tuple[list[tuple[Fraction, int]], list[Fraction]]:
    """All rational roots (with multiplicity) of the polynomial, plus the
    remaining factor after deflating them away."""
    poly = [Fraction(c) for c in coeffs]
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    roots: list[tuple[Fraction, int]] = []
    # Factor out x^k first.
    zero_mult = 0
    while len(poly) > 1 and poly[0] == 0:
        poly = poly[1:]
        zero_mult += 1
    if zero_mult:
        roots.append((Fraction(0), zero_mult))
    if len(poly) > 1:
        den = lcm(*[c.denominator for c in poly])
        ints = [int(c * den) for c in poly]
        candidates = set()
        for p in _divisors(ints[0]):
            for q in _divisors(ints[-1]):
                candidates.add(Fraction(p, q))
                candidates.add(Fraction(-p, q))
        for cand in sorted(candidates):
            mult = 0
            while len(poly) > 1 and _poly_eval(poly, cand) == 0:
                poly = _deflate(poly, cand)
                mult += 1
            if mult:
                roots.append((cand, mult))
    return roots, poly
