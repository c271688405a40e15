"""Exact linear algebra over the rationals on integer arrays, sized for the
small dimensions (up to a few hundred) this package works at.

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
one scale in canonical form.  first_relation finds the least monic
relation among integer rows, such as a minimal polynomial at one vector,
modulo word-size primes and returns it only once one exact product
certifies it; integer_roots (with deflate) finds the integer roots of such
a polynomial.  ClosureMod closes a set of rows under a set of matrices
modulo one word-size prime, in int64, and can go on to more matrices.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from math import gcd, isqrt, lcm, prod

import numpy as np

from .errors import NonSplitQuotient

_INT64_LIMIT = 2 ** 62
_PRIMES: list[int] = []


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
        pivots = set(self.pivots)
        return [c for c in range(self.width) if c not in pivots]

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
    if d == 1:                  # the gcd with 1 is 1, whatever A holds
        return A, d
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


def _is_prime(p: int) -> bool:
    """Whether the odd number 7 < p < 3.2 * 10^9 is prime: below that the
    strong probable-prime test to the bases 2, 3, 5 and 7 decides it
    (Jaeschke, Math. Comp. 1993)."""
    s = ((p - 1) & (1 - p)).bit_length() - 1      # p - 1 = q 2^s, q odd
    return all(x == 1 or p - 1 in (pow(x, 1 << i, p) for i in range(s))
               for x in (pow(a, (p - 1) >> s, p) for a in (2, 3, 5, 7)))


def _primes():
    """The primes below 2^30, largest first, without end, each found once
    and kept; a remainder by one is one digit of a Python int."""
    for k in count():
        p = _PRIMES[-1] if _PRIMES else 2 ** 30 + 1
        while k == len(_PRIMES):
            p -= 2
            if _is_prime(p):
                _PRIMES.append(p)
        yield _PRIMES[k]


def _relations_mod(K, primes) -> list:
    """Per prime p: (d, c), K[d] the first row in the span of the rows before
    it modulo p and c = [c_0, ..., c_d = 1] that relation's residues, or None
    for rows independent modulo p.  Gauss-Jordan on the transposed residues
    of all primes at once; entries stay below p < 2^30, products below 2^60."""
    P = np.array(primes, dtype=np.int64)[:, None, None]
    T = (K.T[None] % P).astype(np.int64)
    out, at = [None] * len(P), np.arange(len(P))
    for j in range(T.shape[2]):
        # columns 0 .. j-1 are reduced to the unit vectors of rows 0 .. j-1;
        # each prime's pivot is its first nonzero at or below row j, and a
        # prime with none has its relation at j.  Per column this is a fixed
        # number of array operations, however many primes there are
        if j < T.shape[1]:
            k = j + (T[:, j:, j] != 0).argmax(axis=1)
            pivots = T[at, k, j]
        else:                       # no row left: every relation is at j
            pivots = np.zeros(len(P), dtype=np.int64)
        if not pivots.all():
            for b in np.flatnonzero(pivots == 0):
                out[b] = out[b] or (j, [int(x) for x in -T[b, :j, j] % P[b, 0]] + [1])
            if all(out):
                break
        if (k != j).any():
            T[at, j], T[at, k] = T[at, k], T[at, j].copy()
        inv = np.array([pow(v, -1, p) if v else 0 for v, p in zip(pivots.tolist(), primes)])
        row = T[:, j, j:] * inv[:, None] % P[:, 0]
        T[:, :, j:] -= T[:, :, j:j + 1] * row[:, None]
        T[:, :, j:] %= P
        T[:, j, j:] = row
    return out


class ClosureMod:
    """The least subspace over F_p that holds the given rows and is mapped
    into itself by v -> v A for every matrix A it was closed under (close).
    Entries are residues below p, and n p^2 < 2^62 for rows of width n, so
    no sum of n products leaves int64.  The space is kept in reduced
    echelon form modulo p, its rows B grown into one preallocated n x n
    array, and each round maps only the rows that grew it the round
    before, by all matrices in one product.  Closing under more matrices
    continues from the space reached: only its rows times the new
    matrices are new."""

    def __init__(self, rows, p: int):
        rows = np.atleast_2d(np.asarray(rows, dtype=np.int64)) % p
        n = rows.shape[1]
        self.p, self.pivots, self.dim = p, [], 0
        self.ops = np.zeros((0, n, n), dtype=np.int64)
        self._B = np.zeros((n, n), dtype=np.int64)
        self._grow(rows)

    @property
    def B(self) -> np.ndarray:
        """The reduced echelon basis, one row per dimension."""
        return self._B[:self.dim]

    @property
    def free(self) -> list[int]:
        """The columns that hold no pivot."""
        pivots = set(self.pivots)
        return [c for c in range(self._B.shape[1]) if c not in pivots]

    def reduce(self, V: np.ndarray) -> np.ndarray:
        """The residues of the rows of V (entries below p) modulo the
        space: every pivot coordinate cleared."""
        return (V - V[:, self.pivots] @ self.B) % self.p

    def _grow(self, new: np.ndarray) -> np.ndarray:
        """Adds the rows new to the space; rows spanning what grew it.
        Pivots come from a chunk of n rows at a time, eliminated row by
        row; one product then reduces the rest modulo the space."""
        p, start = self.p, self.dim
        while len(new):
            new = self.reduce(new)
            new = new[new.any(axis=1)]
            chunk, new = new[:len(self._B)], new[len(self._B):]
            while len(chunk):
                row, chunk = chunk[0], chunk[1:]
                col = int((row != 0).argmax())
                row = row * pow(int(row[col]), -1, p) % p
                # clears col in every other row
                chunk = (chunk - chunk[:, [col]] * row) % p
                chunk = chunk[chunk.any(axis=1)]
                B = self.B
                B -= B[:, [col]] * row
                B %= p
                self._B[self.dim] = row
                self.pivots.append(col)
                self.dim += 1
        return self._B[start:self.dim].copy()

    def close(self, ops) -> int:
        """The dimension of the space once closed under the matrices ops
        (a sequence of n x n residue matrices) as well."""
        n = self._B.shape[1]
        ops = np.asarray(ops, dtype=np.int64).reshape(-1, n, n)
        rows, self.ops = self.B, np.concatenate([self.ops, ops])
        while len(rows) and len(ops):
            rows, ops = self._grow((rows @ ops % self.p).reshape(-1, n)), self.ops
        return self.dim


def first_relation(K) -> list[int]:
    """The monic polynomial c of least degree with sum_t c_t K[t] = 0, for
    integer rows K[0], K[1], ... such as the Krylov rows u, uA, uA^2, ...
    of an integer vector u: integer coefficients in ascending degree order.
    ValueError when the rows have no relation, or no integral least one.

    A prime at which the first dependent row d comes earlier than at
    another has dropped rank and is skipped.  The residues at the others
    are lifted by incremental Chinese remaindering to the symmetric range,
    and a lift is returned only once the exact product sum_t c_t K[t] = 0
    certifies it: K[:d] independent modulo a prime is independent over Q.
    An integral |c_t|, and a minor that a rank drop divides, is at most
    Hadamard's bound prod_t |K[t]|; past twice that, an uncertified lift
    proves that the least relation is not integral."""
    K = _fit(K)
    primes, batch = _primes(), 1 + _max_abs(K).bit_length() // 30
    d, kept = -1, []
    while True:
        chunk = list(islice(primes, batch))
        for p, found in zip(chunk, _relations_mod(K, chunk)):
            if found is None:
                raise ValueError(f"the rows have no relation: independent modulo {p}")
            if found[0] > d:
                d, kept = found[0], []
            if found[0] == d:
                kept.append((p, found[1]))
        M, x = 1, [0] * (d + 1)
        for p, c in kept:
            step = pow(M, -1, p)
            x = [a + M * ((b - a) * step % p) for a, b in zip(x, c)]
            M *= p
        lift = [a - M if 2 * a > M else a for a in x]
        if not _dot(_fit([lift]), K[:d + 1]).any():
            return lift
        if M > 2 * prod(isqrt(int(s)) + 1 for s in (K[:d + 1].astype(object) ** 2).sum(axis=1)):
            raise ValueError("the least relation among the rows is not integral")


def deflate(f, x: int) -> tuple[list[int], int]:
    """(q, f(x)) with f = (y - x) q + f(x): synthetic division of the
    integer polynomial f (ascending ints, degree >= 1) by y - x."""
    q = [f[-1]]
    for c in reversed(f[:-1]):
        q.append(q[-1] * x + c)
    value = q.pop()
    return q[::-1], value


def integer_roots(f, A, scale: int = 1) -> list[tuple[int, int]]:
    """The roots of f, the monic integer minimal polynomial of the square
    integer matrix A (ascending ints), with multiplicity, largest first.

    Floored Newton steps from above: x starts at the Gershgorin bound of A,
    which no eigenvalue exceeds.  Above the largest root of a monic
    polynomial with only real roots f, f' and f'' are positive, so a step
    never passes an integer root.  Every step lowers x by at least 1, and
    f < 0 or f' <= 0 is reached as x falls; there the remaining factor has
    a root that is not an integer, and NonSplitQuotient is raised.  Its
    message names that factor for the operator A / scale, whose root
    r / scale belongs to each root r of A: the coefficient of y^t is
    divided by scale^(deg - t), in lowest terms."""
    absA = np.abs(_fit(A))
    x = min(int(absA.sum(axis=1).max()), int(absA.sum(axis=0).max()))
    f = [int(c) for c in f]
    roots: list[tuple[int, int]] = []
    while len(f) > 1:
        q, value = deflate(f, x)
        if value == 0:
            f = q
            if roots and roots[-1][0] == x:
                roots[-1] = (x, roots[-1][1] + 1)
            else:
                roots.append((x, 1))
            continue
        slope = deflate(q, x)[1]       # f'(x) is the quotient at x
        if value < 0 or slope <= 0:
            factor = (Fraction(c, scale ** (len(f) - 1 - t)) for t, c in enumerate(f))
            raise NonSplitQuotient("minimal polynomial does not split over the "
                                   f"rationals: [{', '.join(map(str, factor))}]")
        x -= max(1, value // slope)
    return roots
