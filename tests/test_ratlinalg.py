"""The fraction-free RowSpace and the rational boundary of ratlinalg
against a plain Fraction Gauss-Jordan elimination written here."""

from fractions import Fraction
from itertools import islice
from math import gcd, isqrt, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kleintwist import ratlinalg
from kleintwist.errors import NonSplitQuotient
from kleintwist.ratlinalg import (ClosureMod, RowSpace, _cleared, _dot, _fit, _inverse,
                                  _relations_mod, deflate, first_relation, integer_roots)
from oracles import generalized_eigenspace, kernel, minimal_polynomial

SMALL = st.integers(-3, 3)
NEAR_2_31 = st.integers(2 ** 31 - 3, 2 ** 31 + 3).flatmap(
    lambda v: st.sampled_from([v, -v, 0]))
# Products of two such entries leave int64, so elimination runs on objects.
NEAR_2_62 = st.integers(2 ** 62 - 3, 2 ** 62 + 3).flatmap(
    lambda v: st.sampled_from([v, -v, 0]))
ENTRIES = [SMALL, NEAR_2_31, NEAR_2_62]


def gauss_jordan(rows, width):
    """Reduced row echelon form with pivot 1, over Fractions."""
    out, pivots = [], []
    for vec in rows:
        v = residue(out, pivots, vec)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            continue
        v = [x / v[p] for x in v]
        out = [[a - r[p] * b for a, b in zip(r, v)] for r in out]
        at = sum(1 for q in pivots if q < p)
        out.insert(at, v)
        pivots.insert(at, p)
    return out, pivots


def residue(rows, pivots, vec):
    v = [Fraction(x) for x in vec]
    for r, p in zip(rows, pivots):
        c = v[p]
        v = [a - c * b for a, b in zip(v, r)]
    return v


@st.composite
def matrices(draw, max_rows=6):
    width = draw(st.integers(1, 6))
    elements = draw(st.sampled_from(ENTRIES))
    rows = draw(st.lists(st.lists(elements, min_size=width, max_size=width),
                         max_size=max_rows))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))      # a duplicate row
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * width)
    return width, rows


def check_invariants(space):
    for row, p in zip(space.rows.tolist(), space.pivots):
        assert next(i for i, x in enumerate(row) if x) == p
        assert row[p] > 0
        assert gcd(*row) == 1
        assert all(space.rows[k, p] == 0 for k in range(space.dim) if space.pivots[k] != p)
    assert space.pivots == sorted(space.pivots)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_row_space_matches_gauss_jordan(data):
    width, rows = data.draw(matrices())
    extra = data.draw(st.lists(st.lists(data.draw(st.sampled_from(ENTRIES)),
                                        min_size=width, max_size=width), max_size=3))
    cut = data.draw(st.integers(0, len(rows)))
    space = RowSpace(width)
    grown = len(space.extend(np.array(rows[:cut], dtype=object).reshape(-1, width)))
    for vec in rows[cut:]:
        grown += len(space.extend(vec))
    want, pivots = gauss_jordan(rows, width)
    assert space.dim == grown == len(want)
    assert space.pivots == pivots
    check_invariants(space)
    assert [[Fraction(int(x), int(r[p])) for x in r] for r, p in zip(space.rows, pivots)] == want
    for vec in extra + rows:
        got = space.reduce(np.array(vec, dtype=object))
        assert [Fraction(int(x), space.scale) for x in got] == residue(want, pivots, vec)


def test_entries_past_int64_stay_exact():
    """A Python list with an entry in [2^63, 2^64) must not become a
    float64 array: the cofactors of these rows reach that range, and a
    rounded cofactor leaves nonzero residues for rows of the space."""
    assert _fit([2 ** 63 + 5, 3]).tolist() == [2 ** 63 + 5, 3]
    a = 2 ** 62
    rows = [[a - 3, 0, -(a - 2), a - 3, a - 3],
            [0, a - 1, a - 2, a - 3, a - 3],
            [a - 2, a + 2, 0, a - 3, a - 3]]
    space = RowSpace(5)
    for vec in rows:
        assert len(space.extend(vec)) == 1
    want, pivots = gauss_jordan(rows, 5)
    assert space.pivots == pivots
    check_invariants(space)
    for vec in rows:
        assert not space.reduce(np.array(vec, dtype=object)).any()


def kernel_basis(M) -> list[list[Fraction]]:
    """Basis of {x : Mx = 0} from the oracle kernel; M is a list of rows of
    ints/Fractions, domain = column count.  Each basis vector has a 1 at
    its own free column."""
    A, _ = _cleared(M)
    space = RowSpace(A.shape[1])
    space.extend(A)
    return [[Fraction(int(x), int(k[f])) for x in k]
            for k, f in zip(kernel(space), space.free)]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_invert_and_kernel(data):
    width, rows = data.draw(matrices())
    A = [[Fraction(x, data.draw(st.integers(1, 5))) for x in row] for row in rows]
    if A:
        for k in kernel_basis(A):
            assert all(sum(a * x for a, x in zip(row, k)) == 0 for row in A)
        assert len(kernel_basis(A)) == width - len(gauss_jordan(A, width)[0])
    square = A[:width]
    if len(square) == width and len(gauss_jordan(square, width)[0]) == width:
        P, d = _cleared(square)
        B, e = _inverse(P)          # (P / d)^-1 = d B / e, so P B = e I
        assert (P.astype(object) @ B.astype(object)).tolist() == [
            [e * (i == j) for j in range(width)] for i in range(width)]
    elif len(square) == width:
        with pytest.raises(ValueError, match="singular"):
            _inverse(_cleared(square)[0])


def test_minimal_polynomial_and_generalized_eigenspace():
    # e0 -> e0 + e1, e1 -> e1, e2 -> 0 on row vectors: x (x - 1)^2
    R = [[1, 1, 0], [0, 1, 0], [0, 0, 0]]
    assert minimal_polynomial(R) == [0, 1, -2, 1]
    assert minimal_polynomial(np.array(R) * 6) == [0, 36, -12, 1]    # x (x - 6)^2
    assert generalized_eigenspace(R, 1, 2).tolist() == [[1, 0, 0], [0, 1, 0]]
    assert generalized_eigenspace(R, 1, 1).tolist() == [[0, 1, 0]]
    assert generalized_eigenspace(np.array(R) * 3, 3, 2).tolist() == [[1, 0, 0], [0, 1, 0]]
    assert generalized_eigenspace(R, 0, 1).tolist() == [[0, 0, 1]]
    # 4 * diag(1/2, -3/4): (x - 2)(x + 3)
    assert minimal_polynomial([[2, 0], [0, -3]]) == [-6, 1, 1]


# -- integer roots against the rational root sweep they replaced -----------

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
    remaining factor after deflating them away: every candidate p/q of
    the rational root theorem, tried by exact evaluation."""
    poly = [Fraction(c) for c in coeffs]
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    roots: list[tuple[Fraction, int]] = []
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


def poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def jordan(roots):
    """A matrix in Jordan form with one block of size k per (r, k): its
    minimal polynomial is the product of the (x - r)^k, r distinct."""
    n = sum(k for _, k in roots)
    A = np.zeros((n, n), dtype=object)
    at = 0
    for r, k in roots:
        for i in range(at, at + k):
            A[i, i] = r
            if i + 1 < at + k:
                A[i, i + 1] = 1
        at += k
    return A


def companion(f):
    """The companion matrix of the monic f (ascending coefficients), whose
    minimal polynomial is f."""
    d = len(f) - 1
    A = np.zeros((d, d), dtype=object)
    A[np.arange(1, d), np.arange(d - 1)] = 1
    A[:, -1] = [-c for c in f[:-1]]
    return A


def product_poly(roots):
    f = [1]
    for r, k in roots:
        for _ in range(k):
            f = poly_mul(f, [-r, 1])
    return f


def distinct_roots(values, max_mult):
    return st.lists(st.tuples(values, st.integers(1, max_mult)), min_size=1, max_size=4,
                    unique_by=lambda t: t[0])


@settings(max_examples=150, deadline=None)
@given(distinct_roots(st.integers(-5, 5), 4))
def test_integer_roots_match_rational_root_sweep(roots):
    """Small integer roots, zero among them, multiplicities up to 4: the
    Newton descent finds what the rational root theorem sweep finds, and
    the Jordan matrix's minimal polynomial is the product itself."""
    f = product_poly(roots)
    A = jordan(roots)
    assert minimal_polynomial(A) == f
    want, rest = rational_roots(f)
    assert rest == [1]
    got = integer_roots(f, A)
    assert sorted(got) == sorted((int(r), k) for r, k in want)
    assert [r for r, _ in got] == sorted((r for r, _ in got), reverse=True)


@settings(max_examples=100, deadline=None)
@given(distinct_roots(st.integers(-2 ** 64, 2 ** 64), 3))
def test_integer_roots_up_to_2_64(roots):
    f = product_poly(roots)
    assert integer_roots(f, jordan(roots)) == sorted(roots, reverse=True)


@pytest.mark.parametrize("factors", [
    [[1, 0, 1]],                       # x^2 + 1
    [[-2, 0, 1]],                      # x^2 - 2
    [[-1, 1], [1, 1, 1]],              # (x - 1)(x^2 + x + 1)
    [[5, 1], [2, -2, 1]],              # (x + 5)(x^2 - 2x + 2)
], ids=["x2+1", "x2-2", "cyclotomic3", "gaussian"])
def test_integer_roots_refuse_non_split(factors):
    f = [1]
    for g in factors:
        f = poly_mul(f, g)
    A = companion(f)
    assert minimal_polynomial(A) == f
    with pytest.raises(NonSplitQuotient, match="does not split over the rationals"):
        integer_roots(f, A)


def poly_rem(f, c):
    """The remainder of f on division by the monic c."""
    f = list(f)
    for i in range(len(f) - len(c), -1, -1):
        lead = f[i + len(c) - 1]
        for j, cj in enumerate(c):
            f[i + j] -= lead * cj
    return f[:len(c) - 1]


@settings(max_examples=60, deadline=None)
@given(distinct_roots(st.integers(-4, 4), 3),
       st.lists(st.integers(-3, 3), min_size=12, max_size=12))
def test_first_relation_is_the_least_krylov_relation(roots, u):
    """The Krylov rows u, uA, uA^2, ... of a Jordan matrix A: their least
    monic relation c annihilates u, the rows below degree deg c are
    independent, and c divides the minimal polynomial of A."""
    A = jordan(roots)
    K = [np.array(u[:len(A)], dtype=object)]
    for _ in range(len(A)):
        K.append(K[-1].dot(A))
    c = first_relation(np.array(K))
    assert c[-1] == 1
    assert not any(sum(ci * k for ci, k in zip(c, K)))
    below = RowSpace(len(A))
    below.extend(_fit(np.array(K[:len(c) - 1])))
    assert below.dim == len(c) - 1
    assert not any(poly_rem(minimal_polynomial(A), c))


def rowspace_first_relation(K) -> list[int]:
    """The least monic relation among the integer rows K by exact
    fraction-free elimination of their transpose, as first_relation found
    it before it ran modulo primes: the first free column d is the first
    row in the span of the rows before it, and its kernel vector is zero
    past d."""
    columns = RowSpace(len(K))
    columns.extend(_fit(K).T)
    d = columns.free[0]
    c = kernel(columns)[0]
    return [int(x) // int(c[d]) for x in c[:d + 1]]


@st.composite
def conjugated_krylov_rows(draw):
    """The Krylov rows u, uA, ..., uA^n of A = U^-1 J U, for a Jordan matrix
    J with roots past 2^32 and a unimodular U = (unit lower)(unit upper)
    with small entries, so A is an integer matrix that is not triangular.
    u = w U, and w is drawn in the first Jordan block half of the time, so
    that the rows uA^t = w J^t U stay in its invariant subspace."""
    roots = draw(distinct_roots(st.integers(2 ** 33, 2 ** 40).flatmap(
        lambda r: st.sampled_from([r, -r])), 3))
    J = jordan(roots)
    n = len(J)
    lower, upper = (np.eye(n, dtype=object) for _ in range(2))
    for i in range(n):
        for j in range(i):
            lower[i, j] = draw(SMALL)
            upper[j, i] = draw(SMALL)
    U = lower.dot(upper)
    V, e = _inverse(_fit(U))
    assert e == 1
    A = V.astype(object).dot(J).dot(U)
    w = draw(st.lists(SMALL, min_size=n, max_size=n).filter(any))
    if draw(st.booleans()) and any(w[:roots[0][1]]):
        w = w[:roots[0][1]] + [0] * (n - roots[0][1])
    K = [np.array(w, dtype=object).dot(U)]
    for _ in range(n):
        K.append(K[-1].dot(A))
    return np.array(K)


@settings(max_examples=60, deadline=None)
@given(conjugated_krylov_rows())
def test_first_relation_matches_rowspace_elimination(K):
    """Modulo primes with one exact certificate against exact elimination,
    on Krylov rows whose entries pass 2^64 after two steps and whose
    relation may stop short of the dimension."""
    if len(K) > 2:
        assert max(abs(int(x)) for x in K[-1]) > 2 ** 64
    assert first_relation(K) == rowspace_first_relation(K)


def test_first_relation_skips_a_prime_where_the_rank_drops():
    """The Krylov rows (1, (1 + p)^t) of diag(1, 1 + p) at (1, 1) are
    independent over Q below degree 2, but modulo p, the first prime of
    the sequence, row 1 equals row 0: that prime must be skipped."""
    p = next(ratlinalg._primes())
    K = _fit([[1, (1 + p) ** t] for t in range(3)])
    assert _relations_mod(K, [p]) == [(1, [p - 1, 1])]
    assert first_relation(K) == [1 + p, -(2 + p), 1] == rowspace_first_relation(K)


def test_certificate_refuses_a_lift_from_too_few_primes(monkeypatch):
    """y - 1000 relates the rows (1), (1000).  Modulo 7, 7 * 11 and
    7 * 11 * 13 = 1001 the symmetric lift of -1000 is 1, a relation the
    exact product refuses each time; 17 more primes it up to 17017, past
    twice the coefficient, and the true relation is certified."""
    drawn = []
    monkeypatch.setattr(ratlinalg, "_primes",
                        lambda: (drawn.append(p) or p for p in [7, 11, 13, 17, 19, 23]))
    assert first_relation([[1], [1000]]) == [-1000, 1]
    assert drawn == [7, 11, 13, 17]


def test_first_relation_refuses_rows_without_an_integral_relation():
    with pytest.raises(ValueError, match="rows have no relation"):
        first_relation(np.eye(2, dtype=np.int64))
    with pytest.raises(ValueError, match="rows have no relation"):
        first_relation([[3, 1], [2 ** 70, 5]])
    # 2 K[1] = K[0]: the least relation y - 1/2 is not integral
    with pytest.raises(ValueError, match="not integral"):
        first_relation([[2, 4], [1, 2]])


def test_primes_are_the_primes_below_2_30():
    """The first 40 primes of the sequence against trial division."""
    want, n = [], 2 ** 30 - 1
    while len(want) < 40:
        if all(n % q for q in range(3, isqrt(n) + 1, 2)):
            want.append(n)
        n -= 2
    assert list(islice(ratlinalg._primes(), 40)) == want


def exact_closure_dim(u, ops) -> int:
    """The dimension of the closure of the row u, or of the rows of the
    matrix u, under v -> v A for the matrices A of ops, over Q."""
    u = np.atleast_2d(u)
    space = RowSpace(u.shape[1])
    grown = space.extend(u)
    while len(grown):
        grown = space.extend(np.concatenate([_dot(grown, A) for A in ops]))
    return space.dim


CLOSURE_PRIME = next(q for q in range(2 ** 28 - 1, 8, -2) if ratlinalg._is_prime(q))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_closure_modulo_a_prime_matches_the_exact_closure(data):
    n = data.draw(st.integers(1, 5))
    u = data.draw(arrays(np.int64, (n,), elements=SMALL))
    ops = [data.draw(arrays(np.int64, (n, n), elements=SMALL))
           for _ in range(data.draw(st.integers(1, 2)))]
    p = CLOSURE_PRIME
    assert ClosureMod(u, p).close([A % p for A in ops]) == exact_closure_dim(u, ops)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closure_continued_matches_the_closure_under_all(data):
    n = data.draw(st.integers(1, 5))
    u = data.draw(arrays(np.int64, (n,), elements=SMALL))
    ops = [data.draw(arrays(np.int64, (n, n), elements=SMALL)) % CLOSURE_PRIME
           for _ in range(data.draw(st.integers(2, 3)))]
    k = data.draw(st.integers(1, len(ops) - 1))
    continued = ClosureMod(u, CLOSURE_PRIME)
    dims = [continued.close(ops[:k]), continued.close(ops[k:])]
    whole = ClosureMod(u, CLOSURE_PRIME)
    assert dims[1] == whole.close(ops) and dims[0] <= dims[1]
    assert dims[0] == ClosureMod(u, CLOSURE_PRIME).close(ops[:k])
    # both in reduced echelon form modulo p, so equal spaces hold equal rows
    assert sorted(map(tuple, continued.B.tolist())) == sorted(map(tuple, whole.B.tolist()))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closure_from_several_rows_matches_the_exact_closure(data):
    """Started from several rows at once: the same closure as over Q,
    with every starting row in the space."""
    n = data.draw(st.integers(1, 5))
    rows = data.draw(arrays(np.int64, (data.draw(st.integers(1, 12)), n), elements=SMALL))
    ops = [data.draw(arrays(np.int64, (n, n), elements=SMALL))
           for _ in range(data.draw(st.integers(1, 2)))]
    closure = ClosureMod(rows, CLOSURE_PRIME)
    assert closure.close([A % CLOSURE_PRIME for A in ops]) == exact_closure_dim(rows, ops)
    assert closure.B.shape == (closure.dim, n) and sorted(closure.free) == sorted(
        set(range(n)) - set(closure.pivots))
    # the space spans every row: each reduces to zero modulo it
    assert not closure.reduce(rows % CLOSURE_PRIME).any()


def test_closure_modulo_a_prime_only_ever_undercounts():
    """(1, 0) A = (0, p): two dimensions over Q, one modulo p."""
    p = CLOSURE_PRIME
    u, A = np.array([1, 0]), np.array([[0, p], [0, 0]])
    assert exact_closure_dim(u, [A]) == 2
    assert ClosureMod(u, p).close([A % p]) == 1


def test_is_prime_matches_trial_division_below_2_28():
    odd = range(2 ** 28 - 1, 2 ** 28 - 400, -2)
    assert [n for n in odd if ratlinalg._is_prime(n)] == [
        n for n in odd if all(n % q for q in range(3, isqrt(n) + 1, 2))]


@given(st.lists(st.integers(-10 ** 20, 10 ** 20), min_size=2, max_size=8),
       st.integers(-10 ** 6, 10 ** 6))
def test_deflate_divides_by_y_minus_x(f, x):
    q, value = deflate(f, x)
    assert poly_mul(q, [-x, 1])[:len(f)] == [c - value * (i == 0) for i, c in enumerate(f)]
    assert len(q) == len(f) - 1


def test_integer_roots_name_the_factor_of_the_scaled_operator():
    # 6 * (y - 1/2)(y^2 + y/3 + 1/4) for the operator A / 6 of A = companion(f)
    f = poly_mul([-3, 1], [9, 2, 1])
    with pytest.raises(NonSplitQuotient, match=r"rationals: \[1/4, 1/3, 1\]$"):
        integer_roots(f, companion(f), 6)
    with pytest.raises(NonSplitQuotient, match=r"rationals: \[9, 2, 1\]$"):
        integer_roots(f, companion(f))


@settings(deadline=None)
@given(st.lists(st.fractions(max_denominator=10 ** 20).map(lambda q: q * 10 ** 20),
                min_size=12, max_size=12),
       st.sampled_from([(12,), (3, 4), (2, 3, 2)]), st.integers(1, 12))
def test_cleared_any_shape_is_canonical(values, shape, scale):
    """(A, d) = _cleared(V, scale) has A / d = V / scale entrywise, d > 0
    and no factor shared by all of A and d, for ints and Fractions given
    as an object array or as nested lists of any shape."""
    V = np.array([int(q) if q.denominator == 1 else q for q in values],
                 dtype=object).reshape(shape)
    for form in (V, V.tolist()):
        A, d = _cleared(form, scale)
        assert A.shape == shape and A.dtype in (np.int64, object)
        assert d > 0 and gcd(int(np.gcd.reduce(A, axis=None)), d) == 1
        assert [Fraction(int(a), d) for a in A.reshape(-1).tolist()] == \
            [Fraction(q) / scale for q in values]


@pytest.mark.parametrize("values,named", [
    (np.array([0.5, 1.0]), "dtype float64"),
    (np.array([[1.0]], dtype=np.float32), "dtype float32"),
    (np.array([True, False]), "dtype bool"),
    ([0.5, 1], "0.5"),
    ([[1, Fraction(1, 2)], [np.float64(2.0), 0]], "np.float64(2.0)"),
])
def test_cleared_refuses_inexact_input(values, named):
    """Truncating a float would change the value, so it is refused, and
    the message names the dtype or the entry."""
    with pytest.raises(TypeError) as refused:
        _cleared(values)
    assert named in str(refused.value)


def relation_mod(K, p):
    """The first row of K in the span of the rows before it modulo p, with
    its relation's residues (the last one 1), by elimination on Python ints
    row by row; None when the rows are independent modulo p."""
    basis = []                                  # (pivot, row, combination)
    for d, row in enumerate(K.tolist()):
        v, c = [x % p for x in row], [0] * d + [1]
        for pivot, b, comb in basis:
            f = v[pivot]
            v = [(x - f * y) % p for x, y in zip(v, b)]
            c = [(x - f * y) % p for x, y in zip(c, comb + [0] * (len(c) - len(comb)))]
        nonzero = [k for k, x in enumerate(v) if x]
        if not nonzero:
            return d, c
        inv = pow(v[nonzero[0]], -1, p)
        basis.append((nonzero[0], [x * inv % p for x in v], [x * inv % p for x in c]))
    return None


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_relations_mod_of_one_prime_and_of_a_batch_agree(data):
    """A batch of primes finds, per prime, what that prime alone finds, and
    both what elimination on Python ints finds: on rows with a planted
    dependency, with more rows than columns, and with primes that divide
    entries."""
    rows, width = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 6))
    K = np.array(data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=width,
                                             max_size=width), min_size=rows, max_size=rows)),
                 dtype=np.int64)
    if rows > 2 and data.draw(st.booleans()):
        K[-1] = K[0] * data.draw(st.integers(-3, 3)) + K[1]
    primes = data.draw(st.lists(st.sampled_from([2, 3, 5, 97, 1_000_003, 268_435_399]),
                                min_size=1, max_size=4, unique=True))
    want = [relation_mod(K, p) for p in primes]
    assert _relations_mod(K, primes) == want
    assert [_relations_mod(K, [p])[0] for p in primes] == want
