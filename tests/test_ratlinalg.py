"""The fraction-free RowSpace and the rational boundary of ratlinalg
against a plain Fraction Gauss-Jordan elimination written here."""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleintwist.ratlinalg import (RowSpace, _cleared, _fit, generalized_eigenspace,
                                  invert, kernel_basis, minimal_polynomial)

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
        grown += space.add(vec)
    want, pivots = gauss_jordan(rows, width)
    assert space.dim == grown == len(want)
    assert space.pivots == pivots
    check_invariants(space)
    assert [[Fraction(int(x), int(r[p])) for x in r] for r, p in zip(space.rows, pivots)] == want
    for vec in extra + rows:
        got = space.reduce(np.array(vec, dtype=object))
        assert [Fraction(int(x), space.scale) for x in got] == residue(want, pivots, vec)
        assert space.contains(vec) == (not any(residue(want, pivots, vec)))


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
        assert space.add(vec)
    want, pivots = gauss_jordan(rows, 5)
    assert space.pivots == pivots
    check_invariants(space)
    for vec in rows:
        assert not space.reduce(np.array(vec, dtype=object)).any()
        assert space.contains(vec)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_invert_and_kernel(data):
    width, rows = data.draw(matrices())
    A = [[Fraction(x, data.draw(st.integers(1, 5))) for x in row] for row in rows]
    for k in kernel_basis(A):
        assert all(sum(a * x for a, x in zip(row, k)) == 0 for row in A)
    if A:
        assert len(kernel_basis(A)) == width - len(gauss_jordan(A, width)[0])
    square = A[:width]
    if len(square) == width and len(gauss_jordan(square, width)[0]) == width:
        inv = invert(square)
        assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inv)]
                for row in square] == [[int(i == j) for j in range(width)] for i in range(width)]
    elif len(square) == width:
        with pytest.raises(ValueError, match="singular"):
            invert(square)


def test_minimal_polynomial_and_generalized_eigenspace():
    # e0 -> e0 + e1, e1 -> e1, e2 -> 0 on row vectors: x (x - 1)^2
    R = [[1, 1, 0], [0, 1, 0], [0, 0, 0]]
    assert minimal_polynomial(R) == [0, 1, -2, 1]
    assert minimal_polynomial(np.array(R) * 6, 6) == [0, 1, -2, 1]
    assert generalized_eigenspace(R, 1, 2).tolist() == [[1, 0, 0], [0, 1, 0]]
    assert generalized_eigenspace(R, 1, 1).tolist() == [[0, 1, 0]]
    assert generalized_eigenspace(np.array(R) * 3, 1, 2, 3).tolist() == [[1, 0, 0], [0, 1, 0]]
    assert generalized_eigenspace(R, 0, 1).tolist() == [[0, 0, 1]]
    half = [[Fraction(1, 2), 0], [0, Fraction(-3, 4)]]
    assert minimal_polynomial(half) == [Fraction(-3, 8), Fraction(1, 4), 1]



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
