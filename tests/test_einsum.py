"""The guarded, support-pruned contraction behind every exact tensor
identity, and the slab-by-slab identity test built on it, against plain
einsum on Python integers."""

import re
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import kleintwist
from kleintwist import hopf
from kleintwist.hopf import _first_difference, _safe_einsum
from kleintwist.ratlinalg import _INT64_LIMIT

# Every subscript string written in the package source.
SUBSCRIPTS = sorted({m for path in Path(kleintwist.__file__).parent.glob("*.py")
                     for m in re.findall(r'"([a-z]+(?:,[a-z]+)*->[a-z]*)"',
                                         path.read_text())})

# The ones with n^4 outputs, which identities are evaluated slab by slab.
N4_SUBSCRIPTS = [s for s in SUBSCRIPTS if len(s.split("->")[1]) == 4]

SMALL = st.integers(-3, 3)
# Two such factors already pass 2^53, where float64 would round an odd sum.
NEAR_2_27 = st.integers(2 ** 27 - 3, 2 ** 27 + 3).flatmap(
    lambda v: st.sampled_from([v, -v, 0]))
NEAR_2_40 = st.integers(2 ** 40 - 3, 2 ** 40 + 3).flatmap(
    lambda v: st.sampled_from([v, -v, 0]))
# Two such factors fit int64, a sum of three products does not.
NEAR_2_31 = st.sampled_from([2_000_000_000, -2_000_000_000, 0])


def reference(subscripts, ops):
    return np.einsum(subscripts, *[a.astype(object) for a in ops])


def proven_bound(subscripts, ops, sizes):
    """The unpruned worst case: product of largest entries times terms."""
    lhs, rhs = subscripts.split("->")
    bound = 1
    for a in ops:
        bound *= max(1, int(np.abs(a.astype(object)).max()) if a.size else 0)
    for ch in set(lhs) - set(rhs) - {","}:
        bound *= sizes[ch]
    return bound


@st.composite
def operands(draw, subscripts):
    lhs = subscripts.split("->")[0]
    terms = lhs.split(",")
    sizes = {ch: draw(st.integers(1, 3)) for ch in sorted(set(lhs) - {","})}
    ops = []
    for term in terms:
        elements = draw(st.sampled_from([SMALL, NEAR_2_27, NEAR_2_31, NEAR_2_40]))
        a = draw(arrays(np.int64, tuple(sizes[ch] for ch in term), elements=elements))
        if draw(st.integers(0, 9)) == 0:
            a[...] = 0                                  # an all-zero operand
        for axis, ch in enumerate(term):                # forced zero slices
            for pos in draw(st.sets(st.integers(0, sizes[ch] - 1), max_size=sizes[ch])):
                index = [slice(None)] * a.ndim
                index[axis] = pos
                a[tuple(index)] = 0
        ops.append(a)
    return sizes, ops


def test_every_package_subscript_is_covered():
    assert len(SUBSCRIPTS) > 30
    assert {"i,i->", "ixc,xab,ap,cr,jyr,ypq,bqs->ijs", "iab,jcd,acp,bdq->ijpq",
            "jde,kgh,dg,ieh->ijk"} <= set(SUBSCRIPTS)


@pytest.mark.parametrize("subscripts", SUBSCRIPTS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pruned_matches_plain_einsum(subscripts, data):
    sizes, ops = data.draw(operands(subscripts))
    got = _safe_einsum(subscripts, *ops)
    want = reference(subscripts, ops)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(np.asarray(got, dtype=object), np.asarray(want, dtype=object))
    if proven_bound(subscripts, ops, sizes) < _INT64_LIMIT:
        assert np.asarray(got).dtype == np.int64


def test_scalar_output():
    u = np.array([3, 0, -2, 0], dtype=np.int64)
    e = np.array([5, 7, 0, 1], dtype=np.int64)
    assert int(_safe_einsum("i,i->", u, e)) == 15


def test_all_zero_operand_gives_zeros_of_full_shape():
    out = _safe_einsum("ij,jk->ik", np.zeros((2, 3), dtype=np.int64),
                       np.ones((3, 4), dtype=np.int64))
    assert out.shape == (2, 4) and out.dtype == np.int64 and not out.any()


def test_cut_output_index_is_scattered_back():
    a = np.array([[1, 2], [0, 0], [3, 4]], dtype=np.int64)   # row 1 is zero
    b = np.array([[1, 0, 5], [2, 0, 6]], dtype=np.int64)     # column 1 is zero
    out = _safe_einsum("ij,jk->ik", a, b)
    assert out.dtype == np.int64
    assert out.tolist() == (a @ b).tolist()


def test_object_fallback_is_exact():
    big = np.array([2 ** 40 + 1, -(2 ** 40), 0], dtype=np.int64)
    m = np.array([[2 ** 40 - 1, 0, 0], [0, 2 ** 40, 0], [0, 0, 7]], dtype=np.int64)
    out = _safe_einsum("i,ij,j->", big, m, big)
    want = sum(int(big[i]) * int(m[i, j]) * int(big[j]) for i in range(3) for j in range(3))
    assert type(out) is int and out == want and want > 2 ** 64


def test_object_step_summed_to_a_scalar_stays_exact():
    # the cut leaves i one position long, so the first step sums to a scalar
    a = np.array([2 ** 40 + 1, 0], dtype=np.int64)
    b = np.array([2 ** 27 - 3, 5], dtype=np.int64)
    out = _safe_einsum("i,i->", a, b)
    assert type(out) is int and out == (2 ** 40 + 1) * (2 ** 27 - 3)


def test_bound_counts_summed_terms():
    v = np.full((3, 3), 2_000_000_000, dtype=np.int64)   # v*v < 2^62 < 3*v*v
    out = _safe_einsum("ij,jk->ik", v, v)
    assert out.tolist() == [[3 * 2_000_000_000 ** 2] * 3] * 3


def test_past_float64_range_stays_exact():
    v = np.array([2 ** 27 + 1], dtype=np.int64)     # v*v needs 55 bits
    out = _safe_einsum("i,i->", v, v)
    assert out.dtype == np.int64 and int(out) == 2 ** 54 + 2 ** 28 + 1


def test_just_under_float64_range_stays_exact():
    a = np.full((2, 4), 2 ** 25 - 1, dtype=np.int64)
    b = np.full((4, 3), 2 ** 26 + 1, dtype=np.int64)
    a[1] *= -1
    want = 4 * (2 ** 25 - 1) * (2 ** 26 + 1)           # odd terms, sum just under 2^53
    assert 2 ** 53 - 2 ** 28 < want < 2 ** 53
    out = _safe_einsum("ij,jk->ik", a, b)
    assert out.dtype == np.int64
    assert out.tolist() == [[want] * 3, [-want] * 3]


def renamed(subscripts):
    """The same contraction with other index names, so that the two sides
    of an identity line up by output position, not by name."""
    return subscripts.translate(str.maketrans("abcdijkpqwxy", "ABCDIJKPQWXY"))


@pytest.mark.parametrize("subscripts", N4_SUBSCRIPTS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_identity_matches_plain_einsum(subscripts, data):
    _, ops = data.draw(operands(subscripts))
    s = data.draw(st.sampled_from([1, 2, 3]))
    other = [a * s if k == 0 else a.copy() for k, a in enumerate(ops)]
    if other[0].size and data.draw(st.booleans()):         # one entry off
        flat = other[0].reshape(-1)
        flat[data.draw(st.integers(0, flat.size - 1))] += data.draw(st.sampled_from([1, -1]))
    ky = data.draw(st.sampled_from([1, 5, 2 ** 30]))
    kx = s * ky if data.draw(st.integers(0, 3)) else s * ky + 1
    # slabs of 1-4 rows of an index of at most 3: short remainder slabs too
    height = data.draw(st.integers(1, 4))
    # X * kx = Y * ky is X / ky = Y / kx: the factors ride on operand scales
    x = (subscripts, *[(a, 1) for a in ops[:-1]], (ops[-1], ky))
    y = (renamed(subscripts), (other[0], kx), *[(a, 1) for a in other[1:]])
    with patch.object(hopf, "_slab_height", lambda widest: height):
        got = _first_difference(x, y)
    differ = np.argwhere(reference(subscripts, ops) * kx != reference(subscripts, other) * ky)
    assert got == (tuple(differ[0].tolist()) if len(differ) else None)


def test_scales_past_float64_take_the_int64_tier():
    one = np.ones((1, 1), dtype=np.int64)
    k = 2 ** 53 + 1                     # float64 rounds it to 2^53
    tiers = []
    real = hopf._tier
    with patch.object(hopf, "_tier", lambda bound: tiers.append(real(bound)) or tiers[-1]):
        # cross-multiplied: 1 * k against 1 * (k - 1), one value once rounded to float64
        assert _first_difference(("ij,jk->ik", (one, k - 1), (one, 1)),
                                 ("ij,jk->ik", (one, k), (one, 1))) == (0, 0)
        # cross-multiplied: 1 * k against k * 1, equal
        assert _first_difference(("ij,jk->ik", (one, 1), (one, 1)),
                                 ("ij,jk->ik", (k * one, k), (one, 1))) is None
    assert tiers == [np.int64, np.int64]
