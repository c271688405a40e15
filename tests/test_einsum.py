"""The guarded, support-pruned contraction behind every exact tensor
identity, and the slab-by-slab identity test built on it, against plain
einsum on Python integers."""

import gc
import re
import weakref
from functools import lru_cache
from math import gcd, prod
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import kleintwist
from kleintwist import checks, hopf
from kleintwist.cocycle import build_s4tau, double_twist
from kleintwist.hopf import (_first_difference, _safe_einsum, characters, function_algebra,
                             restriction_surjection, verify_hopf_axioms)
from kleintwist.perm import easy_klein, subgroups_of_type, symmetric_group
from kleintwist.ratlinalg import _INT64_LIMIT

# Every subscript string written in the package source.
SUBSCRIPTS = sorted({m for path in Path(kleintwist.__file__).parent.glob("*.py")
                     for m in re.findall(r'"([a-z]+(?:,[a-z]+)*->[a-z]*)"',
                                         path.read_text())})

# The ones with n^4 outputs, which identities are evaluated slab by slab.
N4_SUBSCRIPTS = [s for s in SUBSCRIPTS if len(s.split("->")[1]) == 4]
REDUCED_BIALGEBRA = "gi,iab,acp,ycd,bdq->gypq"

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
    # at 0, every pairwise step runs as one broadcast matmul (hopf._matmul)
    blas_work = data.draw(st.sampled_from([hopf._BLAS_WORK, 0]))
    with patch.object(hopf, "_BLAS_WORK", blas_work):
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
    # every side planned (at 0) and slabbed over any output axis (no array
    # fits a slab of 0 entries): the first differing index is still the
    # first in row-major order; or planned and formed once; or every side
    # whole (up to the object tier) as one nested loop; or every side whose
    # loop forms more products than its pairwise steps, three or more
    # operands, planned and formed pairwise, the others whole
    route = data.draw(st.sampled_from(["slabbed", "unslabbed", "nested", "pairwise"]))
    blas_work = {"slabbed": 0, "nested": 2 ** 40, "pairwise": 2 ** 40}.get(
        route, data.draw(st.sampled_from([hopf._BLAS_WORK, 0])))
    slab_entries = {"slabbed": 0, "unslabbed": 2 ** 62}.get(route, hopf._SLAB_ENTRIES)
    plan_cost = {"nested": 2 ** 62, "pairwise": 0}.get(route, hopf._PLAN_COST)
    axis = data.draw(st.integers(0, 3))
    # X * kx = Y * ky is X / ky = Y / kx: the factors ride on operand scales
    x = (subscripts, *[(a, 1) for a in ops[:-1]], (ops[-1], ky))
    y = (renamed(subscripts), (other[0], kx), *[(a, 1) for a in other[1:]])
    with patch.object(hopf, "_slab_height", lambda widest: height), \
            patch.object(hopf, "_BLAS_WORK", blas_work), \
            patch.object(hopf, "_SLAB_ENTRIES", slab_entries), \
            patch.object(hopf, "_PLAN_COST", plan_cost), \
            patch.object(hopf, "_slab_axis", lambda plans, outs: min(axis, len(outs[0]) - 1)):
        got = _first_difference(x, y)
    differ = np.argwhere(reference(subscripts, ops) * kx != reference(subscripts, other) * ky)
    assert got == (tuple(differ[0].tolist()) if len(differ) else None)


@pytest.mark.parametrize("height", [1, 2])
def test_difference_on_a_later_axis_is_the_first_in_row_major_order(monkeypatch, height):
    # sides differing at (0, 2) and (1, 0), slabbed over the second axis:
    # the slab of column 0 differs first, but (0, 2) comes first
    eye, b = np.eye(3, dtype=np.int64), np.arange(1, 10, dtype=np.int64).reshape(3, 3)
    other = b.copy()
    other[0, 2] += 1
    other[1, 0] -= 1
    monkeypatch.setattr(hopf, "_BLAS_WORK", 0)
    monkeypatch.setattr(hopf, "_SLAB_ENTRIES", 0)           # both sides slabbed
    monkeypatch.setattr(hopf, "_slab_height", lambda widest: height)
    monkeypatch.setattr(hopf, "_slab_axis", lambda plans, outs: 1)
    assert _first_difference(("ij,jk->ik", (eye, 1), (b, 1)),
                             ("ij,jk->ik", (eye, 1), (other, 1))) == (0, 2)


def test_whole_contractions_run_pairwise_only_where_the_loop_costs_far_more():
    def whole(subscripts, *shapes):
        lhs, rhs = subscripts.split("->")
        ops = [np.ones(shape, dtype=np.int64) for shape in shapes]
        terms = lhs.split(",")
        return hopf._whole_bound(terms, rhs, ops, hopf._sizes(terms, ops)) is not None

    # HopfMap's mult identity for C(S4) -> C(V): 2 x 36,864 products in one
    # nested loop of three operands, 10,752 in two pairwise steps
    assert not whole("ia,jb,abp->ijp", (24, 4), (24, 4), (4, 4, 4))
    # one or two operands, and loops that save less, stay whole
    assert whole("ijw,wp->ijp", (24, 24, 24), (24, 4))
    assert whole("ia,jb,ab->ij", (24, 4), (24, 4), (4, 4))
    assert whole("iab,aw,wbp->ip", (4, 4, 4), (4, 4), (4, 4, 4))
    # a path step of m operands forms m - 1 products per point: 2 x 4^6
    # here, besides 4^4 in the first step
    saving = 3 * 4 ** 7 - 4 ** 4 - 2 * 4 ** 6
    assert hopf._pairwise_saving(["iab", "jde", "ad", "bek"], "ijk",
                                 dict(zip("iabjdek", [4] * 7)), 4 ** 7) == saving


def test_scales_past_float64_take_the_int64_tier():
    one = np.ones((1, 1), dtype=np.int64)
    k = 2 ** 53 + 1                     # float64 rounds it to 2^53
    real = hopf._tier
    for blas_work in (hopf._BLAS_WORK, 0):
        tiers = []
        with patch.object(hopf, "_tier", lambda bound: tiers.append(real(bound)) or tiers[-1]), \
                patch.object(hopf, "_BLAS_WORK", blas_work):
            # cross-multiplied: 1 * k against 1 * (k - 1), one value once rounded to float64
            assert _first_difference(("ij,jk->ik", (one, k - 1), (one, 1)),
                                     ("ij,jk->ik", (one, k), (one, 1))) == (0, 0)
            # cross-multiplied: 1 * k against k * 1, equal
            assert _first_difference(("ij,jk->ik", (one, 1), (one, 1)),
                                     ("ij,jk->ik", (k * one, k), (one, 1))) is None
        # planned (at 0), each identity takes one tier; whole, its nested
        # loop runs in int64 whatever the bound, and no tier is taken
        assert tiers == ([np.int64, np.int64] if blas_work == 0 else [])


def _spied_plans(monkeypatch):
    """Every contraction planned while the caller runs, as (subscripts, plan)."""
    plans = []
    real = hopf._Contraction.ready

    def spy(self, *args):
        plans.append((",".join(self.terms) + "->" + self.rhs, real(self, *args)))
        return plans[-1][1]

    monkeypatch.setattr(hopf._Contraction, "ready", spy)
    return plans


def _pairwise(plan) -> bool:
    """Each step joins two distinct nodes formed before it, and every
    operand ends in the one root: m operands, m - 1 steps."""
    formed = len(plan.terms)
    for a, b in plan.steps:
        if not (a != b and a < formed and b < formed):
            return False
        formed += 1
    return len(plan.steps) == len(plan.terms) - 1


def test_each_shape_is_planned_once_and_only_a_plan_past_one_slab_is_slabbed(monkeypatch,
                                                                             fresh):
    """One round trip, planners' caches empty: every contraction shape is
    planned once, by _layout with no slab index; a shape whose unslabbed
    plan fits one slab is never planned for a slab index (_layout or
    _pairs with one); the twisted product and the reduced bialgebra
    identity still slab, over s and over q.  The choice of slab index is
    joint, so the steps of the identity's other side, which fits, are
    counted (_slab_steps) and break the tie between y and q."""
    calls = {name: [] for name in ("_pairs", "_layout", "_slab_steps", "_greedy_path")}
    for name, seen in calls.items():
        real = getattr(hopf, name).__wrapped__
        monkeypatch.setattr(hopf, name, lru_cache(maxsize=1024)(
            lambda *key, real=real, seen=seen: seen.append(key) or real(*key)))
    contractions = []
    real_ready = hopf._Contraction.ready

    def ready(self, *args):
        contractions.append(self)
        return real_ready(self, *args)

    monkeypatch.setattr(hopf._Contraction, "ready", ready)
    t = build_s4tau()
    assert double_twist(t).structure_equal(t.base)
    shapes = {c.shape for c in contractions}
    assert sorted(key[:3] for key in calls["_layout"] if not key[3]) == sorted(shapes)
    assert len(set(calls["_greedy_path"])) == len(calls["_greedy_path"])
    slabbed = {",".join(c.terms) + "->" + c.rhs: c.slab_index for c in contractions
               if not c.fits}
    assert slabbed == {"ixc,xab,ap,cr,jyr,ypq,bqs->ijs": "s", REDUCED_BIALGEBRA: "q"}
    searched = {c.shape for c in contractions if not c.fits}
    assert all(c.slab_index == "" for c in contractions if c.fits)
    assert {key[:3] for key in calls["_layout"] if key[3]} == searched
    counted = {key[:3] for key in calls["_slab_steps"]}
    assert {",".join(shape[0]) + "->" + shape[1] for shape in counted - searched} == {
        "gi,iyw,wpq->gypq"}
    assert searched < counted
    assert {key[:3] for key in calls["_pairs"] if key[3]} == searched
    assert sorted(key[:3] for key in calls["_pairs"] if not key[3]) == sorted(shapes)


def test_no_planned_step_takes_more_than_two_operands(monkeypatch, undecided):
    plans = _spied_plans(monkeypatch)
    for cached in (checks._s4tau, checks._s4tau_characters, checks._cs4, checks._qs4):
        cached.cache_clear()
    assert all(result.status == "pass" for result in checks.run(checks.RunConfig()))
    t = build_s4tau()
    double_twist(t)
    characters(t.algebra)
    assert restriction_surjection(symmetric_group(4), easy_klein()).verify()
    assert not [sub for sub, plan in plans if not _pairwise(plan)]
    # among them contractions whose greedy path has a step of three operands
    planned = {sub for sub, _ in plans}
    assert {"gi,iab,acp,ycd,bdq->gypq", "iab,jde,ad,bek->ijk"} <= planned


def test_greedy_three_operand_step_is_split():
    # einsum's greedy path ends in bcp,bdq,ycd->ypq, which numpy runs as one
    # nested loop; planned pairwise it is bcp,bdq once, then one product per slab
    n = 24
    shapes = ((n, n), (n, n, n), (n, n, n), (n, n, n))
    subscripts = "ab,acp,bdq,ycd->ypq"
    assert max(map(len, hopf._greedy_path(subscripts, shapes))) == 3
    rng = np.random.default_rng(0)
    ops = [rng.integers(-3, 4, size=shape) for shape in shapes]
    plan = hopf._Contraction(subscripts, ops)
    plan.ready(hopf._tier(plan.bound))
    assert _pairwise(plan)
    want = np.einsum("cpdq,ycd->ypq", np.einsum("bcp,bdq->cpdq",
                                                  np.einsum("ab,acp->bcp", *ops[:2]), ops[2]),
                     ops[3])
    assert np.array_equal(plan.evaluate(), want)


def numpy_greedy_path(subscripts, shapes):
    """np.einsum_path's greedy path, the reference of hopf._greedy_path."""
    dummies = [np.broadcast_to(np.float64(0), shape) for shape in shapes]
    return [tuple(step) for step in np.einsum_path(subscripts, *dummies, optimize="greedy")[0][1:]]


def test_planner_matches_numpy_on_every_planned_contraction(monkeypatch, undecided):
    seen = set()
    real = hopf._greedy_path
    monkeypatch.setattr(hopf, "_greedy_path",
                        lambda subscripts, shapes: seen.add((subscripts, shapes))
                        or real(subscripts, shapes))
    for cached in (checks._s4tau, checks._s4tau_characters, checks._cs4, checks._qs4):
        cached.cache_clear()
    assert all(result.status == "pass" for result in checks.run(checks.RunConfig()))
    for V in subgroups_of_type(symmetric_group(4), "Klein"):
        t = build_s4tau(V=V)
        assert double_twist(t).structure_equal(t.base)
        assert characters(t.algebra)
    assert len({subscripts for subscripts, _ in seen}) >= 10
    for subscripts, shapes in seen:
        assert real(subscripts, shapes) == numpy_greedy_path(subscripts, shapes), subscripts


@pytest.mark.parametrize("subscripts", [s for s in SUBSCRIPTS if s.count(",") >= 2])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_planner_matches_numpy_on_package_subscripts(subscripts, data):
    lhs = subscripts.split("->")[0]
    sizes = {ch: data.draw(st.integers(1, 30)) for ch in sorted(set(lhs) - {","})}
    shapes = tuple(tuple(sizes[ch] for ch in term) for term in lhs.split(","))
    assert hopf._greedy_path(subscripts, shapes) == numpy_greedy_path(subscripts, shapes)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_planner_matches_numpy_on_drawn_subscripts(data):
    letters = "abcdefgh"
    terms = data.draw(st.lists(st.text(letters, min_size=0, max_size=4).map(
        lambda t: "".join(dict.fromkeys(t))), min_size=1, max_size=7))
    used = sorted(set("".join(terms)))
    out = "".join(data.draw(st.permutations(used))[:data.draw(st.integers(0, len(used)))])
    sizes = {ch: data.draw(st.sampled_from([1, 2, 3, 4, 7, 24])) for ch in used}
    subscripts = ",".join(terms) + "->" + out
    shapes = tuple(tuple(sizes[ch] for ch in term) for term in terms)
    assert hopf._greedy_path(subscripts, shapes) == numpy_greedy_path(subscripts, shapes)


# Every route, as (_BLAS_WORK, _PLAN_COST): all planned (every step a
# matmul), the default, all whole but for the object tier.
ROUTE_WORK = [(0, hopf._PLAN_COST), (hopf._BLAS_WORK, hopf._PLAN_COST), (2 ** 40, 2 ** 62)]


def _routed(monkeypatch, route, run):
    """run() with hopf._BLAS_WORK and hopf._PLAN_COST at route; with it
    whether any contraction was planned, whether any ran whole, and the
    tiers chosen."""
    planned, whole, tiers = [], [], []
    real_ready, real_whole, real_tier = hopf._Contraction.ready, hopf._run_whole, hopf._tier
    with monkeypatch.context() as m:
        m.setattr(hopf, "_BLAS_WORK", route[0])
        m.setattr(hopf, "_PLAN_COST", route[1])
        m.setattr(hopf._Contraction, "ready",
                  lambda self, *a, **k: planned.append(1) or real_ready(self, *a, **k))
        m.setattr(hopf, "_run_whole", lambda *a, **k: whole.append(1) or real_whole(*a, **k))
        m.setattr(hopf, "_tier", lambda bound: tiers.append(real_tier(bound)) or tiers[-1])
        got = run()
    return got, bool(planned), bool(whole), tiers


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_planned_and_whole_routes_agree(data):
    subscripts = data.draw(st.sampled_from(SUBSCRIPTS))
    sizes, ops = data.draw(operands(subscripts))
    n_ops = len(ops)
    # X / dx against Y / dy, Y's operands and scales each a multiple of X's
    x_scales = data.draw(st.lists(st.sampled_from([1, 2, 3, 2 ** 30]), min_size=n_ops,
                                  max_size=n_ops))
    factors = data.draw(st.lists(st.sampled_from([1, 2, 5]), min_size=n_ops, max_size=n_ops))
    other = [a * c for a, c in zip(ops, factors)]
    if other[0].size and data.draw(st.booleans()):         # one entry off
        flat = other[0].reshape(-1)
        flat[data.draw(st.integers(0, flat.size - 1))] += data.draw(st.sampled_from([1, -1]))
    x = (subscripts, *zip(ops, x_scales))
    y = (renamed(subscripts), *zip(other, (d * c for d, c in zip(x_scales, factors))))
    dx, dy = prod(x_scales), prod(x_scales) * prod(factors)
    differ = np.argwhere(reference(subscripts, ops) * dy != reference(subscripts, other) * dx)
    want = tuple(differ[0].tolist()) if len(differ) else None
    # each side's bound run whole, cross-multiplied by the other side's scale
    g = gcd(dx, dy)
    whole_bounds = (proven_bound(subscripts, ops, sizes) * (dy // g),
                    proven_bound(subscripts, other, sizes) * (dx // g))
    naive = prod(sizes.values())
    lhs, rhs = subscripts.split("->")
    saving = hopf._pairwise_saving(lhs.split(","), rhs, sizes, naive)
    with pytest.MonkeyPatch.context() as mp:
        for route in ROUTE_WORK:
            got, planned, whole, tiers = _routed(mp, route,
                                                 lambda: _safe_einsum(subscripts, *ops))
            assert np.array_equal(np.asarray(got, dtype=object),
                                  np.asarray(reference(subscripts, ops), dtype=object))
            object_tier = proven_bound(subscripts, ops, sizes) >= _INT64_LIMIT
            small = naive < route[0] and saving <= route[1]
            assert whole == (small and not object_tier) != planned
            # a whole run takes no tier: its nested loop runs in int64
            assert len(tiers) == (not whole)

            got, planned, whole, tiers = _routed(mp, route, lambda: _first_difference(x, y))
            assert got == want
            # one tier for both sides unless both run whole
            assert len(tiers) == planned and not (whole and object in tiers)
            if not small:
                assert planned and not whole
            elif max(whole_bounds) < _INT64_LIMIT:
                assert whole and not planned


@pytest.mark.parametrize("height", [1, 5, 24])
@pytest.mark.parametrize("plant", [None, ("E", 0), ("E", 7), ("E", 23), ("U", 0), ("U", 13)])
def test_one_whole_side_against_a_planned_side(monkeypatch, undecided, height, plant):
    # S(x1) x2 = e(x) 1: 24^5 products on the left, 24^2 on the right
    H = build_s4tau(verify=False).algebra
    U, M, C, E, S, _ = H._pairs
    if plant is not None:
        name, k = plant
        A, d = {"E": E, "U": U}[name]
        A = A.copy()
        A[k] += 1
        E, U = ((A, d), U) if name == "E" else (E, (A, d))
    left = np.einsum("iab,aw,wbp->ip", C[0], S[0], M[0], optimize=True).astype(object)
    right = np.einsum("i,j->ij", E[0], U[0]).astype(object)
    differ = np.argwhere(left * (E[1] * U[1]) != right * (C[1] * S[1] * M[1]))
    want = tuple(differ[0].tolist()) if len(differ) else None
    monkeypatch.setattr(hopf, "_slab_height", lambda widest: height)
    got, planned, whole, tiers = _routed(monkeypatch, ROUTE_WORK[1], lambda: _first_difference(
        ("iab,aw,wbp->ip", C, S, M), ("i,j->ij", E, U)))
    assert got == want and planned and whole and len(tiers) == 1
    assert (want is None) == (plant is None)


def test_only_contractions_of_blas_work_products_are_planned(monkeypatch):
    t = build_s4tau()
    hopf._DECIDED.clear()                   # build_s4tau decided them all
    sides = []
    real = hopf._first_difference
    monkeypatch.setattr(hopf, "_first_difference",
                        lambda x, y: sides.append((x, y)) or real(x, y))
    plans = _spied_plans(monkeypatch)
    assert all(verify_hopf_axioms(t.algebra).values())

    def naive(side):
        return prod(hopf._sizes(side[0].split("->")[0].split(","), [A for A, _ in side[1:]])
                    .values())

    big = [side[0] for x, y in sides for side in (x, y) if naive(side) >= hopf._BLAS_WORK]
    assert all(prod(plan.sizes.values()) >= hopf._BLAS_WORK for _, plan in plans)
    assert sorted(sub for sub, _ in plans) == sorted(big)
    # 17 identities: 34 sides, of which the 22 that form fewer products run whole
    assert len(sides) == 17 and len(plans) == 12


def test_stored_arrays_are_profiled_once(monkeypatch):
    calls = []
    for name in ("_nonzero_slices", "_max_abs"):
        real = getattr(hopf, name)
        monkeypatch.setattr(hopf, name, lambda arr, real=real, name=name:
                            calls.append((name, arr)) or real(arr))
    H = build_s4tau().algebra
    assert all(verify_hopf_axioms(H).values())
    assert len(characters(H)) == 8
    for A, _ in H._pairs:
        assert [name for name, arr in calls if arr is A] == ["_nonzero_slices", "_max_abs"]


def test_profile_dies_with_its_array():
    H = function_algebra(symmetric_group(3))
    assert all(verify_hopf_axioms(H).values()) and len(characters(H)) == 6
    M, key = weakref.ref(H.M), id(H.M)
    assert key in hopf._PROFILES
    del H
    gc.collect()
    assert M() is None and key not in hopf._PROFILES
