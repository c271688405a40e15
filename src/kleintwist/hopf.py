"""Finite-dimensional Hopf *-algebras over exact rationals.

An FDHopf stores its six structure tensors (unit, multiplication,
comultiplication, counit, antipode, star) only as integer arrays, each
with one scale in canonical cleared form (ratlinalg._cleared); the
int/Fraction dicts of its constructor come back as views derived on
first access.  Axiom verification runs exact integer einsums on those
arrays, so an exhaustive check at dimension 24 stays fast while remaining
exact.  Every integer step (conversion, contraction, rescaling) goes
through one bound guard, ratlinalg's _int_dtype, that switches to
arbitrary-precision object arrays before int64 could overflow.  A HopfMap
stores one cleared integer matrix and is verified on the same arrays.

A contraction is planned once from its whole operands, then evaluated one
slab of its first output index at a time (loop tiling, after Wolf and
Lam, PLDI 1991).  Planning cuts each index to the positions where all
operands carrying it have a nonzero slice, which drops only zero terms,
so sparse operands such as a cocycle living on a Klein subgroup cost in
proportion to their support rather than to n^k.  Over the cut sizes it
proves a bound, scales included, on the absolute value of every partial
sum the contraction can form, and the bound picks one of three tiers:
below 2^53 float64 arrays through BLAS, below 2^62 int64, otherwise
Python ints.  The float tier is exact because every operand entry,
product and partial sum is then an integer of magnitude below 2^53, which
float64 represents exactly, so no operation rounds, whatever order BLAS
sums in; callers only ever see int64 or object arrays.  Planning also runs
once every step of the contraction path that does not reach the slab
index, such as the j-side factor of the bialgebra identity; each slab
runs only the steps that carry it, so no step on a slab forms an n^4
array whole.

Every axiom, of an algebra, a Hopf map or a cocycle, is an identity
X = Y between two such contractions, and one routine decides them all
(_first_difference).  Each side is given as its subscripts and its
operands, every operand an (integer array, scale) pair, as stored or as
_contract returns a contraction of pairs, so that side stands for X / dx,
dx the product of its scales.  The two sides are cross-multiplied by
their scales, X * (dy/g) = Y * (dx/g) with g = gcd(dx, dy), planned
together so that their cut outputs line up and share one tier, and
compared slab against slab, stopping at the first slab that differs; the
first differing index is located in that slab only, and names a failing
Hopf-map suite.  No axiom check, and neither twist nor pullback, writes
out a product of scales.

Character enumeration runs on the same integer arrays.  It quotients by
the commutator ideal, built in batched rounds of contractions, and splits
the commutative quotient with one generic element a_t = sum_k (k+1)^t e_fk
(primitive-element splitting, after Friedl and Ronyai, STOC 1985), trying
t = 1, 2, ... until a_t separates the characters.  Its minimal polynomial
f is the least relation among the Krylov rows u, u a_t, ... of the unit u
(ratlinalg.first_relation: modulo word-size primes, one exact
certificate), and integer_roots finds its roots or raises NonSplitQuotient,
naming a basis element whose own operator does not split.  When deg f is
the quotient's dimension, the quotient is Q[y]/(f), and the socle of its
local factor at a root r is the line of v_r = u (f / (y - r))(a_t), on
which every element acts by its value at r's character: one product puts
every basis operator on every v_r, and one exact residual certifies those
scalars.  Only otherwise do the blocks come from generalized eigenspaces
(RowSpace echelon bases, values from traces); a squarefree f of lower
degree, or a block on which some operator keeps two eigenvalues, moves on
to the next t.  Three contractions on the cleared value matrix audit the
characters; one with the coproduct and the antipode gives their group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import gcd, lcm, prod
from typing import Iterable, Optional

import numpy as np

from .errors import (ClosureFailure, EvaluationNotPermutation, KleintwistError,
                     NonSplitQuotient, NotASubgroup)
from .perm import PermGroup, Permutation, generate, klein_group
from .ratlinalg import (RowSpace, _cleared, _dot, _fit, _int_dtype, _inverse, _max_abs,
                        _primitive, _rescale, _sub, deflate, first_relation,
                        generalized_eigenspace, integer_roots, minimal_polynomial)


def _q(v: int, d: int):
    """v / d, an int when it is integral, else a Fraction."""
    return v // d if v % d == 0 else Fraction(v, d)


def _dense(shape, entries) -> np.ndarray:
    """The object array of the given shape holding the sum of the values
    given as (index, value) pairs, zero elsewhere.  An index outside the
    shape raises ValueError rather than wrap around."""
    sums: dict = {}
    for idx, c in entries:
        sums[idx] = sums[idx] + c if idx in sums else c
    A = np.zeros(shape, dtype=object)
    if sums:
        keys = np.array(list(sums)).reshape(len(sums), -1)
        bad = (keys < 0) | (keys >= shape)
        if bad.any():
            raise ValueError(f"index {list(sums)[bad.any(axis=1).argmax()]} "
                             f"out of range for shape {shape}")
        A[tuple(keys.T)] = list(sums.values())
    return A


def _entries(A: np.ndarray, d: int):
    """(index tuple, A[index] / d) over the nonzero entries of the integer
    array A, in row-major order."""
    idx = np.nonzero(A)
    return zip(map(tuple, np.transpose(idx).tolist()),
               (_q(v, d) for v in A[idx].tolist()))


def _row_vectors(A: np.ndarray, d: int) -> list:
    """Row i of the integer matrix A / d as the vector {k: value}."""
    out = [{} for _ in range(len(A))]
    for (i, k), c in _entries(A, d):
        out[i][k] = c
    return out


class FDHopf:
    """Hopf *-algebra given by structure tensors on a fixed basis.

    Only the tensors cleared to integers are stored: U[i], M[i, j, k],
    C[i, j, k], E[i], S[i, k] and T[i, k] are the coefficient of e_i in the
    unit, of e_k in e_i e_j, of e_j (x) e_k in delta(e_i), the counit at
    e_i, and the coefficient of e_k in S(e_i) and in e_i*, each times its
    scale dU, dM, dC, dE, dS, dT.  Every pair is in canonical cleared form
    (ratlinalg._cleared): the scale is the lcm of the denominators, so
    entries and scale share no factor and equal algebras store equal
    arrays.  The arrays are read-only; instances are immutable.

    The constructor takes the dict form, which the attributes unit, mult,
    comult, counit, antipode and star give back as views: mult maps a
    basis pair (i, j) to the vector {k: c} of e_i * e_j (missing pairs
    mean zero), comult maps i to the (j, k, c) terms of delta(e_i) sorted
    by (j, k) (repeated terms are summed), antipode and star map each
    basis index to a vector.  Values are ints when integral, else
    Fractions.  The views are shared, so callers copy before editing.
    """

    def __init__(self, dim: int, basis_labels: Iterable[str], unit: dict,
                 mult: dict, comult: dict, counit: Iterable,
                 antipode: dict, star: dict):
        labels = tuple(basis_labels)
        if len(labels) != dim:
            raise ValueError("label count disagrees with dim")
        n, rng = dim, range(dim)
        counit = tuple(counit)
        if len(counit) != dim:
            raise ValueError("counit length disagrees with dim")
        tensors = (
            _dense((n,), unit.items()),
            _dense((n, n, n), (((i, j, k), c) for (i, j), v in mult.items()
                               for k, c in v.items())),
            _dense((n, n, n), (((i, j, k), c) for i in rng for j, k, c in comult[i])),
            _dense((n,), enumerate(counit)),
            _dense((n, n), (((i, k), c) for i in rng for k, c in antipode[i].items())),
            _dense((n, n), (((i, k), c) for i in rng for k, c in star[i].items())),
        )
        self._store(labels, [_cleared(A) for A in tensors])

    @classmethod
    def _from_tensors(cls, basis_labels, *tensors) -> "FDHopf":
        """The algebra of six (integer array, scale) pairs, in the order
        U, M, C, E, S, T, brought to canonical form without a Fraction."""
        H = cls.__new__(cls)
        H._store(tuple(basis_labels), [_cleared(A, d) for A, d in tensors])
        return H

    def _store(self, labels: tuple, tensors: list) -> None:
        for A, _ in tensors:
            A.flags.writeable = False
        self.dim, self.basis_labels, self._pairs = len(labels), labels, tuple(tensors)
        ((self.U, self.dU), (self.M, self.dM), (self.C, self.dC),
         (self.E, self.dE), (self.S, self.dS), (self.T, self.dT)) = tensors

    # -- the dict form, derived on first access ------------------------

    @cached_property
    def unit(self) -> dict:
        return {i: c for (i,), c in _entries(self.U, self.dU)}

    @cached_property
    def mult(self) -> dict:
        out: dict = {}
        for (i, j, k), c in _entries(self.M, self.dM):
            out.setdefault((i, j), {})[k] = c
        return out

    @cached_property
    def comult(self) -> dict:
        out: dict = {i: [] for i in range(self.dim)}
        for (i, j, k), c in _entries(self.C, self.dC):
            out[i].append((j, k, c))
        return out

    @cached_property
    def counit(self) -> tuple:
        return tuple(_q(v, self.dE) for v in self.E.tolist())

    @cached_property
    def antipode(self) -> dict:
        return dict(enumerate(_row_vectors(self.S, self.dS)))

    @cached_property
    def star(self) -> dict:
        return dict(enumerate(_row_vectors(self.T, self.dT)))

    # -- structure predicates -----------------------------------------

    def noncommutative_witness(self) -> Optional[tuple]:
        """The first pair i < j, in row-major order, with e_i e_j != e_j e_i."""
        differ = (self.M != self.M.transpose(1, 0, 2)).any(axis=2)
        pairs = np.argwhere(np.triu(differ, 1))
        return tuple(pairs[0].tolist()) if len(pairs) else None

    def is_commutative(self) -> bool:
        return self.noncommutative_witness() is None

    def structure_equal(self, other: "FDHopf") -> bool:
        return self.dim == other.dim and all(
            d == e and np.array_equal(A, B)
            for (A, d), (B, e) in zip(self._pairs, other._pairs))

    def dump(self) -> str:
        lines = [f"dim {self.dim}"]
        lines += [f"basis[{i}] = {lab}" for i, lab in enumerate(self.basis_labels)]
        formats = ("u -> {} : {}", "m[{}][{}] -> {} : {}", "d[{}] -> {},{} : {}",
                   "e[{}] : {}", "s[{}] -> {} : {}", "t[{}] -> {} : {}")
        for fmt, (A, d) in zip(formats, self._pairs):
            for idx, c in _entries(A, d):
                f = Fraction(c)
                lines.append(fmt.format(*idx, f"{f.numerator}/{f.denominator}"))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"FDHopf(dim={self.dim})"


# -- concrete constructions ------------------------------------------


def group_algebra(G: PermGroup) -> FDHopf:
    """Q[G]: basis the group elements (sorted), group-like coproduct."""
    elems = G.sorted_elements()
    idx = {g: i for i, g in enumerate(elems)}
    n = len(elems)
    ident = Permutation.identity(G.degree)
    mult = {(i, j): {idx[elems[i] * elems[j]]: 1} for i in range(n) for j in range(n)}
    return FDHopf(
        dim=n,
        basis_labels=[g.cycle_string() for g in elems],
        unit={idx[ident]: 1},
        mult=mult,
        comult={i: [(i, i, 1)] for i in range(n)},
        counit=[1] * n,
        antipode={i: {idx[elems[i].inverse()]: 1} for i in range(n)},
        star={i: {idx[elems[i].inverse()]: 1} for i in range(n)},
    )


def function_algebra(G: PermGroup) -> FDHopf:
    """C(G): delta-function basis (sorted group order), pointwise product,
    coproduct dual to group multiplication."""
    elems = G.sorted_elements()
    idx = {g: i for i, g in enumerate(elems)}
    n = len(elems)
    ident = Permutation.identity(G.degree)
    comult = {}
    for i, g in enumerate(elems):
        comult[i] = [(idx[a], idx[a.inverse() * g], 1) for a in elems]
    return FDHopf(
        dim=n,
        basis_labels=["d_" + g.cycle_string() for g in elems],
        unit={i: 1 for i in range(n)},
        mult={(i, i): {i: 1} for i in range(n)},
        comult=comult,
        counit=[1 if g == ident else 0 for g in elems],
        antipode={i: {idx[elems[i].inverse()]: 1} for i in range(n)},
        star={i: {i: 1} for i in range(n)},
    )


# -- exhaustive axiom verification ------------------------------------


_FLOAT64_LIMIT = 2 ** 53
# Entries of the largest array one slab may form: 512 KB in float64, so a
# slab stays in cache and no step on a slab allocates an n^4 array.
_SLAB_ENTRIES = 2 ** 16
# A step forming fewer products than this runs as a plain einsum loop,
# which costs less than the path search and reshapes of the BLAS route.
_BLAS_WORK = 2 ** 16


def _tier(bound: int):
    """The dtype of a contraction whose partial sums are proven below bound:
    float64 below 2^53, where BLAS is exact on integers, else int64 or
    objects by the integer guard."""
    return np.float64 if bound < _FLOAT64_LIMIT else _int_dtype(bound)


@lru_cache(maxsize=1024)
def _greedy_path(subscripts: str, shapes: tuple) -> list:
    """einsum's greedy pairwise path, which depends on the shapes only."""
    dummies = [np.broadcast_to(np.float64(0), shape) for shape in shapes]
    return np.einsum_path(subscripts, *dummies, optimize="greedy")[0][1:]


def _slab_height(widest: int) -> int:
    """Rows of the slab index per slab, when one row of the widest array a
    slab forms holds widest entries."""
    return max(1, _SLAB_ENTRIES // widest)


def _support(terms, arrays) -> dict:
    """Per index, the positions where every operand carrying it has a
    nonzero slice, as a boolean mask."""
    live: dict = {}
    for term, arr in zip(terms, arrays):
        for axis, ch in enumerate(term):
            hit = arr.any(axis=tuple(a for a in range(arr.ndim) if a != axis))
            live[ch] = live.get(ch, True) & hit
    return live


class _Contraction:
    """One exact integer contraction times an integer scale, planned once
    from its whole operands and evaluated slab by slab over its first
    output index, the slab index.

    Every index is cut to its live positions (_support; the caller may
    widen an output index's): any other position multiplies a zero, so the
    cut contraction equals the full one.  The bound, the scale times the
    product of the cut operands' largest entries (at least 1 each) times
    the number of terms summed per output entry, bounds every product,
    partial sum and intermediate of any contraction order, and _tier picks
    the dtype from it.  ready() casts the operands, folds the scale into
    the smallest one, and runs once every step of the pairwise path that
    no slab operand reaches; slab() runs the remaining steps on rows of the
    slab index only.  Results stay in the tier's dtype."""

    def __init__(self, subscripts: str, arrays, scale: int = 1, live: Optional[dict] = None):
        lhs, self.rhs = subscripts.split("->")
        self.terms = lhs.split(",")
        self.sizes = {ch: arr.shape[axis] for term, arr in zip(self.terms, arrays)
                      for axis, ch in enumerate(term)}
        live = _support(self.terms, arrays) if live is None else live
        self.cut = {ch: np.flatnonzero(hit) for ch, hit in live.items() if not hit.all()}
        self.ops = [arr[self.positions(term)] if self.cut.keys() & set(term) else arr
                    for term, arr in zip(self.terms, arrays)]
        self.scale = scale
        self.bound = scale
        for arr in self.ops:
            self.bound *= max(1, _max_abs(arr))
        for ch in set(lhs) - set(self.rhs) - {","}:
            self.bound *= self.size(ch)
        self.length = self.size(self.rhs[0]) if self.rhs else 1

    def size(self, ch: str) -> int:
        return len(self.cut[ch]) if ch in self.cut else self.sizes[ch]

    def positions(self, term: str, rows: slice = slice(None)):
        """The index of the cut positions of term, rows of the slab index
        taken among them."""
        return np.ix_(*[(self.cut[ch] if ch in self.cut else np.arange(self.sizes[ch]))
                        [rows if ch == self.rhs[:1] else slice(None)] for ch in term])

    def ready(self, dtype, path=None) -> "_Contraction":
        """Cast to dtype and contract what no slab needs; path is an
        einsum_path list of steps, greedy when not given."""
        self.dtype = dtype
        ops = list(self.ops)
        if self.scale != 1:
            k = min(range(len(ops)), key=lambda j: ops[j].size)
            ops[k] = _rescale(ops[k], self.scale)
        ops = [np.asarray(a, dtype=dtype) for a in ops]     # a 0-d product may be an int
        slab = self.rhs[:1]
        nodes = [(term, op, bool(slab) and slab in term) for term, op in zip(self.terms, ops)]
        if path is None:
            path = [tuple(range(len(ops)))]
            if len(ops) > 2:
                path = _greedy_path(",".join(self.terms) + "->" + self.rhs,
                                    tuple(a.shape for a in ops))
        widest = 1
        for step in path:
            parts = [nodes.pop(k) for k in sorted(step, reverse=True)]
            parts.sort(key=lambda part: not part[2])        # slab operands first
            keep = set(self.rhs).union(*(term for term, _, _ in nodes))
            out = "".join(dict.fromkeys(ch for term, _, _ in parts for ch in term
                                        if ch in keep))
            if not parts[0][2]:
                nodes.append((out, self._step(parts, out), False))
                continue
            if len(parts) == 2 and not parts[1][2]:
                parts[1] = self._arranged(parts[0][0], parts[1], keep)
            nodes.append((out, parts, True))
            widest = max(widest, prod(self.size(ch) for ch in out if ch != slab))
        (self.root,) = nodes
        widest = max(widest, prod(self.size(ch) for ch in self.rhs[1:]))
        self.height = _slab_height(widest)
        return self

    @staticmethod
    def _arranged(a_term: str, part, keep):
        """A fixed operand laid out as numpy's batched-matmul route reads
        its right operand against the slab operand a: shared kept indices,
        then summed ones in a's order, then its own.  It is copied once
        here, so no slab copies it."""
        term, op, _ = part
        shared = [ch for ch in a_term if ch in term]
        want = "".join([ch for ch in shared if ch in keep] + [ch for ch in shared if ch not in keep]
                       + [ch for ch in term if ch not in a_term])
        if want == term:
            return part
        return want, np.ascontiguousarray(np.einsum(f"{term}->{want}", op)), False

    def _step(self, parts, out: str) -> np.ndarray:
        sub = ",".join(term for term, _, _ in parts) + "->" + out
        ops = [op for _, op, _ in parts]
        if self.dtype is object:
            # plain einsum: numpy's optimize route turns an object operand that
            # a step sums to a scalar into int64 (numpy 2.4), which can wrap
            return np.asarray(np.einsum(sub, *ops), dtype=object)
        sizes = {ch: n for term, op, _ in parts for ch, n in zip(term, op.shape)}
        return np.einsum(sub, *ops, optimize=prod(sizes.values()) >= _BLAS_WORK)

    def _eval(self, node, rows: slice):
        term, value, slabbed = node
        if not slabbed:
            return value
        if isinstance(value, np.ndarray):
            index = [slice(None)] * value.ndim
            index[term.index(self.rhs[0])] = rows
            return value[tuple(index)]
        return self._step([(part[0], self._eval(part, rows), False) for part in value], term)

    def slab(self, lo: int, hi: int):
        """Rows lo:hi of the slab index (cut positions) of the result."""
        term = self.root[0]
        out = self._eval(self.root, slice(lo, hi))
        if term == self.rhs and self.dtype is not object:
            return out
        return np.einsum(f"{term}->{self.rhs}", out)

    def slabs(self):
        """(rows, slab) over the whole slab index, one slab at a time."""
        for lo in range(0, self.length, self.height):
            rows = slice(lo, min(lo + self.height, self.length))
            yield rows, self.slab(rows.start, rows.stop)

    def evaluate(self):
        """The whole result, int64 or object, scattered back to full shape."""
        if not self.rhs:
            out = self.slab(0, 1)
            return out if self.dtype is object else out.astype(np.int64)
        full = np.zeros([self.sizes[ch] for ch in self.rhs],
                        dtype=object if self.dtype is object else np.int64)
        cut = bool(self.cut.keys() & set(self.rhs))
        for rows, part in self.slabs():
            full[self.positions(self.rhs, rows) if cut else rows] = part
        return full


def _safe_einsum(subscripts: str, *arrays: np.ndarray, path=None) -> np.ndarray:
    """Exact integer einsum over the operands' common support, in the tier
    its proven bound allows (see _Contraction):

    - below 2^53: float64 with BLAS, written back as int64.  Every value
      formed is an integer float64 holds exactly, so no step rounds;
    - below 2^62: int64;
    - otherwise: exact Python ints in object arrays.

    An output index that was cut is scattered back into a zero array of
    full shape; a scalar result of the object tier is a Python int."""
    plan = _Contraction(subscripts, arrays)
    return plan.ready(_tier(plan.bound), path).evaluate()


def _contract(subscripts: str, *pairs, path=None) -> tuple:
    """The contraction of (integer array, scale) pairs as one such pair:
    the exact einsum of the arrays over the product of the scales."""
    return (_safe_einsum(subscripts, *(A for A, _ in pairs), path=path),
            prod(d for _, d in pairs))


def _first_difference(x: tuple, y: tuple) -> Optional[tuple]:
    """The first index, in row-major order, at which the contractions X / dx
    and Y / dy differ, or None when they agree.  Each side is (subscripts,
    *pairs), every operand an (integer array, scale) pair and dx, dy the
    products of a side's scales; the two outputs line up axis by axis.

    The sides are cross-multiplied by their scales, X * (dy/g) = Y * (dx/g)
    with g = gcd(dx, dy), so only integers are compared.  Both are planned
    once: each output axis is cut to the positions live on either side, so
    the two cut results line up, and both take the tier of the larger
    proven bound, scales included.  They are then evaluated one slab of
    the first output axis at a time; the index is located only in the
    first slab that differs, and neither side exists whole."""
    (xs, *xp), (ys, *yp) = x, y
    dx, dy = prod(d for _, d in xp), prod(d for _, d in yp)
    g = gcd(dx, dy)
    x_ops, y_ops = [A for A, _ in xp], [A for A, _ in yp]
    (x_lhs, x_out), (y_lhs, y_out) = xs.split("->"), ys.split("->")
    x_live, y_live = _support(x_lhs.split(","), x_ops), _support(y_lhs.split(","), y_ops)
    if [len(x_live[a]) for a in x_out] != [len(y_live[b]) for b in y_out]:
        raise ValueError(f"{xs} and {ys} have outputs of different shapes")
    for a, b in zip(x_out, y_out):
        x_live[a] = y_live[b] = x_live[a] | y_live[b]
    X = _Contraction(xs, x_ops, dy // g, x_live)
    Y = _Contraction(ys, y_ops, dx // g, y_live)
    dtype = _tier(max(X.bound, Y.bound))
    X.ready(dtype)
    Y.ready(dtype)
    Y.height = X.height = min(X.height, Y.height)
    for (rows, a), (_, b) in zip(X.slabs(), Y.slabs()):
        if not np.array_equal(a, b):
            at = np.argwhere(a != b)[0]
            return tuple(int(ix.ravel()[k]) for ix, k in zip(X.positions(x_out, rows), at))
    return None


def verify_hopf_axioms(H: FDHopf) -> dict:
    """Exhaustive check of all six axiom suites; returns booleans keyed
    associativity/coassociativity/counit/bialgebra/antipode/star.
    Failures are reported, never thrown."""
    U, M, C, E, S, T = H._pairs
    eye = ("ij->ij", (np.eye(H.dim, dtype=np.int64), 1))
    one = ("->", (np.ones((), dtype=np.int64), 1))
    suites = {
        "associativity": [(("ijw,wkp->ijkp", M, M), ("jkw,iwp->ijkp", M, M)),
                          (("i,ijp->jp", U, M), eye), (("j,ijp->ip", U, M), eye)],
        "coassociativity": [(("iab,axy->ixyb", C, C), ("iab,bxy->iaxy", C, C))],
        "counit": [(("iab,a->ib", C, E), eye), (("iab,b->ia", C, E), eye)],
        # Delta(xy) = Delta(x) Delta(y) first; its j-side factor jcd,bdq is
        # contracted once, every slab reads it
        "bialgebra": [(("iab,jcd,acp,bdq->ijpq", C, C, M, M), ("ijw,wpq->ijpq", M, C)),
                      (("ijw,w->ij", M, E), ("i,j->ij", E, E)),
                      (("i,ipq->pq", U, C), ("i,j->ij", U, U)),
                      (("i,i->", U, E), one)],
        "antipode": [(("iab,aw,wbp->ip", C, S, M), ("i,j->ij", E, U)),
                     (("iab,bw,awp->ip", C, S, M), ("i,j->ij", E, U))],
        "star": [(("ij,jk->ik", T, T), eye),
                 (("ijw,wp->ijp", M, T), ("jb,ia,bap->ijp", T, T, M)),
                 (("iw,wab->iab", T, C), ("iab,ax,by->ixy", C, T, T)),
                 (("i,ij->j", U, T), ("i->i", U)),
                 (("ij,j->i", T, E), ("i->i", E))],
    }
    return {name: all(_first_difference(x, y) is None for x, y in identities)
            for name, identities in suites.items()}


def all_axioms_pass(report: dict) -> bool:
    return all(report.values())


# -- structure-preserving maps ----------------------------------------


class HopfMap:
    """Linear map between FDHopf instances.  Only its matrix cleared to
    integers is stored, in canonical form: P[i, p] / d is the coefficient
    of e_p in the image of e_i.  images, the basis images as vectors, is
    a view derived on first access.  verify() checks exhaustively that
    the map intertwines all six structure tensors."""

    def __init__(self, source: FDHopf, target: FDHopf, images: list):
        if len(images) != source.dim:
            raise ValueError("image count disagrees with source dim")
        P = _dense((source.dim, target.dim),
                   (((i, p), c) for i, v in enumerate(images) for p, c in v.items()))
        self._store(source, target, *_cleared(P))

    @classmethod
    def _from_matrix(cls, source: FDHopf, target: FDHopf, P: np.ndarray,
                     d: int) -> "HopfMap":
        """The map of the integer matrix P over the scale d."""
        pi = cls.__new__(cls)
        pi._store(source, target, *_cleared(P, d))
        return pi

    def _store(self, source: FDHopf, target: FDHopf, P: np.ndarray, d: int) -> None:
        P.flags.writeable = False
        self.source, self.target, self.P, self.d = source, target, P, d
        self.failure: Optional[str] = None

    @cached_property
    def images(self) -> list:
        return _row_vectors(self.P, self.d)

    def verify(self) -> bool:
        """Exhaustive check that the map carries unit, product, coproduct,
        counit, antipode and star of the source to those of the target.
        Each suite is one identity (label, X, Y) for _first_difference,
        each side one contraction of the stored pairs (P, d) and the two
        algebras' tensors, which that routine cross-multiplies by their
        scales.  The suites run in that order; the first one that fails is
        named in `failure` with the first index at which its sides differ
        (a pair, for mult), in row-major order."""
        sU, sM, sC, sE, sS, sT = self.source._pairs
        tU, tM, tC, tE, tS, tT = self.target._pairs
        P = (self.P, self.d)
        suites = (
            ("unit", ("i,ip->p", sU, P), ("i->i", tU)),
            ("mult at ({},{})", ("ijw,wp->ijp", sM, P), ("ia,jb,abp->ijp", P, P, tM)),
            ("comult at {}", ("iab,ax,by->ixy", sC, P, P), ("ip,pxy->ixy", P, tC)),
            ("counit at {}", ("ip,p->i", P, tE), ("i->i", sE)),
            ("antipode at {}", ("iw,wp->ip", sS, P), ("ip,pq->iq", P, tS)),
            ("star at {}", ("iw,wp->ip", sT, P), ("ip,pq->iq", P, tT)),
        )
        self.failure = None
        for failure, x, y in suites:
            at = _first_difference(x, y)
            if at is not None:
                # format() drops the indices past the template's fields
                self.failure = failure.format(*at)
                return False
        return True

    def then(self, other: "HopfMap") -> "HopfMap":
        """This map followed by other, whose source must be this map's target."""
        if not other.source.structure_equal(self.target):
            raise ValueError("the second map's source is not the first map's target")
        return HopfMap._from_matrix(self.source, other.target,
                                    *_contract("ia,ap->ip", (self.P, self.d), (other.P, other.d)))

    def inverse(self) -> "HopfMap":
        if self.source.dim != self.target.dim:
            raise ValueError("only square maps can be inverted")
        B, e = _inverse(self.P)       # (P / d)^-1 = d B / e
        return HopfMap._from_matrix(self.target, self.source, _rescale(B, self.d), e)


def restriction_surjection(G: PermGroup, V: PermGroup) -> HopfMap:
    """C(G) -> C(V), delta_g kept when g lies in V and killed otherwise."""
    if not V.is_subgroup_of(G):
        raise NotASubgroup("V is not a subgroup of G")
    src = function_algebra(G)
    tgt = function_algebra(V)
    velems = V.sorted_elements()
    vidx = {g: i for i, g in enumerate(velems)}
    images = []
    for g in G.sorted_elements():
        images.append({vidx[g]: 1} if g in V.elements else {})
    out = HopfMap(src, tgt, images)
    if not out.verify():
        raise KleintwistError(f"restriction failed to intertwine: {out.failure}")
    return out


def fourier_iso(V: PermGroup, dual_generators: Optional[tuple] = None) -> HopfMap:
    """C(V) -> Q[K] for an elementary abelian 2-group V of order 1, 2 or
    4, sending delta_v to the averaged character sum (1/|V|) sum chi(v) t_chi.

    K is a fixed concrete carrier of the dual group (the Klein group for
    |V| = 4).  dual_generators = (g1, g2) pins the labeling: basis slot 1
    of K is the character with value -1 on g1 and +1 on g2, slot 2 the
    reverse, slot 3 their product.
    """
    if not V.is_abelian() or any(p.order() > 2 for p in V.elements):
        raise ValueError("need an elementary abelian 2-group of exponent 2")
    elems = V.sorted_elements()
    order = len(elems)
    ident = Permutation.identity(V.degree)
    if order == 1:
        if dual_generators:
            raise ValueError("trivial group takes no dual generators")
        K = PermGroup(1, {Permutation.identity(1)})
        chars = [{ident: 1}]
    elif order == 2:
        g = next(p for p in elems if not p.is_identity())
        if dual_generators is None:
            dual_generators = (g,)
        if tuple(dual_generators) != (g,):
            raise ValueError("dual generator must be the unique involution")
        K = generate(2, [Permutation.from_cycles(2, [(1, 2)])])
        chars = [{ident: 1, g: 1}, {ident: 1, g: -1}]
    elif order == 4:
        nonid = [p for p in elems if not p.is_identity()]
        if dual_generators is None:
            dual_generators = (nonid[0], nonid[1])
        g1, g2 = dual_generators
        if g1 not in V.elements or g2 not in V.elements:
            raise ValueError("dual generators must lie in V")
        if g1 == g2 or g1.is_identity() or g2.is_identity():
            raise ValueError("dual generators must be distinct involutions")
        K = klein_group()
        g3 = g1 * g2
        chars = [
            {ident: 1, g1: 1, g2: 1, g3: 1},
            {ident: 1, g1: -1, g2: 1, g3: -1},
            {ident: 1, g1: 1, g2: -1, g3: -1},
            {ident: 1, g1: -1, g2: -1, g3: 1},
        ]
    else:
        raise ValueError(f"order {order} is not 1, 2 or 4")
    src = function_algebra(V)
    tgt = group_algebra(K)
    images = []
    for v in elems:
        images.append({k: Fraction(chars[k][v], order) for k in range(order)})
    out = HopfMap(src, tgt, images)
    if not out.verify():
        raise KleintwistError(f"fourier map failed to intertwine: {out.failure}")
    return out


# -- characters --------------------------------------------------------


@dataclass(frozen=True)
class Character:
    """A multiplicative unital *-functional, stored by its basis values."""

    parent: FDHopf
    values: tuple


def characters(H: FDHopf) -> list:
    """All characters of H, exactly, from the algebra's integer tensors.

    Quotients by the two-sided commutator ideal and splits the commutative
    quotient with one generic element: one socle row per root of its
    minimal polynomial when it generates the quotient, else one block per
    generalized eigenspace.  An operator whose minimal polynomial does not
    split over the rationals raises NonSplitQuotient."""
    n = H.dim
    if n > 64:
        raise ValueError(f"character enumeration restricted to dim <= 64, got {n}")
    M = H.M

    # The ideal is spanned by the commutators e_i e_j - e_j e_i and closed
    # under multiplication by basis vectors on both sides; each round
    # multiplies only the rows that grew the ideal in the round before.
    ideal = RowSpace(n)
    grown = ideal.extend(_sub(M, M.transpose(1, 0, 2)))
    while len(grown):
        grown = ideal.extend(np.concatenate([
            _safe_einsum("ka,ajp->kjp", grown, M).reshape(-1, n),
            _safe_einsum("ka,jap->kjp", grown, M).reshape(-1, n)]))

    free = ideal.free
    m = len(free)
    if m == 0:
        raise KleintwistError("commutator ideal is the whole algebra")
    # proj[i] = ideal.scale * (coordinates of e_i in the quotient basis
    # e_f, f free); Q[j, k] = dQ * (coordinates of e_fj e_fk), so Q[j] is
    # the operator of multiplication by e_fj on row vectors.
    proj = ideal.reduce(np.eye(n, dtype=np.int64))[:, free]
    Q = _safe_einsum("jkp,pq->jkq", M[np.ix_(free, free)], proj)
    dQ = H.dM * ideal.scale

    # a_t = sum_k (k+1)^t e_fk.  A sum of m exponentials c_k (k+1)^t, not all
    # c_k zero, vanishes for at most m - 1 values of t (Descartes' rule of
    # signs for exponential sums): two characters agree on a_t, or a_t has
    # no nilpotent part on a non-reduced block, for fewer than m^3 values
    # of t.  A is a_t's operator over its content, and f its minimal
    # polynomial: at width m from the Krylov rows u A^i when u acts as a
    # nonzero scalar, as the unit does (then u p(A) = 0 only if p(A) = 0).
    u = _safe_einsum("i,iq->q", H.U, proj)
    L = _safe_einsum("k,kpq->pq", u, Q)
    unital = L[0, 0] != 0 and np.count_nonzero(L) == m and (L.diagonal() == L[0, 0]).all()
    for t in range(1, m ** 3 + 1):
        A = _safe_einsum("k,kpq->pq", _fit([(k + 1) ** t for k in range(m)]), Q)
        A = _fit(A // max(1, abs(int(np.gcd.reduce(A, axis=None)))))
        K = _fit(np.array(list(accumulate([u.astype(object)] + [A.astype(object)] * m, np.dot))))
        f = first_relation(K) if unital else minimal_polynomial(A)
        try:
            roots = integer_roots(f, A)
            if unital and len(f) == m + 1:
                # p(y) -> u p(A) maps Q[y]/(f) onto the quotient: the socle of
                # the local factor at r is the line of v_r = u (f / (y - r))(A),
                # and every element acts on it by its value at r's character.
                V = _primitive(_dot(_fit([deflate(f, r)[0] for r, _ in roots]), K[:m]))
                at = np.arange(len(V)), (V != 0).argmax(axis=1)
                Y = _dot(V, Q)                  # Y[j, r] = v_r Q[j]
                lead, value = V[at], Y[:, at[0], at[1]]
                if (_rescale(Y, lead[:, None]) != _rescale(V, value[..., None])).any():
                    raise KleintwistError("block not invariant under multiplication")
                blocks = [(int(c) * dQ, y) for c, y in zip(lead, value.T)]
                break
            if len(f) <= m and all(k == 1 for _, k in roots):
                continue        # A is diagonalizable, with an eigenspace not a line
            pieces = [generalized_eigenspace(A, r, k) for r, k in roots]
            if sum(len(X) for X in pieces) != m:
                raise KleintwistError("generalized eigenspaces do not span the quotient")
            blocks = []
            for X in pieces:
                block = RowSpace(m)
                block.extend(X)
                # Every operator on every row at once.  The block is invariant
                # exactly when every residue vanishes; an image's coefficient on
                # row r is then its entry at pivot r over that pivot: D[j] / s.
                Y = _dot(block.rows, Q)
                if (block.reduce(Y.reshape(-1, m)) != 0).any():
                    raise KleintwistError("block not invariant under multiplication")
                D = _rescale(Y[:, :, block.pivots], block.cofactors())
                # D[j] and D[j] / s share their generalized eigenspaces
                if any(len(integer_roots(minimal_polynomial(R), R)) > 1 for R in D):
                    break       # not a local block: try the next t
                b, s = block.dim, block.scale * dQ
                blocks.append((b * s, np.trace(D, axis1=1, axis2=2,
                                               dtype=_int_dtype(b * _max_abs(D)))))
        except NonSplitQuotient:
            for j, c in enumerate(free):    # name a basis element, never a_t
                try:
                    integer_roots(minimal_polynomial(Q[j]), Q[j], dQ)
                except NonSplitQuotient as err:
                    raise NonSplitQuotient(f"{err}, basis element {H.basis_labels[c]}") from None
            raise KleintwistError("basis operators split but a combination does not") from None
        if len(blocks) == len(pieces):
            break
    else:
        raise KleintwistError("no generic element separates the characters")

    # chi(e_f) for the quotient basis is the eigenvalue of each operator on
    # the socle row, or on a block its trace / b; then chi(e_i) = sum_f proj[i, f]
    # chi(e_f) / ideal.scale.  R holds every character's chi(e_f) over one
    # denominator dX, so one contraction gives all values X over dX.
    dens = [den * ideal.scale for den, _ in blocks]
    dX = lcm(*dens)
    R = _fit(np.stack([_rescale(tr, dX // den) for den, (_, tr) in zip(dens, blocks)]))
    X = _safe_einsum("iq,fq->fi", proj, R)

    # The certificate: chi(1) = 1, chi(e_i e_j) = chi(e_i) chi(e_j) over all
    # pairs, chi(e_i*) = chi(e_i), as three contractions on X.
    unital = _safe_einsum("i,fi->f", H.U, X) == H.dU * dX
    mult_bad = (_rescale(_safe_einsum("ijp,fp->fij", M, X), dX)
                != _rescale(_safe_einsum("fi,fj->fij", X, X), H.dM))
    star_bad = _safe_einsum("ip,fp->fi", H.T, X) != _rescale(X, H.dT)
    for f in range(len(X)):
        if not unital[f]:
            raise KleintwistError("character fails chi(1) = 1")
        if mult_bad[f].any():
            i, j = np.argwhere(mult_bad[f])[0]
            raise KleintwistError(f"character not multiplicative at ({i},{j})")
        if star_bad[f].any():
            raise KleintwistError(
                f"character not star-compatible at {np.flatnonzero(star_bad[f])[0]}")

    rows = sorted(tuple(int(x) for x in row) for row in X)
    if len(set(rows)) != len(rows):
        raise KleintwistError("duplicate characters from distinct blocks")
    return [Character(H, tuple(_q(x, dX) for x in row)) for row in rows]


def convolution_identity(H: FDHopf) -> Character:
    return Character(H, tuple(H.counit))


def character_group(H: FDHopf, chars: Optional[list] = None) -> PermGroup:
    """The characters under convolution, returned through their left
    regular action on the sorted character list (position j holds the
    j-th smallest value tuple; the permutation of chi sends the slot of
    eta to the slot of chi * eta).

    All products and inverses come from one exact integer contraction of
    the cleared character-value matrix X with the coproduct and the
    antipode; each result row is looked up among the rows of X scaled by
    the same factor, so a match is an exact equality of functionals."""
    if chars is None:
        chars = characters(H)
    chars = sorted(chars, key=lambda ch: tuple(Fraction(v) for v in ch.values))
    index = {ch.values: i for i, ch in enumerate(chars)}
    if len(index) != len(chars):
        raise ClosureFailure("character list contains duplicates")
    if convolution_identity(H).values not in index:
        raise ClosureFailure("counit is not in the character list")
    X, dX = _cleared([ch.values for ch in chars])
    # (f*g)(e_i) * dC*dX^2 and f(S e_i) * dS*dX, keyed by X's rows * dC*dX and * dS.
    products = _safe_einsum("iab,fa,gb->fgi", H.C, X, X).tolist()
    inverses = _safe_einsum("iw,fw->fi", H.S, X).tolist()
    product_slot = {tuple(row): j for j, row in enumerate(_rescale(X, H.dC * dX).tolist())}
    inverse_slots = {tuple(row) for row in _rescale(X, H.dS).tolist()}
    perms = set()
    for f in range(len(chars)):
        images = []
        for row in products[f]:
            pos = product_slot.get(tuple(row))
            if pos is None:
                raise ClosureFailure(
                    "convolution product escapes the character set")
            images.append(pos + 1)
        perms.add(Permutation(images))
        if tuple(inverses[f]) not in inverse_slots:
            raise ClosureFailure("convolution inverse escapes the character set")
    return PermGroup(len(chars), perms)


def character_to_permutation(G: PermGroup, chi: Character) -> Permutation:
    """Evaluate a character of an algebra built on C(G)'s basis at the
    row-sum generators u_ij = sum over {g : g(j) = i} of the basis delta
    functions; the value matrix must be a permutation matrix."""
    elems = G.sorted_elements()
    if chi.parent.dim != len(elems):
        raise ValueError("character dimension disagrees with group order")
    deg = G.degree
    mat = [[0] * deg for _ in range(deg)]
    for i in range(1, deg + 1):
        for j in range(1, deg + 1):
            val = sum((Fraction(chi.values[k]) for k, g in enumerate(elems)
                       if g(j) == i), Fraction(0))
            if val not in (0, 1):
                raise EvaluationNotPermutation(
                    f"u[{i}][{j}] evaluates to {val}")
            mat[i - 1][j - 1] = int(val)
    images = [0] * deg
    for j in range(deg):
        col = [mat[i][j] for i in range(deg)]
        if sum(col) != 1:
            raise EvaluationNotPermutation(f"column {j + 1} sum != 1")
        images[j] = col.index(1) + 1
    if sorted(images) != list(range(1, deg + 1)):
        raise EvaluationNotPermutation("value matrix is not a permutation matrix")
    return Permutation(images)
