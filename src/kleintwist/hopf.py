"""Finite-dimensional Hopf *-algebras over exact rationals.

An FDHopf stores its six structure tensors (unit, multiplication,
comultiplication, counit, antipode, star) only as integer arrays, each
with one scale in canonical cleared form (ratlinalg._cleared).  Every
algebra and Hopf map in the package is built straight from integer
arrays: Q[G] and C(G) from one table of G, a map from its integer
matrix.  The int/Fraction dict constructor serves only the benchmark
harness and the tests, and the dicts come back as views derived on first
access.  Axiom verification runs exact integer einsums on those arrays,
so an exhaustive check at dimension 24 stays fast while remaining exact.
Every integer step (conversion, contraction, rescaling) goes through one
bound guard, ratlinalg's _int_dtype, that switches to arbitrary-precision
object arrays before int64 could overflow.  A HopfMap stores one cleared
integer matrix and is verified on the same arrays.

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
sums in; callers only ever see int64 or object arrays.  Every step of the
contraction path is planned pairwise: a step of more than two operands,
which numpy would run as one nested loop, joins its fixed operands first,
then each slab operand in turn.  Planning runs once every step that does
not reach the slab index, and forms each such fixed factor directly in
the layout of the matmul that reads it; each slab runs only the steps
that carry it, so no step on a slab forms an n^4 array whole.

Delta(xy) = Delta(x) Delta(y), the one identity of n^6 terms, is decided
on generators.  Given associativity, the unit identities and
Delta(1) = 1 (x) 1, it holds as soon as Delta(g y) = Delta(g) Delta(y)
for every basis y and every g of a set that generates H as an algebra:
induction on the length of a monomial in the g carries it to every
monomial, and the monomials span H.  The generators are two, else three,
fixed generic elements, and their generation of H is certified modulo
one word-size prime that does not divide the product's scale: the span
of 1 closed under left multiplication by them reaches dimension n there,
and rows independent modulo a prime are independent over Q.  That leaves
one contraction of k n^5 terms for k generators, whose n^4 fixed factor
is formed once.  When associativity fails, or generation is not
certified, the full identity runs, so each suite's verdict keeps its
meaning.

Every axiom, of an algebra, a Hopf map or a cocycle, and every clause of
the character audit, is an identity X = Y between two such contractions,
and one routine decides them all (_first_difference).  Each side is given
as its subscripts and its operands, every operand an (integer array,
scale) pair, as stored or as _contract returns a contraction of pairs, so
that side stands for X / dx, dx the product of its scales.  The two sides
are cross-multiplied by their scales, X * (dy/g) = Y * (dx/g) with
g = gcd(dx, dy), planned together so that their cut outputs line up and
share one tier, and compared slab against slab, stopping at the first
slab that differs; the first differing index is located in that slab
only, and says where a Hopf-map suite or a character fails.  No axiom
check, and neither twist nor pullback, writes out a product of scales.

Character enumeration runs on the same integer arrays.  It quotients by
the commutator ideal, built in batched rounds of contractions, and splits
the commutative quotient with one generic element a_t = sum_k (k+1)^t e_fk
(primitive-element splitting, after Friedl and Ronyai, STOC 1985), trying
t = 1, 2, ... until a_t generates the quotient.  Its minimal polynomial
f is the least relation among the Krylov rows u, u a_t, ... of the unit u
(ratlinalg.first_relation: modulo word-size primes, one exact
certificate), and integer_roots finds its roots or raises NonSplitQuotient,
naming a basis element whose own operator does not split.  The quotient
of a Hopf algebra is itself a commutative Hopf algebra, reduced over Q
(Cartier's theorem), so a unit that does not act as a nonzero scalar, or
an f with a repeated root, is refused: H is then no Hopf algebra.  A
squarefree f of lower degree than the quotient's moves on to the next t.
Once deg f is the quotient's dimension, the quotient is Q[y]/(f), one
line per root r, spanned by v_r = u (f / (y - r))(a_t), on which every
element acts by its value at r's character: one product puts every basis
operator on every v_r, and one exact residual certifies those scalars.
Three identities on the cleared value matrix, decided by
_first_difference, audit the characters; one contraction with the
coproduct and the antipode gives their group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import gcd, isqrt, lcm, prod
from typing import Iterable, Optional

import numpy as np

from .errors import (ClosureFailure, EvaluationNotPermutation, KleintwistError,
                     NonSplitQuotient, NotASubgroup)
from .perm import PermGroup, Permutation, klein_group, symmetric_group
from .ratlinalg import (_INT64_LIMIT, RowSpace, _cleared, _dot, _fit, _int_dtype, _inverse,
                        _is_prime, _max_abs, _primitive, _rescale, _sub, closure_dim_mod,
                        deflate, first_relation, integer_roots)


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

    The package builds every algebra from integer arrays (_from_tensors).
    The constructor, which takes the dict form, serves only the benchmark
    harness and the tests.  The attributes unit, mult, comult, counit,
    antipode and star give that form back as views: mult maps a basis
    pair (i, j) to the vector {k: c} of e_i * e_j (missing pairs mean
    zero), comult maps i to the (j, k, c) terms of delta(e_i) sorted
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


def _group_table(G: PermGroup) -> tuple:
    """(elements, product, inverse) of G: its elements in sorted order,
    product[i, j] the slot of g_i g_j and inverse[i] that of g_i^-1.  The
    products are composed on the elements' image arrays and looked up by
    image tuple, so the degree puts no bound on the lookup.  The identity
    sorts first, in slot 0."""
    elems = G.sorted_elements()
    n = len(elems)
    images = np.array([g.images for g in elems], dtype=np.int64).reshape(n, G.degree) - 1
    slot = {g.images: i for i, g in enumerate(elems)}
    # (g_i g_j)(k) = g_i(g_j(k)), on images 0..degree-1
    composed = images[np.arange(n)[:, None, None], images] + 1
    product = [slot[t] for t in map(tuple, composed.reshape(n * n, G.degree).tolist())]
    product = np.array(product, dtype=np.int64).reshape(n, n)
    return elems, product, (product == 0).argmax(axis=1)


def _indicator(shape, *index) -> np.ndarray:
    """The integer array of the given shape that is 1 at index, else 0."""
    A = np.zeros(shape, dtype=np.int64)
    A[index] = 1
    return A


def group_algebra(G: PermGroup) -> FDHopf:
    """Q[G]: basis the group elements (sorted), group-like coproduct."""
    elems, product, inverse = _group_table(G)
    n, i = len(elems), np.arange(len(elems))
    antipode = _indicator((n, n), i, inverse)
    return FDHopf._from_tensors([g.cycle_string() for g in elems], *((A, 1) for A in (
        _indicator(n, 0), _indicator((n, n, n), i[:, None], i, product),
        _indicator((n, n, n), i, i, i), np.ones(n, dtype=np.int64), antipode, antipode)))


def function_algebra(G: PermGroup) -> FDHopf:
    """C(G): delta-function basis (sorted group order), pointwise product,
    coproduct dual to group multiplication."""
    elems, product, inverse = _group_table(G)
    n, i = len(elems), np.arange(len(elems))
    return FDHopf._from_tensors(["d_" + g.cycle_string() for g in elems], *((A, 1) for A in (
        np.ones(n, dtype=np.int64), _indicator((n, n, n), i, i, i),
        _indicator((n, n, n), product, i[:, None], i), _indicator(n, 0),
        _indicator((n, n), i, inverse), np.eye(n, dtype=np.int64))))


# -- exhaustive axiom verification ------------------------------------


_FLOAT64_LIMIT = 2 ** 53
# Entries of the largest array one slab may form: 512 KB in float64, so a
# slab stays in cache and no step on a slab allocates an n^4 array.
_SLAB_ENTRIES = 2 ** 16
# A step forming fewer products than this runs as a plain einsum loop,
# which costs less than the reshapes of the matmul route (_matmul).
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


def _sides(out: str, x: str, y: str) -> tuple:
    """(batch, rows, columns) of the output term out of a matmul of the
    operand x by the operand y: the columns are the longest tail of out
    that only y carries, the rows the run before it that only x carries,
    and the batch axes the rest."""
    k = len(out)
    while k and out[k - 1] in y and out[k - 1] not in x:
        k -= 1
    j = k
    while j and out[j - 1] in x and out[j - 1] not in y:
        j -= 1
    return out[:j], out[j:k], out[k:]


def _gemm_size(out: str, x: str, y: str, size) -> int:
    """Entries of each matrix product when x,y->out runs as one matmul."""
    _, rows, cols = _sides(out, x, y)
    return prod(size(ch) for ch in rows + cols)


def _matmul(a_term: str, a: np.ndarray, b_term: str, b: np.ndarray, out: str) -> np.ndarray:
    """The contraction a_term,b_term->out as one broadcast matmul whose
    result is C-contiguous in the order of out (_sides; the operands are
    swapped when that gives larger matrix products).  A batch axis that
    one operand lacks is broadcast over, and an index that only one
    operand carries and out drops is summed first."""
    sizes = dict(zip(a_term + b_term, a.shape + b.shape))
    if _gemm_size(out, b_term, a_term, sizes.get) > _gemm_size(out, a_term, b_term, sizes.get):
        a_term, a, b_term, b = b_term, b, a_term, a
    batch, rows, cols = _sides(out, a_term, b_term)
    summed = "".join(ch for ch in a_term if ch in b_term and ch not in out)

    def laid_out(term, arr, first, last):
        kept = "".join(ch for ch in batch if ch in term)
        shape = [sizes[ch] if ch in term else 1 for ch in batch]
        shape += [prod(sizes[ch] for ch in first), prod(sizes[ch] for ch in last)]
        return np.einsum(f"{term}->{kept}{first}{last}", arr).reshape(shape)

    product = np.matmul(laid_out(a_term, a, rows, summed), laid_out(b_term, b, summed, cols))
    return product.reshape([sizes[ch] for ch in out])


def _read_layout(a_term: str, term: str, keep, x: str, y: str, size) -> str:
    """The order of a fixed intermediate's indices, term, in which the
    step that reads it against the slab operand a_term finds it ready for
    its matmul: the indices both carry and keep, then those both carry
    and sum, in a's order, then its own.  Its own come grouped by the
    operand, x or y, of the step that forms it, in whichever order lets
    that step run the larger matrix products."""
    shared = [ch for ch in a_term if ch in term]
    head = "".join([ch for ch in shared if ch in keep] + [ch for ch in shared if ch not in keep])
    own = [ch for ch in term if ch not in a_term]
    from_x = "".join(ch for ch in own if ch in x)
    from_y = "".join(ch for ch in own if ch not in x)
    return max((head + from_x + from_y, head + from_y + from_x),
               key=lambda out: max(_gemm_size(out, x, y, size), _gemm_size(out, y, x, size)))


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
        einsum_path list of steps, greedy when not given.

        Every step is planned pairwise.  A path step of more than two
        operands, which numpy would run as one nested loop, joins its fixed
        operands first, once, then each slab operand in turn.  A fixed
        intermediate that a slab step reads is formed directly in the
        layout that step's matmul reads it in (_read_layout), so no slab
        copies it."""
        self.dtype = dtype
        ops = list(self.ops)
        if self.scale != 1:
            k = min(range(len(ops)), key=lambda j: ops[j].size)
            ops[k] = _rescale(ops[k], self.scale)
        ops = [np.asarray(a, dtype=dtype) for a in ops]     # a 0-d product may be an int
        slab = self.rhs[:1]
        terms = list(self.terms)
        slabbed = [bool(slab) and slab in term for term in terms]
        if path is None:
            path = [tuple(range(len(ops)))]
            if len(ops) > 2:
                path = _greedy_path(",".join(self.terms) + "->" + self.rhs,
                                    tuple(a.shape for a in ops))
        # node ids: the operands, then one per pairwise step (a, b), which
        # forms node len(ops) + its place in steps; live keeps einsum_path's order
        live, self.steps = list(range(len(ops))), []
        for step in path:
            ids = sorted((live.pop(k) for k in sorted(step, reverse=True)),
                         key=slabbed.__getitem__)           # fixed operands first
            while len(ids) > 1:
                a, b, *rest = ids
                if slabbed[b]:
                    a, b = b, a                             # a slab operand on the left
                keep = set(self.rhs).union(*(terms[i] for i in live + rest))
                if slabbed[a] and not slabbed[b] and b >= len(ops):
                    x, y = self.steps[b - len(ops)]
                    terms[b] = _read_layout(terms[a], terms[b], keep, terms[x], terms[y],
                                            self.size)
                terms.append("".join(dict.fromkeys(ch for ch in terms[a] + terms[b]
                                                   if ch in keep)))
                slabbed.append(slabbed[a])
                self.steps.append((a, b))
                ids = [len(terms) - 1, *rest]
            live += ids
        nodes = list(zip(terms, ops, slabbed))
        widest = 1
        for a, b in self.steps:
            out, parts = terms[len(nodes)], [nodes[a], nodes[b]]
            nodes[a] = nodes[b] = None              # a fixed array lives on in its reader only
            if parts[0][2]:
                nodes.append((out, parts, True))
                widest = max(widest, prod(self.size(ch) for ch in out if ch != slab))
            else:
                nodes.append((out, self._step(parts, out), False))
        (root,) = live
        self.root = nodes[root]
        widest = max(widest, prod(self.size(ch) for ch in self.rhs[1:]))
        self.height = _slab_height(widest)
        return self

    def _step(self, parts, out: str) -> np.ndarray:
        (a_term, a, _), (b_term, b, _) = parts
        sub = f"{a_term},{b_term}->{out}"
        if self.dtype is object:
            # plain einsum: numpy's optimize route turns an object operand that
            # a step sums to a scalar into int64 (numpy 2.4), which can wrap
            return np.asarray(np.einsum(sub, a, b), dtype=object)
        if prod(dict(zip(a_term + b_term, a.shape + b.shape)).values()) < _BLAS_WORK:
            return np.einsum(sub, a, b)
        return _matmul(a_term, a, b_term, b, out)

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


def _generic(n: int, k: int) -> np.ndarray:
    """k generic elements of an n-dimensional algebra as the rows of an
    integer matrix: g_1 = sum_j (j+1) e_j, then g_t = sum_j ((j+1)^t mod 97 + 1) e_j."""
    return np.array([[j + 1 if t == 1 else pow(j + 1, t, 97) + 1 for j in range(n)]
                     for t in range(1, k + 1)], dtype=np.int64)


def _generates(H: FDHopf, G: np.ndarray) -> bool:
    """Whether the elements in the rows of G generate H as an algebra with
    unit, certified modulo one prime p: the span of 1 closed under left
    multiplication by them (ratlinalg.closure_dim_mod) has dimension n.

    The rows that closure forms are residues of integer multiples of the
    coordinates of monomials in the g_i: U times products of the integer
    operators G M.  n of them independent modulo p are independent over Q,
    so the monomials span H.  p is the largest prime below 2^28, and below
    sqrt(2^62 / n) so that no sum of products leaves int64, that does not
    divide dM: then M / dM reduces modulo p, and the closure is that of
    H's own product over F_p.  A prime dividing dM is never used."""
    n = H.dim
    top = min(2 ** 28, isqrt(_INT64_LIMIT // n))
    p = next(q for q in range((top - 2) | 1, 8, -2) if _is_prime(q) and H.dM % q)
    ops = np.einsum("gi,iyw->gyw", G % p, np.asarray(H.M % p, dtype=np.int64)) % p
    return closure_dim_mod(H.U % p, ops, p) == n


def _multiplicativity(H: FDHopf, associative: bool) -> tuple:
    """The identity Delta(xy) = Delta(x) Delta(y), as the two sides that
    _first_difference takes.  When H is associative with unit, x runs over
    the first two, else three, generic elements (_generic) whose generation
    of H is certified (_generates), and y over the basis; otherwise x and
    y both run over the basis."""
    M, C = H._pairs[1:3]
    if associative:
        for k in (2, 3):
            G = (_generic(H.dim, k), 1)
            if _generates(H, G[0]):
                return (("gi,iab,acp,ycd,bdq->gypq", G, C, M, C, M),
                        ("gi,iyw,wpq->gypq", G, M, C))
    return ("iab,jcd,acp,bdq->ijpq", C, C, M, M), ("ijw,wpq->ijpq", M, C)


def verify_hopf_axioms(H: FDHopf) -> dict:
    """Exhaustive check of all six axiom suites; returns booleans keyed
    associativity/coassociativity/counit/bialgebra/antipode/star.
    Failures are reported, never thrown.

    Delta(xy) = Delta(x) Delta(y) is the one identity of n^6 terms.  When
    associativity, the unit identities 1 x = x = x 1 and Delta(1) = 1 (x) 1
    hold, it is decided on generators: if Delta(g y) = Delta(g) Delta(y)
    for every basis y and every g of a set that generates H, then by
    induction on the length of a monomial w in the g,
    Delta(g w y) = Delta(g) Delta(w y) = Delta(g) Delta(w) Delta(y)
    = Delta(g w) Delta(y), and the monomials span H.  For k generic
    elements whose generation of H is certified modulo a prime
    (_generates), that is one contraction of k n^5 terms, whose n^4 fixed
    factor ycd,bdq is formed once (_multiplicativity).  When associativity
    fails, or generation is not certified, the full identity runs, so each
    suite's verdict keeps its meaning."""
    U, M, C, E, S, T = H._pairs
    eye = ("ij->ij", (np.eye(H.dim, dtype=np.int64), 1))
    one = ("->", (np.ones((), dtype=np.int64), 1))
    suites = {
        "associativity": [(("ijw,wkp->ijkp", M, M), ("jkw,iwp->ijkp", M, M)),
                          (("i,ijp->jp", U, M), eye), (("j,ijp->ip", U, M), eye)],
        "coassociativity": [(("iab,axy->ixyb", C, C), ("iab,bxy->iaxy", C, C))],
        "counit": [(("iab,a->ib", C, E), eye), (("iab,b->ia", C, E), eye)],
        # Delta(1) = 1 (x) 1 among these; Delta(xy) = Delta(x) Delta(y) is decided below
        "bialgebra": [(("i,ipq->pq", U, C), ("i,j->ij", U, U)),
                      (("ijw,w->ij", M, E), ("i,j->ij", E, E)),
                      (("i,i->", U, E), one)],
        "antipode": [(("iab,aw,wbp->ip", C, S, M), ("i,j->ij", E, U)),
                     (("iab,bw,awp->ip", C, S, M), ("i,j->ij", E, U))],
        "star": [(("ij,jk->ik", T, T), eye),
                 (("ijw,wp->ijp", M, T), ("jb,ia,bap->ijp", T, T, M)),
                 (("iw,wab->iab", T, C), ("iab,ax,by->ixy", C, T, T)),
                 (("i,ij->j", U, T), ("i->i", U)),
                 (("ij,j->i", T, E), ("i->i", E))],
    }
    report = {name: all(_first_difference(x, y) is None for x, y in identities)
              for name, identities in suites.items()}
    report["bialgebra"] = report["bialgebra"] and _first_difference(
        *_multiplicativity(H, report["associativity"])) is None
    return report


def all_axioms_pass(report: dict) -> bool:
    return all(report.values())


# -- structure-preserving maps ----------------------------------------


class HopfMap:
    """Linear map between FDHopf instances, given by the integer matrix P
    over the scale d: P[i, p] / d is the coefficient of e_p in the image
    of e_i.  Only P / d in canonical cleared form (ratlinalg._cleared) is
    stored, read-only; a P whose shape is not (source.dim, target.dim) is
    refused.  verify() checks exhaustively that the map intertwines all
    six structure tensors."""

    def __init__(self, source: FDHopf, target: FDHopf, P, d: int):
        if np.shape(P) != (source.dim, target.dim):
            raise ValueError(f"matrix of shape {np.shape(P)} for a map from dimension "
                             f"{source.dim} to dimension {target.dim}")
        self.source, self.target = source, target
        self.P, self.d = _cleared(P, d)
        self.P.flags.writeable = False
        self.failure: Optional[str] = None

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
        return HopfMap(self.source, other.target,
                       *_contract("ia,ap->ip", (self.P, self.d), (other.P, other.d)))

    def inverse(self) -> "HopfMap":
        if self.source.dim != self.target.dim:
            raise ValueError("only square maps can be inverted")
        B, e = _inverse(self.P)       # (P / d)^-1 = d B / e
        return HopfMap(self.target, self.source, _rescale(B, self.d), e)


def restriction_surjection(G: PermGroup, V: PermGroup) -> HopfMap:
    """C(G) -> C(V), delta_g kept when g lies in V and killed otherwise."""
    if not V.is_subgroup_of(G):
        raise NotASubgroup("V is not a subgroup of G")
    # V's elements keep their sorted order among G's
    kept = [i for i, t in enumerate(sorted(G.images)) if t in V.images]
    out = HopfMap(function_algebra(G), function_algebra(V),
                  _indicator((G.order, V.order), kept, np.arange(V.order)), 1)
    if not out.verify():
        raise KleintwistError(f"restriction failed to intertwine: {out.failure}")
    return out


def fourier_iso(V: PermGroup, dual_generators: Optional[tuple] = None) -> HopfMap:
    """C(V) -> Q[K] for an elementary abelian 2-group V of order d = 1, 2
    or 4, sending delta_v to the averaged character sum
    (1/d) sum_k chi_k(v) t_k.

    K is a fixed concrete carrier of the dual group: S1, S2 or the Klein
    group.  The character in its sorted basis slot k is
    chi_k(v) = (-1)^popcount(k & bits(v)), where bit j of bits(v) is v's
    exponent in the j-th dual generator.  dual_generators = (g1, g2) pins
    the labeling for d = 4: slot 1 is the character with value -1 on g1
    and +1 on g2, slot 2 the reverse, slot 3 their product.  By default
    they are the first involutions of V in sorted order.
    """
    if not V.is_abelian() or any(p.order() > 2 for p in V.elements):
        raise ValueError("need an elementary abelian 2-group of exponent 2")
    elems = V.sorted_elements()
    d = len(elems)
    if d not in (1, 2, 4):
        raise ValueError(f"order {d} is not 1, 2 or 4")
    r = d.bit_length() - 1
    if dual_generators is None:
        dual_generators = [p for p in elems if not p.is_identity()][:r]
    gens = tuple(dual_generators)
    if len(gens) != r:
        raise ValueError(f"a group of order {d} takes {r} dual generators, got {len(gens)}")
    # span[b] = the product of the generators at the set bits of b
    span = [Permutation.identity(V.degree)]
    for g in gens:
        span += [v * g for v in span]
    bits = {v.images: b for b, v in enumerate(span)}
    if bits.keys() != V.images:
        raise ValueError("dual generators must be distinct involutions that generate V")
    P = [[(-1) ** (bits[v.images] & k).bit_count() for k in range(d)] for v in elems]
    K = klein_group() if d == 4 else symmetric_group(d)
    out = HopfMap(function_algebra(V), group_algebra(K), P, d)
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
    quotient with one generic element, one socle row per root of its
    minimal polynomial.  The quotient of a Hopf algebra is reduced, so a
    unit that does not act as a nonzero scalar on it, or a generic element
    with a repeated root, raises KleintwistError.  An operator whose
    minimal polynomial does not split over the rationals raises
    NonSplitQuotient."""
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

    # The minimal polynomial of the operator A of an element a is the least
    # relation among the Krylov rows u A^i of the unit u: u acts as a nonzero
    # scalar c, so u p(A), the coordinates of c p(a), is zero only if p(A) is.
    u = _safe_einsum("i,iq->q", H.U, proj)
    L = _safe_einsum("k,kpq->pq", u, Q)
    if not (L[0, 0] != 0 and np.count_nonzero(L) == m and (L.diagonal() == L[0, 0]).all()):
        raise KleintwistError("the unit does not act as a nonzero scalar on the "
                              "commutative quotient")

    def krylov(A):
        return _fit(np.array(list(accumulate([u.astype(object)] + [A.astype(object)] * m,
                                             np.dot))))

    # a_t = sum_k (k+1)^t e_fk.  A sum of m exponentials c_k (k+1)^t, not all
    # c_k zero, vanishes for at most m - 1 values of t (Descartes' rule of
    # signs for exponential sums): two characters agree on a_t for fewer
    # than m^3 values of t.  A is a_t's operator over its content and f its
    # minimal polynomial.  The quotient of a Hopf algebra over Q is reduced
    # (Cartier), so f has no repeated root: at one, f / (y - r) of a_t would
    # be a nonzero element whose square is zero.
    for t in range(1, m ** 3 + 1):
        A = _safe_einsum("k,kpq->pq", _fit([(k + 1) ** t for k in range(m)]), Q)
        A = _fit(A // max(1, abs(int(np.gcd.reduce(A, axis=None)))))
        K = krylov(A)
        f = first_relation(K)
        try:
            roots = integer_roots(f, A)
        except NonSplitQuotient:
            for j, c in enumerate(free):    # name a basis element, never a_t
                try:
                    integer_roots(first_relation(krylov(Q[j])), Q[j], dQ)
                except NonSplitQuotient as err:
                    raise NonSplitQuotient(f"{err}, basis element {H.basis_labels[c]}") from None
            raise KleintwistError("basis operators split but a combination does not") from None
        if any(k > 1 for _, k in roots):
            raise KleintwistError("the commutative quotient is not reduced: a_t has a "
                                  f"repeated root at t = {t}, so H is not a Hopf algebra")
        if len(f) == m + 1:
            break               # else A has an eigenspace that is not a line
    else:
        raise KleintwistError("no generic element separates the characters")

    # p(y) -> u p(A) maps Q[y]/(f) onto the quotient, which splits as one
    # line per root r, spanned by v_r = u (f / (y - r))(A); every element
    # acts on it by its value at r's character.
    V = _primitive(_dot(_fit([deflate(f, r)[0] for r, _ in roots]), K[:m]))
    at = np.arange(len(V)), (V != 0).argmax(axis=1)
    Y = _dot(V, Q)                  # Y[j, r] = v_r Q[j]
    lead, value = V[at], Y[:, at[0], at[1]]
    if (_rescale(Y, lead[:, None]) != _rescale(V, value[..., None])).any():
        raise KleintwistError("block not invariant under multiplication")

    # chi_r(e_f) = value[f, r] / (lead[r] dQ), then chi(e_i) = sum_f proj[i, f]
    # chi(e_f) / ideal.scale.  R holds every character's chi(e_f) over one
    # denominator dX, so one contraction gives all values X over dX.
    dens = [int(c) * dQ * ideal.scale for c in lead]
    dX = lcm(*dens)
    R = _fit(np.stack([_rescale(y, dX // den) for den, y in zip(dens, value.T)]))
    X = _safe_einsum("iq,fq->fi", proj, R)

    # The certificate: chi(1) = 1, chi(e_i e_j) = chi(e_i) chi(e_j) over all
    # pairs, chi(e_i*) = chi(e_i), as three identities on (X, dX).
    U, Mp, _, _, _, T = H._pairs
    P = (X, dX)
    audit = (
        ("character fails chi(1) = 1", ("i,fi->f", U, P),
         ("f->f", (np.ones(len(X), dtype=np.int64), 1))),
        # format() skips the character index f
        ("character not multiplicative at ({1},{2})", ("ijp,fp->fij", Mp, P),
         ("fi,fj->fij", P, P)),
        ("character not star-compatible at {1}", ("ip,fp->fi", T, P), ("fi->fi", P)),
    )
    for failure, x, y in audit:
        at = _first_difference(x, y)
        if at is not None:
            raise KleintwistError(failure.format(*at))

    # no two rows agree: chi_r(a_t) is r times a factor that all r share
    rows = sorted(tuple(int(x) for x in row) for row in X)
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
