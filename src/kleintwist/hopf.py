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
stores one cleared integer matrix and is verified on the same arrays,
each suite one contraction per side.

A contraction runs in one of three tiers, chosen by a proven bound on the
absolute value of every partial sum it can form: below 2^53 on float64
arrays through BLAS, below 2^62 on int64, otherwise on Python ints.  The
float tier is exact because every operand entry, product and partial sum
is then an integer of magnitude below 2^53, which float64 represents
exactly, so no operation rounds, whatever order BLAS sums in; the result
is cast back to int64.  Callers only ever see int64 or object arrays.
Every contraction is also support-pruned: each index is cut to the
positions where all operands carrying it have a nonzero slice, which
drops only zero terms, and the bound is taken over the cut sizes; sparse
operands such as a cocycle living on a Klein subgroup then cost in
proportion to their support rather than to n^k.

Character enumeration runs on the same integer arrays.  It quotients by
the commutator ideal, built in batched rounds of contractions, and splits
the commutative quotient into local blocks by generalized eigenspaces of
multiplication operators, refusing loudly (NonSplitQuotient) whenever a
minimal polynomial fails to split over the rationals.  Each block is a
fraction-free echelon basis (ratlinalg.RowSpace); one contraction
restricts every operator to it, one exact residual certifies invariance,
and only an operator that splits the block reaches minimal_polynomial.
The characters are audited by three contractions on their cleared value
matrix.  The character group comes from one integer contraction of that
matrix with the coproduct and the antipode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Optional

import numpy as np

from .errors import (ClosureFailure, EvaluationNotPermutation, KleintwistError,
                     NonSplitQuotient, NotASubgroup)
from .perm import PermGroup, Permutation, generate, klein_group
from .ratlinalg import (RowSpace, _cleared, _int_dtype, _inverse, _max_abs, _rescale,
                        _sub, generalized_eigenspace, minimal_polynomial,
                        rational_roots)

Vec = dict


def _n(q):
    if isinstance(q, Fraction) and q.denominator == 1:
        return int(q)
    return q


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

    def __init__(self, dim: int, basis_labels: Iterable[str], unit: Vec,
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
    def unit(self) -> Vec:
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

    def is_cocommutative(self) -> bool:
        return np.array_equal(self.C, self.C.transpose(0, 2, 1))

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


def _safe_einsum(subscripts: str, *arrays: np.ndarray) -> np.ndarray:
    """Exact integer einsum over the operands' common support.

    Every index is first cut to the positions where each operand carrying
    it has a nonzero slice: any other position multiplies a zero, so the
    cut contraction equals the full one.  The bound, the product of the
    cut operands' largest entries (at least 1 each) times the number of
    terms summed per output entry, bounds every product, partial sum and
    intermediate array of any contraction order.  It picks the tier:

    - below 2^53: float64 with BLAS, cast back to int64.  Every value
      formed is an integer float64 holds exactly, so no step rounds;
    - below 2^62: int64;
    - otherwise: exact Python ints in object arrays.

    Every tier contracts pairwise in the order einsum's greedy path search
    picks.  An output index that was cut is scattered back into a zero
    array of full shape.  When nothing is cut, no operand is copied.
    """
    lhs, rhs = subscripts.split("->")
    terms = lhs.split(",")
    sizes: dict = {}
    live: dict = {}
    for term, arr in zip(terms, arrays):
        for axis, ch in enumerate(term):
            sizes[ch] = arr.shape[axis]
            hit = arr.any(axis=tuple(a for a in range(arr.ndim) if a != axis))
            live[ch] = live.get(ch, True) & hit
    cut = {ch: np.flatnonzero(hit) for ch, hit in live.items() if not hit.all()}

    def positions(term):
        return np.ix_(*[cut[ch] if ch in cut else np.arange(sizes[ch]) for ch in term])

    arrays = [arr[positions(term)] if cut.keys() & set(term) else arr
              for term, arr in zip(terms, arrays)]
    bound = 1
    for arr in arrays:
        bound *= max(1, _max_abs(arr))
    for ch in set(lhs) - set(rhs) - {","}:
        bound *= len(cut[ch]) if ch in cut else sizes[ch]
    if bound < _FLOAT64_LIMIT:
        out = np.einsum(subscripts, *[a.astype(np.float64) for a in arrays],
                        optimize=True).astype(np.int64)
    elif _int_dtype(bound) is object:
        out = _object_einsum(subscripts, arrays)
    else:
        out = np.einsum(subscripts, *[a.astype(np.int64, copy=False) for a in arrays],
                        optimize=True)
    if not cut.keys() & set(rhs):
        return out
    full = np.zeros([sizes[ch] for ch in rhs], dtype=out.dtype)
    full[positions(rhs)] = out
    return full


def _object_einsum(subscripts: str, arrays) -> np.ndarray:
    """Exact einsum on Python ints, contracted pairwise along einsum's
    greedy path.  Each step is a plain einsum kept as an object array:
    numpy's optimize=True route turns an operand that a step sums to a
    scalar into int64 (numpy 2.4), where the product can wrap around.
    A scalar result is returned as a Python int."""
    lhs, rhs = subscripts.split("->")
    terms = lhs.split(",")
    ops = [a.astype(object) for a in arrays]
    for step in np.einsum_path(subscripts, *ops, optimize="greedy")[0][1:]:
        picked = sorted(step, reverse=True)
        step_terms = [terms.pop(k) for k in picked]
        step_ops = [ops.pop(k) for k in picked]
        keep = set(rhs).union(*terms)
        out = "".join(dict.fromkeys(ch for t in step_terms for ch in t if ch in keep))
        terms.append(out)
        ops.append(np.asarray(np.einsum(",".join(step_terms) + "->" + out, *step_ops),
                              dtype=object))
    (term,), (op,) = terms, ops
    return np.einsum(f"{term}->{rhs}", op)


def verify_hopf_axioms(H: FDHopf) -> dict:
    """Exhaustive check of all six axiom suites; returns booleans keyed
    associativity/coassociativity/counit/bialgebra/antipode/star.
    Failures are reported, never thrown."""
    n = H.dim
    U, M, C, E, S, T = H.U, H.M, H.C, H.E, H.S, H.T
    eye = np.eye(n, dtype=np.int64)

    assoc = np.array_equal(_safe_einsum("ijw,wkp->ijkp", M, M),
                           _safe_einsum("jkw,iwp->ijkp", M, M))
    assoc = assoc and np.array_equal(_safe_einsum("i,ijp->jp", U, M), _rescale(eye, H.dU * H.dM))
    assoc = assoc and np.array_equal(_safe_einsum("j,ijp->ip", U, M), _rescale(eye, H.dU * H.dM))

    coassoc = np.array_equal(_safe_einsum("iab,axy->ixyb", C, C),
                             _safe_einsum("iab,bxy->iaxy", C, C))

    counit = (np.array_equal(_safe_einsum("iab,a->ib", C, E), _rescale(eye, H.dC * H.dE))
              and np.array_equal(_safe_einsum("iab,b->ia", C, E), _rescale(eye, H.dC * H.dE)))

    # Delta(xy) = Delta(x) Delta(y), the right side first: its contraction
    # peaks at five n^4 arrays, so no other one should be alive then.
    bialg = np.array_equal(_safe_einsum("iab,jcd,acp,bdq->ijpq", C, C, M, M),
                           _rescale(_safe_einsum("ijw,wpq->ijpq", M, C), H.dC * H.dM))
    bialg = bialg and np.array_equal(_rescale(_safe_einsum("ijw,w->ij", M, E), H.dE),
                                     _rescale(_safe_einsum("i,j->ij", E, E), H.dM))
    bialg = bialg and np.array_equal(_rescale(_safe_einsum("i,ipq->pq", U, C), H.dU),
                                     _rescale(_safe_einsum("i,j->ij", U, U), H.dC))
    bialg = bialg and int(_safe_einsum("i,i->", U, E)) == H.dU * H.dE

    target = _rescale(_safe_einsum("i,j->ij", E, U), H.dC * H.dS * H.dM)
    anti = (np.array_equal(_rescale(_safe_einsum("iab,aw,wbp->ip", C, S, M), H.dE * H.dU), target)
            and np.array_equal(_rescale(_safe_einsum("iab,bw,awp->ip", C, S, M), H.dE * H.dU),
                               target))

    star = np.array_equal(_safe_einsum("ij,jk->ik", T, T), _rescale(eye, H.dT * H.dT))
    star = star and np.array_equal(_rescale(_safe_einsum("ijw,wp->ijp", M, T), H.dT),
                                   _safe_einsum("jb,ia,bap->ijp", T, T, M))
    star = star and np.array_equal(_rescale(_safe_einsum("iw,wab->iab", T, C), H.dT),
                                   _safe_einsum("iab,ax,by->ixy", C, T, T))
    star = star and np.array_equal(_safe_einsum("i,ij->j", U, T), _rescale(U, H.dT))
    star = star and np.array_equal(_safe_einsum("ij,j->i", T, E), _rescale(E, H.dT))

    return {
        "associativity": bool(assoc),
        "coassociativity": bool(coassoc),
        "counit": bool(counit),
        "bialgebra": bool(bialg),
        "antipode": bool(anti),
        "star": bool(star),
    }


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
        counit, antipode and star of the source to those of the target:
        one exact contraction per side on the cleared tensors, the two
        sides cross-multiplied by their scales.  The suites run in that
        order; the first one that fails is named in `failure` with its
        first failing basis index (pair, for mult) in row-major order."""
        s, t, P, d = self.source, self.target, self.P, self.d
        suites = (
            ("unit",
             lambda: (_rescale(_safe_einsum("i,ip->p", s.U, P), t.dU),
                      _rescale(t.U, s.dU * d))),
            ("mult at ({},{})",
             lambda: (_rescale(_safe_einsum("ijw,wp->ijp", s.M, P), d * t.dM),
                      _rescale(_safe_einsum("ia,jb,abp->ijp", P, P, t.M), s.dM))),
            ("comult at {}",
             lambda: (_rescale(_safe_einsum("iab,ax,by->ixy", s.C, P, P), t.dC),
                      _rescale(_safe_einsum("ip,pxy->ixy", P, t.C), s.dC * d))),
            ("counit at {}",
             lambda: (_rescale(_safe_einsum("ip,p->i", P, t.E), s.dE),
                      _rescale(s.E, d * t.dE))),
            ("antipode at {}",
             lambda: (_rescale(_safe_einsum("iw,wp->ip", s.S, P), t.dS),
                      _rescale(_safe_einsum("ip,pq->iq", P, t.S), s.dS))),
            ("star at {}",
             lambda: (_rescale(_safe_einsum("iw,wp->ip", s.T, P), t.dT),
                      _rescale(_safe_einsum("ip,pq->iq", P, t.T), s.dT))),
        )
        self.failure = None
        for failure, sides in suites:
            bad = np.not_equal(*sides())
            if bad.any():
                # format() drops the indices past the template's fields
                self.failure = failure.format(*np.argwhere(bad)[0].tolist())
                return False
        return True

    def then(self, other: "HopfMap") -> "HopfMap":
        """This map followed by other, whose source must be this map's target."""
        if not other.source.structure_equal(self.target):
            raise ValueError("the second map's source is not the first map's target")
        return HopfMap._from_matrix(self.source, other.target,
                                    _safe_einsum("ia,ap->ip", self.P, other.P),
                                    self.d * other.d)

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

    def __call__(self, x: Vec):
        return _n(sum((a * self.values[i] for i, a in x.items()), Fraction(0)))


def characters(H: FDHopf) -> list:
    """All characters of H, exactly.

    Quotients by the two-sided commutator ideal, then splits the
    commutative quotient into local blocks through generalized
    eigenspaces of multiplication operators.  Each block yields one
    character; a minimal polynomial without enough rational roots
    raises NonSplitQuotient.  Every step runs on the algebra's stored
    integer tensors.
    """
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

    whole = RowSpace(m)
    whole.extend(np.eye(m, dtype=np.int64))
    queue = [whole]
    blocks = []
    while queue:
        block = queue.pop()
        B, b = block.rows, block.dim
        # Every operator on every row of the block at once.  The block is
        # invariant exactly when every residue vanishes; an image's
        # coefficient on row r is then its entry at pivot r over that pivot.
        # So operator j acts on block coordinates (row vectors) as D[j] / s.
        Y = _safe_einsum("rk,jkq->jrq", B, Q)
        if (block.reduce(Y.reshape(-1, m)) != 0).any():
            raise KleintwistError("block not invariant under multiplication")
        D = _safe_einsum("jrc,c->jrc", Y[:, :, block.pivots], block.cofactors())
        s = block.scale * dQ
        traces = _safe_einsum("jrr->j", D)
        off = D.copy()
        off[:, range(b), range(b)] = 0
        diag = D[:, range(b), range(b)]
        scalar = ~(off != 0).any(axis=(1, 2)) & (diag == diag[:, :1]).all(axis=1)
        for j in np.flatnonzero(~scalar):
            roots, rem = rational_roots(minimal_polynomial(D[j], s))
            if len(rem) > 1:
                raise NonSplitQuotient(f"minimal polynomial without rational roots: {rem}")
            if len(roots) == 1:
                continue          # one eigenvalue: nothing to split
            # The generalized eigenspace of lam is the kernel of
            # (D[j] / s - lam)^k, k the multiplicity of lam in the minimal
            # polynomial; together they must fill the block.
            pieces = [generalized_eigenspace(D[j], lam, k, s) for lam, k in roots]
            if sum(len(X) for X in pieces) != b:
                raise KleintwistError("generalized eigenspaces do not span the block")
            for X in pieces:
                piece = RowSpace(m)
                piece.extend(_safe_einsum("xr,rq->xq", X, B))
                queue.append(piece)
            break
        else:
            blocks.append((b * s, traces))

    # chi(e_f) for the quotient basis is the unique eigenvalue of each
    # operator on the block, trace / b; then chi(e_i) = sum_f proj[i, f]
    # chi(e_f) / ideal.scale.  X holds all values over one denominator dX.
    dens = [den * ideal.scale for den, _ in blocks]
    dX = lcm(*dens)
    X = np.concatenate([_rescale(_safe_einsum("iq,q->i", proj, tr), dX // den)[None]
                        for den, (_, tr) in zip(dens, blocks)])

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


def convolution(H: FDHopf, f: Character, g: Character) -> Character:
    values = []
    for i in range(H.dim):
        acc = Fraction(0)
        for (a, b, c) in H.comult[i]:
            acc += c * Fraction(f.values[a]) * Fraction(g.values[b])
        values.append(_n(acc))
    return Character(H, tuple(values))


def convolution_identity(H: FDHopf) -> Character:
    return Character(H, tuple(H.counit))


def convolution_inverse(H: FDHopf, f: Character) -> Character:
    values = []
    for i in range(H.dim):
        acc = Fraction(0)
        for w, c in H.antipode[i].items():
            acc += c * Fraction(f.values[w])
        values.append(_n(acc))
    return Character(H, tuple(values))


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
            val = _n(sum((Fraction(chi.values[k]) for k, g in enumerate(elems)
                          if g(j) == i), Fraction(0)))
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
