"""Finite-dimensional Hopf *-algebras over exact rationals.

An FDHopf stores all six structure tensors (unit, multiplication,
comultiplication, counit, antipode, star) with int/Fraction scalars, and
on first use keeps them cleared to integer arrays with one common
denominator each (scaled_integer_tensors).  Axiom verification runs exact
integer einsums on those arrays, so an exhaustive check at dimension 24
stays fast while remaining exact.  Every integer step (conversion,
contraction, rescaling) goes through one bound guard that switches to
arbitrary-precision object arrays before int64 could overflow.

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

Character enumeration quotients by the commutator ideal and splits the
commutative quotient into local blocks by generalized eigenspaces of
multiplication operators, refusing loudly (NonSplitQuotient) whenever a
minimal polynomial fails to split over the rationals.  Each block is held
in reduced echelon form, so restricting an operator to it reads an
image's coordinates at the pivot columns and certifies invariance with
one exact residual; an operator that is already scalar on a block is
skipped without a minimal polynomial.  The character group comes from one
integer contraction of the character-value matrix with the coproduct and
the antipode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional

import numpy as np

from .errors import (ClosureFailure, EvaluationNotPermutation, KleintwistError,
                     NonSplitQuotient, NotASubgroup)
from .perm import PermGroup, Permutation, generate, klein_group
from .ratlinalg import (RowSpace, column_space_basis, kernel_basis, invert,
                        mat_sub_scalar, matmul, matpow, matvec,
                        minimal_polynomial, rational_roots)

Scalar = "int | Fraction"
Vec = dict


def _n(q):
    if isinstance(q, Fraction) and q.denominator == 1:
        return int(q)
    return q


def vec_normalize(v: Vec) -> Vec:
    return {k: _n(q) for k, q in v.items() if q != 0}


def vec_sub(a: Vec, b: Vec) -> Vec:
    out = dict(a)
    for k, q in b.items():
        out[k] = out.get(k, 0) - q
    return vec_normalize(out)


class FDHopf:
    """Hopf *-algebra given by structure tensors on a fixed basis.

    mult maps a basis pair (i, j) to the vector of e_i * e_j (missing
    pairs mean zero).  comult maps i to the list of (j, k, c) terms of
    delta(e_i).  antipode and star map each basis index to a vector.
    Instances are immutable by convention once built.
    """

    def __init__(self, dim: int, basis_labels: Iterable[str], unit: Vec,
                 mult: dict, comult: dict, counit: Iterable,
                 antipode: dict, star: dict):
        labels = tuple(basis_labels)
        if len(labels) != dim:
            raise ValueError("label count disagrees with dim")
        rng = range(dim)
        self.dim = dim
        self.basis_labels = labels
        self.unit = vec_normalize(unit)
        self.mult = {}
        for (i, j), v in mult.items():
            if i not in rng or j not in rng:
                raise ValueError("mult index out of range")
            nv = vec_normalize(v)
            if nv:
                self.mult[(i, j)] = nv
        self.comult = {}
        for i in rng:
            terms: dict = {}
            for (j, k, c) in comult[i]:
                if j not in rng or k not in rng:
                    raise ValueError("comult index out of range")
                terms[(j, k)] = terms.get((j, k), 0) + c
            self.comult[i] = [(j, k, _n(c)) for (j, k), c in sorted(terms.items()) if c != 0]
        self.counit = tuple(_n(c) for c in counit)
        if len(self.counit) != dim:
            raise ValueError("counit length disagrees with dim")
        self.antipode = {i: vec_normalize(antipode[i]) for i in rng}
        self.star = {i: vec_normalize(star[i]) for i in rng}
        self._scaled: Optional[ScaledTensors] = None

    # -- basic linear operations ------------------------------------

    def basis_vec(self, i: int) -> Vec:
        return {i: 1}

    def mult_vec(self, x: Vec, y: Vec) -> Vec:
        out: Vec = {}
        for i, a in x.items():
            for j, b in y.items():
                m = self.mult.get((i, j))
                if not m:
                    continue
                ab = a * b
                for p, c in m.items():
                    out[p] = out.get(p, 0) + ab * c
        return vec_normalize(out)

    def antipode_vec(self, x: Vec) -> Vec:
        out: Vec = {}
        for i, a in x.items():
            for p, c in self.antipode[i].items():
                out[p] = out.get(p, 0) + a * c
        return vec_normalize(out)

    def star_vec(self, x: Vec) -> Vec:
        out: Vec = {}
        for i, a in x.items():
            for p, c in self.star[i].items():
                out[p] = out.get(p, 0) + a * c
        return vec_normalize(out)

    def counit_vec(self, x: Vec):
        return _n(sum((a * self.counit[i] for i, a in x.items()), Fraction(0)))

    def comult_vec(self, x: Vec) -> dict:
        out: dict = {}
        for i, a in x.items():
            for (j, k, c) in self.comult[i]:
                out[(j, k)] = out.get((j, k), 0) + a * c
        return {key: _n(q) for key, q in out.items() if q != 0}

    # -- structure predicates -----------------------------------------

    def noncommutative_witness(self) -> Optional[tuple]:
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.mult.get((i, j), {}) != self.mult.get((j, i), {}):
                    return (i, j)
        return None

    def is_commutative(self) -> bool:
        return self.noncommutative_witness() is None

    def is_cocommutative(self) -> bool:
        for i in range(self.dim):
            fwd = {(j, k): c for (j, k, c) in self.comult[i]}
            rev = {(k, j): c for (j, k, c) in self.comult[i]}
            if fwd != rev:
                return False
        return True

    def structure_equal(self, other: "FDHopf") -> bool:
        if self.dim != other.dim:
            return False
        return (self.unit == other.unit
                and self.mult == other.mult
                and self.comult == other.comult
                and self.counit == other.counit
                and self.antipode == other.antipode
                and self.star == other.star)

    def dump(self) -> str:
        def q(v) -> str:
            f = Fraction(v)
            return f"{f.numerator}/{f.denominator}"

        lines = [f"dim {self.dim}"]
        for i, lab in enumerate(self.basis_labels):
            lines.append(f"basis[{i}] = {lab}")
        for i, c in sorted(self.unit.items()):
            lines.append(f"u -> {i} : {q(c)}")
        for (i, j) in sorted(self.mult):
            for k, c in sorted(self.mult[(i, j)].items()):
                lines.append(f"m[{i}][{j}] -> {k} : {q(c)}")
        for i in range(self.dim):
            for (j, k, c) in self.comult[i]:
                lines.append(f"d[{i}] -> {j},{k} : {q(c)}")
        for i, c in enumerate(self.counit):
            if c:
                lines.append(f"e[{i}] : {q(c)}")
        for i in range(self.dim):
            for j, c in sorted(self.antipode[i].items()):
                lines.append(f"s[{i}] -> {j} : {q(c)}")
        for i in range(self.dim):
            for j, c in sorted(self.star[i].items()):
                lines.append(f"t[{i}] -> {j} : {q(c)}")
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


@dataclass
class ScaledTensors:
    """Integer-scaled structure tensors: each numpy array equals the
    exact tensor times its scale."""

    U: np.ndarray
    M: np.ndarray
    C: np.ndarray
    E: np.ndarray
    S: np.ndarray
    T: np.ndarray
    dU: int
    dM: int
    dC: int
    dE: int
    dS: int
    dT: int


def _denom(values) -> int:
    """Least common denominator of exact rationals (ints or Fractions)."""
    return lcm(1, *{v.denominator for v in values})


_FLOAT64_LIMIT = 2 ** 53
_INT64_LIMIT = 2 ** 62


def _int_dtype(bound: int):
    """The one overflow guard: int64 when every entry is proven to stay
    below _INT64_LIMIT in absolute value, else exact Python ints in an
    object array, never a silent wraparound."""
    return np.int64 if bound < _INT64_LIMIT else object


def _max_abs(arr: np.ndarray) -> int:
    # max and min rather than abs(): no temporary copy of a large array
    return max(int(arr.max()), -int(arr.min())) if arr.size else 0


def _int_tensor(shape, entries: dict) -> tuple:
    """(A, d): the rational tensor given as {index: value} cleared to the
    exact integer array A = d * T, d the least common denominator."""
    d = _denom(entries.values())
    ints = {idx: c.numerator * (d // c.denominator) for idx, c in entries.items()}
    out = np.zeros(shape, dtype=_int_dtype(max(map(abs, ints.values()), default=0)))
    for idx, v in ints.items():
        out[idx] = v
    return out, d


def _rescale(arr: np.ndarray, k: int) -> np.ndarray:
    """arr * k over the integers, guarded like every other integer step."""
    bound = max(1, _max_abs(arr)) * abs(k)
    return arr.astype(_int_dtype(bound), copy=False) * k


def scaled_integer_tensors(H: FDHopf) -> ScaledTensors:
    """H's structure tensors cleared to integers, built on first use and
    kept on H (read-only; FDHopf instances are immutable by convention)."""
    if H._scaled is not None:
        return H._scaled
    n = H.dim
    U, dU = _int_tensor((n,), H.unit)
    M, dM = _int_tensor((n, n, n), {(i, j, p): c for (i, j), v in H.mult.items()
                                   for p, c in v.items()})
    C, dC = _int_tensor((n, n, n), {(i, a, b): c for i in range(n)
                                   for (a, b, c) in H.comult[i]})
    E, dE = _int_tensor((n,), dict(enumerate(H.counit)))
    S, dS = _int_tensor((n, n), {(i, j): c for i in range(n)
                                for j, c in H.antipode[i].items()})
    T, dT = _int_tensor((n, n), {(i, j): c for i in range(n)
                                for j, c in H.star[i].items()})
    for arr in (U, M, C, E, S, T):
        arr.flags.writeable = False
    H._scaled = ScaledTensors(U, M, C, E, S, T, dU, dM, dC, dE, dS, dT)
    return H._scaled


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
    t = scaled_integer_tensors(H)
    n = H.dim
    U, M, C, E, S, T = t.U, t.M, t.C, t.E, t.S, t.T
    eye = np.eye(n, dtype=np.int64)

    assoc = np.array_equal(_safe_einsum("ijw,wkp->ijkp", M, M),
                           _safe_einsum("jkw,iwp->ijkp", M, M))
    assoc = assoc and np.array_equal(_safe_einsum("i,ijp->jp", U, M), _rescale(eye, t.dU * t.dM))
    assoc = assoc and np.array_equal(_safe_einsum("j,ijp->ip", U, M), _rescale(eye, t.dU * t.dM))

    coassoc = np.array_equal(_safe_einsum("iab,axy->ixyb", C, C),
                             _safe_einsum("iab,bxy->iaxy", C, C))

    counit = (np.array_equal(_safe_einsum("iab,a->ib", C, E), _rescale(eye, t.dC * t.dE))
              and np.array_equal(_safe_einsum("iab,b->ia", C, E), _rescale(eye, t.dC * t.dE)))

    # Delta(xy) = Delta(x) Delta(y), the right side first: its contraction
    # peaks at five n^4 arrays, so no other one should be alive then.
    bialg = np.array_equal(_safe_einsum("iab,jcd,acp,bdq->ijpq", C, C, M, M),
                           _rescale(_safe_einsum("ijw,wpq->ijpq", M, C), t.dC * t.dM))
    bialg = bialg and np.array_equal(_rescale(_safe_einsum("ijw,w->ij", M, E), t.dE),
                                     _rescale(_safe_einsum("i,j->ij", E, E), t.dM))
    bialg = bialg and np.array_equal(_rescale(_safe_einsum("i,ipq->pq", U, C), t.dU),
                                     _rescale(_safe_einsum("i,j->ij", U, U), t.dC))
    bialg = bialg and int(_safe_einsum("i,i->", U, E)) == t.dU * t.dE

    target = _rescale(_safe_einsum("i,j->ij", E, U), t.dC * t.dS * t.dM)
    anti = (np.array_equal(_rescale(_safe_einsum("iab,aw,wbp->ip", C, S, M), t.dE * t.dU), target)
            and np.array_equal(_rescale(_safe_einsum("iab,bw,awp->ip", C, S, M), t.dE * t.dU),
                               target))

    star = np.array_equal(_safe_einsum("ij,jk->ik", T, T), _rescale(eye, t.dT * t.dT))
    star = star and np.array_equal(_rescale(_safe_einsum("ijw,wp->ijp", M, T), t.dT),
                                   _safe_einsum("jb,ia,bap->ijp", T, T, M))
    star = star and np.array_equal(_rescale(_safe_einsum("iw,wab->iab", T, C), t.dT),
                                   _safe_einsum("iab,ax,by->ixy", C, T, T))
    star = star and np.array_equal(_safe_einsum("i,ij->j", U, T), _rescale(U, t.dT))
    star = star and np.array_equal(_safe_einsum("ij,j->i", T, E), _rescale(E, t.dT))

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
    """Linear map between FDHopf instances given by basis images; verify()
    checks exhaustively that it intertwines all six structure tensors."""

    def __init__(self, source: FDHopf, target: FDHopf, images: list):
        if len(images) != source.dim:
            raise ValueError("image count disagrees with source dim")
        self.source = source
        self.target = target
        self.images = [vec_normalize(v) for v in images]
        self.failure: Optional[str] = None

    def apply(self, x: Vec) -> Vec:
        out: Vec = {}
        for i, a in x.items():
            for p, c in self.images[i].items():
                out[p] = out.get(p, 0) + a * c
        return vec_normalize(out)

    def verify(self) -> bool:
        src, tgt = self.source, self.target
        self.failure = None
        if self.apply(src.unit) != tgt.unit:
            self.failure = "unit"
            return False
        for i in range(src.dim):
            for j in range(src.dim):
                left = self.apply(src.mult.get((i, j), {}))
                right = tgt.mult_vec(self.images[i], self.images[j])
                if left != right:
                    self.failure = f"mult at ({i},{j})"
                    return False
        for i in range(src.dim):
            pushed: dict = {}
            for (a, b, c) in src.comult[i]:
                for x, ca in self.images[a].items():
                    for y, cb in self.images[b].items():
                        key = (x, y)
                        pushed[key] = pushed.get(key, 0) + c * ca * cb
            pushed = {k: _n(q) for k, q in pushed.items() if q != 0}
            if pushed != tgt.comult_vec(self.images[i]):
                self.failure = f"comult at {i}"
                return False
            if tgt.counit_vec(self.images[i]) != src.counit[i]:
                self.failure = f"counit at {i}"
                return False
            if self.apply(src.antipode[i]) != tgt.antipode_vec(self.images[i]):
                self.failure = f"antipode at {i}"
                return False
            if self.apply(src.star[i]) != tgt.star_vec(self.images[i]):
                self.failure = f"star at {i}"
                return False
        return True

    def then(self, other: "HopfMap") -> "HopfMap":
        if other.source is not self.target and other.source.dim != self.target.dim:
            raise ValueError("composition dimension mismatch")
        return HopfMap(self.source, other.target,
                       [other.apply(v) for v in self.images])

    def inverse(self) -> "HopfMap":
        if self.source.dim != self.target.dim:
            raise ValueError("only square maps can be inverted")
        n = self.source.dim
        cols = [[Fraction(self.images[j].get(i, 0)) for j in range(n)] for i in range(n)]
        inv = invert(cols)
        images = [{i: _n(inv[i][j]) for i in range(n) if inv[i][j]} for j in range(n)]
        return HopfMap(self.target, self.source, images)


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
    raises NonSplitQuotient.
    """
    n = H.dim
    if n > 64:
        raise ValueError(f"character enumeration restricted to dim <= 64, got {n}")

    def dense(v: Vec):
        row = [Fraction(0)] * n
        for k, c in v.items():
            row[k] = Fraction(c)
        return row

    ideal = RowSpace(n)
    work = []
    for i in range(n):
        for j in range(i + 1, n):
            comm = vec_sub(H.mult.get((i, j), {}), H.mult.get((j, i), {}))
            if comm and ideal.add(dense(comm)):
                work.append(comm)
    while work:
        v = work.pop()
        for k in range(n):
            basis = {k: 1}
            for prod in (H.mult_vec(basis, v), H.mult_vec(v, basis)):
                if prod and ideal.add(dense(prod)):
                    work.append(prod)

    pivset = set(ideal.pivots)
    free = [c for c in range(n) if c not in pivset]
    m = len(free)
    if m == 0:
        raise KleintwistError("commutator ideal is the whole algebra")

    def to_quotient(v: Vec):
        r = ideal.reduce(dense(v))
        return [r[f] for f in free]

    # Multiplication operators of the quotient basis, as m x m matrices.
    ops = []
    for j in range(m):
        cols = [to_quotient(H.mult_vec({free[j]: 1}, {free[k]: 1})) for k in range(m)]
        ops.append([[cols[k][r] for k in range(m)] for r in range(m)])

    def echelon(vectors) -> RowSpace:
        space = RowSpace(m)
        for v in vectors:
            space.add(v)
        return space

    def restrict(L, block: RowSpace):
        """Matrix of L on the block in its echelon basis.  An image lies
        in the block exactly when its residual is zero, and then its
        coordinates are its entries at the pivot columns."""
        cols = []
        for vec in block.rows:
            img = matvec(L, vec)
            if any(block.reduce(img)):
                raise KleintwistError("block not invariant under multiplication")
            cols.append([img[p] for p in block.pivots])
        b = block.dim
        return [[cols[c][r] for c in range(b)] for r in range(b)]

    def lincomb(block: RowSpace, coords):
        out = [Fraction(0)] * m
        for c, vec in zip(coords, block.rows):
            if c:
                for t in range(m):
                    out[t] += c * vec[t]
        return out

    queue = [echelon([Fraction(int(r == j)) for r in range(m)] for j in range(m))]
    blocks = []
    while queue:
        block = queue.pop()
        b = block.dim
        traces = []
        for L in ops:
            R = restrict(L, block)
            traces.append(sum(R[r][r] for r in range(b)))
            lam = R[0][0]
            if all(R[r][c] == (lam if r == c else 0) for r in range(b) for c in range(b)):
                continue          # R = lam * I: minimal polynomial x - lam
            mp = minimal_polynomial(R)
            roots, rem = rational_roots(mp)
            if not roots:
                raise NonSplitQuotient(
                    f"minimal polynomial without rational roots: {rem}")
            if len(roots) == 1 and len(rem) == 1:
                continue
            pieces = []
            covered = 0
            for lam, _mult in roots:
                N = matpow(mat_sub_scalar(R, lam), b)
                ker = kernel_basis(N)
                if ker:
                    pieces.append(echelon(lincomb(block, v) for v in ker))
                    covered += len(ker)
            if covered < b:
                P = None
                for lam, _mult in roots:
                    F = matpow(mat_sub_scalar(R, lam), b)
                    P = F if P is None else matmul(P, F)
                img = column_space_basis(P)
                pieces.append(echelon(lincomb(block, v) for v in img))
            queue.extend(pieces)
            break
        else:
            blocks.append((b, traces))

    basis_q = [to_quotient({i: 1}) for i in range(n)]
    out = []
    for b, traces in blocks:
        # chi on the quotient basis: the unique eigenvalue of each
        # operator, read off as trace/b since its minimal polynomial is
        # (x-lam)^q.
        chi_q = [tr / b for tr in traces]
        values = []
        for i in range(n):
            values.append(_n(sum((basis_q[i][j] * chi_q[j] for j in range(m)
                                  if basis_q[i][j]), Fraction(0))))
        chi = Character(H, tuple(values))
        if chi(H.unit) != 1:
            raise KleintwistError("character fails chi(1) = 1")
        for i in range(n):
            for j in range(n):
                if chi(H.mult.get((i, j), {})) != _n(Fraction(values[i]) * Fraction(values[j])):
                    raise KleintwistError(f"character not multiplicative at ({i},{j})")
        for i in range(n):
            if chi(H.star[i]) != values[i]:
                raise KleintwistError(f"character not star-compatible at {i}")
        out.append(chi)

    out.sort(key=lambda ch: tuple(Fraction(v) for v in ch.values))
    if len({ch.values for ch in out}) != len(out):
        raise KleintwistError("duplicate characters from distinct blocks")
    return out


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
    t = scaled_integer_tensors(H)
    X, dX = _int_tensor((len(chars), H.dim), {(f, i): v for f, ch in enumerate(chars)
                                              for i, v in enumerate(ch.values)})
    # (f*g)(e_i) * dC*dX^2 and f(S e_i) * dS*dX, keyed by X's rows * dC*dX and * dS.
    products = _safe_einsum("iab,fa,gb->fgi", t.C, X, X).tolist()
    inverses = _safe_einsum("iw,fw->fi", t.S, X).tolist()
    product_slot = {tuple(row): j for j, row in enumerate(_rescale(X, t.dC * dX).tolist())}
    inverse_slots = {tuple(row) for row in _rescale(X, t.dS).tolist()}
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
