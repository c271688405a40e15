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

Every contraction proves a bound, scales included, on the absolute value
of every partial sum it can form, and the bound picks one of three tiers:
below 2^53 float64 arrays through BLAS, below 2^62 int64, otherwise
Python ints.  One whose naive product count, the product of all its
index sizes, is below _BLAS_WORK runs whole, as one nested einsum loop
over its uncut operands with no plan, unless its bound takes the object
tier or it has three or more operands whose loop would form far more
products than their pairwise steps (_whole_bound).  Any other
contraction is planned once per shape from its whole operands and
formed at once when one slab would hold every array it forms, else
evaluated one slab of one output index at a time (loop tiling, after
Wolf and Lam, PLDI 1991).  Planning cuts each index to the
positions where all operands carrying it have a nonzero slice, which
drops only zero terms, so sparse operands such as a cocycle living on a
Klein subgroup cost in proportion to their support rather than to n^k,
and takes the bound over the cut sizes.  Planning reads of an operand
only its profile, the positions of its nonzero slices and its largest
entry; each array an FDHopf, a HopfMap or a Cocycle2 stores is profiled
once when it is stored, and copied first if the caller still holds it
(an array the package's own builder made is frozen in place), so no
caller can write under its profile.  The float tier is exact
because every operand entry, product and partial sum is then an integer
of magnitude below 2^53, which float64 represents exactly, so no
operation rounds, whatever order BLAS or einsum sums in; callers only
ever see int64 or object arrays.  Every step of the contraction path,
the one numpy's greedy rule picks (_greedy_path reimplements that rule),
is planned pairwise, and every step runs as one broadcast matmul: a
step of more than two operands, which numpy would run as one nested
loop, joins its fixed operands first, then each slab operand in turn.
Planning runs once every step that does not reach the slab index, and
forms each such fixed factor directly in the layout of the matmul that
reads it; each slab runs only the steps that carry it.

The working set is bounded.  No array a contraction keeps, forms on a
step or copies into a matmul's layout holds more entries than its limit,
the larger of _SLAB_ENTRIES, its largest operand and its output, the
line numpy's greedy path keeps its own intermediates under.  A
contraction whose unslabbed plan forms no array past _SLAB_ENTRIES
needs no slab index, and only one that passes it is slabbed.  A fixed
factor that would pass the limit is never formed: its step joins a slab
operand first, and the slab index is an output index whose plan keeps
every array under the limit, so such a factor is formed slab by slab
over an output index it carries, and the other side's factor is the one
kept whole.  Each factor is still formed once, so the multiply-adds do
not change with the slab index, and of the indices that keep under the
limit the one whose slabs run the fewest steps is taken.  At dimension
24 every array then stays within _SLAB_ENTRIES, so a run touches few
fresh pages.

Associativity, coassociativity and Delta(xy) = Delta(x) Delta(y), the
identities of n^5, n^5 and n^6 terms, are decided on generators.  Given
the left unit identity, (x y) z = x (y z) holds as soon as
(g y) z = g (y z) for every basis y, z and every g of a set that
generates H as an algebra; coassociativity is associativity of the dual
algebra (unit the counit, product the transposed coproduct), decided the
same way once the left counit identity holds.  Given associativity, the
unit identities and Delta(1) = 1 (x) 1, Delta(xy) = Delta(x) Delta(y)
holds as soon as Delta(g y) = Delta(g) Delta(y) for every basis y and
every such g.  Induction on the length of a monomial in the g carries
each to every monomial, and the monomials span H.  The generators are
two, else three, fixed generic elements, and their generation is
certified modulo one word-size prime that does not divide the product's
scale: the span of 1 closed under left multiplication by them reaches
dimension n there, and rows independent modulo a prime are independent
over Q.  That leaves k n^4 products per side for (co)associativity and
one contraction of k n^5 terms for the bialgebra identity, slabbed over
an index of its y side so that its fixed factor is the k n^3 one.  When the (co)unit
identity an identity needs fails, or generation is not certified, the
full identity runs, so each suite's verdict keeps its meaning.

An identity's verdict depends only on its subscripts, the scales and the
content of its operands, and so does a generation certificate.  Each is
kept in one table (_decided), keyed by those and by a digest of each
stored operand, taken when it is stored; a hit is confirmed with
np.array_equal against the arrays the entry holds weakly, and dies with
them.  So a twist, which keeps its base's coalgebra, decides the shared
coalgebra identities once, and an algebra built twice is verified once
while the first is alive.

Every axiom, of an algebra, a Hopf map or a cocycle, and every clause of
the character audit, is an identity X = Y between two such contractions,
and one routine decides them all (_first_difference).  Each side is given
as its subscripts and its operands, every operand an (integer array,
scale) pair, as stored or as _contract returns a contraction of pairs, so
that side stands for X / dx, dx the product of its scales.  The two sides
are cross-multiplied by their scales, X * (dy/g) = Y * (dx/g) with
g = gcd(dx, dy), and share one tier.  Two sides that both run whole are
compared whole; otherwise their outputs are cut alike, so that they line
up, and compared at once when no side needs a slab, else slab against
slab, stopping at the first slab that differs; the first differing
index is located in that slab only, and says where a Hopf-map suite or
a character fails.  No axiom
check, and neither twist nor pullback, writes out a product of scales.

Character enumeration runs on the same integer arrays, by one of two
routes.  The word-size route runs first (_characters_mod): modulo one
prime p with n p^2 < 2^62, p not dividing dM and p > 2B,
B = max_ij sum_k |M[i, j, k]|, it closes the rows of M - M^T under right
multiplication by the basis (ratlinalg.ClosureMod), to dimension d_p,
splits the quotient with the first of five small generic elements whose
least Krylov relation has degree m = n - d_p, searches that relation's
roots among small integers under a fixed budget, and reads dM chi(e_i)
modulo p for every basis vector off one eigen-row per root.  Lifted to
the symmetric range these are exact for true characters, since
dM chi(e_i) is a rational eigenvalue of the integer matrix M[i], so an
integer of absolute value at most B.  The list is kept only when the
character audit passes on it, its rows are distinct and there are m of
them; then it is complete, as distinct characters are independent and
vanish on the commutator ideal I, and m >= n - dim I because the closure
modulo p lies in the reduction of I's integer lattice.  It never raises.

Whenever that certificate cannot be given (a product beyond word size,
no generating element, roots past the budget, a failed audit) the exact
route decides, and it raises every refusal (_characters_exact).  It
quotients by the commutator ideal, built in batched rounds of
contractions, and splits the commutative quotient with one generic
element a_t = sum_k (k+1)^t e_fk (primitive-element splitting, after
Friedl and Ronyai, STOC 1985), trying t = 1, 2, ... until a_t generates
the quotient.  Its minimal polynomial f is the least relation among the
Krylov rows u, u a_t, ... of the unit u (ratlinalg.first_relation: modulo
word-size primes, one exact certificate), and integer_roots finds its
roots or raises NonSplitQuotient, naming a basis element whose own
operator does not split.  The quotient of a Hopf algebra is itself a
commutative Hopf algebra, reduced over Q (Cartier's theorem), so a unit
that does not act as a nonzero scalar, or an f with a repeated root, is
refused: H is then no Hopf algebra.  A squarefree f of lower degree than
the quotient's moves on to the next t.  Once deg f is the quotient's
dimension, the quotient is Q[y]/(f), one line per root r, spanned by
v_r = u (f / (y - r))(a_t), on which every element acts by its value at
r's character: one product puts every basis operator on every v_r, and
one exact residual certifies those scalars.  Both routes end in the same
audit, three identities on the cleared value matrix decided by
_first_difference; one contraction with the coproduct and the antipode
gives the characters' group.
"""

from __future__ import annotations

import weakref
import zlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, combinations
from math import gcd, isqrt, lcm, prod
from operator import or_
from typing import Iterable, Optional

import numpy as np

from .errors import (ClosureFailure, EvaluationNotPermutation, KleintwistError,
                     NonSplitQuotient, NotASubgroup)
from .perm import PermGroup, Permutation, klein_group, symmetric_group
from .ratlinalg import (_INT64_LIMIT, ClosureMod, RowSpace, _cleared, _dot, _fit, _int_dtype,
                        _inverse, _is_prime, _max_abs, _primitive, _relations_mod, _rescale,
                        _sub, deflate, first_relation, integer_roots)


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


# The profile of every stored array, keyed by the array's id: a weak
# reference to the array, whose callback drops the entry when the array
# dies, and the profile (_profiled).  No entry keeps its array alive.
_PROFILES: dict = {}


def _nonzero_slices(arr: np.ndarray) -> tuple:
    """Per axis of arr, the boolean mask of the positions whose slice holds
    a nonzero entry."""
    axes = range(arr.ndim)
    return tuple(arr.any(axis=tuple(b for b in axes if b != a)) for a in axes)


def _digest(arr: np.ndarray) -> Optional[tuple]:
    """A digest of an integer array's content: its shape, dtype and the
    CRC-32 of its bytes; None for an object array, whose bytes are
    pointers.  Equal arrays have equal digests; the converse is never
    trusted (_decided)."""
    if arr.dtype == object:
        return None
    return arr.shape, arr.dtype.str, zlib.crc32(np.ascontiguousarray(arr))


def _profiled(arr: np.ndarray) -> Optional[tuple]:
    """The profile stored with arr (_stored), or None for any other array:
    (its _nonzero_slices, its largest |entry|, its _digest), all that
    planning a contraction and the table of decided identities read of an
    operand.  A stored array never changes, so its profile holds while it
    lives."""
    entry = _PROFILES.get(id(arr))
    return entry[1] if entry is not None and entry[0]() is arr else None


def _stored(values, scale: int, owned: bool = False) -> tuple:
    """values / scale as an FDHopf, a HopfMap or a Cocycle2 stores it: in
    canonical cleared form (ratlinalg._cleared), immutable and profiled
    once.  The stored array reads the cleared one through a read-only
    memoryview, so numpy refuses to make it, or any view of it, writeable
    again: nothing can write under a profile or a digest.  An array of the
    caller's that _cleared hands back as is is copied first, so the
    caller's array stays writeable and unshared; an array already stored
    is shared.  owned says that the package's own builder made values and
    keeps no reference to it, so it is stored with no copy."""
    A, d = _cleared(values, scale)
    if _profiled(A) is None:
        if A is values and not owned:
            A = A.copy()
        A = np.asarray(memoryview(A).toreadonly())
        key = id(A)
        # pop bound now: the callback may run while the module is torn down
        _PROFILES[key] = (weakref.ref(A, lambda _, pop=_PROFILES.pop: pop(key, None)),
                          (_nonzero_slices(A), _max_abs(A), _digest(A)))
    return A, d


_ONE = _stored(np.ones((), dtype=np.int64), 1, owned=True)

# Identities decided and generation certified, keyed by content: a tag
# (the subscripts and scales of an identity) and the digest of each
# operand.  An entry holds its operands only weakly, and its verdict; it
# dies with the first of its operands to die.
_DECIDED: dict = {}


def _decided(tag: tuple, arrays, decide):
    """decide(), computed once per content.  When every array is stored
    (_profiled), its value is kept under tag and the arrays' digests, and a
    later call with arrays of the same digests takes it, once np.array_equal
    has confirmed each array against the one the value was computed on (a
    stored array is immutable, so the same array needs no comparison).  A
    value is never taken on its digests alone."""
    profiles = [_profiled(A) for A in arrays]
    if any(pr is None or pr[2] is None for pr in profiles):
        return decide()
    key = (tag, tuple(pr[2] for pr in profiles))
    entry = _DECIDED.get(key)
    if entry is not None:
        refs, value = entry
        if all((B := ref()) is A or (B is not None and np.array_equal(A, B))
               for ref, A in zip(refs, arrays)):
            return value
    value = decide()
    _DECIDED[key] = (tuple(weakref.KeyedRef(A, _forget, key) for A in arrays), value)
    return value


def _forget(ref, table=_DECIDED) -> None:
    """Drops the entry of _DECIDED that ref, one of its weak references,
    belongs to: the array ref held has died.  table is bound now, as in
    _stored."""
    entry = table.get(ref.key)
    if entry is not None and any(r is ref for r in entry[0]):
        del table[ref.key]


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
        self._store(labels, [(A, 1) for A in tensors])

    @classmethod
    def _from_tensors(cls, basis_labels, *tensors) -> "FDHopf":
        """The algebra of six (integer array, scale) pairs, in the order
        U, M, C, E, S, T, brought to canonical form without a Fraction.
        A pair already stored is shared; a builder stores the arrays it
        owns itself (_stored), so they are not copied."""
        H = cls.__new__(cls)
        H._store(tuple(basis_labels), tensors)
        return H

    def _store(self, labels: tuple, tensors) -> None:
        tensors = [_stored(A, d) for A, d in tensors]
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
    antipode = _stored(_indicator((n, n), i, inverse), 1, owned=True)   # as S and as T
    return FDHopf._from_tensors([g.cycle_string() for g in elems], *(
        _stored(A, 1, owned=True) for A in (
            _indicator(n, 0), _indicator((n, n, n), i[:, None], i, product),
            _indicator((n, n, n), i, i, i), np.ones(n, dtype=np.int64))), antipode, antipode)


def function_algebra(G: PermGroup) -> FDHopf:
    """C(G): delta-function basis (sorted group order), pointwise product,
    coproduct dual to group multiplication."""
    elems, product, inverse = _group_table(G)
    n, i = len(elems), np.arange(len(elems))
    return FDHopf._from_tensors(["d_" + g.cycle_string() for g in elems], *(
        _stored(A, 1, owned=True) for A in (
            np.ones(n, dtype=np.int64), _indicator((n, n, n), i, i, i),
            _indicator((n, n, n), product, i[:, None], i), _indicator(n, 0),
            _indicator((n, n), i, inverse), np.eye(n, dtype=np.int64))))


# -- exhaustive axiom verification ------------------------------------


_FLOAT64_LIMIT = 2 ** 53
# Entries of the largest array one slab may form, 512 KB in float64, and
# the floor of every contraction's limit on the arrays it forms
# (_Contraction): below the limit of a contraction with larger operands or
# output, a slab stays in cache and a run reuses the same few pages.
_SLAB_ENTRIES = 2 ** 16
# A contraction of fewer naive products than this runs whole, on its
# uncut operands and with no plan (_whole_bound), which then mostly costs
# less than planning it.
_BLAS_WORK = 2 ** 16


def _tier(bound: int):
    """The dtype of a contraction whose partial sums are proven below bound:
    float64 below 2^53, where BLAS is exact on integers, else int64 or
    objects by the integer guard."""
    return np.float64 if bound < _FLOAT64_LIMIT else _int_dtype(bound)


@lru_cache(maxsize=1024)
def _greedy_path(subscripts: str, shapes: tuple) -> list:
    """einsum's greedy pairwise path, which depends on the shapes only, by
    numpy's rule (np.einsum_path with optimize="greedy"): each round
    joins the pair of operands that removes the most entries, the sum of
    their sizes less the size of their result, the fewer products first
    among equals and the earliest found among those.  Pairs that share no
    index are tried only when no other pair is left; a pair whose result
    is larger than every operand and the output, or that would take the
    path past the product count of one nested loop over every index, is
    never joined.  A step is a tuple of positions in the list of operands
    left, and its result goes to the end of that list.

    As in numpy, each round ranks only the pairs with the operand formed
    last; a pair ranked earlier keeps its rank and its result, so the
    operands left when it is joined are those of the list less the pair,
    then its result."""
    lhs, rhs = subscripts.split("->")
    terms = lhs.split(",")
    sizes: dict = {}
    for term, shape in zip(terms, shapes):
        for ch, n in zip(term, shape):
            if sizes.get(ch, 1) == 1:
                sizes[ch] = n
    # an index set is a bit mask over the letters, its size memoized
    bit = {ch: 1 << k for k, ch in enumerate(sizes)}
    known_sizes = {bit[ch]: n for ch, n in sizes.items()}
    known_sizes[0] = 1

    def size(indices: int) -> int:
        n = known_sizes.get(indices)
        if n is None:
            low = indices & -indices
            n = known_sizes[indices] = known_sizes[low] * size(indices ^ low)
        return n

    out = 0
    for ch in rhs:
        out |= bit[ch]
    sets = []
    for term in terms:
        mask = 0
        for ch in term:
            mask |= bit[ch]
        sets.append(mask)
    everything = reduce(or_, sets)
    if len(sets) < 3 or everything == out:
        return [tuple(range(len(sets)))]
    limit = max(size(s) for s in sets + [out])
    # numpy's flop count: one product per term past the first, one more
    # when the step sums an index
    budget = size(everything) * (len(sets) - 1 + bool(everything & ~out))

    def join(a, b, spent):
        """(rank, a, b, result) for the pair at positions a < b, or None."""
        keep = out
        for k, s in enumerate(sets):
            if k != a and k != b:
                keep |= s
        joined = sets[a] | sets[b]
        result = joined & keep
        if size(result) > limit:
            return None
        cost = size(joined) * (1 + (joined != result))
        if spent + cost > budget:
            return None
        return (size(result) - size(sets[a]) - size(sets[b]), cost), a, b, result

    path, spent, known = [], 0, []
    pairs = combinations(range(len(sets)), 2)
    for _ in range(len(sets) - 1):
        known += [found for a, b in pairs if sets[a] & sets[b]
                  if (found := join(a, b, spent)) is not None]
        if not known:
            known = [found for a, b in combinations(range(len(sets)), 2)
                     if (found := join(a, b, spent)) is not None]
            if not known:
                path.append(tuple(range(len(sets))))
                break
        best = min(known, key=lambda found: found[0])
        rank, a, b, result = best
        sets = [s for k, s in enumerate(sets) if k != a and k != b] + [result]
        # the pairs found before that the step leaves alone, renumbered
        known = [(r, x - (x > a) - (x > b), y - (y > a) - (y > b), res)
                 for r, x, y, res in known if x != a and x != b and y != a and y != b]
        pairs = ((k, len(sets) - 1) for k in range(len(sets) - 1))
        path.append((a, b))
        spent += rank[1]
    return path


def _slab_height(widest: int) -> int:
    """Rows of the slab index per slab, when one row of the widest array a
    slab forms holds widest entries."""
    return max(1, _SLAB_ENTRIES // max(1, widest))


def _sizes(terms, arrays) -> dict:
    """The size of every index of the operands."""
    return {ch: n for term, arr in zip(terms, arrays) for ch, n in zip(term, arr.shape)}


def _support(terms, arrays) -> dict:
    """Per index, the positions where every operand carrying it has a
    nonzero slice, as a boolean mask; a stored operand's are read from its
    profile."""
    live: dict = {}
    for term, arr in zip(terms, arrays):
        stored = _profiled(arr)
        for ch, hit in zip(term, stored[0] if stored else _nonzero_slices(arr)):
            live[ch] = live.get(ch, True) & hit
    return live


def _peak(arr: np.ndarray) -> int:
    """The largest |entry| of arr, read from its profile when it is stored."""
    stored = _profiled(arr)
    return stored[1] if stored else _max_abs(arr)


def _bound(terms, rhs: str, arrays, sizes: dict, scale: int) -> int:
    """The scale times the product of the operands' largest entries (at
    least 1 each) times the number of terms summed per output entry: a
    bound on every product, partial sum and intermediate of any order in
    which the contraction can be run."""
    bound = scale
    for arr in arrays:
        bound *= max(1, _peak(arr))
    for ch in sizes.keys() - set(rhs):
        bound *= sizes[ch]
    return bound


def _whole_bound(terms, rhs: str, arrays, sizes: dict, scale: int = 1) -> Optional[int]:
    """The proven bound (_bound) of the contraction run whole, as one
    nested einsum loop over its uncut operands with no plan (_run_whole),
    or None when it is to be planned (_Contraction) instead: when its
    naive product count, the product of all its index sizes, reaches
    _BLAS_WORK, or its bound takes the object tier, or its loop forms
    more than _PLAN_COST products beyond its pairwise steps
    (_pairwise_saving).  Below that count the operands are small, so
    cutting them and planning their layout costs more than it saves,
    unless three or more operands make the loop form far more products
    than a pairwise path.  sizes holds every index's size (_sizes)."""
    loop = prod(sizes.values())
    if loop >= _BLAS_WORK or _pairwise_saving(terms, rhs, sizes, loop) > _PLAN_COST:
        return None
    bound = _bound(terms, rhs, arrays, sizes, scale)
    return bound if bound < _INT64_LIMIT else None


# What a planned contraction costs beyond its products, in products of a
# nested einsum loop: on the whole contractions of a round trip and of
# `kleintwist verify`, a plan costs 20-35 us more than the loop, which
# forms a product in 0.5-3 ns.
_PLAN_COST = 2 ** 15


def _pairwise_saving(terms, rhs: str, sizes: dict, loop: int) -> int:
    """How many fewer products the pairwise steps of einsum's greedy path
    form than one nested loop over the loop points, every point of the
    index space: the loop forms m - 1 per point for m operands, and so
    does a path step of m operands per point of the indices it joins.  It
    depends on the shapes only; 0 for one or two operands, or when the
    saving cannot pass _PLAN_COST."""
    if len(terms) < 3 or loop * (len(terms) - 1) <= _PLAN_COST:
        return 0
    path = _greedy_path(",".join(terms) + "->" + rhs,
                        tuple(tuple(sizes[ch] for ch in term) for term in terms))
    sets, steps = [set(term) for term in terms], 0
    for step in path:
        rest = [s for k, s in enumerate(sets) if k not in step]
        joined = set().union(*(sets[k] for k in step))
        steps += prod(sizes[ch] for ch in joined) * (len(step) - 1)
        sets = rest + [joined & set(rhs).union(*rest)]
    return loop * (len(terms) - 1) - steps


def _run_whole(subscripts: str, arrays, scale: int = 1):
    """The contraction times scale as one nested einsum loop in int64,
    exact by the bound of _whole_bound, which covers the scale and every
    partial sum and is below 2^62.  The loop runs no BLAS, so float64
    would buy nothing; it reads the operands as they are, with no cast
    copy ("unsafe" only lets object operands through)."""
    out = np.einsum(subscripts, *arrays, dtype=np.int64, casting="unsafe")
    return out * scale if scale != 1 else out


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


def _laid_out(term: str, arr: np.ndarray, order: str, shape) -> np.ndarray:
    """arr, whose axes are term, as an array of the given shape over its
    axes in order: a view when arr's axes in that order are C-contiguous,
    as when arr is and order == term, else a copy."""
    return (arr if term == order else np.einsum(f"{term}->{order}", arr)).reshape(shape)


@lru_cache(maxsize=1024)
def _matmul_plan(a_term: str, a_shape: tuple, b_term: str, b_shape: tuple, out: str) -> tuple:
    """How _matmul runs a_term,b_term->out on operands of these shapes:
    whether it swaps them, the (order, shape) each is read in, and the
    shape of the result.  The operands are swapped when that gives larger
    matrix products (_sides)."""
    sizes = dict(zip(a_term + b_term, a_shape + b_shape))
    sides, other = _sides(out, a_term, b_term), _sides(out, b_term, a_term)
    swapped = (prod(sizes[ch] for ch in other[1] + other[2])
               > prod(sizes[ch] for ch in sides[1] + sides[2]))
    if swapped:
        a_term, b_term, sides = b_term, a_term, other
    batch, rows, cols = sides
    summed = "".join(ch for ch in a_term if ch in b_term and ch not in out)

    def read(term, first, last):
        kept = "".join(ch for ch in batch if ch in term)
        shape = [sizes[ch] if ch in term else 1 for ch in batch]
        shape += [prod(sizes[ch] for ch in first), prod(sizes[ch] for ch in last)]
        return kept + first + last, tuple(shape)

    return (swapped, read(a_term, rows, summed), read(b_term, summed, cols),
            tuple(sizes[ch] for ch in out))


def _matmul(a_term: str, a: np.ndarray, b_term: str, b: np.ndarray, out: str) -> np.ndarray:
    """The contraction a_term,b_term->out as one broadcast matmul whose
    result is C-contiguous in the order of out (_matmul_plan).  A batch
    axis that one operand lacks is broadcast over, and an index that only
    one operand carries and out drops is summed first."""
    swapped, x, y, shape = _matmul_plan(a_term, a.shape, b_term, b.shape, out)
    if swapped:
        a_term, a, b_term, b = b_term, b, a_term, a
    return np.matmul(_laid_out(a_term, a, *x), _laid_out(b_term, b, *y)).reshape(shape)


def _orientations(s: str, f: str, keep, owns, wide: bool) -> list:
    """The (layout of f, output, whether s is read as laid out) triples for
    the step s,f->output that reads the slab array s, laid out as it is,
    against the fixed array f, which can be laid out at will.  s is read
    either as the rows of the matmul, its kept indices then the ones it
    sums (_matmul keeps that orientation), or, when it ends in indices
    that only it carries and keeps, as the columns, with those last;
    _matmul swaps the operands into that orientation only when f's own
    indices, wide, span more than one entry.  owns holds the orders of
    f's own indices to try."""
    summed = "".join([ch for ch in s if ch in f and ch not in keep])
    shared = "".join([ch for ch in s if ch in f and ch in keep])
    kept = "".join([ch for ch in s if ch in keep])
    k = len(s)
    while k and s[k - 1] in keep and s[k - 1] not in f:
        k -= 1
    head = "".join([ch for ch in s[:k] if ch in keep])
    out = []
    for own in owns:
        out.append((shared + summed + own, kept + own, s == kept + summed))
        if k < len(s):
            out.append(("".join([ch for ch in head if ch in f]) + own + summed,
                        head + own + s[k:], wide and s[:k] == head + summed))
    return out


@dataclass(frozen=True)
class _Layout:
    """A contraction's plan for one slab index, or for none: the term of
    every node (operands as ready() lays them out, then one per pairwise
    step), the steps, which nodes carry the slab index, the widest row,
    slab index left out, of any array a slab forms, and the largest array
    the plan keeps or forms."""

    terms: tuple
    steps: tuple
    slabbed: tuple
    widest: int
    peak: int


@lru_cache(maxsize=1024)
def _pairs(terms: tuple, rhs: str, sizes: tuple, slab: str, limit: int) -> tuple:
    """The pairwise steps of terms->rhs over indices of the given (index,
    size) pairs, slabbed over the output index slab ('' for none), along
    einsum's greedy path: (node terms, steps, the indices each step
    keeps, which nodes carry the slab index, the widest slab row, the
    largest array kept).  It depends on nothing else, so it is planned
    once per shape.

    A path step of more than two operands, which numpy would run as one
    nested loop, joins its fixed operands first, once, then each slab
    operand in turn; but when two fixed operands would join into an
    array of more than limit entries, a slab operand joins first, with
    the fixed operand that leaves it the narrowest row.  A slab operand
    is taken with the slab index first, so that each slab of it is one
    block."""
    size = dict(sizes).__getitem__

    def entries(term, drop=""):
        return prod(map(size, term.replace(drop, "")))

    n = len(terms)
    path = [tuple(range(n))]
    if n > 2:
        path = _greedy_path(",".join(terms) + "->" + rhs, tuple(tuple(map(size, t)) for t in terms))
    terms = [slab + t.replace(slab, "") if slab and slab in t else t for t in terms]
    slabbed = [bool(slab) and slab in term for term in terms]
    # node ids: the operands, then one per pairwise step (a, b), which
    # forms node n + its place in steps; live keeps the path's order
    live, steps, keeps, peak, widest = list(range(n)), [], [], 0, entries(rhs, slab)
    for step in path:
        ids = sorted((live.pop(k) for k in sorted(step, reverse=True)),
                     key=slabbed.__getitem__)           # fixed operands first
        while len(ids) > 1:
            def kept(a, b):
                keep = set(rhs).union(*(terms[i] for i in live + ids if i != a and i != b))
                return keep, "".join(dict.fromkeys(ch for ch in terms[a] + terms[b] if ch in keep))

            a, b = ids[:2]
            keep, out = kept(a, b)
            if slabbed[b]:
                a, b = b, a                             # a slab operand on the left
            elif slabbed[ids[-1]] and entries(out) > limit:
                a = next(i for i in ids if slabbed[i])
                b = min((i for i in ids if not slabbed[i]),
                        key=lambda f: entries(kept(a, f)[1], slab))
                keep, out = kept(a, b)
            terms.append(out)
            slabbed.append(slabbed[a])
            steps.append((a, b))
            keeps.append("".join(sorted(keep)))
            if slabbed[a]:
                widest = max(widest, entries(out, slab))
            else:
                peak = max(peak, entries(out))
            ids = [len(terms) - 1] + [i for i in ids if i != a and i != b]
        live += ids
    return tuple(terms), tuple(steps), tuple(keeps), tuple(slabbed), widest, max(peak, widest)


@lru_cache(maxsize=1024)
def _layout(terms: tuple, rhs: str, sizes: tuple, slab: str, limit: int) -> _Layout:
    """The plan of _pairs with the order of every index chosen, step by
    step.  A step that reads a slab array against a fixed one takes the
    first orientation (_orientations) whose matmuls copy nothing per slab,
    else the one that copies the fewest entries per slab row: the slab
    array it reads, when its layout does not suit, and its own result,
    when the step reading that next cannot take it as laid out.  The fixed
    array is laid out once in the order the step needs, and so is a slab
    operand, so neither is copied per slab.  The orders of the fixed
    array's own indices are tried grouped by the operand of the step that
    formed it, so that step runs larger matrix products.  With no slab
    index every step is fixed, and each result keeps the order _pairs
    gives it."""
    terms, steps, keeps, slabbed, widest, peak = _pairs(terms, rhs, sizes, slab, limit)
    if not slab:
        return _Layout(terms, steps, slabbed, widest, peak)
    size = dict(sizes).__getitem__

    def entries(term, drop=""):
        return prod(map(size, term.replace(drop, "")))

    terms, n = list(terms), len(terms) - len(steps)
    reader = {node: t for t, step in enumerate(steps) for node in step}

    def readable(node, term):
        """Whether the step reading node can take it laid out as term."""
        if node not in reader:
            return True
        a, b = steps[reader[node]]
        other = b if a == node else a
        if slabbed[other]:
            return True
        own = "".join(ch for ch in terms[other] if ch not in term)
        return any(fits for _, _, fits in _orientations(term, terms[other], keeps[reader[node]],
                                                         [own], entries(own) > 1))

    for t, ((a, b), keep) in enumerate(zip(steps, keeps)):
        node = n + t
        if not (slabbed[a] and not slabbed[b]):
            terms[node] = "".join(dict.fromkeys(ch for ch in terms[a] + terms[b] if ch in keep))
            continue
        s = terms[a]
        own = "".join(ch for ch in terms[b] if ch not in s)
        owns = [own, own[::-1]]
        if b >= n:                                      # formed by a step of its own
            x = terms[steps[b - n][0]]
            owns = ["".join(sorted(own, key=lambda ch: ch not in x)),
                    "".join(sorted(own, key=lambda ch: ch in x))]
        orders = [s]
        if a < n:                                       # a slab operand: any order after slab
            kept = "".join(ch for ch in s[1:] if ch in keep)
            summed = "".join(ch for ch in s[1:] if ch not in keep)
            orders += [s[0] + kept + summed, s[0] + summed + kept]

        def copied(candidate):
            order, _, out, fits = candidate
            return ((not fits) * entries(order, slab)
                    + (not readable(node, out)) * entries(out, slab))

        candidates = [(order, *oriented) for order in dict.fromkeys(orders)
                      for oriented in _orientations(order, terms[b], keep, dict.fromkeys(owns),
                                                    entries(own) > 1)]
        costs = {}
        for c in candidates:
            costs[c] = copied(c)
            if not costs[c]:
                break
        terms[a], terms[b], terms[node], _ = min(costs, key=costs.get)
    return _Layout(tuple(terms), tuple(steps), tuple(slabbed), widest, peak)


def _taken(arr: np.ndarray, term: str, cut: dict) -> np.ndarray:
    """arr, whose axes are term, at the positions cut keeps of each index
    it cuts: one take per cut axis, each on what the last one left."""
    for axis, ch in enumerate(term):
        if ch in cut:
            arr = arr.take(cut[ch], axis=axis)
    return arr


class _Contraction:
    """One exact integer contraction times an integer scale, planned once
    per shape from its whole operands: formed at once when one slab would
    hold every array its unslabbed plan (_layout with no slab index) forms
    (fits), else evaluated slab by slab over one of its output indices,
    the slab index.

    Every index is cut to its live positions (_support; the caller may
    widen an output index's): any other position multiplies a zero, so the
    cut contraction equals the full one.  The bound (_bound) is taken over
    the cut operands and sizes, a stored operand that no cut reaches read
    from its profile, and _tier picks the dtype from it.  ready() casts
    the operands, folds the scale into the smallest one, and runs once
    every step of the pairwise path that no slab operand reaches, which
    for a contraction that fits is every step; slab() runs the remaining
    steps on rows of the slab index only.  Results stay in the tier's
    dtype.

    The working set is bounded: no array the plan keeps, forms on a slab
    or copies into a matmul's layout holds more than limit entries, the
    larger of _SLAB_ENTRIES, the largest cut operand and the cut output,
    the line einsum's greedy path keeps its own intermediates under.
    Within it, a fixed factor that would pass the limit is not formed:
    its step joins a slab operand first, and the slab index is an output
    index whose plan keeps every array under the limit (_slab_axis), so
    such a factor is formed slab by slab over an output index it carries,
    and the other side's factor is kept whole instead.  The multiply-adds
    are the same on every slab index: each factor is formed once, whole
    or in slabs."""

    def __init__(self, subscripts: str, arrays, scale: int = 1, live: Optional[dict] = None):
        lhs, self.rhs = subscripts.split("->")
        self.terms = lhs.split(",")
        self.sizes = _sizes(self.terms, arrays)
        live = _support(self.terms, arrays) if live is None else live
        self.cut = {ch: np.flatnonzero(hit) for ch, hit in live.items() if not hit.all()}
        self.slab_index = ""
        self.ops = [_taken(arr, term, self.cut) for term, arr in zip(self.terms, arrays)]
        self.scale = scale
        sizes = {ch: self.size(ch) for ch in self.sizes}
        self.bound = _bound(self.terms, self.rhs, self.ops, sizes, scale)
        self.limit = max(_SLAB_ENTRIES, prod(sizes[ch] for ch in self.rhs),
                         *(op.size for op in self.ops))
        self.shape = tuple(self.terms), self.rhs, tuple(sizes.items())
        self.plan = _layout(*self.shape, "", 0)    # no slab index: reads no limit
        self.fits = self.plan.peak <= _SLAB_ENTRIES or not self.rhs

    def size(self, ch: str) -> int:
        return len(self.cut[ch]) if ch in self.cut else self.sizes[ch]

    def positions(self, term: str, rows: slice = slice(None)):
        """The index of the cut positions of term, rows of the slab index
        taken among them."""
        return np.ix_(*[(self.cut[ch] if ch in self.cut else np.arange(self.sizes[ch]))
                        [rows if ch == self.slab_index else slice(None)] for ch in term])

    def key(self, slab: str) -> tuple:
        """What the plan slabbed over the output index slab depends on, as
        _pairs and _layout take it."""
        return (*self.shape, slab, self.limit)

    def ready(self, dtype, axis: Optional[int] = None) -> "_Contraction":
        """Cast to dtype, lay the operands out and contract what no slab
        needs: everything when the contraction fits, else what the layout
        of the output index at axis leaves (by default the one _slab_axis
        picks)."""
        self.dtype = dtype
        if self.fits:
            slab, plan = "", self.plan
        else:
            if axis is None:
                axis = _slab_axis([self], [self.rhs])
            slab = self.rhs[axis]
            plan = _layout(*self.key(slab))
        self.slab_index = slab
        # each operand cast and laid out once, in the order its reader takes
        # it in; the bound covers the scale, so the product stays in dtype
        ops = [np.asarray(a, dtype=dtype) if term == laid else
               np.ascontiguousarray(np.einsum(f"{term}->{laid}", a), dtype=dtype)
               for term, laid, a in zip(self.terms, plan.terms, self.ops)]
        if self.scale != 1:
            k = min(range(len(ops)), key=lambda j: ops[j].size)
            ops[k] = np.asarray(ops[k] * self.scale, dtype=dtype)
        self.steps = plan.steps
        nodes = list(zip(plan.terms, ops, plan.slabbed))
        for a, b in plan.steps:
            out, parts = plan.terms[len(nodes)], [nodes[a], nodes[b]]
            nodes[a] = nodes[b] = None              # a fixed array lives on in its reader only
            nodes.append((out, parts, True) if parts[0][2]
                         else (out, self._step(parts, out), False))
        self.root = nodes[-1]
        self.height = _slab_height(plan.widest)
        self.length = self.size(slab) if slab else 1
        return self

    def _step(self, parts, out: str) -> np.ndarray:
        (a_term, a, _), (b_term, b, _) = parts
        if self.dtype is object:
            # plain einsum: numpy's optimize route turns an object operand that
            # a step sums to a scalar into int64 (numpy 2.4), which can wrap
            return np.asarray(np.einsum(f"{a_term},{b_term}->{out}", a, b), dtype=object)
        return _matmul(a_term, a, b_term, b, out)

    def _eval(self, node, rows: slice):
        term, value, slabbed = node
        if not slabbed:
            return value
        if isinstance(value, np.ndarray):
            index = [slice(None)] * value.ndim
            index[term.index(self.slab_index)] = rows
            return value[tuple(index)]
        return self._step([(part[0], self._eval(part, rows), False) for part in value], term)

    def slab(self, lo: int, hi: int):
        """Rows lo:hi of the slab index (cut positions) of the result; the
        whole cut result when the contraction fits."""
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
        cut = bool(self.cut.keys() & set(self.rhs))
        if self.fits and not cut:                   # a scalar always fits
            out = self.slab(0, 1)
            return out if self.dtype is object else out.astype(np.int64)
        full = np.zeros([self.sizes[ch] for ch in self.rhs],
                        dtype=object if self.dtype is object else np.int64)
        for rows, part in self.slabs():
            full[self.positions(self.rhs, rows) if cut else
                 tuple(rows if ch == self.slab_index else slice(None) for ch in self.rhs)] = part
        return full


@lru_cache(maxsize=1024)
def _slab_steps(terms: tuple, rhs: str, sizes: tuple) -> tuple:
    """Per output index, the pairwise steps of einsum's greedy path whose
    result carries it: the steps that run once per slab when it is the
    slab index.  A path step of m operands counts as m - 1 steps."""
    size = dict(sizes).__getitem__
    path = [tuple(range(len(terms)))]
    if len(terms) > 2:
        path = _greedy_path(",".join(terms) + "->" + rhs,
                            tuple(tuple(map(size, t)) for t in terms))
    sets, count = [set(t) for t in terms], dict.fromkeys(rhs, 0)
    for step in path:
        rest = [s for k, s in enumerate(sets) if k not in step]
        result = set().union(*(sets[k] for k in step)) & set(rhs).union(*rest)
        for ch in result & set(rhs):
            count[ch] += len(step) - 1
        sets = rest + [result]
    return tuple(count[ch] for ch in rhs)


def _slab_axis(plans, outs) -> int:
    """The output axis that the planned contractions among plans (None
    for a side that runs whole), with outputs outs that line up axis by
    axis, are slabbed over when one of them does not fit.  Of the axes at
    which the layout of every one that does not fit keeps under its limit
    (a side that fits is formed once and sliced, so it keeps under it on
    any axis and is never planned for one), the one with the fewest steps
    per slab over all the planned sides, as if each were slabbed
    (_slab_steps; the earliest among equals), since the multiply-adds are
    the same on every axis but each slab costs a call per step; when none
    keeps under, the one at which they pass their limits by the fewest
    entries.  The choice is joint, so a side that fits still breaks ties:
    at dimension 24 it slabs the reduced bialgebra identity over q, whose
    run leaves fewer pages resident than one over y."""
    slabbed = [(plan, out) for plan, out in zip(plans, outs)
               if plan is not None and not plan.fits]

    def excess(k):
        return sum(max(0, _pairs(*plan.key(out[k]))[-1] - plan.limit) for plan, out in slabbed)

    steps = [sum(_slab_steps(*plan.shape)[k] for plan in plans if plan is not None)
             for k in range(len(outs[0]))]
    axes = sorted(range(len(outs[0])), key=steps.__getitem__)
    fits = next((k for k in axes if not excess(k)), None)
    return min(axes, key=excess, default=0) if fits is None else fits


def _safe_einsum(subscripts: str, *arrays: np.ndarray) -> np.ndarray:
    """Exact integer einsum over the operands' common support, in the tier
    its proven bound allows (see _Contraction):

    - below 2^53: float64 with BLAS, written back as int64.  Every value
      formed is an integer float64 holds exactly, so no step rounds;
    - below 2^62: int64;
    - otherwise: exact Python ints in object arrays.

    A contraction of fewer than _BLAS_WORK naive products outside the object
    tier runs whole, as one einsum loop over the uncut operands, unless its
    pairwise steps cost far less (_whole_bound, _run_whole); any other is
    planned and formed at once or slab by slab,
    an output index that was cut scattered back into a zero array of full
    shape, and a scalar result of the object tier is a Python int."""
    lhs, rhs = subscripts.split("->")
    terms = lhs.split(",")
    bound = _whole_bound(terms, rhs, arrays, _sizes(terms, arrays))
    if bound is not None:
        return _run_whole(subscripts, arrays)
    plan = _Contraction(subscripts, arrays)
    return plan.ready(_tier(plan.bound)).evaluate()


def _contract(subscripts: str, *pairs) -> tuple:
    """The contraction of (integer array, scale) pairs as one such pair:
    the exact einsum of the arrays over the product of the scales."""
    return (_safe_einsum(subscripts, *(A for A, _ in pairs)),
            prod(d for _, d in pairs))


def _first_difference(x: tuple, y: tuple) -> Optional[tuple]:
    """The first index, in row-major order, at which the contractions X / dx
    and Y / dy differ, or None when they agree.  Each side is (subscripts,
    *pairs), every operand an (integer array, scale) pair and dx, dy the
    products of a side's scales; the two outputs line up axis by axis.
    The answer depends on nothing else, so it is kept per content
    (_decided) when every operand is stored (_difference computes it)."""
    (xs, *xp), (ys, *yp) = x, y
    return _decided(("=", xs, ys, tuple(d for _, d in xp), tuple(d for _, d in yp)),
                    [A for A, _ in xp + yp], lambda: _difference(x, y))


def _difference(x: tuple, y: tuple) -> Optional[tuple]:
    """_first_difference, computed.

    The sides are cross-multiplied by their scales, X * (dy/g) = Y * (dx/g)
    with g = gcd(dx, dy), so only integers are compared.  When both sides
    run whole (_whole_bound), the two whole results, int64, are compared.
    Otherwise both take the tier of the larger proven bound, scales
    included (one _tier decision), and each output axis is cut to the
    positions live on either side, so the two cut results line up; a side
    that runs whole is cut to them once, the other is planned once (in the
    object tier both are).  When every planned side fits (_Contraction),
    each side is formed once, and the two are compared with one
    np.array_equal and the first difference located with one np.argwhere.
    Otherwise the sides that do not fit are slabbed over one output axis,
    one at which each keeps its arrays under its limit (_slab_axis), and
    compared one slab of that axis at a time, each run in chunks of its
    own height and a side that fits formed once and sliced (_slabs).  On
    the first axis the index is located in the first slab that differs;
    on another, the least index over the slabs that differ is the first in
    row-major order.  No array of a planned side passes its limit."""
    (xs, *xp), (ys, *yp) = x, y
    dx, dy = prod(d for _, d in xp), prod(d for _, d in yp)
    g = gcd(dx, dy)
    sides = [(xs, [A for A, _ in xp], dy // g), (ys, [A for A, _ in yp], dx // g)]
    terms = [sub.split("->")[0].split(",") for sub, _, _ in sides]
    outs = [sub.split("->")[1] for sub, _, _ in sides]
    sizes = [_sizes(t, ops) for t, (_, ops, _) in zip(terms, sides)]
    if [sizes[0][ch] for ch in outs[0]] != [sizes[1][ch] for ch in outs[1]]:
        raise ValueError(f"{xs} and {ys} have outputs of different shapes")
    whole = [_whole_bound(t, out, ops, size, scale)
             for t, out, (_, ops, scale), size in zip(terms, outs, sides, sizes)]
    if None not in whole:
        return _located(*(_run_whole(sub, ops, scale) for sub, ops, scale in sides))
    lives = [_support(t, ops) for t, (_, ops, _) in zip(terms, sides)]
    for a, b in zip(*outs):
        lives[0][a] = lives[1][b] = lives[0][a] | lives[1][b]
    plans = [_Contraction(sub, ops, scale, live) if bound is None else None
             for (sub, ops, scale), live, bound in zip(sides, lives, whole)]
    dtype = _tier(max(bound if plan is None else plan.bound
                      for bound, plan in zip(whole, plans)))
    values = []
    for (sub, ops, scale), out, live, plan in zip(sides, outs, lives, plans):
        if plan is None and dtype is not object:
            value = _run_whole(sub, ops, scale)
            if out:
                value = value[np.ix_(*(np.flatnonzero(live[ch]) for ch in out))]
        else:
            value = plan or _Contraction(sub, ops, scale, live)
            if value.fits:
                value = value.ready(dtype).slab(0, 1)
        values.append(value)
    positions = [np.flatnonzero(lives[0][ch]) for ch in outs[0]]
    slabbed = [value for value in values if isinstance(value, _Contraction)]
    if not slabbed:
        return _located(*values, positions)
    axis = _slab_axis(plans, outs)
    height = min(plan.ready(dtype, axis).height for plan in slabbed)
    slabs = [_slabs(value, height, axis) for value in values]
    first = None
    for lo in range(0, len(positions[axis]), height):
        at = _located(*(slab(lo, lo + height) for slab in slabs), positions, axis, lo)
        if at is not None:
            if axis == 0:
                return at
            first = at if first is None else min(first, at)
    return first


def _located(X, Y, positions=None, axis: int = 0, lo: int = 0) -> Optional[tuple]:
    """The first index at which the arrays X and Y differ, in row-major
    order, or None: mapped through positions, the cut positions of each
    axis, when given, the row of axis counted from lo."""
    if np.array_equal(X, Y):
        return None
    at = np.argwhere(X != Y)[0]
    if positions is None:
        return tuple(int(k) for k in at)
    return tuple(int(ix[k + (lo if i == axis else 0)])
                 for i, (ix, k) in enumerate(zip(positions, at)))


def _slabs(value, height: int, axis: int):
    """The function (lo, hi) -> rows lo:hi along the output axis axis of
    value, at most height of them and lo a multiple of height; the whole
    value when it is a scalar.  value is a whole result, sliced, or a
    ready _Contraction, run in chunks of its own height cut down to a
    multiple of height, so that a side whose slabs may be wider runs
    fewer of them."""
    rows = (slice(None),) * axis
    if not isinstance(value, _Contraction):
        return lambda lo, hi: value[rows + (slice(lo, hi),)] if np.ndim(value) else value
    if not value.rhs:
        return value.slab
    chunk = value.height // height * height
    held = [0, 0, None]

    def slab(lo, hi):
        if not held[0] <= lo < held[1]:
            held[:] = lo, lo + chunk, value.slab(lo, lo + chunk)
        return held[2][rows + (slice(lo - held[0], hi - held[0]),)]
    return slab


@lru_cache(maxsize=64)
def _generic(n: int, k: int, q: int = 97) -> np.ndarray:
    """k generic elements of an n-dimensional algebra as the rows of a
    stored integer matrix: g_1 = sum_j (j+1) e_j, then
    g_t = sum_j ((j+1)^t mod q + 1) e_j."""
    return _stored(np.array([[j + 1 if t == 1 else pow(j + 1, t, q) + 1 for j in range(n)]
                             for t in range(1, k + 1)], dtype=np.int64), 1, owned=True)[0]


@lru_cache(maxsize=64)
def _eye(n: int) -> tuple:
    """The stored identity matrix of size n, as an (array, scale) pair."""
    return _stored(np.eye(n, dtype=np.int64), 1, owned=True)


# The product x y = sum_p c_p e_p has the coefficients M[x, y, p] in an
# algebra and C[p, x, y] in its dual, whose unit is the counit.  Keyed by
# dual: the left multiplication operators g -> (y -> g y) of generators g,
# and the two sides (g y) z and g (y z) of associativity on generators.
_LEFT_MULTIPLICATION = {False: "gi,iyw->gyw", True: "gi,wiy->gyw"}
_GENERATED_ASSOCIATIVITY = {False: ("gi,iyw,wzp->gyzp", "gi,iwp,yzw->gyzp"),
                            True: ("gi,wiy,pwz->gyzp", "gi,piw,wyz->gyzp")}


# Per top, the primes below it found so far, from the largest down: the
# primes of every scan that _certificate_prime has run.
_PRIMES_BELOW: dict = {}


@lru_cache(maxsize=256)
def _certificate_prime(n: int, scale: int) -> int:
    """The largest prime below 2^28, and below sqrt(2^62 / n), that does
    not divide scale (_generates).  Every n <= 64 has the same top, so the
    primes below a top are scanned for once per process and kept
    (_PRIMES_BELOW); a later scale reads them and scans on only past the
    last one kept."""
    top = min(2 ** 28, isqrt(_INT64_LIMIT // n))
    found = _PRIMES_BELOW.setdefault(top, [])
    for q in found:
        if scale % q:
            return q
    for q in range((found[-1] if found else top) - 2 | 1, 8, -2):
        if _is_prime(q):
            found.append(q)
            if scale % q:
                return q


def _generates(unit: tuple, product: tuple, dual: bool = False) -> Optional[tuple]:
    """The first two, else three, generic elements (_generic) as an (array,
    scale) pair, when they generate the algebra of the stored pairs unit
    and product (or, when dual, the dual algebra: unit the counit, product
    the transposed coproduct) as an algebra with unit; None when neither
    set is certified.  One certificate per content (_decided).

    Generation is certified modulo one prime p: the span of 1 closed under
    left multiplication by the g_i (ratlinalg.ClosureMod) has dimension n.
    The rows that closure forms are residues of integer multiples of the
    coordinates of monomials in the g_i: the unit times products of the
    integer operators G M.  n of them independent modulo p are
    independent over Q, so the monomials span the algebra.  p is the
    largest prime below 2^28, and below sqrt(2^62 / n) so that no sum of
    products leaves int64, that does not divide the product's scale: then
    the product reduces modulo p, and the closure is that of the algebra's
    own product over F_p.  A prime dividing the scale is never used.  The
    third element continues the closure the first two reached."""
    (U, _), (M, dM) = unit, product
    n = len(U)
    two, three = _generic(n, 2), _generic(n, 3)

    def certify():
        p = _certificate_prime(n, dM)
        ops = np.einsum(_LEFT_MULTIPLICATION[dual], three % p,
                        np.asarray(M % p, dtype=np.int64)) % p
        closure = ClosureMod(U % p, p)
        if closure.close(ops[:len(two)]) == n:
            return 2
        return 3 if closure.close(ops[len(two):]) == n else None

    k = _decided(("generates", dual, dM), [U, M, two, three], certify)
    return None if k is None else ((two, three)[k - 2], 1)


def _associator(generators, product: tuple, full: tuple, dual: bool = False) -> tuple:
    """The identity that decides associativity of the algebra of product,
    or, when dual, of its dual algebra, which is coassociativity of the
    coproduct product; as the two sides _first_difference takes.  The
    caller has checked the left unit identity 1 y = y; generators is
    _generates' answer for the algebra, or False when it was not asked.

    It holds as soon as (g y) z = g (y z) for every basis y, z and every g
    of a set that generates the algebra: the x with (x y) z = x (y z) for
    all y, z form a subspace that holds 1, by 1 y = y, and g x for each
    of its x, as ((g x) y) z = (g (x y)) z = g ((x y) z) = g (x (y z))
    = (g x) (y z); so it holds every monomial in the g, and they span the
    algebra.  For k certified generic elements (_generates) that is
    k n^4 products on each side where the full identity, full, forms n^5;
    when generation is not certified, full is the identity."""
    if not generators:
        return full
    left, right = _GENERATED_ASSOCIATIVITY[dual]
    return (left, generators, product, product), (right, generators, product, product)


def _multiplicativity(H: FDHopf, generators) -> tuple:
    """The identity Delta(xy) = Delta(x) Delta(y), as the two sides that
    _first_difference takes.  When generators holds the generic elements
    whose generation of H is certified (_generates), H being associative
    with unit, x runs over them and y over the basis; otherwise (None or
    False) x and y both run over the basis."""
    M, C = H._pairs[1:3]
    if generators:
        return (("gi,iab,acp,ycd,bdq->gypq", generators, C, M, C, M),
                ("gi,iyw,wpq->gypq", generators, M, C))
    return ("iab,jcd,acp,bdq->ijpq", C, C, M, M), ("ijw,wpq->ijpq", M, C)


def verify_hopf_axioms(H: FDHopf) -> dict:
    """Exhaustive check of all six axiom suites; returns booleans keyed
    associativity/coassociativity/counit/bialgebra/antipode/star.
    Failures are reported, never thrown.

    Associativity is decided on generators (_associator): once the unit
    identities 1 x = x = x 1 hold, (x y) z = x (y z) holds as soon as
    (g y) z = g (y z) for every g of a set that generates H.
    Coassociativity is associativity of the dual algebra, whose unit is
    the counit and whose product is the transposed coproduct, and is
    decided by the same routine once the left counit identity holds.
    Delta(xy) = Delta(x) Delta(y), the one identity of n^6 terms, is
    decided on generators too: when associativity, the unit identities
    and Delta(1) = 1 (x) 1 hold, it holds as soon as
    Delta(g y) = Delta(g) Delta(y) for every basis y and every g of a set
    that generates H, by induction on the length of a monomial w in the g,
    Delta(g w y) = Delta(g) Delta(w y) = Delta(g) Delta(w) Delta(y)
    = Delta(g w) Delta(y), and the monomials span H.  For k generic
    elements whose generation of H is certified modulo a prime
    (_generates), that is one contraction of k n^5 terms (_multiplicativity),
    slabbed over q, an index of its y-side factor ycd,bdq, so that this
    factor of n^4 entries is formed slab by slab and only the k n^3
    g-side factor is whole.  Each of the three
    falls back to its full identity when the (co)unit identity it needs
    fails or generation is not certified, so each suite's verdict keeps
    its meaning.  Generation of H is certified once per call, once the
    unit identities hold, and serves associativity and the bialgebra
    identity alike.  Each certificate and each identity's verdict is kept
    per content (_decided): a twist, which keeps its base's coalgebra, and
    an algebra built twice decide their shared identities once."""
    U, M, C, E, S, T = H._pairs
    eye, one = ("ij->ij", _eye(H.dim)), ("->", _ONE)

    def holds(*identities) -> bool:
        return all(_first_difference(x, y) is None for x, y in identities)

    counit = holds((("iab,a->ib", C, E), eye))
    unital = holds((("i,ijp->jp", U, M), eye), (("j,ijp->ip", U, M), eye))
    generators = unital and _generates(U, M)
    associative = unital and holds(_associator(generators, M, (("ijw,wkp->ijkp", M, M),
                                                               ("jkw,iwp->ijkp", M, M))))
    report = {
        "associativity": associative,
        "coassociativity": holds(_associator(counit and _generates(E, C, True), C,
                                             (("iab,axy->ixyb", C, C), ("iab,bxy->iaxy", C, C)),
                                             dual=True)),
        "counit": counit and holds((("iab,b->ia", C, E), eye)),
        # Delta(1) = 1 (x) 1 among these; Delta(xy) = Delta(x) Delta(y) is decided below
        "bialgebra": holds((("i,ipq->pq", U, C), ("i,j->ij", U, U)),
                           (("ijw,w->ij", M, E), ("i,j->ij", E, E)),
                           (("i,i->", U, E), one)),
        "antipode": holds((("iab,aw,wbp->ip", C, S, M), ("i,j->ij", E, U)),
                          (("iab,bw,awp->ip", C, S, M), ("i,j->ij", E, U))),
        "star": holds((("ij,jk->ik", T, T), eye),
                      (("ijw,wp->ijp", M, T), ("jb,ia,bap->ijp", T, T, M)),
                      (("iw,wab->iab", T, C), ("iab,ax,by->ixy", C, T, T)),
                      (("i,ij->j", U, T), ("i->i", U)),
                      (("ij,j->i", T, E), ("i->i", E))),
    }
    report["bialgebra"] = report["bialgebra"] and holds(
        _multiplicativity(H, associative and generators))
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
        self.P, self.d = _stored(P, d)
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
        P, d = _contract("ia,ap->ip", (self.P, self.d), (other.P, other.d))
        return HopfMap(self.source, other.target, *_stored(P, d, owned=True))

    def inverse(self) -> "HopfMap":
        if self.source.dim != self.target.dim:
            raise ValueError("only square maps can be inverted")
        B, e = _inverse(self.P)       # (P / d)^-1 = d B / e
        return HopfMap(self.target, self.source, *_stored(_rescale(B, self.d), e, owned=True))


def restriction_surjection(G: PermGroup, V: PermGroup) -> HopfMap:
    """C(G) -> C(V), delta_g kept when g lies in V and killed otherwise."""
    if not V.is_subgroup_of(G):
        raise NotASubgroup("V is not a subgroup of G")
    # V's elements keep their sorted order among G's
    kept = [i for i, t in enumerate(sorted(G.images)) if t in V.images]
    out = HopfMap(function_algebra(G), function_algebra(V),
                  *_stored(_indicator((G.order, V.order), kept, np.arange(V.order)), 1, owned=True))
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
    """All characters of H, exactly, sorted by their values: the
    word-size route's certified list (_characters_mod), else the exact
    route's (_characters_exact), which raises every refusal."""
    found = _characters_mod(H)
    return _characters_exact(H) if found is None else found


def _audit_failure(H: FDHopf, P: tuple) -> Optional[str]:
    """The audit of the value matrix P = (X, dX), row f holding
    dX chi_f(e_i): the message of the first of chi(1) = 1,
    chi(e_i e_j) = chi(e_i) chi(e_j) over all pairs and chi(e_i*) = chi(e_i)
    that some row fails, as three identities; None when all hold."""
    U, M, _, _, _, T = H._pairs
    audit = (
        ("character fails chi(1) = 1", ("i,fi->f", U, P),
         ("f->f", (np.ones(len(P[0]), dtype=np.int64), 1))),
        # format() skips the character index f
        ("character not multiplicative at ({1},{2})", ("ijp,fp->fij", M, P),
         ("fi,fj->fij", P, P)),
        ("character not star-compatible at {1}", ("ip,fp->fi", T, P), ("fi->fi", P)),
    )
    for failure, x, y in audit:
        at = _first_difference(x, y)
        if at is not None:
            return failure.format(*at)
    return None


def _listed(H: FDHopf, X: np.ndarray, dX: int) -> list:
    """The characters whose values over dX are the rows of X, sorted."""
    rows = sorted(tuple(int(x) for x in row) for row in X)
    return [Character(H, tuple(_q(x, dX) for x in row)) for row in rows]


# The word-size route tries the first _MOD_ELEMENTS generic elements of the
# quotient, _generic(m, _MOD_ELEMENTS, 257), and the root search of the one
# that generates it (_roots_mod) evaluates at most _ROOT_BUDGET candidates,
# in windows that widen eightfold from 2^7.  Coefficients below 258 keep
# the roots small.  Modulo 97 rather than 257, five elements separate the
# diagonal twist's 24 characters in only 16 of 30 census relabellings.
_MOD_ELEMENTS = 5
_ROOT_BUDGET = 2 ** 13


def _deflate_mod(f, xs: np.ndarray, p: int, quotients: bool = True) -> tuple:
    """ratlinalg.deflate modulo p at every x of xs at once: (D, v), row k
    of D the quotient of f (ascending residues, degree >= 1) by y - x_k
    and v[k] = f(x_k), all residues below p.  D is None unless quotients:
    the root search wants the values only, and its D would hold thousands
    of rows."""
    xs = xs % p
    D = np.empty((len(xs), len(f) - 1), dtype=np.int64) if quotients else None
    acc = np.full(len(xs), f[-1] % p, dtype=np.int64)
    for k in range(len(f) - 2, -1, -1):
        if quotients:
            D[:, k] = acc
        acc = (acc * xs + f[k]) % p
    return D, acc


def _roots_mod(f, p: int) -> Optional[list]:
    """deg f integers r with f(r) = 0 modulo p, the first found among
    0, 1, -1, 2, -2, ...; None when _ROOT_BUDGET candidates do not hold
    that many.  Candidates stay below p / 2 in absolute value, so distinct
    ones are distinct modulo p."""
    found, lo, hi = [], 0, 2 ** 7
    while lo < hi:
        k = np.arange(lo, hi)
        xs = (k + 1) // 2 * np.where(k % 2, 1, -1)
        found += xs[_deflate_mod(f, xs, p, quotients=False)[1] == 0].tolist()
        if len(found) == len(f) - 1:
            return found
        lo, hi = hi, min(8 * hi, _ROOT_BUDGET)
    return None


def _characters_mod(H: FDHopf) -> Optional[list]:
    """The characters of H, found modulo one prime p in int64 and
    certified exactly; None whenever that certificate cannot be given.

    p is _certificate_prime's prime, so n p^2 < 2^62 and p does not divide
    dM, and it must exceed 2B, B = max_ij sum_k |M[i, j, k]|.  The ideal is
    the closure modulo p (ratlinalg.ClosureMod) of the rows of M - M^T
    under right multiplication by every basis vector, of dimension d_p:
    the right ideal the commutators generate is two-sided, as
    x [a, b] = [x a, b] - [x, b] a.  The quotient's product and the
    generic elements' Krylov rows follow modulo p, as in the exact route,
    and each element's least relation f comes from _relations_mod with the
    one prime.  An element
    whose f has degree m = n - d_p with m integer roots (_roots_mod)
    gives one eigen-row of the quotient per root, every basis operator's
    value on it, and so a candidate value dM chi(e_i) modulo p for every
    basis vector of H, lifted to the symmetric range.  That lift is exact
    for a true character: M[i] c = dM chi(e_i) c for the nonzero vector
    c = (chi(e_j))_j, so dM chi(e_i) is a rational eigenvalue of the
    integer matrix M[i], an integer of absolute value at most B < p / 2.

    The list is returned only when the character audit passes on it, its
    rows are distinct, and there are m of them.  Then it holds every
    character: distinct characters are linearly independent and vanish
    on I, the least subspace that holds the commutators and is closed
    under right multiplication (the commutator ideal), so there are at
    most n - dim I of them, and n - dim I <= m, as the closure modulo p
    lies in the reduction of the lattice of I's integer vectors, of rank
    dim I."""
    n, (M, dM) = H.dim, H._pairs[1]
    p = _certificate_prime(n, dM)
    # the stored entry bound first, so the row sums cannot leave int64
    if 2 * _profiled(M)[1] >= p or 2 * int(np.abs(M).sum(axis=2).max()) >= p:
        return None
    Mp = np.asarray(M % p, dtype=np.int64)
    # e_j multiplies row vectors from the right by Mp[:, j]
    ideal = ClosureMod((Mp - Mp.transpose(1, 0, 2)).reshape(-1, n), p)
    ideal.close(Mp.transpose(1, 0, 2))
    free = ideal.free
    m = len(free)
    if m == 0:
        return None
    # proj[i] = coordinates of e_i in the quotient basis e_f, f free; Q[j]
    # the operator of multiplication by e_fj, times dM
    proj = ideal.reduce(np.eye(n, dtype=np.int64))[:, free]
    Q = Mp[np.ix_(free, free)] @ proj % p
    K = np.empty((m + 1, m), dtype=np.int64)
    K[0] = np.asarray(H.U % p, dtype=np.int64) @ proj % p
    for g in _generic(m, _MOD_ELEMENTS, 257):
        A = np.tensordot(g, Q, 1) % p
        for t in range(m):
            K[t + 1] = K[t] @ A % p
        d, f = _relations_mod(K, [p])[0]
        if d == m:
            break
    else:
        return None
    roots = _roots_mod(f, p)
    if roots is None:
        return None
    # v_r = u (f / (y - r))(A), one row per root, nonzero as K[:m] is
    # independent modulo p; Q[j] acts on v_r by dM chi_r(e_fj), read at
    # v_r's pivot
    V = _deflate_mod(f, np.array(roots, dtype=np.int64), p)[0] @ K[:m] % p
    pivot = (V != 0).argmax(axis=1)
    lead = V[np.arange(m), pivot]
    inverse = np.array([pow(int(x), -1, p) for x in lead], dtype=np.int64)
    value = np.einsum("rk,jkr->rj", V, Q[:, :, pivot]) % p * inverse[:, None] % p
    X = value @ proj.T % p
    X = np.where(2 * X > p, X - p, X)
    if (_audit_failure(H, (X, dM)) is not None
            or len({tuple(row) for row in X.tolist()}) != m):
        return None
    return _listed(H, X, dM)


def _characters_exact(H: FDHopf) -> list:
    """characters(H) over the rationals, the route that decides whenever
    the word-size one cannot certify its list, and that raises every
    refusal.

    Quotients by the two-sided commutator ideal and splits the commutative
    quotient with one generic element, one socle row per root of its
    minimal polynomial.  The quotient of a Hopf algebra is reduced, so a
    unit that does not act as a nonzero scalar on it, or a generic element
    with a repeated root, raises KleintwistError.  An operator whose
    minimal polynomial does not split over the rationals raises
    NonSplitQuotient."""
    n = H.dim
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

    failure = _audit_failure(H, (X, dX))
    if failure is not None:
        raise KleintwistError(failure)
    # no two rows agree: chi_r(a_t) is r times a factor that all r share
    return _listed(H, X, dX)


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
