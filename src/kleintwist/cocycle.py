"""Two-cocycles on finite-dimensional Hopf *-algebras and the twist.

A Cocycle2 is a convolution-invertible bilinear functional sigma given
by its value table on a basis.  twist() deforms the product

    x *_sigma y  =  sum  sigma(x1, y1) sigma^{-1}(x3, y3) x2 y2

keeping the coalgebra fixed, builds the deformed antipode, and replaces
the involution by its cocycle-corrected form.  The correction data is a
functional L with L(x1) L(x2) = sigma(x1, x2) sigma(x2, x1) on the
relevant support; without it the naive entrywise star would force the
deformed product to be commutative, so twisting anything interesting
would fail the star axioms.

All three are exact integer contractions over the double coproduct
(x1, x2, x3) of the algebra's stored integer tensors and the cocycle's
stored integer tables, pruned to the cocycle's support; each result goes
to the twisted FDHopf as an integer array with its product of scales, and
no Fraction is built.  A Cocycle2, like an FDHopf, stores its tables only
cleared to integers, so pullback, which contracts them with the Hopf
map's integer matrix after HopfMap.verify has checked that map on the
shared tensors, hands its results straight to the pulled-back cocycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import KleintwistError, TwistNotHopf
from .hopf import (FDHopf, HopfMap, _contract, _first_difference, _q, fourier_iso,
                   group_algebra, restriction_surjection, verify_hopf_axioms)
from .perm import PermGroup, Permutation, easy_klein, klein_group, symmetric_group
from .ratlinalg import _cleared


class Cocycle2:
    """A 2-cocycle on `carrier`: sigma(e_i, e_j), its convolution inverse,
    and the star-correction functional L(e_i).

    Only cleared_table, cleared_inverse_table and cleared_star_corrector
    are stored: read-only (integer array, scale) pairs in canonical form
    (ratlinalg._cleared), which other cocycles may share.  table,
    inverse_table and star_corrector are their int/Fraction views, built
    on first access.  Equal means the same carrier object, equal tables."""

    @classmethod
    def build(cls, carrier: FDHopf, table, inverse_table, star_corrector) -> "Cocycle2":
        """The cocycle of int/Fraction tables, each copied and cleared once."""
        n = carrier.dim
        if len(table) != n or any(len(r) != n for r in table):
            raise ValueError("table shape disagrees with carrier dim")
        if len(inverse_table) != n or any(len(r) != n for r in inverse_table):
            raise ValueError("inverse table shape disagrees with carrier dim")
        if len(star_corrector) != n:
            raise ValueError("star corrector length disagrees with carrier dim")
        return cls._from_tensors(carrier, *((np.array(t, dtype=object), 1)
                                            for t in (table, inverse_table, star_corrector)))

    @classmethod
    def _from_tensors(cls, carrier: FDHopf, *pairs) -> "Cocycle2":
        """The cocycle of three (array, scale) pairs, in the order table,
        inverse table, star corrector, brought to canonical form.  An
        array already in that form is kept, not copied."""
        sigma = cls.__new__(cls)
        sigma.carrier = carrier
        sigma._pairs = tuple(_cleared(A, d) for A, d in pairs)
        for A, _ in sigma._pairs:
            A.flags.writeable = False
        (sigma.cleared_table, sigma.cleared_inverse_table,
         sigma.cleared_star_corrector) = sigma._pairs
        return sigma

    table = cached_property(lambda self: _view(*self.cleared_table))
    inverse_table = cached_property(lambda self: _view(*self.cleared_inverse_table))
    star_corrector = cached_property(lambda self: _view(*self.cleared_star_corrector))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cocycle2):
            return NotImplemented
        return self.carrier is other.carrier and all(
            d == e and np.array_equal(A, B)
            for (A, d), (B, e) in zip(self._pairs, other._pairs))

    def __hash__(self) -> int:
        return hash((self.carrier,) + tuple(
            (d, tuple(A.ravel().tolist())) for A, d in self._pairs))


def _view(A: np.ndarray, d: int) -> tuple:
    """A / d as nested tuples of ints and Fractions, A an integer array."""
    return tuple(_view(r, d) for r in A) if A.ndim > 1 else tuple(_q(v, d) for v in A.tolist())


def _grouplike_corrector(carrier: FDHopf, table) -> tuple:
    """The canonical corrector L(g) = sigma(g, g^-1) on a group-like
    basis.  This is the evaluation of sigma(x1, S x2), the functional
    that conjugates the old star into the twisted one; taking it (rather
    than an arbitrary solution of the sign identity) keeps the twisted
    star independent of how the basis happens to be labeled."""
    n = carrier.dim
    C, diag = carrier.C, range(n)
    if carrier.dC != 1 or np.count_nonzero(C) != n or not (C[diag, diag, diag] == 1).all():
        raise KleintwistError("corrector search needs a group-like basis")
    M, U = carrier.M, carrier.U
    if carrier.dM != 1 or not np.isin(M, (0, 1)).all() or not (M.sum(axis=2) == 1).all():
        raise KleintwistError("corrector search needs a group basis")
    prod = M.argmax(axis=2)
    # the basis must be a group under prod: a one-term unit e that is an
    # identity, associativity, and exactly one right inverse per element
    units, idx = np.flatnonzero(U), np.arange(n)
    e = units[0] if len(units) == 1 and U[units[0]] == carrier.dU else None
    if (e is None or not (prod[e] == idx).all() or not (prod[:, e] == idx).all()
            or not (prod[prod] == prod[idx[:, None, None], prod]).all()
            or not ((prod == e).sum(axis=1) == 1).all()):
        raise KleintwistError("corrector search needs a group basis")
    inverse = (prod == e).argmax(axis=1)
    tab = np.array(table, dtype=object)
    lam = tab[diag, inverse]
    # L must trivialize the antisymmetrization, else no star can work
    if not (lam[prod] * lam[:, None] * lam[None, :] == tab * tab.T).all():
        raise KleintwistError("sigma(g, g^-1) does not correct this cocycle's star")
    return tuple(lam.tolist())


def trivial_cocycle(H: FDHopf) -> Cocycle2:
    """sigma = counit x counit; twisting by it changes nothing."""
    E = H._pairs[3]
    ee = _contract("i,j->ij", E, E)
    return Cocycle2._from_tensors(H, ee, ee, E)


def klein_bicharacter() -> Cocycle2:
    """The nontrivial bicharacter cocycle on the group algebra of the
    Klein four-group; with basis t0..t3 (identity first) the value is -1
    exactly at the pairs (1,1) (1,3) (2,1) (2,2) (3,2) (3,3)."""
    carrier = group_algebra(klein_group())
    table = [
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
        [1, 1, -1, -1],
    ]
    corrector = _grouplike_corrector(carrier, table)
    return Cocycle2.build(carrier, table, table, corrector)


def verify_cocycle(sigma: Cocycle2) -> bool:
    """Exhaustive check: unitality, two-sided convolution inverse, and
    the associativity-compatible cocycle identity

        sigma(x1,y1) sigma(x2 y2, z)  =  sigma(y1,z1) sigma(x, y2 z2).
    """
    U, M, C, E = sigma.carrier._pairs[:4]
    Sg, Sv = sigma.cleared_table, sigma.cleared_inverse_table
    identities = [((sub, U, tab), ("i->i", E)) for tab in (Sg, Sv)
                  for sub in ("i,ij->j", "j,ij->i")]
    identities += [(("iab,jde,ad,be->ij", C, C, left, right), ("i,j->ij", E, E))
                   for left, right in ((Sg, Sv), (Sv, Sg))]
    # the cocycle identity, slab by slab over x's index i
    identities.append((("iab,jde,ad,bek->ijk", C, C, Sg, _contract("bew,wk->bek", M, Sg)),
                       ("jde,kgh,dg,ieh->ijk", C, C, Sg, _contract("ehw,iw->ieh", M, Sg))))
    return all(_first_difference(x, y) is None for x, y in identities)


def pullback(sigma: Cocycle2, pi: HopfMap) -> Cocycle2:
    """Pull a cocycle on pi's target back along pi to pi's source."""
    if not pi.target.structure_equal(sigma.carrier):
        raise ValueError("pi's target is not the cocycle's carrier")
    if not pi.verify():
        raise KleintwistError(f"pullback needs a Hopf map, failed at: {pi.failure}")
    P = (pi.P, pi.d)
    Sg, Sv, L = sigma._pairs
    out = Cocycle2._from_tensors(pi.source, _contract("ia,jb,ab->ij", P, P, Sg),
                                 _contract("ia,jb,ab->ij", P, P, Sv), _contract("ia,a->i", P, L))
    if not verify_cocycle(out):
        raise KleintwistError("pulled-back table fails the cocycle identities")
    return out


def rebind(sigma: Cocycle2, H: FDHopf) -> Cocycle2:
    """The same value table read as a cocycle on another algebra with the
    same underlying coalgebra (e.g. a twist of the original carrier);
    re-verified because the cocycle identity involves the product."""
    if H.dim != sigma.carrier.dim:
        raise ValueError("dimension mismatch")
    out = Cocycle2._from_tensors(H, *sigma._pairs)
    if not verify_cocycle(out):
        raise KleintwistError("table is not a cocycle over the new product")
    return out


def twist(H: FDHopf, sigma: Cocycle2, verify: bool = True,
          correct_star: bool = True) -> FDHopf:
    """The 2-cocycle twist of H.  Coalgebra unchanged; product dressed by
    sigma on the left and sigma^{-1} on the right of the coproduct legs;
    antipode deformed accordingly; star replaced by its corrected form
    unless correct_star is switched off (kept only to demonstrate the
    failure mode)."""
    if sigma.carrier is not H:
        raise ValueError("cocycle is bound to a different algebra; rebind first")
    U, M, C, E, S, T = H._pairs
    Sg, Sv, L = sigma._pairs

    # x *_sigma y: Delta2(x) = a b c and Delta2(y) = p q r, dressed by
    # sigma(a, p) sigma^-1(c, r) around the product b q.  One contraction,
    # slab by slab over x's index i: y's legs jyr,ypq once, then per slab
    # x's legs with the cocycles, y's legs, and M; an n^4 array never forms.
    mult = _contract("ixc,xab,ap,cr,jyr,ypq,bqs->ijs", C, C, Sg, Sv, C, C, M,
                     path=[(4, 5), (0, 1), (0, 4), (0, 3), (1, 2), (0, 1)])

    # S_sigma(x) = f(x1) S(x2) g(x3), f(x) = sigma(x1, S x2), g(x) = sigma^-1(S x1, x2).
    f = _contract("xab,aw,bw->x", C, Sg, S)
    g = _contract("xab,aw,wb->x", C, S, Sv)
    antipode = _contract("ixc,xab,a,bt,c->it", C, C, f, S, g)

    # star_sigma(x) = L(x1) star(x2) L(x3)
    star = _contract("ixc,xab,a,bt,c->it", C, C, L, T, L) if correct_star else T

    out = FDHopf._from_tensors(H.basis_labels, U, mult, C, E, antipode, star)
    if verify:
        rep = verify_hopf_axioms(out)
        failed = [k for k, v in rep.items() if not v]
        if failed:
            raise TwistNotHopf(
                f"twisted structure fails {failed}: an invalid cocycle slipped "
                f"through, or a wrong star convention")
    return out


@dataclass(frozen=True)
class TwistedS4:
    """C(S4) twisted by the Klein bicharacter pulled back through
    restriction to a Klein subgroup followed by Fourier transform."""

    base: FDHopf
    algebra: FDHopf
    cocycle: Cocycle2
    restriction: HopfMap
    fourier: HopfMap
    group: PermGroup
    subgroup: PermGroup


def build_s4tau(V: PermGroup = None, dual_generators=None,
                verify: bool = True) -> TwistedS4:
    """The standing example: twist C(S4) along the Klein subgroup
    generated by (12) and (34), with the dual labeling pinned to those
    two generators."""
    G = symmetric_group(4)
    if V is None:
        V = easy_klein()
        if dual_generators is None:
            dual_generators = (Permutation.from_cycles(4, [(1, 2)]),
                               Permutation.from_cycles(4, [(3, 4)]))
    res = restriction_surjection(G, V)
    four = fourier_iso(V, dual_generators)
    pi = res.then(four)
    sigma = pullback(klein_bicharacter(), pi)
    twisted = twist(sigma.carrier, sigma, verify=verify)
    return TwistedS4(base=sigma.carrier, algebra=twisted, cocycle=sigma,
                     restriction=res, fourier=four, group=G, subgroup=V)


def double_twist(t: TwistedS4) -> FDHopf:
    """Twist the twisted algebra by the same cocycle again."""
    sigma2 = rebind(t.cocycle, t.algebra)
    return twist(t.algebra, sigma2)
