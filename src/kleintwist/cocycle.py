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
(x1, x2, x3) of the algebra's stored integer tensors and the cleared
cocycle tables, pruned to the cocycle's support; each result goes to the
twisted FDHopf as an integer array with its product of scales, and no
Fraction is built.  pullback likewise contracts the cleared tables with
the Hopf map's integer matrix, after HopfMap.verify has checked that map
on the shared tensors; the pulled-back tables, which a Cocycle2 keeps as
Fractions, are divided back only there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import KleintwistError, TwistNotHopf
from .hopf import (FDHopf, HopfMap, _n, _rescale, _safe_einsum, fourier_iso,
                   group_algebra, restriction_surjection, verify_hopf_axioms)
from .perm import PermGroup, Permutation, easy_klein, klein_group, symmetric_group
from .ratlinalg import _cleared


@dataclass(frozen=True)
class Cocycle2:
    """A 2-cocycle on `carrier`: table[i][j] = sigma(e_i, e_j), its
    convolution inverse, and the star-correction functional."""

    carrier: FDHopf
    table: tuple
    inverse_table: tuple
    star_corrector: tuple

    @staticmethod
    def build(carrier: FDHopf, table, inverse_table, star_corrector) -> "Cocycle2":
        tab = tuple(tuple(_n(c) for c in row) for row in table)
        inv = tuple(tuple(_n(c) for c in row) for row in inverse_table)
        cor = tuple(_n(c) for c in star_corrector)
        if len(tab) != carrier.dim or any(len(r) != carrier.dim for r in tab):
            raise ValueError("table shape disagrees with carrier dim")
        if len(inv) != carrier.dim or any(len(r) != carrier.dim for r in inv):
            raise ValueError("inverse table shape disagrees with carrier dim")
        if len(cor) != carrier.dim:
            raise ValueError("star corrector length disagrees with carrier dim")
        return Cocycle2(carrier, tab, inv, cor)

    # The tables cleared to (integer array, scale) pairs, once per
    # instance; the arrays are read-only because every caller shares them.

    @cached_property
    def cleared_table(self) -> tuple[np.ndarray, int]:
        return _frozen(_cleared(self.table))

    @cached_property
    def cleared_inverse_table(self) -> tuple[np.ndarray, int]:
        return _frozen(_cleared(self.inverse_table))

    @cached_property
    def cleared_star_corrector(self) -> tuple[np.ndarray, int]:
        return _frozen(_cleared(self.star_corrector))

    def value(self, x: dict, y: dict):
        acc = Fraction(0)
        for i, a in x.items():
            for j, b in y.items():
                acc += a * b * self.table[i][j]
        return _n(acc)


def _frozen(pair: tuple[np.ndarray, int]) -> tuple[np.ndarray, int]:
    pair[0].flags.writeable = False
    return pair


def _grouplike_corrector(carrier: FDHopf, table) -> tuple:
    """The canonical corrector L(g) = sigma(g, g^-1) on a group-like
    basis.  This is the evaluation of sigma(x1, S x2), the functional
    that conjugates the old star into the twisted one; taking it (rather
    than an arbitrary solution of the sign identity) keeps the twisted
    star independent of how the basis happens to be labeled."""
    n = carrier.dim
    for i in range(n):
        if carrier.comult[i] != [(i, i, 1)]:
            raise KleintwistError("corrector search needs a group-like basis")
    prod = {}
    for i in range(n):
        for j in range(n):
            v = carrier.mult.get((i, j), {})
            if len(v) != 1 or set(v.values()) != {1}:
                raise KleintwistError("corrector search needs a group basis")
            prod[(i, j)] = next(iter(v))
    inverse = {}
    (unit_idx,) = carrier.unit.keys()
    for i in range(n):
        inverse[i] = next(j for j in range(n) if prod[(i, j)] == unit_idx)
    lam = [table[i][inverse[i]] for i in range(n)]
    # L must trivialize the antisymmetrization, else no star can work
    ok = all(lam[prod[(i, j)]] * lam[i] * lam[j] == table[i][j] * table[j][i]
             for i in range(n) for j in range(n))
    if not ok:
        raise KleintwistError("sigma(g, g^-1) does not correct this cocycle's star")
    return tuple(lam)


def trivial_cocycle(H: FDHopf) -> Cocycle2:
    """sigma = counit x counit; twisting by it changes nothing."""
    e = H.counit
    table = [[_n(Fraction(e[i]) * e[j]) for j in range(H.dim)] for i in range(H.dim)]
    return Cocycle2.build(H, table, table, e)


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


def _fractions(arr: np.ndarray, scale: int) -> list:
    """arr / scale as nested lists of Fractions, arr an exact integer array."""
    return (arr.astype(object) * Fraction(1, scale)).tolist()


def verify_cocycle(sigma: Cocycle2) -> bool:
    """Exhaustive check: unitality, two-sided convolution inverse, and
    the associativity-compatible cocycle identity

        sigma(x1,y1) sigma(x2 y2, z)  =  sigma(y1,z1) sigma(x, y2 z2).
    """
    H = sigma.carrier
    U, M, C, E = H.U, H.M, H.C, H.E
    Sg, dSg = sigma.cleared_table
    Sv, dSv = sigma.cleared_inverse_table

    ok = True
    for tab, d in ((Sg, dSg), (Sv, dSv)):
        for sub in ("i,ij->j", "j,ij->i"):
            ok = ok and np.array_equal(_rescale(_safe_einsum(sub, U, tab), H.dE),
                                       _rescale(E, H.dU * d))
    if not ok:
        return False

    ee = _rescale(_safe_einsum("i,j->ij", E, E), H.dC * H.dC * dSg * dSv)
    for left, right in ((Sg, Sv), (Sv, Sg)):
        conv = _safe_einsum("iab,jde,ad,be->ij", C, C, left, right)
        if not np.array_equal(_rescale(conv, H.dE * H.dE), ee):
            return False

    SM1 = _safe_einsum("bew,wk->bek", M, Sg)
    lhs = _safe_einsum("iab,jde,ad,bek->ijk", C, C, Sg, SM1)
    SM2 = _safe_einsum("ehw,iw->ieh", M, Sg)
    rhs = _safe_einsum("jde,kgh,dg,ieh->ijk", C, C, Sg, SM2)
    return np.array_equal(lhs, rhs)


def pullback(sigma: Cocycle2, pi: HopfMap) -> Cocycle2:
    """Pull a cocycle on pi's target back along pi to pi's source."""
    if not pi.target.structure_equal(sigma.carrier):
        raise ValueError("pi's target is not the cocycle's carrier")
    if not pi.verify():
        raise KleintwistError(f"pullback needs a Hopf map, failed at: {pi.failure}")
    P, d = pi.P, pi.d

    def pulled(A, dA):
        return _fractions(_safe_einsum("ia,jb,ab->ij", P, P, A), d * d * dA)

    L, dL = sigma.cleared_star_corrector
    corrector = _fractions(_safe_einsum("ia,a->i", P, L), d * dL)
    out = Cocycle2.build(pi.source, pulled(*sigma.cleared_table),
                         pulled(*sigma.cleared_inverse_table), corrector)
    if not verify_cocycle(out):
        raise KleintwistError("pulled-back table fails the cocycle identities")
    return out


def rebind(sigma: Cocycle2, H: FDHopf) -> Cocycle2:
    """The same value table read as a cocycle on another algebra with the
    same underlying coalgebra (e.g. a twist of the original carrier);
    re-verified because the cocycle identity involves the product."""
    if H.dim != sigma.carrier.dim:
        raise ValueError("dimension mismatch")
    out = Cocycle2.build(H, sigma.table, sigma.inverse_table, sigma.star_corrector)
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
    C, M, S = H.C, H.M, H.S
    Sg, dSg = sigma.cleared_table
    Sv, dSv = sigma.cleared_inverse_table

    # x *_sigma y: Delta2(x) = a b c and Delta2(y) = p q r, dressed by
    # sigma(a, p) sigma^-1(c, r) around the product b q; one row x at a time.
    left = _safe_einsum("ixc,xab,ap,cr->ibpr", C, C, Sg, Sv)
    mult = np.stack([_safe_einsum("bjq,bqs->js",
                                  _safe_einsum("bpr,jyr,ypq->bjq", row, C, C), M)
                     for row in left])
    mscale = H.dC ** 4 * dSg * dSv * H.dM

    # S_sigma(x) = f(x1) S(x2) g(x3), f(x) = sigma(x1, S x2), g(x) = sigma^-1(S x1, x2).
    f = _safe_einsum("xab,aw,bw->x", C, Sg, S)
    g = _safe_einsum("xab,aw,wb->x", C, S, Sv)
    antipode = (_safe_einsum("ixc,xab,a,bt,c->it", C, C, f, S, g),
                H.dC ** 4 * H.dS ** 3 * dSg * dSv)

    star = (H.T, H.dT)
    if correct_star:
        # star_sigma(x) = L(x1) star(x2) L(x3)
        L, dL = sigma.cleared_star_corrector
        star = (_safe_einsum("ixc,xab,a,bt,c->it", C, C, L, H.T, L),
                H.dC ** 2 * dL ** 2 * H.dT)

    out = FDHopf._from_tensors(H.basis_labels, (H.U, H.dU), (mult, mscale), (C, H.dC),
                               (H.E, H.dE), antipode, star)
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
