"""Universal matrix presentations and their character solutions.

Generators carry a bidegree: a pair of Klein-group basis indices, the
left one tracking the row label and the right one the column label.
Reordering two generators inside a monomial costs the commutation sign
determined by the bicharacter, and a character (a one-dimensional
*-representation) must therefore kill every product of generators whose
commutation sign is -1.  That collapses the solution sets to signed or
plain permutation-style matrices, which a small exact backtracker
enumerates exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cocycle import Cocycle2, klein_bicharacter
from .errors import (ClosureFailure, InfiniteCharacterSpace, PatternMismatch,
                     SignMismatch)
from .perm import PermGroup, Permutation, klein_group, symmetric_group


def _klein_product_table() -> tuple:
    K = klein_group()
    elems = K.sorted_elements()
    idx = {g: i for i, g in enumerate(elems)}
    return tuple(tuple(idx[a * b] for b in elems) for a in elems)


# Index multiplication of the Klein basis t0..t3, read off the group once.
KLEIN_PRODUCT = _klein_product_table()


@dataclass(frozen=True)
class Bidegree:
    """Pair of Klein basis indices attached to a generator or monomial."""

    left: int
    right: int

    def __post_init__(self):
        if not (0 <= self.left <= 3 and 0 <= self.right <= 3):
            raise ValueError("bidegree indices live in 0..3")

    def __mul__(self, other: "Bidegree") -> "Bidegree":
        return Bidegree(KLEIN_PRODUCT[self.left][other.left],
                        KLEIN_PRODUCT[self.right][other.right])

    @staticmethod
    def identity() -> "Bidegree":
        return Bidegree(0, 0)


def commutation_sign(sigma: Cocycle2, d1: Bidegree, d2: Bidegree):
    """Sign picked up when two homogeneous elements of these bidegrees
    swap past each other in the twisted product."""
    t = sigma.table
    return (t[d1.left][d2.left] * t[d1.right][d2.right]
            * t[d2.left][d1.left] * t[d2.right][d1.right])


def relation_sign_table(sigma: Cocycle2) -> dict:
    """All 81 commutation signs between 3x3 matrix generators a_ij
    (bidegree (t_i, t_j), indices 1..3).  The sign must be -1 exactly
    when the two generators share a row xor share a column; any other
    value raises PatternMismatch."""
    out = {}
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                for l in range(1, 4):
                    s = commutation_sign(sigma, Bidegree(i, j), Bidegree(k, l))
                    expected = -1 if (i == k) != (j == l) else 1
                    if s != expected:
                        raise PatternMismatch(
                            f"sign at (({i},{j}),({k},{l})) is {s}, expected {expected}")
                    out[((i, j), (k, l))] = s
    return out


def determinant_to_permanent_signs(size: int, sigma: Cocycle2 = None) -> dict:
    """Relative sign s(tau) between the monomial x_{1 tau(1)} ... in the
    twisted product order and the untwisted one; checks sgn(tau) s(tau) = +1
    for every tau, which turns the signed determinant expansion into the
    plain permanent.  SignMismatch on any violation."""
    if sigma is None:
        sigma = klein_bicharacter()
    if size not in (2, 3):
        raise ValueError("row labels only exist for sizes 2 and 3")
    out = {}
    for tau in symmetric_group(size).sorted_elements():
        s = 1
        left = 0
        right = 0
        for j in range(2, size + 1):
            left = KLEIN_PRODUCT[left][j - 1]
            right = KLEIN_PRODUCT[right][tau(j - 1)]
            s *= sigma.table[left][j] * sigma.table[right][tau(j)]
        if s * tau.sign() != 1:
            raise SignMismatch(
                f"sgn({tau.cycle_string()}) * s = {s * tau.sign()}, expected +1")
        out[tau] = s
    return out


# -- presentations ------------------------------------------------------


@dataclass(frozen=True)
class PresentationSpec:
    """A named universal presentation with a rows x cols generator grid."""

    kind: str
    rows: int
    cols: int

    @property
    def name(self) -> str:
        if self.kind == "snplus":
            return f"snplus:{self.rows}"
        if self.kind == "incseq":
            return f"incseq:{self.cols}:{self.rows}"
        return self.kind


def O2Minus() -> PresentationSpec:
    return PresentationSpec("o2minus", 2, 2)


def SO3Minus() -> PresentationSpec:
    return PresentationSpec("so3minus", 3, 3)


def SnPlus(n: int) -> PresentationSpec:
    if n < 1:
        raise ValueError("need n >= 1")
    return PresentationSpec("snplus", n, n)


def IncSeq(k: int, n: int) -> PresentationSpec:
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return PresentationSpec("incseq", n, k)


def O2() -> PresentationSpec:
    return PresentationSpec("o2", 2, 2)


def SO3() -> PresentationSpec:
    return PresentationSpec("so3", 3, 3)


def parse_presentation(name: str) -> PresentationSpec:
    parts = name.strip().lower().split(":")
    head = parts[0]
    if head == "o2minus" and len(parts) == 1:
        return O2Minus()
    if head == "so3minus" and len(parts) == 1:
        return SO3Minus()
    if head == "o2" and len(parts) == 1:
        return O2()
    if head == "so3" and len(parts) == 1:
        return SO3()
    if head == "snplus" and len(parts) == 2:
        return SnPlus(int(parts[1]))
    if head == "incseq" and len(parts) == 3:
        return IncSeq(int(parts[1]), int(parts[2]))
    raise ValueError(f"unknown presentation name: {name!r}")


@dataclass(frozen=True)
class CharacterSolution:
    """One character of a presentation, as its value matrix on the
    generator grid."""

    spec: PresentationSpec
    matrix: tuple

    def __getitem__(self, ij):
        i, j = ij
        return self.matrix[i - 1][j - 1]


def solve_characters(p: PresentationSpec) -> list:
    """Exhaustive character enumeration by entrywise backtracking.

    Minus-twisted kinds take entries in {-1,0,1} with a zero-product
    constraint along rows and columns (forced by the -1 commutation
    signs acting on scalars) plus exact orthogonality; quantum
    permutation kinds take entries in {0,1} with partition-of-unity
    row/column constraints.  The untwisted O2/SO3 presentations have a
    continuum of characters and refuse with InfiniteCharacterSpace.
    """
    if p.kind in ("o2", "so3"):
        raise InfiniteCharacterSpace(
            f"{p.kind} has a continuous character space; nothing to enumerate")
    if p.rows > 5 or p.cols > 5:
        raise ValueError("character solving restricted to grids up to 5x5")

    rows, cols = p.rows, p.cols
    signed = p.kind in ("o2minus", "so3minus")
    alphabet = (0, 1, -1) if signed else (0, 1)
    grid = [[0] * cols for _ in range(rows)]
    row_nz = [0] * rows
    col_nz = [0] * cols
    sols = []

    def at_cell(pos: int):
        if pos == rows * cols:
            if any(c != 1 for c in col_nz):
                return
            if p.kind == "so3minus":
                prod = 1
                for r in range(rows):
                    for c in range(cols):
                        if grid[r][c]:
                            prod *= grid[r][c]
                if prod != 1:
                    return
            if p.kind == "incseq":
                support = [next(r for r in range(rows) if grid[r][c]) for c in range(cols)]
                if any(support[c] >= support[c + 1] for c in range(cols - 1)):
                    return
            sols.append(tuple(tuple(row) for row in grid))
            return
        r, c = divmod(pos, cols)
        for v in alphabet:
            # at most one nonzero per row and per column, in every kind
            if v != 0 and (row_nz[r] == 1 or col_nz[c] == 1):
                continue
            # incseq supports increase, so column c - 1 takes its 1 first
            if v != 0 and p.kind == "incseq" and c and not col_nz[c - 1]:
                continue
            grid[r][c] = v
            nz = 1 if v else 0
            row_nz[r] += nz
            col_nz[c] += nz
            # square kinds need every row hit; rectangular ones may skip rows
            if not (c == cols - 1 and p.kind != "incseq" and row_nz[r] != 1):
                at_cell(pos + 1)
            row_nz[r] -= nz
            col_nz[c] -= nz
            grid[r][c] = 0

    at_cell(0)

    out = [CharacterSolution(p, m) for m in sorted(sols)]
    if signed:
        for sol in out:
            m = sol.matrix
            n = rows
            for a in range(n):
                for b in range(n):
                    dot_r = sum(m[a][t] * m[b][t] for t in range(n))
                    dot_c = sum(m[t][a] * m[t][b] for t in range(n))
                    target = 1 if a == b else 0
                    if dot_r != target or dot_c != target:
                        raise SignMismatch("orthogonality audit failed")
    return out


# Rows of character products formed at a time: at 120 solutions of size 5
# a block is 8 * 120 * 25 int64 entries, 192 kB, where all products at
# once would take 2.9 MB.
_PRODUCT_ROWS = 8


def _codes(mats: np.ndarray) -> np.ndarray:
    """Base-3 code of each square matrix over the last two axes: distinct
    matrices with entries in {-1, 0, 1} get distinct codes, and n <= 5
    keeps them below 3^25 < 2^63.  Any other entry raises ClosureFailure."""
    n = mats.shape[-1]
    flat = mats.reshape(*mats.shape[:-2], n * n)
    if np.abs(flat).max() > 1:
        raise ClosureFailure("character product has an entry outside {-1, 0, 1}")
    return (flat + 1) @ 3 ** np.arange(n * n, dtype=np.int64)


def character_group_of(p: PresentationSpec, sols: Optional[list] = None) -> PermGroup:
    """Group of characters under the convolution product, which on these
    presentations is plain matrix multiplication of the value matrices;
    returned via the left regular action on the sorted solution list.
    sols is solve_characters(p) when the caller has it already; without
    it the presentation is solved here.

    Products are formed by np.matmul a block of rows at a time (entries
    are -1, 0, 1 and n <= 5, so nothing can overflow), coded by _codes,
    and looked up by code in a dict of the solutions' codes.  A sorted
    lookup (argsort, searchsorted) would be as exact, but it pages in
    numpy's sorting code, about 0.4 MB of resident memory that nothing
    else in a verify run touches."""
    if p.kind == "incseq":
        raise ValueError("rectangular presentations carry no character group")
    if sols is None:
        sols = solve_characters(p)
    n = p.rows
    mats = np.array([s.matrix for s in sols], dtype=np.int64).reshape(len(sols), n, n)
    if not (mats == np.eye(n, dtype=np.int64)).all(axis=(1, 2)).any():
        raise ClosureFailure("identity matrix is not a character")
    # the identity is a character, so every solution is a product
    index = dict(zip(_codes(mats).tolist(), range(1, len(mats) + 1)))
    inverse_found = [c in index for c in _codes(mats.transpose(0, 2, 1)).tolist()]
    perms = set()
    for start in range(0, len(mats), _PRODUCT_ROWS):
        stop = start + _PRODUCT_ROWS
        block = _codes(np.matmul(mats[start:stop, None], mats)).tolist()
        for row, inv in zip(block, inverse_found[start:stop]):
            images = [index.get(c, 0) for c in row]
            if 0 in images:
                raise ClosureFailure("character product escapes the solution set")
            if not inv:
                raise ClosureFailure("character inverse escapes the solution set")
            perms.add(Permutation(images))
    return PermGroup(len(mats), perms)
