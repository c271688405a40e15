"""Increasing sequences, their 0/1 matrix representations, and the
completion of a sequence to a permutation.

The completion is implemented twice on purpose: complete_diagram follows
the combinatorial procedure (connect leftover columns to leftover rows
in order), complete_formula evaluates an explicit generator formula, its
telescoping sums read off the prefix counts of each column.  Agreement
of the two routes is the correctness oracle, so neither implementation
may call the other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import EvaluationNotPermutation
from .perm import Permutation, PermGroup, generate


@dataclass(frozen=True)
class IncreasingSequence:
    """A strictly increasing sequence of k values drawn from {1..n}."""

    k: int
    n: int
    values: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise ValueError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")
        if len(self.values) != self.k:
            raise ValueError("length disagrees with k")
        for v in self.values:
            if not 1 <= v <= self.n:
                raise ValueError(f"value {v} outside 1..{self.n}")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise ValueError(f"not strictly increasing: {self.values}")

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return self.k


@dataclass(frozen=True)
class BinaryRectMatrix:
    """An n-by-k matrix over {0,1} whose columns each carry a single 1,
    placed at strictly increasing row positions from left to right."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("shape mismatch")
        if any(e not in (0, 1) for row in self.entries for e in row):
            raise ValueError("entries must be 0 or 1")
        support = []
        for j in range(self.cols):
            col = [self.entries[i][j] for i in range(self.rows)]
            if sum(col) != 1:
                raise ValueError(f"column {j + 1} does not sum to 1")
            support.append(col.index(1))
        if any(a >= b for a, b in zip(support, support[1:])):
            raise ValueError("column supports must increase left to right")

    @classmethod
    def _make(cls, rows: int, cols: int, entries: tuple) -> "BinaryRectMatrix":
        """Constructor for matrices built from a validated
        IncreasingSequence, which have the shape and support by
        construction: no re-check."""
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        return self

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i - 1][j - 1]


def all_sequences(k: int, n: int) -> list[IncreasingSequence]:
    """Every increasing sequence of length k over {1..n}, in
    lexicographic order; there are C(n, k) of them."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return [IncreasingSequence(k, n, combo)
            for combo in itertools.combinations(range(1, n + 1), k)]


def matrix_rep(s: IncreasingSequence) -> BinaryRectMatrix:
    """The n-by-k matrix with a 1 at (s.values[l], l) for each column l."""
    rows = [[0] * s.k for _ in range(s.n)]
    for col, val in enumerate(s.values):
        rows[val - 1][col] = 1
    return BinaryRectMatrix._make(s.n, s.k, tuple(map(tuple, rows)))


def complete_diagram(s: IncreasingSequence) -> Permutation:
    """Complete s to a permutation of degree n the pictorial way: point l
    maps to s.values[l] for l <= k, and point k+j maps to the j-th
    smallest value not hit by the sequence."""
    images = list(s.values)
    leftover = sorted(set(range(1, s.n + 1)) - set(s.values))
    images.extend(leftover)
    return Permutation(images)


def _formula_matrix(s: IncreasingSequence, p00: int = 1) -> list[list[int]]:
    """Raw n-by-n matrix of formula values, column j holding the images
    of point j.  p00 is the value assigned to the corner symbol p_{0,0};
    the formula needs it to be 1, and tests poke it to show why.

    The symbols p(t, c) are read column by column from the matrix
    representation, with p_{0,0} heading an extra column 0 and every
    other out-of-range symbol 0.  pre[c][r] is the sum of p(t, c) over
    t < r, so each telescoping sum over t < m + pp is the difference of
    two prefix values."""
    A = matrix_rep(s).entries
    k, n = s.k, s.n
    columns = [[p00] + [0] * n]
    columns += [[0] + [row[c] for row in A] for c in range(k)]
    columns.append([0] * (n + 1))
    pre = [list(itertools.accumulate(col, initial=0)) for col in columns]

    U = [list(row) + [0] * (n - k) for row in A]
    for m in range(1, n - k + 1):
        for pp in range(k + 1):
            # sum over t < i of p(t, pp) - p(t + 1, pp + 1), i = m + pp;
            # p(0, pp + 1) = 0, so the second part is pre[pp + 1][i + 1]
            i = m + pp
            U[i - 1][k + m - 1] = pre[pp][i] - pre[pp + 1][i + 1]
    return U


def complete_formula(s: IncreasingSequence) -> Permutation:
    """Complete s to a permutation by evaluating the generator formula.

    The formula fills columns 1..k straight from the matrix
    representation and column k+m (1 <= m <= n-k) by telescoping sums of
    adjacent entries, with the boundary conventions p_{0,0} = 1 and
    every other out-of-range symbol 0.  The evaluated matrix must come
    out a permutation matrix; anything else raises
    EvaluationNotPermutation.  Columns index points: entry (i, j) = 1
    means j maps to i.
    """
    U = _formula_matrix(s)
    n = s.n
    # one pass; a bad entry anywhere outranks a bad row sum
    bad_row = None
    col_sums = [0] * n
    images = [0] * n
    for i, row in enumerate(U):
        for j, v in enumerate(row):
            if v not in (0, 1):
                raise EvaluationNotPermutation(
                    f"entry ({i + 1},{j + 1}) = {v} for {s.values}")
            if v:
                col_sums[j] += 1
                images[j] = i + 1
        if bad_row is None and sum(row) != 1:
            bad_row = i + 1
    if bad_row is not None:
        raise EvaluationNotPermutation(f"row {bad_row} sum != 1 for {s.values}")
    for j, total in enumerate(col_sums):
        if total != 1:
            raise EvaluationNotPermutation(f"column {j + 1} sum != 1 for {s.values}")
    return Permutation(images)


def generated_completion_group(k: int, n: int, bound: int = 7) -> PermGroup:
    """Subgroup of S_n generated by the completions of every sequence in
    I_{k,n}.  For 0 < k < n this comes out as all of S_n."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if n > bound:
        raise ValueError(f"degree {n} above configured bound {bound}")
    gens = [complete_diagram(s) for s in all_sequences(k, n)]
    return generate(n, gens)
