"""Exact integer linear algebra: fraction-free ranks, column reduction, lattice solving.

Everything operates on plain Python ints (arbitrary precision), so there is
no overflow and no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix, by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for i in range(rank + 1, nrows):
            f = m[i][col]
            row_i, row_r = m[i], m[rank]
            for j in range(col, ncols):
                row_i[j] = (row_i[j] * p - f * row_r[j]) // prev
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def _swap_columns(m: list[list[int]], j: int, k: int) -> None:
    for row in m:
        row[j], row[k] = row[k], row[j]


@dataclass
class DiagonalizedSystem:
    """An integer matrix A reduced once, reusable for many right-hand sides.

    Solves A x = b over the integers and exposes a lattice basis of ker A.
    Unimodular column operations bring A to column echelon form A V = L:
    row i either has its pivot in column r, the number of pivots above it,
    with zeros right of it, or is zero from column r on.  The name is
    historical, as nothing is diagonalized; it stays because
    `bench/spans.py` imports the class and wraps `.solve`, and
    `tests/util.py` builds it.
    """

    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        self.nrows = len(self.matrix)
        self.ncols = len(self.matrix[0]) if self.matrix else 0
        # [A; I] under one sequence of column operations becomes [L; V]
        m = [list(r) for r in self.matrix]
        m += [[int(i == j) for j in range(self.ncols)] for i in range(self.ncols)]
        self.pivots: list[int | None] = []  # each row's pivot column
        r = 0
        for row in m[: self.nrows]:
            live = [j for j in range(r, self.ncols) if row[j]]
            if not live:
                self.pivots.append(None)
                continue
            _swap_columns(m, r, min(live, key=lambda j: abs(row[j])))
            while any(row[r + 1:]):  # Euclid: a nonzero remainder becomes the pivot
                for j in range(r + 1, self.ncols):
                    if row[j]:
                        q = row[j] // row[r]
                        for x in m:
                            x[j] -= q * x[r]
                        if row[j]:
                            _swap_columns(m, r, j)
            self.pivots.append(r)
            r += 1
        self.rank = r
        self.echelon, self.v = m[: self.nrows], m[self.nrows:]

    def solve(self, b: Sequence[int]) -> list[int] | None:
        """One integer solution of A x = b, or None when none exists."""
        if len(b) != self.nrows:
            raise ValueError("right-hand side has wrong length")
        # forward substitution on L z = b; z is zero past the rank, x = V z
        z = [0] * self.ncols
        for row, bi, p in zip(self.echelon, b, self.pivots):
            residual = bi - sum(c * zj for c, zj in zip(row, z))
            if p is None:
                if residual:
                    return None
            elif residual % row[p]:
                return None
            else:
                z[p] = residual // row[p]
        return [sum(vi * zi for vi, zi in zip(row, z)) for row in self.v]

    def kernel_basis(self) -> list[list[int]]:
        """Lattice basis of the integer kernel of A (columns of V past the rank)."""
        return [[row[j] for row in self.v] for j in range(self.rank, self.ncols)]
