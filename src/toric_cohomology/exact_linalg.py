"""Exact integer linear algebra: sparse row echelon form, column reduction, lattice solving.

Everything operates on plain Python ints (arbitrary precision), so there is
no overflow and no floating point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Sequence


def echelon(rows: Sequence[Sequence[int] | dict[int, int]]) -> list[dict[int, int]]:
    """`rows` in echelon form over Q: primitive {column: entry} rows, at most one per leading
    column, in the order they were kept.  Ranks and circuit conditions both read it.

    A row is either a dense list of entries or a sparse {column: nonzero
    entry} map.  Each row is reduced against the kept row at its leading
    column until that column is free, then kept there with its content
    divided out; a row that reduces to zero is dropped.
    """
    kept: dict[int, dict[int, int]] = {}
    for row in rows:
        r = dict(row) if isinstance(row, dict) else {j: x for j, x in enumerate(row) if x}
        while r:
            lead = min(r)
            p = kept.get(lead)
            if p is None:
                if r[lead] not in (1, -1):  # a unit lead leaves content 1
                    g = math.gcd(*r.values())
                    r = {j: x // g for j, x in r.items()}
                kept[lead] = r
                break
            a, b = p[lead], r.pop(lead)
            s = abs(a) // math.gcd(a, b)  # s * r - q * p cancels the lead
            if s > 1:
                r = {j: s * x for j, x in r.items()}
            q = s * b // a
            for j, x in p.items():
                if j != lead:
                    v = r.get(j, 0) - q * x
                    if v:
                        r[j] = v
                    else:
                        del r[j]
    return list(kept.values())


def integer_rank(rows: Sequence[Sequence[int] | dict[int, int]]) -> int:
    """Rank over Q of an integer matrix: the number of rows of its echelon form."""
    return len(echelon(rows))


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
        # forward substitution on L z = b; z stops at the rank, as it is
        # zero past it, and x = V z reads only the first rank columns of V
        z = [0] * self.rank
        for row, bi, p in zip(self.echelon, b, self.pivots):
            residual = bi - sum(map(mul, row, z))
            if p is None:
                if residual:
                    return None
            elif residual % row[p]:
                return None
            else:
                z[p] = residual // row[p]
        return [sum(map(mul, row, z)) for row in self.v]

    def kernel_basis(self) -> list[list[int]]:
        """Lattice basis of the integer kernel of A (columns of V past the rank)."""
        return [[row[j] for row in self.v] for j in range(self.rank, self.ncols)]
