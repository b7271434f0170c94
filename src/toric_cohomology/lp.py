"""A small exact-rational simplex solver, the tests' reference (`tests/util.py`).

Recession is decided by circuits in `counting` (`NegGroupCounter.recession`
and `recession_test`); this module stays in the package only because
`bench/worker.py` imports `lp` and `bench/spans.py` wraps
`counting.simplex_maximize`.  Pivoting is over `fractions.Fraction`, so
results are exact; Bland's rule prevents cycling.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


def _pivot(rows, obj, basis, r, col):
    prow = rows[r]
    pv = prow[col]
    rows[r] = [x / pv for x in prow]
    prow = rows[r]
    for i, row in enumerate(rows):
        if i != r and row[col]:
            f = row[col]
            rows[i] = [a - f * b for a, b in zip(row, prow)]
    if obj[col]:
        f = obj[col]
        obj[:] = [a - f * b for a, b in zip(obj, prow)]
    basis[r] = col


def _optimize(rows, obj, basis):
    ncols = len(obj) - 1
    while True:
        col = next((j for j in range(ncols) if obj[j] > 0), None)
        if col is None:
            return OPTIMAL
        best = None
        for i, row in enumerate(rows):
            if row[col] > 0:
                ratio = row[-1] / row[col]
                if best is None or ratio < best[0] or \
                        (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            return UNBOUNDED
        _pivot(rows, obj, basis, best[1], col)


def _eliminate_basis(obj, rows, basis):
    for i, bv in enumerate(basis):
        f = obj[bv]
        if f:
            obj[:] = [a - f * b for a, b in zip(obj, rows[i])]


def simplex_maximize(a: Sequence[Sequence], b: Sequence, c: Sequence):
    """Maximize c.x subject to A x = b, x >= 0.

    Returns (status, value, x); value and x are None unless status is
    "optimal".
    """
    m = len(a)
    n = len(c)
    rows = [[Fraction(x) for x in row] + [Fraction(bi)] for row, bi in zip(a, b)]
    for row in rows:
        if row[-1] < 0:
            row[:] = [-x for x in row]

    # phase 1: artificial variables n..n+m-1
    for i, row in enumerate(rows):
        rhs = row.pop()
        row.extend(1 if j == i else 0 for j in range(m))
        row.append(rhs)
    basis = [n + i for i in range(m)]
    obj = [Fraction(0)] * n + [Fraction(-1)] * m + [Fraction(0)]
    _eliminate_basis(obj, rows, basis)
    _optimize(rows, obj, basis)
    if -obj[-1] < 0:
        return INFEASIBLE, None, None

    # drive artificials out of the basis, drop redundant rows
    keep = []
    for i in range(len(rows)):
        if basis[i] >= n:
            col = next((j for j in range(n) if rows[i][j]), None)
            if col is None:
                continue  # redundant constraint
            _pivot(rows, obj, basis, i, col)
        keep.append(i)
    rows = [rows[i][:n] + [rows[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2
    obj = [Fraction(x) for x in c] + [Fraction(0)]
    _eliminate_basis(obj, rows, basis)
    status = _optimize(rows, obj, basis)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        x[bv] = rows[i][-1]
    return OPTIMAL, -obj[-1], x
