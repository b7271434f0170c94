"""Counting neg-groups: lattice vectors with prescribed class and negative support.

For a divisor class alpha and a coordinate subset sigma, the neg-group is
the set of integer vectors u with charge image alpha whose negative entries
sit exactly on sigma.  A class outside the charge lattice has an empty
fiber.  Otherwise u = u0 + K y over an integer kernel basis K of the charge
map, and the signs of u become rows `coeffs . y <= rhs` over y in Z^d.  One
Fourier-Motzkin routine decides them: the recession test on the
homogeneous rows (sigma only), rational emptiness of a receding fiber
(empty, else infinite), and the lattice points of a finite one.  A count
walks a finite fiber over all but its last two kernel coordinates and sums
those two in closed form: per value of the second-to-last, the integer
range of the last is floor(min of upper lines) - ceil(max of lower lines)
+ 1, summed piecewise with a floor sum.  `enumerate` (and through it
`--breakdown`) walks every point instead, and is the count's reference.

A `NegGroupCounter` holds one model's kernel basis and its recession,
base-point and count memos.  Its owner is the model's
`engine.CohomologyEngine`; `engine.counter_for` and the `neg_group_count`
/ `enumerate_neg_group` helpers reach it there.

All arithmetic is exact; no floating point is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, Sequence

from .exact_linalg import DiagonalizedSystem
from .lp import simplex_maximize  # noqa: F401  no caller here; bench/spans.py wraps this name
from .model import DivisorClass, ToricVarietyModel


@dataclass(frozen=True)
class CountResult:
    """A nonnegative count, or the distinguished infinite value."""

    value: int | None

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def __repr__(self):
        return "CountResult(Infinite)" if self.is_infinite else f"CountResult({self.value})"


INFINITE = CountResult(None)


def _fm_eliminate(rows, var):
    """Fourier-Motzkin elimination of one variable from `coeffs . y <= rhs` rows."""
    pos, neg, out = [], [], []
    for co, rhs in rows:
        a = co[var]
        if a > 0:
            pos.append((co, rhs))
        elif a < 0:
            neg.append((co, rhs))
        else:
            out.append((co, rhs))
    for cp, rp in pos:
        ap = cp[var]
        for cn, rn in neg:
            an = -cn[var]
            co = tuple(an * x + ap * y for x, y in zip(cp, cn))
            out.append((co, an * rp + ap * rn))
    # dedupe, in order, and reduce by content where exact
    cleaned = {}
    for co, rhs in out:
        g = math.gcd(*co)
        if g > 1 and rhs % g == 0:
            co = tuple(x // g for x in co)
            rhs //= g
        cleaned[co, rhs] = None
    return list(cleaned)


def _recedes(rows, nvars) -> bool:
    """True iff the homogeneous rows {y : coeffs . y <= 0} cut out a nonzero cone.

    Eliminating y_(nvars-1) down to y_(k+1) leaves level k, rows over
    y_0..y_k.  Cut at y_0 = ... = y_(k-1) = 0 it reads {a y_k <= 0}: {0}
    exactly when both signs of a occur.  A nonzero cone point has a first
    nonzero entry, so the cone is nonzero iff some level misses a sign.
    """
    rows = [(co, 0) for co, _ in rows]
    for var in range(nvars - 1, -1, -1):
        if {co[var] > 0 for co, _ in rows if co[var]} != {True, False}:
            return True
        if var:
            rows = _fm_eliminate(rows, var)
    return False


def recession_test(a: Sequence[Sequence[int]]) -> bool:
    """True iff A w = 0 admits a nonzero nonnegative rational solution.

    Over an integer kernel basis K of A, w = K y, so the cone
    {A w = 0, w >= 0} is nonzero iff {y : -K y <= 0} is (`_recedes`).
    """
    kernel = DiagonalizedSystem(tuple(map(tuple, a))).kernel_basis()
    n = len(a[0]) if a else 0
    return _recedes([(tuple(-col[i] for col in kernel), 0) for i in range(n)], len(kernel))


def _first_var_range(rows, prefix):
    """Exact integer range of y_k, k = len(prefix), on level-k rows at y_0..y_(k-1) = prefix.

    None when empty.  Without recession the rows bound y_k on both sides.
    """
    k = len(prefix)
    lo = hi = None
    for co, rhs in rows:
        a = co[k]
        r = rhs - sum(c * v for c, v in zip(co, prefix))
        if a > 0:
            b = r // a
            if hi is None or b < hi:
                hi = b
        elif a < 0:
            b = -(r // -a)
            if lo is None or b > lo:
                lo = b
        elif r < 0:
            return None  # infeasible constant constraint
    return (lo, hi) if lo <= hi else None


def _rationally_empty(rows, nvars) -> bool:
    """True iff {y : coeffs . y <= rhs} has no rational point."""
    for var in range(nvars - 1, -1, -1):
        rows = _fm_eliminate(rows, var)
    return any(rhs < 0 for _, rhs in rows)


def _levels(rows, nvars):
    """The Fourier-Motzkin levels of a non-receding system: levels[k] holds the rows over y_0..y_k."""
    levels = [rows]
    for var in range(nvars - 1, 0, -1):
        levels.append(_fm_eliminate(levels[-1], var))
    return levels[::-1]


def _walk(levels, prefix) -> Iterator[tuple[int, ...]]:
    """The lattice points extending `prefix`."""
    rng = _first_var_range(levels[len(prefix)], prefix)
    if rng is None:
        return
    last = len(prefix) + 1 == len(levels)
    for v in range(rng[0], rng[1] + 1):
        if last:
            yield prefix + (v,)
        else:
            yield from _walk(levels, prefix + (v,))


def _lattice_points(rows, nvars) -> Iterator[tuple[int, ...]]:
    """All integer points of {y : coeffs . y <= rhs}, lexicographic; `_recedes` must be false."""
    if nvars == 0:
        if all(rhs >= 0 for _, rhs in rows):
            yield ()
        return
    yield from _walk(_levels(rows, nvars), ())


def _floor_sum(n, m, a, b) -> int:
    """sum_{x=0}^{n-1} floor((a x + b) / m) for m > 0, in O(log m) steps.

    The Euclid-like reduction of Graham-Knuth-Patashnik, *Concrete
    Mathematics* 3.5: take the integer parts of a/m and b/m out, then count
    the same lattice points under the line with the axes swapped.
    """
    total = 0
    while n:
        q, a = divmod(a, m)
        r, b = divmod(b, m)
        total += q * (n * (n - 1) // 2) + r * n
        top = a * n + b
        if top < m:
            break
        n, b = divmod(top, m)
        m, a = a, m
    return total


def _sum_floor_min(lines, lo, hi) -> int:
    """sum_{v=lo}^{hi} floor(min over lines (p, c, m) of (p v + c) / m), every m > 0.

    The range is cut after the floor of every crossing of two lines, so no
    two lines cross strictly inside a piece, and the line lowest at a
    piece's midpoint is lowest on the whole piece.
    """
    cuts = {lo - 1, hi}
    for i, (p1, c1, m1) in enumerate(lines):
        for p2, c2, m2 in lines[i + 1:]:
            den = p1 * m2 - p2 * m1
            if den:
                x = (c2 * m1 - c1 * m2) // den
                if lo <= x < hi:
                    cuts.add(x)
    ends = sorted(cuts)
    total = 0
    for s, t in zip(ends, ends[1:]):
        s += 1
        mid = s + t  # twice the midpoint
        p, c, m = lines[0]
        for line in lines[1:]:
            if (line[0] * mid + 2 * line[1]) * m < (p * mid + 2 * c) * line[2]:
                p, c, m = line
        total += _floor_sum(t - s + 1, m, p, p * s + c)
    return total


def _count_last_two(rows, prefix, lo, hi) -> int:
    """The number of lattice points of the last level's rows over (prefix, v, w), lo <= v <= hi.

    With the prefix substituted, a row reads a v + b w <= c.  It bounds w
    above by (c - a v) / b if b > 0, and below by -(c - a v) / |b| if
    b < 0; a row with b = 0 is already in [lo, hi].  Over each v the count
    is floor(min upper) - ceil(max lower) + 1, which is floor(min upper) +
    floor(min of (c - a v) / |b| over the lower rows) + 1.  The previous
    level is the exact rational projection, so no term is negative.
    """
    k = len(prefix)
    upper, lower = [], []
    for co, rhs in rows:
        a, b = co[k], co[k + 1]
        c = rhs - sum(x * y for x, y in zip(co, prefix))
        if b:
            (upper if b > 0 else lower).append((-a, c, abs(b)))
    return _sum_floor_min(upper, lo, hi) + _sum_floor_min(lower, lo, hi) + hi - lo + 1


def _count(levels, prefix) -> int:
    """The number of lattice points extending `prefix`, walked to depth d-2, the rest summed."""
    k = len(prefix)
    rng = _first_var_range(levels[k], prefix)
    if rng is None:
        return 0
    lo, hi = rng
    if k + 1 == len(levels):
        return hi - lo + 1
    if k + 2 == len(levels):
        return _count_last_two(levels[k + 1], prefix, lo, hi)
    return sum(_count(levels, prefix + (v,)) for v in range(lo, hi + 1))


def _lattice_count(rows, nvars) -> int:
    """The number of integer points of {y : coeffs . y <= rhs}; `_recedes` must be false."""
    if nvars == 0:
        return int(all(rhs >= 0 for _, rhs in rows))
    return _count(_levels(rows, nvars), ())


class NegGroupCounter:
    """Per-model counting workspace with recession and count memo tables."""

    def __init__(self, model: ToricVarietyModel):
        self.model = model
        # charge map as an (n-d) x n matrix, column-reduced once
        fmat = tuple(
            tuple(model.charges[i][j] for i in range(model.n))
            for j in range(model.num_classes)
        )
        self._system = DiagonalizedSystem(fmat)
        kernel = self._system.kernel_basis()  # d columns of length n
        self._d = len(kernel)
        # row i of K and its negation: the coefficients of u_i <= -1 and u_i >= 0
        self._rows = [tuple(col[i] for col in kernel) for i in range(model.n)]
        self._neg_rows = [tuple(-x for x in row) for row in self._rows]
        self._recession: Dict[int, bool] = {}
        self._base: Dict[DivisorClass, list[int] | None] = {}
        self._counts: Dict[tuple[DivisorClass, int], CountResult] = {}

    def recession(self, sigma: int) -> bool:
        if sigma not in self._recession:
            rows = self._inequalities((0,) * self.model.n, sigma)
            self._recession[sigma] = _recedes(rows, self._d)
        return self._recession[sigma]

    def _base_point(self, alpha: DivisorClass):
        alpha = tuple(alpha)
        if alpha not in self._base:
            self._base[alpha] = self._system.solve(list(alpha))
        return self._base[alpha]

    def _inequalities(self, u0: Sequence[int], sigma: int):
        """Sign constraints on u = u0 + K y as rows (coeffs, rhs) over y."""
        return [
            (self._rows[i], -1 - u0[i]) if sigma >> i & 1  # u_i <= -1
            else (self._neg_rows[i], u0[i])  # u_i >= 0
            for i in range(self.model.n)
        ]

    def _fiber(self, alpha: DivisorClass, sigma: int):
        """The neg-group's sign rows over y: None if it is infinite, [] if it is empty."""
        u0 = self._base_point(alpha)
        if u0 is None:  # alpha is not in the charge lattice: no vectors at all
            return []
        rows = self._inequalities(u0, sigma)
        if self.recession(sigma):
            return [] if _rationally_empty(rows, self._d) else None
        return rows

    def count(self, alpha: DivisorClass, sigma: int) -> CountResult:
        key = (tuple(alpha), sigma)
        if key not in self._counts:
            rows = self._fiber(alpha, sigma)
            self._counts[key] = (
                INFINITE if rows is None else CountResult(_lattice_count(rows, self._d) if rows else 0)
            )
        return self._counts[key]

    def enumerate(self, alpha: DivisorClass, sigma: int):
        """The explicit exponent vectors of a finite neg-group, lexicographic."""
        rows = self._fiber(alpha, sigma)
        if rows is None:
            raise ValueError("cannot enumerate an infinite neg-group")
        if not rows:
            return []
        u0 = self._base_point(alpha)
        return sorted(
            tuple(x + sum(k * y for k, y in zip(row, ys)) for x, row in zip(u0, self._rows))
            for ys in _lattice_points(rows, self._d)
        )


def format_rationom(model: ToricVarietyModel, u: Sequence[int]) -> str:
    """Render an exponent vector as a rational monomial in the coordinates."""
    num, den = [], []
    for name, e in zip(model.coordinate_names, u):
        if e > 0:
            num.append(name if e == 1 else f"{name}^{e}")
        elif e < 0:
            den.append(name if e == -1 else f"{name}^{-e}")
    top = "*".join(num) if num else "1"
    if not den:
        return top
    bottom = "*".join(den)
    if len(den) > 1:
        bottom = f"({bottom})"
    return f"{top}/{bottom}"
