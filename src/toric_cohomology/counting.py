"""Counting neg-groups: lattice vectors with prescribed class and negative support.

For a divisor class alpha and a coordinate subset sigma, the neg-group is
the set of integer vectors u with charge image alpha whose negative entries
sit exactly on sigma.  Substituting u_i = -1 - w_i on sigma and u_i = w_i
elsewhere turns this into counting nonnegative integer solutions of a small
linear system.  A class outside the charge lattice has an empty fiber.
Otherwise the recession test asks the exact simplex whether the cone
{A w = 0, w >= 0} of that system is nonzero; a receding fiber is empty
when Fourier-Motzkin finds no rational point in it and infinite
otherwise.  Finite fibers are enumerated by parametrizing the class
lattice (integer kernel of the charge map) and walking the resulting
polytope with exact Fourier-Motzkin bounds.

All arithmetic is exact; no floating point is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Sequence

from .exact_linalg import DiagonalizedSystem
from .lp import UNBOUNDED, simplex_maximize
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


def signed_system(model: ToricVarietyModel, sigma: int) -> list[list[int]]:
    """Rows of the matrix A with column i equal to -q_i on sigma and +q_i off it."""
    k = model.num_classes
    return [
        [-model.charges[i][j] if sigma >> i & 1 else model.charges[i][j]
         for i in range(model.n)]
        for j in range(k)
    ]


def recession_test(a: Sequence[Sequence[int]]) -> bool:
    """True iff A w = 0 admits a nonzero nonnegative rational solution.

    Decided exactly by the simplex: every nonzero w >= 0 has sum(w) > 0, so
    the cone {A w = 0, w >= 0} is nonzero iff sum(w) is unbounded on it.
    """
    n = len(a[0]) if a else 0
    if n == 0:
        return False
    status, _, _ = simplex_maximize(a, [0] * len(a), [1] * n)
    return status == UNBOUNDED


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
    # dedupe and reduce by content where exact
    seen = set()
    cleaned = []
    for co, rhs in out:
        g = 0
        for x in co:
            g = math.gcd(g, x)
        if g > 1 and rhs % g == 0:
            co = tuple(x // g for x in co)
            rhs //= g
        key = (co, rhs)
        if key not in seen:
            seen.add(key)
            cleaned.append(key)
    return cleaned


def _first_var_range(rows, nvars):
    """Exact integer range of the first variable over the polytope, or None."""
    proj = rows
    for var in range(nvars - 1, 0, -1):
        proj = _fm_eliminate(proj, var)
    lo, hi = None, None
    for co, rhs in proj:
        a = co[0]
        if a > 0:
            bound = Fraction(rhs, a)
            hi = bound if hi is None or bound < hi else hi
        elif a < 0:
            bound = Fraction(rhs, a)
            lo = bound if lo is None or bound > lo else lo
        elif rhs < 0:
            return None  # infeasible constant constraint
    if hi is None or lo is None:
        raise ArithmeticError("unbounded polytope past the recession gate")
    if lo > hi:
        return None
    return math.ceil(lo), math.floor(hi)


def _rationally_empty(rows, nvars) -> bool:
    """True iff {y : coeffs . y <= rhs} has no rational point."""
    for var in range(nvars - 1, -1, -1):
        rows = _fm_eliminate(rows, var)
    return any(rhs < 0 for _, rhs in rows)


def _lattice_points(rows, nvars) -> Iterator[tuple[int, ...]]:
    """All integer points of {y : coeffs . y <= rhs}, assumed bounded."""
    if nvars == 0:
        if all(rhs >= 0 for _, rhs in rows):
            yield ()
        return
    rng = _first_var_range(rows, nvars)
    if rng is None:
        return
    lo, hi = rng
    for v in range(lo, hi + 1):
        sub = [(co[1:], rhs - co[0] * v) for co, rhs in rows]
        for rest in _lattice_points(sub, nvars - 1):
            yield (v, *rest)


class NegGroupCounter:
    """Per-model counting workspace with recession and count memo tables."""

    def __init__(self, model: ToricVarietyModel):
        self.model = model
        # charge map as an (n-d) x n matrix, diagonalized once
        fmat = tuple(
            tuple(model.charges[i][j] for i in range(model.n))
            for j in range(model.num_classes)
        )
        self._system = DiagonalizedSystem(fmat)
        self._kernel = self._system.kernel_basis()  # n x 1 columns, d of them
        self._recession: Dict[int, bool] = {}
        self._base: Dict[DivisorClass, list[int] | None] = {}
        self._counts: Dict[tuple[DivisorClass, int], CountResult] = {}

    def recession(self, sigma: int) -> bool:
        if sigma not in self._recession:
            # with no charge constraints the whole orthant recedes
            if self.model.num_classes == 0:
                self._recession[sigma] = self.model.n > 0
            else:
                self._recession[sigma] = recession_test(
                    signed_system(self.model, sigma)
                )
        return self._recession[sigma]

    def _base_point(self, alpha: DivisorClass):
        alpha = tuple(alpha)
        if alpha not in self._base:
            self._base[alpha] = self._system.solve(list(alpha))
        return self._base[alpha]

    def _inequalities(self, u0: Sequence[int], sigma: int):
        """Sign constraints on u = u0 + K y as rows (coeffs, rhs) over y."""
        d = len(self._kernel)
        rows = []
        for i in range(self.model.n):
            ki = tuple(col[i] for col in self._kernel)
            if sigma >> i & 1:  # u_i <= -1
                rows.append((ki, -1 - u0[i]))
            else:  # u_i >= 0
                rows.append((tuple(-x for x in ki), u0[i]))
        return rows, d

    def count(self, alpha: DivisorClass, sigma: int) -> CountResult:
        key = (tuple(alpha), sigma)
        if key in self._counts:
            return self._counts[key]
        u0 = self._base_point(alpha)
        if u0 is None:  # alpha is not in the charge lattice: no vectors at all
            result = CountResult(0)
        elif self.recession(sigma):
            empty = _rationally_empty(*self._inequalities(u0, sigma))
            result = CountResult(0) if empty else INFINITE
        else:
            rows, d = self._inequalities(u0, sigma)
            result = CountResult(sum(1 for _ in _lattice_points(rows, d)))
        self._counts[key] = result
        return result

    def enumerate(self, alpha: DivisorClass, sigma: int):
        """The explicit exponent vectors of a finite neg-group, lexicographic."""
        u0 = self._base_point(alpha)
        if u0 is None:
            return []
        if self.recession(sigma):
            if _rationally_empty(*self._inequalities(u0, sigma)):
                return []
            raise ValueError("cannot enumerate an infinite neg-group")
        rows, d = self._inequalities(u0, sigma)
        points = [
            tuple(u0[i] + sum(col[i] * y for col, y in zip(self._kernel, ys))
                  for i in range(self.model.n))
            for ys in _lattice_points(rows, d)
        ]
        points.sort()
        return points


_counters: Dict[ToricVarietyModel, NegGroupCounter] = {}


def counter_for(model: ToricVarietyModel) -> NegGroupCounter:
    if model not in _counters:
        _counters[model] = NegGroupCounter(model)
    return _counters[model]


def neg_group_count(model: ToricVarietyModel, alpha: DivisorClass, sigma: int) -> CountResult:
    """|(alpha, sigma)|: lattice vectors of class alpha with negative support sigma."""
    return counter_for(model).count(alpha, sigma)


def enumerate_neg_group(
    model: ToricVarietyModel, alpha: DivisorClass, sigma: int
) -> list[tuple[int, ...]]:
    return counter_for(model).enumerate(alpha, sigma)


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
