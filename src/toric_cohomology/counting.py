"""Counting neg-groups: lattice vectors with prescribed class and negative support.

For a divisor class alpha and a coordinate subset sigma, the neg-group is
the set of integer vectors u with charge image alpha whose negative entries
sit exactly on sigma.  A class outside the charge lattice has an empty
fiber.  Otherwise u = u0 + K y over an integer kernel basis K of the charge
map, and the signs of u become rows `coeffs . y <= rhs` over y in Z^d.
One routine, `_circuits`, lists once per model the support-minimal
integer relations t (circuits) among the rows K_i.  As bit masks memoized
per class and per sigma they decide whether a fiber has a rational point
(Farkas' lemma; one AND of a class's kill mask and a sigma's fit mask)
and whether it recedes (Stiemke's lemma: the circuits that fit sigma
leave a coordinate uncovered); a receding fiber with a point is infinite.
Both tests rest on the conformal decomposition into circuits (Rockafellar
1969).  Fourier-Motzkin elimination only builds the levels of the fibers
left, which have rational points and do not recede.  A count walks such a
fiber over all but its last two kernel coordinates and sums
those two in closed form: per value of the second-to-last, the integer
range of the last is floor(min of upper lines) - ceil(max of lower lines)
+ 1, summed piecewise with a floor sum.  `enumerate` (and through it
`--breakdown`) walks every point instead, and is the count's reference.

A `NegGroupCounter` holds one model's kernel basis, its circuits and its
memos: recession and fit mask per sigma, base point and kill mask per
class, count per (class, sigma).  `dims` sums count * weights over the
(sigma, weights) terms the engine or the fan oracle passes it.  Its owner
is the model's `engine.CohomologyEngine`; `engine.counter_for` and the
`neg_group_count` / `enumerate_neg_group` helpers reach it there.

All arithmetic is exact; no floating point is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, Sequence

from ._bits import bitstring
from .errors import NonFiniteCohomologyError
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
ZERO = CountResult(0)


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


def _reduced_rows(rows):
    """Integer rows with the same solution space in reduced echelon form, zero rows dropped.

    Each pivot column is nonzero in its own row only.
    """
    pending, done = [list(r) for r in rows], []
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in pending if r[col]), None)
        if piv is None:
            continue
        pending.remove(piv)
        for part in (pending, done):
            for i, r in enumerate(part):
                if r[col]:
                    part[i] = _primitive([piv[col] * x - r[col] * y for x, y in zip(r, piv)])
        done.append(piv)
    return done


def _primitive(v):
    """v divided by the gcd of its entries."""
    g = math.gcd(*v) or 1
    return [x // g for x in v]


def _circuits(vectors: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The oriented circuits of `vectors`: each support-minimal primitive
    integer t != 0 with sum_i t_i vectors_i = 0, in both orientations.

    The conditions, one per coordinate of the vectors, are first brought to
    reduced echelon form.  Then, from the unit vectors, one row at a time:
    the circuits of the space L so far that satisfy the row stay, and each
    pair that does not gives the combination cancelling it.  Every circuit
    of L cut by the row's hyperplane H arises so, because the part of L
    supported on it has dimension at most 2, and the support-minimal
    candidates are exactly the circuits of L and H.  After k rows a circuit
    has at most k + 1 entries, which discards most pairs unbuilt.  In
    reduced echelon order the pivots of the rows to come are still free, so
    no intermediate list outgrows the final one by more than the rank.
    """
    n = len(vectors)
    rows = _reduced_rows(list(zip(*vectors)))
    found = {1 << i: tuple(int(i == j) for j in range(n)) for i in range(n)}  # support -> vector
    for k, h in enumerate(rows, 2):
        keep, cut = {}, []
        for supp, v in found.items():
            a = sum(x * y for x, y in zip(v, h))
            if a:
                cut.append((supp, v, a))
            else:
                keep[supp] = v
        fresh = {}
        for j, (s, v, a) in enumerate(cut):
            for t, w, b in cut[j + 1:]:
                if (s ^ t).bit_count() > k:  # entries outside s & t cannot cancel
                    continue
                c = tuple(b * x - a * y for x, y in zip(v, w))
                supp = sum(1 << i for i, x in enumerate(c) if x)
                if supp.bit_count() <= k:
                    fresh[supp] = c
        for supp in sorted(fresh, key=int.bit_count):
            if not any(t & supp == t for t in keep):
                c = _primitive(fresh[supp])
                keep[supp] = tuple(c) if next(filter(None, c)) > 0 else tuple(-x for x in c)
        found = keep
    return [o for v in found.values() for o in (v, tuple(-x for x in v))]


def recession_test(a: Sequence[Sequence[int]]) -> bool:
    """True iff A w = 0 admits a nonzero nonnegative rational solution.

    A nonzero solution w >= 0 is a positive sum of circuits of the columns
    of A conformal to it (Rockafellar 1969), so one exists iff some circuit
    is >= 0.
    """
    return any(min(t) >= 0 for t in _circuits(list(zip(*a))))


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
    """All integer points of {y : coeffs . y <= rhs}, lexicographic; the rows must not recede."""
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
    """The number of integer points of {y : coeffs . y <= rhs}; the rows must not recede."""
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
        self._fit: Dict[int, int] = {}
        self._base: Dict[DivisorClass, tuple[list[int] | None, int]] = {}
        self._counts: Dict[tuple[DivisorClass, int], CountResult] = {}

    @cached_property
    def _kernel_circuits(self):
        """The circuits t of the rows K_i, one orientation each, and the sign masks of both.

        Entry j of the list is (t, sum of its positive entries, sum of its
        negative entries negated); bit 2j of a mask stands for t and bit
        2j + 1 for -t.  Per coordinate i the masks hold the circuits with
        t_i >= 0 and those with t_i <= 0.
        """
        oriented = _circuits(self._rows)
        pairs = [(t, sum(x for x in t if x > 0), -sum(x for x in t if x < 0)) for t in oriented[::2]]
        masks = [
            (sum(1 << j for j, t in enumerate(oriented) if t[i] >= 0),
             sum(1 << j for j, t in enumerate(oriented) if t[i] <= 0))
            for i in range(self.model.n)
        ]
        return pairs, masks

    def recession(self, sigma: int) -> bool:
        """True iff the homogeneous sign rows of sigma admit some y != 0.

        By Stiemke's lemma they do not iff some t with sum t_i K_i = 0 has
        t_i > 0 on sigma and t_i < 0 off it.  Such a t is a sum of circuits
        that fit sigma, so it exists iff those circuits cover every
        coordinate.
        """
        rec = self._recession.get(sigma)
        if rec is None:
            fit = self._fit_mask(sigma)
            rec = self._recession[sigma] = any(
                not fit & ~(nonneg & nonpos) for nonneg, nonpos in self._kernel_circuits[1]
            )
        return rec

    def _class(self, alpha: DivisorClass):
        """(u0, kill) for a class: one integer point u0 of its fiber, None
        outside the charge lattice, and its kill mask, the oriented circuits
        t of the K rows with t . u0 + sum_(t_i > 0) t_i > 0."""
        entry = self._base.get(alpha)
        if entry is None:
            u0, kill = self._system.solve(list(alpha)), 0
            if u0 is not None:
                for j, (t, pos, neg) in enumerate(self._kernel_circuits[0]):
                    dot = sum(x * y for x, y in zip(t, u0))
                    if dot + pos > 0:
                        kill |= 1 << 2 * j
                    if neg - dot > 0:
                        kill |= 2 << 2 * j
            entry = self._base[alpha] = (u0, kill)
        return entry

    def _fit_mask(self, sigma: int) -> int:
        """The oriented circuits t of the K rows that fit sigma: t_i >= 0 on sigma, t_i <= 0 off it."""
        fit = self._fit.get(sigma)
        if fit is None:
            fit = -1
            for i, (nonneg, nonpos) in enumerate(self._kernel_circuits[1]):
                fit &= nonneg if sigma >> i & 1 else nonpos
            self._fit[sigma] = fit
        return fit

    def _inequalities(self, u0: Sequence[int], sigma: int):
        """Sign constraints on u = u0 + K y as rows (coeffs, rhs) over y."""
        return [
            (self._rows[i], -1 - u0[i]) if sigma >> i & 1  # u_i <= -1
            else (self._neg_rows[i], u0[i])  # u_i >= 0
            for i in range(self.model.n)
        ]

    def _fiber(self, alpha: DivisorClass, sigma: int):
        """The neg-group's sign rows over y: None if it is infinite, () if it is empty.

        By Farkas the rows are infeasible over Q iff a nonnegative
        combination of them reads 0 <= negative.  Its multipliers, signed by
        row, are a t with sum t_i K_i = 0 that fits sigma and has
        t . u0 + sum_(t_i > 0) t_i > 0, and by conformal decomposition a
        circuit does as well.  So the circuits decide emptiness with one
        AND of two masks, and recession, before any row is built.
        """
        u0, kill = self._class(alpha)
        if u0 is None:  # alpha is not in the charge lattice: no vectors at all
            return ()
        if kill & self._fit_mask(sigma):
            return ()
        if self.recession(sigma):
            return None
        return self._inequalities(u0, sigma)

    def count(self, alpha: DivisorClass, sigma: int) -> CountResult:
        key = (tuple(alpha), sigma)
        result = self._counts.get(key)
        if result is None:
            rows = self._fiber(*key)
            if rows is None:
                result = INFINITE
            else:
                value = _lattice_count(rows, self._d) if rows else 0
                result = CountResult(value) if value else ZERO
            self._counts[key] = result
        return result

    def dims(self, alpha: DivisorClass, terms) -> tuple[int, ...]:
        """h^0..h^d of alpha: count(alpha, sigma) * weights summed over `terms`.

        A sigma the class's kill mask empties is skipped before `count`, so
        it leaves no memo entry.  An infinite count raises
        `NonFiniteCohomologyError`.
        """
        alpha = tuple(alpha)
        model = self.model
        if len(alpha) != model.num_classes:
            raise ValueError(f"divisor class needs {model.num_classes} entries, got {len(alpha)}")
        dims = [0] * (model.dim + 1)
        u0, kill = self._class(alpha)
        if u0 is None:  # alpha is not in the charge lattice: every count is 0
            return tuple(dims)
        for sigma, weights in terms:
            if kill & self._fit_mask(sigma):
                continue
            count = self.count(alpha, sigma)
            if count.is_infinite:
                raise NonFiniteCohomologyError(
                    "non-finite cohomology: infinite neg-group at degree "
                    f"{bitstring(sigma, model.n)} with nonzero multiplicity "
                    "(input fan likely not complete)"
                )
            for i, w in enumerate(weights):
                dims[i] += count.value * w
        return tuple(dims)

    def enumerate(self, alpha: DivisorClass, sigma: int):
        """The explicit exponent vectors of a finite neg-group, lexicographic."""
        alpha = tuple(alpha)
        rows = self._fiber(alpha, sigma)
        if rows is None:
            raise ValueError("cannot enumerate an infinite neg-group")
        if not rows:
            return []
        u0 = self._class(alpha)[0]
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
