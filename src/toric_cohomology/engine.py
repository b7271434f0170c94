"""Assembly of the cohomology dimension formula, with breakdowns and self-checks.

For each squarefree degree with a nonzero multiplicity factor map, the
neg-group count of its support is weighted into h^(|sigma| - r).  A
degree's factors are zero unless the generators inside it cover it (the
vanishing theorem), so the lcm lattice only lists the degrees to visit.
On a complete fan each with nonzero factors has its complement there too,
so this is the paper's dual-degree sum; on defective input a divergent
term surfaces as a hard error instead of being silently dropped.

The engine only sums, through `NegGroupCounter.dims`, the one loop that
turns counts into an h-vector.  `terms` feeds it (degree, weights into
h^0..h^d), built once per model; the fan oracle feeds
it its own.  `dims` counts only the terms that the class's kill mask
leaves alive, from a list kept per term list and kill mask, so classes
that share a mask share the scan.  A `CohomologyResult` keeps its engine
and lists the per-degree `breakdown` the first time it is read, from the
engine's factor table and memoized counts; nothing is built for a class
whose breakdown nobody reads.

Per-model state has one owner.  A `CohomologyEngine` holds the model's
degree scan, factor table and neg-group counter, and builds its
`FanOracle` on first use.  `engine_for` keeps one engine per model;
`counter_for` and `oracle.oracle_for` read through it.  The oracle takes
its counter and factor table from the engine that built it, so the
fan-route check reuses that engine's counts instead of counting every
class twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Sequence

from .counting import CountResult, NegGroupCounter
from .model import DivisorClass, ToricVarietyModel, canonical_class
from .multiplicity import multiplicity_table
from .srscan import DegreeSet, scan_powerset

if TYPE_CHECKING:
    from .oracle import FanOracle


@dataclass
class BreakdownEntry:
    """One degree's contribution to a cohomology vector."""

    degree: int
    count: CountResult
    factors: Dict[int, int]

    @property
    def contrib(self) -> Dict[int, int]:
        """{i: count * beta} with i = |degree| - r; empty for a zero count."""
        value = self.count.value
        if not value:
            return {}
        size = bin(self.degree).count("1")
        return {size - r: value * beta for r, beta in self.factors.items()}


@dataclass
class CohomologyResult:
    alpha: DivisorClass
    dims: tuple[int, ...]
    engine: CohomologyEngine = field(repr=False, compare=False)

    @cached_property
    def breakdown(self) -> list[BreakdownEntry]:
        """One entry per lattice degree with nonzero factors, in degree order."""
        count = self.engine.counter.count
        return [
            BreakdownEntry(deg, count(self.alpha, deg), dict(factors))
            for deg, factors in self.engine.table.items()
            if factors
        ]


class CohomologyEngine:
    """Owns the alpha-independent state of one model.

    The degree scan, the multiplicity table and the fan oracle are built
    once on first use; neg-group counts are memoized in the engine's own
    counter.
    """

    def __init__(self, model: ToricVarietyModel):
        self.model = model
        self.counter = NegGroupCounter(model)

    @cached_property
    def degree_set(self) -> DegreeSet:
        return scan_powerset(self.model.sr_generators, self.model.n)

    @cached_property
    def table(self) -> Dict[int, Dict[int, int]]:
        """{degree: {r: beta}} over the lcm lattice, in degree order."""
        return multiplicity_table(self.model.sr_generators, self.degree_set.degrees())

    @cached_property
    def oracle(self) -> FanOracle:
        from .oracle import FanOracle  # imported here: oracle.py imports this module

        return FanOracle(self)

    @cached_property
    def terms(self) -> list[tuple[int, tuple[int, ...]]]:
        """(degree, weights into h^0..h^d) per table degree with nonzero factors.

        Beta at r weights h^(|degree| - r), in 0..d as every maximal face has d vertices.
        """
        d = self.model.dim
        terms = []
        for deg, factors in self.table.items():
            weights = [0] * (d + 1)
            for r, beta in factors.items():
                weights[deg.bit_count() - r] = beta
            if factors:
                terms.append((deg, tuple(weights)))
        return terms

    def cohomology(self, alpha: DivisorClass) -> CohomologyResult:
        """h^0..h^d of the line bundle selected by alpha.

        Raises `NonFiniteCohomologyError` when a degree with nonzero factors
        has an infinite neg-group.
        """
        alpha = tuple(alpha)
        return CohomologyResult(alpha, self.counter.dims(alpha, self.terms), self)

    def serre_check(self, alpha: DivisorClass):
        """Compare h^i(alpha) against h^(d-i)(K - alpha); returns (ok, report)."""
        alpha = tuple(alpha)
        k = canonical_class(self.model)
        dual = tuple(ki - ai for ki, ai in zip(k, alpha))
        left = self.cohomology(alpha).dims
        right = self.cohomology(dual).dims
        ok = left == tuple(reversed(right))
        report = {
            "alpha": alpha,
            "serre_dual": dual,
            "h_alpha": left,
            "h_dual": right,
            "ok": ok,
        }
        return ok, report


_engines: Dict[ToricVarietyModel, CohomologyEngine] = {}


def engine_for(model: ToricVarietyModel) -> CohomologyEngine:
    if model not in _engines:
        _engines[model] = CohomologyEngine(model)
    return _engines[model]


def counter_for(model: ToricVarietyModel) -> NegGroupCounter:
    return engine_for(model).counter


def neg_group_count(model: ToricVarietyModel, alpha: DivisorClass, sigma: int) -> CountResult:
    """|(alpha, sigma)|: lattice vectors of class alpha with negative support sigma."""
    return counter_for(model).count(alpha, sigma)


def enumerate_neg_group(
    model: ToricVarietyModel, alpha: DivisorClass, sigma: int
) -> list[tuple[int, ...]]:
    return counter_for(model).enumerate(alpha, sigma)


def cohomology(model: ToricVarietyModel, alpha: Sequence[int]) -> CohomologyResult:
    return engine_for(model).cohomology(tuple(alpha))


def serre_check(model: ToricVarietyModel, alpha: Sequence[int]):
    return engine_for(model).serre_check(tuple(alpha))
