"""Assembly of the cohomology dimension formula, with breakdowns and self-checks.

For each squarefree degree with a nonzero multiplicity factor map, the
neg-group count of its support is weighted into h^(|sigma| - r).  The sum
runs over every lcm-lattice degree with nonzero factors.  On a complete
fan each of them has its complement degree in the lattice too (the
vanishing theorem: the factors of every other degree are zero), so this
is the paper's dual-degree sum; on defective input a divergent term
surfaces as a hard error instead of being silently dropped.

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

from ._bits import bitstring
from .counting import CountResult, NegGroupCounter
from .errors import NonFiniteCohomologyError
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
    contrib: Dict[int, int]


@dataclass
class CohomologyResult:
    alpha: DivisorClass
    dims: tuple[int, ...]
    breakdown: list[BreakdownEntry] = field(default_factory=list)


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
        return multiplicity_table(self.degree_set)

    @cached_property
    def oracle(self) -> FanOracle:
        from .oracle import FanOracle  # imported here: oracle.py imports this module

        return FanOracle(self)

    def cohomology(self, alpha: DivisorClass) -> CohomologyResult:
        """h^0..h^d of the line bundle selected by alpha, with breakdown."""
        alpha = tuple(alpha)
        if len(alpha) != self.model.num_classes:
            raise ValueError(
                f"divisor class needs {self.model.num_classes} entries, got {len(alpha)}"
            )
        d = self.model.dim
        dims = [0] * (d + 1)
        breakdown = []
        for deg, factors in self.table.items():
            if not factors:
                continue
            count = self.counter.count(alpha, deg)
            if count.is_infinite:
                raise NonFiniteCohomologyError(
                    "non-finite cohomology: infinite neg-group at degree "
                    f"{bitstring(deg, self.model.n)} with nonzero multiplicity "
                    "(input fan likely not complete)"
                )
            size = bin(deg).count("1")
            contrib: Dict[int, int] = {}
            for r, beta in factors.items():
                i = size - r
                if not 0 <= i <= d:
                    raise NonFiniteCohomologyError(
                        f"multiplicity factor lands outside cohomological range (i={i})"
                    )
                if count.value:
                    contrib[i] = contrib.get(i, 0) + count.value * beta
                    dims[i] += count.value * beta
            breakdown.append(BreakdownEntry(deg, count, dict(factors), contrib))
        return CohomologyResult(alpha=alpha, dims=tuple(dims), breakdown=breakdown)

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
