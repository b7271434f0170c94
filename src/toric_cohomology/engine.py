"""Assembly of the cohomology dimension formula, with breakdowns and self-checks.

For each squarefree degree with a nonzero multiplicity factor map, the
neg-group count of its support is weighted into h^(|sigma| - r).  By
default the sum runs over every scanned degree with nonzero factors: on
complete fans this coincides with the dual-degree-filtered sum (the
factors of filtered-out degrees vanish), while on defective input it
surfaces a divergent term as a hard error instead of silently dropping it.
The filtered variant is available for the debug equivalence check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence

from ._bits import bitstring
from .counting import CountResult, NegGroupCounter, counter_for
from .errors import NonFiniteCohomologyError
from .model import DivisorClass, ToricVarietyModel, canonical_class
from .multiplicity import MultiplicityTable, multiplicity_table
from .srscan import DegreeSet, contributing_degrees, scan_powerset


@dataclass
class BreakdownEntry:
    """One degree's contribution to a cohomology vector."""

    degree: int
    support_size: int
    count: CountResult
    factors: Dict[int, int]
    contrib: Dict[int, int]


@dataclass
class CohomologyResult:
    alpha: DivisorClass
    dims: tuple[int, ...]
    breakdown: list[BreakdownEntry] = field(default_factory=list)


class CohomologyEngine:
    """Caches the alpha-independent combinatorics of one model.

    The degree scan and the multiplicity table are built once on first use;
    neg-group counts are memoized inside the shared per-model counter.
    """

    def __init__(self, model: ToricVarietyModel):
        self.model = model
        self._degree_set: DegreeSet | None = None
        self._table: MultiplicityTable | None = None
        self.counter: NegGroupCounter = counter_for(model)

    @property
    def degree_set(self) -> DegreeSet:
        if self._degree_set is None:
            self._degree_set = scan_powerset(self.model.sr_generators, self.model.n)
        return self._degree_set

    @property
    def table(self) -> MultiplicityTable:
        if self._table is None:
            self._table = multiplicity_table(self.degree_set, self.degree_set.degrees())
        return self._table

    def _active_degrees(self, dual_filter: bool) -> list[int]:
        degrees = contributing_degrees(self.degree_set) if dual_filter \
            else self.degree_set.degrees()
        return [deg for deg in degrees if self.table.factors(deg)]

    def cohomology(self, alpha: DivisorClass, dual_filter: bool = False) -> CohomologyResult:
        """h^0..h^d of the line bundle selected by alpha, with breakdown.

        dual_filter=True restricts the sum to degrees whose complement
        degree also occurs (the reduced algorithm formula); the default
        keeps every degree with nonzero factors, which is equivalent on
        complete fans and safe on anything else.
        """
        alpha = tuple(alpha)
        if len(alpha) != self.model.num_classes:
            raise ValueError(
                f"divisor class needs {self.model.num_classes} entries, got {len(alpha)}"
            )
        d = self.model.dim
        dims = [0] * (d + 1)
        breakdown = []
        for deg in self._active_degrees(dual_filter):
            factors = self.table.factors(deg)
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
            breakdown.append(BreakdownEntry(deg, size, count, dict(factors), contrib))
        return CohomologyResult(alpha=alpha, dims=tuple(dims), breakdown=breakdown)

    def cohomology_all(
        self, alphas: Iterable[Sequence[int]], dual_filter: bool = False
    ) -> list[CohomologyResult]:
        return [self.cohomology(a, dual_filter=dual_filter) for a in alphas]

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

    def filter_equivalence(self, alpha: DivisorClass) -> bool:
        """Debug check: filtered and unfiltered sums agree (complete fans)."""
        return (
            self.cohomology(alpha, dual_filter=True).dims
            == self.cohomology(alpha, dual_filter=False).dims
        )


_engines: Dict[ToricVarietyModel, CohomologyEngine] = {}


def engine_for(model: ToricVarietyModel) -> CohomologyEngine:
    if model not in _engines:
        _engines[model] = CohomologyEngine(model)
    return _engines[model]


def cohomology(model: ToricVarietyModel, alpha: Sequence[int], **kw) -> CohomologyResult:
    return engine_for(model).cohomology(tuple(alpha), **kw)


def cohomology_all(model: ToricVarietyModel, alphas: Iterable[Sequence[int]], **kw):
    return engine_for(model).cohomology_all(alphas, **kw)


def serre_check(model: ToricVarietyModel, alpha: Sequence[int]):
    return engine_for(model).serre_check(tuple(alpha))
