"""Independent verification route through the fan complex.

Sums neg-group counts against reduced homology of restrictions of the fan
complex over all coordinate subsets, bypassing the Stanley-Reisner lcm
lattice entirely.  Also provides the Hochster cross-check tying the
multiplicity factors to restriction homology, including the vanishing
assertions for degrees outside the scanned degree set.

A model's `FanOracle` is owned by its engine (`engine_for(model).oracle`)
and counts through the engine's counter (`counter_for`), so the fan
route and the engine share one count memo.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Sequence

from ._bits import bitstring, complement
from .engine import counter_for, engine_for
from .errors import ModelError, NonFiniteCohomologyError
from .model import DivisorClass, ToricVarietyModel
from .simplicial import FaceSet, reduced_homology, restrict

MAX_SCAN_VERTICES = 20
# hochster_check's seeded sample of the degrees outside the degree set
HOCHSTER_SAMPLE = 200
HOCHSTER_SEED = 0


def fan_complex(model: ToricVarietyModel) -> FaceSet:
    """Downward closure of the maximal cones, with the empty face included."""
    if model.max_cones is None:
        raise ModelError("fan data (max_cones) absent")
    return FaceSet.closure(model.n, model.max_cones)


@dataclass
class HochsterReport:
    checked: int = 0
    vanishing_checked: int = 0
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


class FanOracle:
    """Fan-route computations for one model, with cached restriction homology."""

    def __init__(self, model: ToricVarietyModel):
        if model.max_cones is None:
            raise ModelError("fan data (max_cones) absent")
        if model.n > MAX_SCAN_VERTICES:
            raise ModelError(
                f"fan-route scan needs 2^n subsets; n={model.n} exceeds {MAX_SCAN_VERTICES}"
            )
        self.model = model
        self.complex = fan_complex(model)
        self.counter = counter_for(model)
        self._homology: Dict[int, Dict[int, int]] = {}

    def restriction_homology(self, sigma: int) -> Dict[int, int]:
        """Reduced homology dims of the fan complex restricted to `sigma`."""
        if sigma not in self._homology:
            self._homology[sigma] = reduced_homology(restrict(self.complex, sigma))
        return self._homology[sigma]

    @cached_property
    def terms(self) -> list[tuple[int, tuple[int, ...]]]:
        """(sigma, weights into h^0..h^d) for every subset with nonzero weights."""
        n, d = self.model.n, self.model.dim
        terms = []
        for sigma in range(1 << n):
            hom = self.restriction_homology(complement(sigma, n))
            weights = tuple(hom.get(d - i - 1, 0) for i in range(d + 1))
            if any(weights):
                terms.append((sigma, weights))
        return terms

    def cohomology_via_fan(self, alpha: DivisorClass) -> tuple[int, ...]:
        """h^0..h^d by the collected local-cohomology formula over all subsets."""
        alpha = tuple(alpha)
        if len(alpha) != self.model.num_classes:
            raise ValueError(
                f"divisor class needs {self.model.num_classes} entries, got {len(alpha)}"
            )
        dims = [0] * (self.model.dim + 1)
        for sigma, weights in self.terms:
            count = self.counter.count(alpha, sigma)
            if count.is_infinite:
                raise NonFiniteCohomologyError(
                    "non-finite cohomology: infinite neg-group at sigma "
                    f"{bitstring(sigma, self.model.n)} with nonzero restriction homology"
                )
            for i, w in enumerate(weights):
                dims[i] += count.value * w
        return tuple(dims)

    def hochster_check(self) -> HochsterReport:
        """Compare multiplicity factors with restriction homology degree by degree.

        For every scanned degree the factor map must match the Hochster-side
        dims; for degrees outside the scan (all of them, or a sample of
        HOCHSTER_SAMPLE seeded by HOCHSTER_SEED when there are more) all
        restriction homology must vanish.
        Model validation makes the fan complex the Stanley-Reisner complex,
        so this checks the component split, class merge, crosscut and face
        listing, not an independent derivation (see tests/util.py).
        """
        n = self.model.n
        table = engine_for(self.model).table
        report = HochsterReport()
        for deg, factors in table.items():
            size = bin(deg).count("1")
            hom = self.restriction_homology(deg)
            hochster = {
                r: hom[size - r - 1]
                for r in range(0, size + 1)
                if hom.get(size - r - 1)
            }
            report.checked += 1
            if hochster != factors:
                report.mismatches.append(
                    f"degree {bitstring(deg, n)}: factor table {factors} "
                    f"!= Hochster {hochster}"
                )
        outside = [m for m in range(1 << n) if m not in table]
        if len(outside) > HOCHSTER_SAMPLE:
            outside = random.Random(HOCHSTER_SEED).sample(outside, HOCHSTER_SAMPLE)
        for deg in outside:
            hom = self.restriction_homology(deg)
            report.vanishing_checked += 1
            if hom:
                report.mismatches.append(
                    f"degree {bitstring(deg, n)} outside the degree set has "
                    f"nonvanishing restriction homology {hom}"
                )
        return report


def oracle_for(model: ToricVarietyModel) -> FanOracle:
    return engine_for(model).oracle


def cohomology_via_fan(model: ToricVarietyModel, alpha: Sequence[int]) -> tuple[int, ...]:
    return oracle_for(model).cohomology_via_fan(tuple(alpha))


def hochster_check(model: ToricVarietyModel) -> HochsterReport:
    return oracle_for(model).hochster_check()
