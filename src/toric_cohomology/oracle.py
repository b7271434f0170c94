"""Independent verification route through the fan complex.

Weights neg-group counts by reduced homology of restrictions of the fan
complex over all coordinate subsets, bypassing the Stanley-Reisner lcm
lattice entirely.  One sweep visits the 2^n subsets, each after its
parent (itself plus one vertex).  A subset that keeps the cone apex of its
parent's restriction is a cone too, so it is acyclic without being
restricted; only the others are restricted, and only those that are not
cones are ranked (P1^5: 94 and 32 of 1,024).  Also provides the Hochster
cross-check tying the multiplicity factors to restriction homology,
including the vanishing assertions for degrees outside the scanned degree
set.

A `FanOracle` is built on one engine (`CohomologyEngine.oracle`).  Only
its weights (`terms`) are its own: the engine's counter sums them with
`dims`, as it sums the engine's, and shares one count memo between both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Sequence

from ._bits import bits, bitstring, complement
from .engine import CohomologyEngine, engine_for
from .engine import counter_for  # noqa: F401  no caller here; bench/spans.py wraps this name
from .errors import ModelError
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

    def __init__(self, engine: CohomologyEngine | ToricVarietyModel):
        if isinstance(engine, ToricVarietyModel):  # bench/make_refs.py passes a bare model
            engine = CohomologyEngine(engine)
        model = engine.model
        # the bound comes first: the closure below has up to 2^n faces, and
        # the sweep of `terms` keeps one byte per subset
        if model.n > MAX_SCAN_VERTICES:
            raise ModelError(
                "the fan route sweeps all 2^n coordinate subsets; "
                f"n={model.n} exceeds {MAX_SCAN_VERTICES}"
            )
        self.engine = engine
        self.model = model
        self.complex = fan_complex(model)
        self.counter = engine.counter
        # non-acyclic restrictions only; after the sweep every other subset is acyclic
        self._homology: Dict[int, Dict[int, int]] = {}
        self._apex: Dict[int, int] = {}  # restrictions found to be cones -> their apex
        self._swept = False

    def restriction_homology(self, sigma: int) -> Dict[int, int]:
        """Reduced homology dims of the fan complex restricted to `sigma`.

        A restriction that is a cone records its apex (a vertex of sigma)
        in `_apex`, for the sweep of `terms` to hand down.
        """
        hom = self._homology.get(sigma)
        if hom is not None or self._swept or sigma in self._apex:
            return hom or {}
        delta = restrict(self.complex, sigma)
        if delta.cone_apex >= 0:
            self._apex[sigma] = list(bits(sigma))[delta.cone_apex]
            return {}
        hom = reduced_homology(delta)
        if hom:
            self._homology[sigma] = hom
        return hom

    def _sweep(self) -> None:
        """Restriction homology of every subset, each parent before its children.

        A subset's parent adds back its lowest missing vertex, so it is
        larger and comes first in decreasing order.  If the parent's
        restriction is a cone with apex a, so is that of a child keeping a:
        for a face f of the child, f | a is a face of the parent inside the
        child.  Such a child is acyclic and takes no restriction; the others
        go through `restriction_homology`, whose cone test finds the apex
        that their own children inherit.
        """
        full = (1 << self.model.n) - 1
        apex = bytearray(full + 1)  # apex + 1 per subset, 0 if none
        for sigma in range(full, -1, -1):
            a = apex[(sigma | sigma + 1) & full] - 1  # the full set reads its own 0
            if a < 0 or not sigma >> a & 1:
                self.restriction_homology(sigma)
                a = self._apex.get(sigma, -1)
            apex[sigma] = a + 1
        self._swept = True

    @cached_property
    def terms(self) -> list[tuple[int, tuple[int, ...]]]:
        """(sigma, weights into h^0..h^d) for every subset with nonzero weights.

        Sigma's weights are read from the restriction to its complement.
        """
        self._sweep()
        n, d = self.model.n, self.model.dim
        terms = []
        for rest, hom in self._homology.items():
            weights = tuple(hom.get(d - i - 1, 0) for i in range(d + 1))
            if any(weights):
                terms.append((complement(rest, n), weights))
        return sorted(terms)

    def cohomology_via_fan(self, alpha: DivisorClass) -> tuple[int, ...]:
        """h^0..h^d by the collected local-cohomology formula over all subsets."""
        return self.counter.dims(alpha, self.terms)

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
        table = self.engine.table
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
