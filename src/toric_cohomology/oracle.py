"""Independent verification route through the fan complex.

Weights neg-group counts by reduced homology of restrictions of the fan
complex over all coordinate subsets, bypassing the Stanley-Reisner lcm
lattice entirely.  One sweep visits the 2^n subsets, each after its parent
(itself plus one vertex), and keeps the non-acyclic restrictions in one
map.  A restriction keeps the fan complex's vertex labels, so its cone
apex is a coordinate, and a subset that keeps the apex of its parent's
restriction is a cone too: it is acyclic without being restricted.  Only
the others are restricted, and only those that are not cones are ranked
(P1^5: 94 and 32 of 1,024).  The Hochster cross-check compares the
multiplicity factor table with that map on every subset: each lattice
degree by Hochster's formula, every other subset as acyclic.

A `FanOracle` is built on one engine (`CohomologyEngine.oracle`).  Only
its weights (`terms`) are its own: the engine's counter sums them with
`dims`, as it sums the engine's, and shares one count memo between both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Sequence

from ._bits import bitstring, complement
from .engine import CohomologyEngine, engine_for
from .engine import counter_for  # noqa: F401  no caller here; bench/spans.py wraps this name
from .errors import ModelError
from .model import DivisorClass, ToricVarietyModel
from .simplicial import FaceSet, reduced_homology, restrict

MAX_SCAN_VERTICES = 20


def fan_complex(model: ToricVarietyModel) -> FaceSet:
    """Downward closure of the maximal cones (given or derived), with the empty face included."""
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
    """Fan-route computations for one model, over one swept homology map."""

    def __init__(self, engine: CohomologyEngine | ToricVarietyModel):
        if isinstance(engine, ToricVarietyModel):  # bench/make_refs.py passes a bare model
            engine = CohomologyEngine(engine)
        model = engine.model
        # the bound comes first: the closure below has up to 2^n faces, and
        # the sweep of `_homology` keeps one byte per subset
        if model.n > MAX_SCAN_VERTICES:
            raise ModelError(
                "the fan route sweeps all 2^n coordinate subsets; "
                f"n={model.n} exceeds {MAX_SCAN_VERTICES}"
            )
        self.engine = engine
        self.model = model
        self.complex = fan_complex(model)
        self.counter = engine.counter
        self._apex = -1  # the last restriction's cone apex, -1 if it was no cone

    def restriction_homology(self, sigma: int) -> Dict[int, int]:
        """Reduced homology dims of the fan complex restricted to `sigma`.

        A restriction that is a cone is acyclic; its apex (a vertex of
        sigma) is left in `_apex` for the sweep of `_homology` to hand down.
        """
        delta = restrict(self.complex, sigma)
        self._apex = delta.cone_apex
        return {} if self._apex >= 0 else reduced_homology(delta)

    @cached_property
    def _homology(self) -> Dict[int, Dict[int, int]]:
        """{sigma: reduced homology of the restriction to sigma}, non-acyclic ones only.

        One sweep, each subset after its parent, which adds back its lowest
        missing vertex and so is larger and comes first in decreasing
        order.  If the parent's restriction is a cone with apex a, so is
        that of a child keeping a: for a face f of the child, f | a is a
        face of the parent inside the child.  Such a child is acyclic and
        takes no restriction; the others go through `restriction_homology`,
        whose cone test finds the apex that their own children inherit.
        """
        full = (1 << self.model.n) - 1
        apex = bytearray(full + 1)  # apex + 1 per subset, 0 if none
        homology = {}
        for sigma in range(full, -1, -1):
            a = apex[(sigma | sigma + 1) & full] - 1  # the full set reads its own 0
            if a < 0 or not sigma >> a & 1:
                hom = self.restriction_homology(sigma)
                if hom:
                    homology[sigma] = hom
                a = self._apex
            apex[sigma] = a + 1
        return homology

    @cached_property
    def terms(self) -> list[tuple[int, tuple[int, ...]]]:
        """(sigma, weights into h^0..h^d) for every subset with nonzero weights.

        Sigma's weights are read from the restriction to its complement.
        """
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
        """Compare the factor table with the swept homology map on every subset.

        A lattice degree's factors must be Hochster's re-indexing of the
        homology of the restriction to it (`checked`); every other subset
        must restrict to an acyclic complex (`vanishing_checked`, that is
        2^n less the lattice).
        Model validation makes the fan complex the Stanley-Reisner complex,
        so this checks the component split, class merge, crosscut and face
        listing, not an independent derivation (see tests/util.py).
        """
        n = self.model.n
        table, homology = self.engine.table, self._homology
        report = HochsterReport(checked=len(table), vanishing_checked=(1 << n) - len(table))
        for deg in sorted(table.keys() | homology.keys()):
            hom = homology.get(deg, {})
            if deg not in table:
                report.mismatches.append(
                    f"degree {bitstring(deg, n)} outside the degree set has "
                    f"nonvanishing restriction homology {hom}"
                )
                continue
            size = deg.bit_count()
            hochster = {size - j - 1: h for j, h in hom.items()}
            if hochster != table[deg]:
                report.mismatches.append(
                    f"degree {bitstring(deg, n)}: factor table {table[deg]} "
                    f"!= Hochster {hochster}"
                )
        return report


def oracle_for(model: ToricVarietyModel) -> FanOracle:
    return engine_for(model).oracle


def cohomology_via_fan(model: ToricVarietyModel, alpha: Sequence[int]) -> tuple[int, ...]:
    return oracle_for(model).cohomology_via_fan(tuple(alpha))


def hochster_check(model: ToricVarietyModel) -> HochsterReport:
    return oracle_for(model).hochster_check()
