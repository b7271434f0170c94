"""The lcm lattice of the Stanley-Reisner generators.

The squarefree degrees that can carry a multiplicity factor are the unions
of generator supports (Gasharov-Peeva-Welker: the Betti numbers of a
monomial ideal live on its lcm lattice).  They are collected by union
closure, one generator at a time, so the work is proportional to the
lattice size rather than to the 2^t generator subsets.  This is the
alpha-independent combinatorial part of the algorithm; the scan is
performed once per model and reused for every line bundle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

from .errors import ModelError

MAX_DEGREES = 1 << 16


@dataclass
class DegreeSet:
    """The lcm lattice: every union of generator supports, including 0.

    entries maps a squarefree degree (vertex bitmask over [n]) to
    {cardinality: [tau]}, where tau is the mask over [t] of all generators
    contained in the degree (the one canonical subset realizing it).
    """

    n: int
    t: int
    supports: tuple[int, ...]
    entries: Dict[int, Dict[int, list[int]]] = field(default_factory=dict)

    def degrees(self) -> list[int]:
        return sorted(self.entries)

    def __contains__(self, degree: int) -> bool:
        return degree in self.entries


def scan_powerset(sr_generators: Sequence[int], n: int) -> DegreeSet:
    """Union closure of the generator supports, bounded by MAX_DEGREES.

    Raises ModelError once the lattice outgrows the bound, before it is
    complete.
    """
    supports = tuple(sorted(sr_generators))
    lattice = {0}
    for g in supports:
        lattice.update([x | g for x in lattice])
        if len(lattice) > MAX_DEGREES:
            raise ModelError(
                f"the lcm lattice of the {len(supports)} Stanley-Reisner "
                f"generators has more than {MAX_DEGREES} degrees"
            )
    entries = {}
    for deg in lattice:
        tau = sum(1 << i for i, g in enumerate(supports) if g & ~deg == 0)
        entries[deg] = {bin(tau).count("1"): [tau]}
    return DegreeSet(n=n, t=len(supports), supports=supports, entries=entries)
