"""The lcm lattice of the Stanley-Reisner generators.

The squarefree degrees that can carry a multiplicity factor are the unions
of generator supports (Gasharov-Peeva-Welker: the Betti numbers of a
monomial ideal live on its lcm lattice).  They are collected by union
closure, one generator at a time, so the work is proportional to the
lattice size rather than to the 2^t generator subsets.  The lattice only
lists the degrees to visit (a degree's factors need the generators alone);
the scan runs once per model and is reused for every line bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Sequence

from .errors import ModelError

MAX_DEGREES = 1 << 16


@dataclass
class DegreeSet:
    """The lcm lattice: every union of generator supports, including 0."""

    n: int
    supports: tuple[int, ...]
    lattice: set[int]

    def degrees(self) -> list[int]:
        return sorted(self.lattice)

    def __contains__(self, degree: int) -> bool:
        return degree in self.lattice

    @cached_property
    def entries(self) -> Dict[int, Dict[int, list[int]]]:
        """{degree: {|tau|: [tau]}}, tau masking the supports inside it; built on first read."""
        entries = {}
        for deg in self.lattice:
            tau = sum(1 << i for i, g in enumerate(self.supports) if g & ~deg == 0)
            entries[deg] = {bin(tau).count("1"): [tau]}
        return entries


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
    return DegreeSet(n=n, supports=supports, lattice=lattice)
