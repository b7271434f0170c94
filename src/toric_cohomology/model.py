"""Toric variety input data: parsing, validation, derived combinatorics.

The input datum is the charge matrix (one row of GLSM charges per
homogeneous coordinate) together with the combinatorics of the fan, given
either as Stanley-Reisner generator supports, as maximal cones, or both;
the two are Alexander duals.  Ray coordinates are never needed.  A
document runs Berge's step (`sr_from_max_cones`) once: on the cones when
they are given, and otherwise on the generators' complements, to derive
the maximal faces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

from ._bits import bits, complement, mask_from_1based, to_1based
from .errors import ModelError
from .exact_linalg import integer_rank
from .srscan import MAX_DEGREES

MAX_VERTICES = 63

DivisorClass = tuple[int, ...]


def sr_from_max_cones(max_cones: Sequence[int], n: int) -> list[int]:
    """Minimal Stanley-Reisner generator supports from the maximal cones.

    The Stanley-Reisner ideal is the Alexander dual of the irrelevant ideal,
    whose generators are the complements of the maximal cones: its generators
    are the minimal sets meeting every complement, the minimal non-faces of
    the fan complex.  Berge's step builds them one complement C at a time,
    from [0]: a set that meets C stays, a set that misses C grows by each
    vertex of C, and a grown set containing a kept set is dropped.  A grown
    set has one vertex in C, the one it grew by, so a grown set inside
    another would put one set of the previous step inside another: grown
    sets need no check among themselves.  Raises ModelError once the list
    (the minimal non-faces of the cones so far) passes MAX_DEGREES: t
    generators span at least t + 1 degrees, which the scan refuses past it.
    """
    if not max_cones:
        raise ModelError("empty maximal cone list")
    gens = [0]
    for cone in max_cones:
        comp = complement(cone, n)
        kept = [g for g in gens if g & comp]
        grown = (g | 1 << i for g in gens if not g & comp for i in bits(comp))
        gens = kept + [h for h in grown if not any(k & h == k for k in kept)]
        if len(gens) > MAX_DEGREES:
            raise ModelError(f"max_cones: the Stanley-Reisner derivation passed {MAX_DEGREES} sets")
    return sorted(gens)


@dataclass(frozen=True)
class ToricVarietyModel:
    """Immutable description of a simplicial projective toric variety.

    Vertex subsets (generator supports, maximal cones) are bitmasks over the
    coordinates, 0-based internally.  Validation derives a None `max_cones`
    or `sr_generators` from the other, so every built model holds both.

    Given cones, each with `dim` vertices and none listed twice, yield the
    generators, which must equal any given ones.  Given generators alone
    yield the maximal faces, which must have `dim` vertices each.  Deriving
    the generators back from those faces would give the distinct minimal
    given generators, since the blocker of the blocker of a family is its
    minimal sets (Edmonds-Fulkerson); so instead of that second pass the
    given list is checked for a generator that repeats or contains another.
    """

    coordinate_names: tuple[str, ...]
    dim: int
    charges: tuple[tuple[int, ...], ...]
    sr_generators: tuple[int, ...] | None = None
    max_cones: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "coordinate_names", tuple(self.coordinate_names))
        object.__setattr__(self, "charges", tuple(tuple(r) for r in self.charges))
        if self.sr_generators is None and self.max_cones is None:
            raise ModelError(
                "Stanley-Reisner generators (sr_ideal) or maximal cones (max_cones) are required"
            )
        if self.sr_generators is not None:
            object.__setattr__(self, "sr_generators", tuple(sorted(self.sr_generators)))
        if self.max_cones is not None:
            object.__setattr__(self, "max_cones", tuple(sorted(self.max_cones)))
        self._validate()

    @property
    def n(self) -> int:
        return len(self.coordinate_names)

    @property
    def num_classes(self) -> int:
        """Rank of the divisor class group, n - d."""
        return self.n - self.dim

    @property
    def t(self) -> int:
        return len(self.sr_generators)

    def _validate(self) -> None:
        n = self.n
        if n == 0:
            raise ModelError("no coordinates given")
        if n > MAX_VERTICES:
            raise ModelError(f"at most {MAX_VERTICES} coordinates supported, got {n}")
        if len(set(self.coordinate_names)) != n:
            raise ModelError("duplicate coordinate names")
        if not _is_int(self.dim):
            raise ModelError("dimension must be an integer")
        # a complete fan of dimension d >= 1 has at least d + 1 rays
        if not 0 <= self.dim < n:
            raise ModelError(f"dimension {self.dim} out of range 0..{n - 1} for {n} coordinates")
        k = self.num_classes
        if len(self.charges) != n:
            raise ModelError(f"expected {n} charge rows, got {len(self.charges)}")
        for row in self.charges:
            if len(row) != k:
                raise ModelError(f"charge rows must have n-d = {k} entries")
            if not all(_is_int(x) for x in row):
                raise ModelError("non-integer charge entry")
        if integer_rank(self.charges) != k:
            raise ModelError(f"charge matrix must have rank n-d = {k}")

        full = (1 << n) - 1
        gens, cones = self.sr_generators or (), self.max_cones
        if len(gens) > MAX_DEGREES:
            raise ModelError(f"{len(gens)} Stanley-Reisner generators, more than {MAX_DEGREES}")
        for g in gens:
            if g == 0:
                raise ModelError("empty Stanley-Reisner generator support")
            if g & ~full:
                raise ModelError("Stanley-Reisner generator outside coordinate range")
        for c in cones or ():
            if bin(c).count("1") != self.dim:
                raise ModelError(
                    f"maximal cone {set(to_1based(c))} does not have {self.dim} vertices"
                )
            if c & ~full:
                raise ModelError("maximal cone outside coordinate range")
        if cones is not None:
            # cones have d vertices each, so one inside another is a repeat
            if len(set(cones)) != len(cones):
                c = next(a for a, b in zip(cones, cones[1:]) if a == b)
                raise ModelError(f"maximal cone {set(to_1based(c))} is listed twice")
            derived = tuple(sorted(sr_from_max_cones(cones, n)))
            if self.sr_generators is None:
                object.__setattr__(self, "sr_generators", derived)
            elif derived != self.sr_generators:
                i = next((i for i, g in enumerate(derived) if gens[i:i + 1] != (g,)), len(derived))
                first = min(gens[i:i + 1] + derived[i:i + 1])
                raise ModelError(
                    "Stanley-Reisner generators inconsistent with maximal cones: "
                    f"the lists first differ at {set(to_1based(first))}"
                )
            return
        # maximal faces: complements of the minimal sets meeting all generators ([0] if none)
        try:
            dual = sr_from_max_cones([full ^ g for g in gens], n) if gens else [0]
        except ModelError:
            raise ModelError(f"sr_ideal: the face derivation passed {MAX_DEGREES} sets") from None
        # by blocker duality these faces' generators are the given ones unless
        # one repeats or contains another, which has fewer vertices and sorts
        # before it; the first fault names the smallest generator inside it
        by_size: dict[int, list[int]] = {}
        for i, h in enumerate(gens):
            size = h.bit_count()
            inside = [g for s, gs in by_size.items() if s < size for g in gs if g & h == g]
            if inside or gens[i - 1:i] == (h,):
                g = min(inside, default=h)
                raise ModelError(
                    f"non-minimal generating set: {set(to_1based(g))} vs {set(to_1based(h))}"
                )
            by_size.setdefault(size, []).append(h)
        # checked after minimality, which names a fault of the list as given
        cones = tuple(sorted(full ^ t for t in dual))
        for c in cones:
            if bin(c).count("1") != self.dim:
                raise ModelError(
                    f"sr_ideal: maximal face {set(to_1based(c))} "
                    f"does not have {self.dim} vertices"
                )
        object.__setattr__(self, "max_cones", cones)


def canonical_class(model: ToricVarietyModel) -> DivisorClass:
    """The canonical class, minus the sum of all coordinate divisor classes."""
    return tuple(-sum(row[j] for row in model.charges) for j in range(model.num_classes))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_lists(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(row, list) and all(_is_int(x) for x in row) for row in value
    )


def parse_variety(text: str) -> ToricVarietyModel:
    """Parse the JSON input document into a validated model.

    Expected shape::

        { "coordinates": ["x1", ...], "dimension": d,
          "charges": [[...n-d ints...], ...n rows...],
          "sr_ideal":  [[1-based vertex indices], ...]   (optional),
          "max_cones": [[1-based vertex indices], ...]   (optional) }

    At least one of sr_ideal / max_cones is required; a missing one is
    derived from the other (see ToricVarietyModel).
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ModelError(f"malformed document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelError("document must be a JSON object")
    try:
        names = doc["coordinates"]
        dim = doc["dimension"]
        charges = doc["charges"]
    except KeyError as exc:
        raise ModelError(f"missing required key {exc}") from exc
    sr_ideal = doc.get("sr_ideal")
    max_cones_doc = doc.get("max_cones")
    if not isinstance(names, list) or not all(isinstance(c, str) for c in names):
        raise ModelError("coordinates must be a list of strings")
    # charges is required, so null is malformed; the other two may be null
    for key, value in (("charges", charges), ("sr_ideal", sr_ideal), ("max_cones", max_cones_doc)):
        if (value is not None or key == "charges") and not _is_int_lists(value):
            raise ModelError(f"{key}: not a list of lists, or a non-integer entry")
    n = len(names)
    # the model checks this bound too, but the masks below cost O(n) each
    if n > MAX_VERTICES:
        raise ModelError(f"at most {MAX_VERTICES} coordinates supported, got {n}")

    def masks(entries, label):
        out = []
        for e in entries:
            try:
                out.append(mask_from_1based(e, n))
            except ValueError as exc:
                raise ModelError(f"{label}: {exc}") from exc
        return out

    cones = tuple(masks(max_cones_doc, "max_cones")) if max_cones_doc is not None else None
    gens = tuple(masks(sr_ideal, "sr_ideal")) if sr_ideal is not None else None
    return ToricVarietyModel(
        coordinate_names=names,
        dim=dim,
        charges=tuple(tuple(r) for r in charges),
        sr_generators=gens,
        max_cones=cones,
    )


def load_variety(path) -> ToricVarietyModel:
    with open(path, encoding="utf-8") as fh:
        return parse_variety(fh.read())


def bundled_model_names() -> list[str]:
    data = resources.files("toric_cohomology") / "data"
    return sorted(p.name[:-5] for p in data.iterdir() if p.name.endswith(".json"))


def load_bundled(name: str) -> ToricVarietyModel:
    """Load one of the models shipped with the package (see bundled_model_names)."""
    data = resources.files("toric_cohomology") / "data" / f"{name}.json"
    try:
        text = data.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ModelError(f"no bundled model named {name!r}") from exc
    return parse_variety(text)
