"""Toric variety input data: parsing, validation, derived combinatorics.

The input datum is the charge matrix (one row of GLSM charges per
homogeneous coordinate) together with the combinatorics of the fan, given
either as Stanley-Reisner generator supports, as maximal cones, or both.
Ray coordinates are never needed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Sequence

from ._bits import bits, complement, mask_from_1based, to_1based
from .errors import ModelError
from .exact_linalg import integer_rank

MAX_VERTICES = 63

DivisorClass = tuple[int, ...]


def _minimalize(masks: Iterable[int]) -> list[int]:
    """Drop any support containing another support; deduplicate."""
    unique = sorted(set(masks), key=lambda m: (bin(m).count("1"), m))
    kept: list[int] = []
    for m in unique:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return sorted(kept)


def sr_from_max_cones(max_cones: Sequence[int], n: int) -> list[int]:
    """Minimal Stanley-Reisner generator supports from the maximal cones.

    The irrelevant ideal is generated by the monomials on the complements of
    the maximal cones; its Alexander dual (the intersection of the matching
    monomial prime ideals, taken by pairwise lcm closure and minimalization)
    is the Stanley-Reisner ideal.  The result is exactly the set of minimal
    non-faces of the fan complex.
    """
    if not max_cones:
        raise ModelError("empty maximal cone list")
    comps = [complement(c, n) for c in max_cones]
    if any(c == 0 for c in comps):
        return []  # the fan complex is the full simplex: no non-faces
    current = [1 << i for i in bits(comps[0])]
    for comp in comps[1:]:
        current = _minimalize(g | (1 << i) for g in current for i in bits(comp))
    return current


@dataclass(frozen=True)
class ToricVarietyModel:
    """Immutable description of a simplicial projective toric variety.

    Vertex subsets (generator supports, maximal cones) are bitmasks over the
    coordinates, 0-based internally.  `sr_generators=None` means "derive
    them from `max_cones`"; validation derives them once.
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
            raise ModelError("Stanley-Reisner generators or maximal cones are required")
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
        # a complete fan of dimension d >= 1 has at least d + 1 rays
        if not 0 <= self.dim < n:
            raise ModelError(f"dimension {self.dim} out of range 0..{n - 1} for {n} coordinates")
        k = self.num_classes
        if len(self.charges) != n:
            raise ModelError(f"expected {n} charge rows, got {len(self.charges)}")
        for row in self.charges:
            if len(row) != k:
                raise ModelError(f"charge rows must have n-d = {k} entries")
            if not all(isinstance(x, int) for x in row):
                raise ModelError("non-integer charge entry")
        if integer_rank(self.charges) != k:
            raise ModelError(f"charge matrix must have rank n-d = {k}")

        full = (1 << n) - 1
        gens, cones = self.sr_generators or (), self.max_cones
        for g in gens:
            if g == 0:
                raise ModelError("empty Stanley-Reisner generator support")
            if g & ~full:
                raise ModelError("Stanley-Reisner generator outside coordinate range")
        if cones is None:
            for i, g in enumerate(gens):
                for h in gens[i + 1:]:
                    if g & h == g or g & h == h:
                        raise ModelError(
                            "non-minimal generating set: "
                            f"{set(to_1based(g))} vs {set(to_1based(h))}"
                        )
            return

        for c in cones:
            if bin(c).count("1") != self.dim:
                raise ModelError(
                    f"maximal cone {set(to_1based(c))} does not have {self.dim} vertices"
                )
            if c & ~full:
                raise ModelError("maximal cone outside coordinate range")
            for g in gens:
                if g & c == g:
                    raise ModelError(
                        f"Stanley-Reisner generator {set(to_1based(g))} "
                        f"is a face of cone {set(to_1based(c))}"
                    )
        # the derived set is minimal, so equality with it implies minimality
        derived = tuple(sorted(sr_from_max_cones(cones, n)))
        if self.sr_generators is None:
            object.__setattr__(self, "sr_generators", derived)
        elif derived != self.sr_generators:
            raise ModelError(
                "Stanley-Reisner generators inconsistent with maximal cones: "
                f"derived {[set(to_1based(g)) for g in derived]}"
            )


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

    At least one of sr_ideal / max_cones is required; when only max_cones is
    given the Stanley-Reisner generators are derived from them.
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
    if not _is_int(dim):
        raise ModelError("dimension must be an integer")
    for key, value in (("charges", charges), ("sr_ideal", sr_ideal), ("max_cones", max_cones_doc)):
        if value is not None and not _is_int_lists(value):
            raise ModelError(f"{key}: not a list of lists, or a non-integer entry")
    if sr_ideal is None and max_cones_doc is None:
        raise ModelError("at least one of sr_ideal / max_cones is required")
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
