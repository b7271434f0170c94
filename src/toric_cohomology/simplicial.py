"""Simplicial complex primitives and exact reduced homology.

A :class:`FaceSet` is a finite collection of vertex subsets.  The complex
operations the package uses (restriction and reduced homology) require it
to be closed under taking subsets, and raise ValueError otherwise; a
complex closed and in range by construction (a restriction, a factor
complex) is built by `FaceSet._closed`, which checks nothing.  A
restriction keeps its complex's vertex labels.  A complex finds its cone
apex (a vertex v with f | v a face for every face f) once and keeps it:
reduced homology answers a cone as acyclic at once, and the fan route
hands the apex down to the subsets that keep it.  Otherwise homology
takes the edges' rank by union-find and the other ranks from sparse
boundary rows.  The link and the Alexander dual, which only the tests
use, are reference helpers in tests/util.py.

Conventions: a face with k vertices lives in chain degree k-1; the empty
face, when present, spans degree -1.  A FaceSet with no faces at all
("void") has no homology in any degree, unlike the complex {empty face}
whose H~_{-1} is one-dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable

from ._bits import bits, submasks
from .exact_linalg import integer_rank


@dataclass(frozen=True)
class FaceSet:
    """A finite collection of vertex subsets, stored as bitmasks."""

    vertex_count: int
    faces: frozenset[int]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        if not isinstance(self.faces, frozenset):
            object.__setattr__(self, "faces", frozenset(self.faces))
        full = (1 << self.vertex_count) - 1
        for f in self.faces:
            if f & ~full:
                raise ValueError(f"face {f:b} not within the ambient vertex set")

    @classmethod
    def closure(cls, vertex_count: int, generators: Iterable[int]) -> "FaceSet":
        """Downward closure of generator masks, always including the empty face."""
        faces = {0}
        for g in generators:
            faces.update(submasks(g))
        return cls(vertex_count, frozenset(faces))

    @classmethod
    def _closed(cls, vertex_count: int, faces: Iterable[int]) -> "FaceSet":
        """A complex closed and within `vertex_count` by construction: recorded closed, not checked."""
        result = object.__new__(cls)
        result.__dict__.update(vertex_count=vertex_count, faces=frozenset(faces), is_subset_closed=True)
        return result

    @property
    def is_void(self) -> bool:
        return not self.faces

    @cached_property
    def is_subset_closed(self) -> bool:
        """Whether every subset of a face is a face; checked once per FaceSet."""
        return all(f & ~(1 << i) in self.faces for f in self.faces for i in bits(f))

    @cached_property
    def cone_apex(self) -> int:
        """The lowest vertex v with f | v a face for every face f, or -1.

        A complex with such a vertex is a cone over it, hence acyclic.
        """
        faces = self.faces
        for v in range(self.vertex_count):
            bit = 1 << v
            if all(f | bit in faces for f in faces):
                return v
        return -1


def _require_closed(delta: FaceSet, op: str) -> None:
    if not delta.is_subset_closed:
        raise ValueError(f"{op} requires a subset-closed complex")


def restrict(delta: FaceSet, sigma: int) -> FaceSet:
    """Faces of the closed complex `delta` inside `sigma`, keeping delta's labels and vertex_count."""
    _require_closed(delta, "restrict")
    outside = ~sigma
    return FaceSet._closed(delta.vertex_count, [f for f in delta.faces if not f & outside])


def _edge_rank(edges: list[int]) -> int:
    """Rank of the vertex-edge boundary: vertices less connected components.

    Union-find over the edges' endpoints; each edge that joins two
    components raises the rank by one.
    """
    parent: Dict[int, int] = {}

    def root(v: int) -> int:
        while v in parent:
            v = parent[v]
        return v

    rank = 0
    for e in edges:
        low = e & -e
        a, b = root(low), root(e ^ low)
        if a != b:
            parent[a] = b
            rank += 1
    return rank


def reduced_homology(delta: FaceSet) -> Dict[int, int]:
    """Dimensions of rational reduced homology, as a sparse {degree: dim} map.

    dim H~_j = faces in degree j less the ranks of the boundaries out of
    degrees j and j+1.  The vertex-edge boundary's rank is the number of
    vertices less the number of connected components of the graph, found
    by union-find; the other ranks come from `integer_rank`.
    """
    _require_closed(delta, "reduced_homology")
    if delta.cone_apex >= 0:
        return {}
    by_degree: Dict[int, list[int]] = {}
    for f in delta.faces:
        by_degree.setdefault(bin(f).count("1") - 1, []).append(f)

    ranks: Dict[int, int] = {}
    for j, flist in by_degree.items():
        targets = by_degree.get(j - 1)
        if not targets:
            continue
        if j == 1:
            ranks[1] = _edge_rank(flist)
            continue
        index = {f: k for k, f in enumerate(targets)}
        rows = [
            {index[f ^ (1 << i)]: (-1) ** s for s, i in enumerate(bits(f))}
            for f in flist
        ]
        ranks[j] = integer_rank(rows)

    dims = {}
    for j, flist in by_degree.items():
        h = len(flist) - ranks.get(j, 0) - ranks.get(j + 1, 0)
        if h:
            dims[j] = h
    return dims
