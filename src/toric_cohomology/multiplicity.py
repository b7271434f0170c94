"""Multiplicity factors: graded Betti numbers of the Stanley-Reisner ring.

The factor attached to a squarefree degree D at homological index r is
beta_{r,D} = dim H~_{|D|-r-1}(Delta|_D), where Delta is the Stanley-Reisner
complex (the vertex subsets containing no generator): Hochster's formula.
The generators inside D fall into variable-disjoint components; Delta|_D
is the join of the restrictions to their vertex sets, so the factors of D
are the convolution in r of the factors of its components.  A component
with one generator restricts to a simplex boundary, with factors {1: 1}.
They vanish unless the generators inside D cover D, since a vertex in none
of them is a cone apex of Delta|_D: only lcm-lattice degrees carry factors.

The same component recurs in many degrees: in a product variety, in every
degree that pairs it with a part of the other factor.  A table computes
each distinct component once, keyed by its vertex mask M.  The mask fixes
the generators: every generator inside M lies in the degree and meets M,
so it is one of the component's, and the component's generators all lie
inside M.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from ._bits import bits
from .errors import ModelError
from .simplicial import FaceSet, reduced_homology

MAX_FACES = 1 << 10


def _components(gens: list[int]) -> list[tuple[int, list[int]]]:
    """Group generators into (vertex mask, generators) with disjoint masks."""
    parts: list[tuple[int, list[int]]] = []
    for g in gens:
        mask, group, rest = g, [g], []
        for m, p in parts:
            if m & g:
                mask |= m
                group += p
            else:
                rest.append((m, p))
        parts = rest + [(mask, group)]
    return parts


def _faces(positions: list[int], admits) -> list[int]:
    """Faces on `positions`, grown one vertex v at a time while admits(face, v).

    Every face grows from the empty one, so the faces are closed under
    subsets when `admits` is monotone.  The work follows the output; more
    than MAX_FACES faces raise ModelError.
    """
    faces, stack = [], [(0, 0)]
    while stack:
        face, start = stack.pop()
        faces.append(face)
        if len(faces) > MAX_FACES:
            raise ModelError(
                f"a multiplicity-factor complex has more than {MAX_FACES} faces"
            )
        for k in range(start, len(positions)):
            grown = face | 1 << positions[k]
            if admits(grown, positions[k]):
                stack.append((grown, k + 1))
    return faces


def _component_factors(vertices: int, gens: list[int]) -> Dict[int, int]:
    """Factors of one component, from the smaller of two complexes.

    Vertices in the same generators form a class; one variable per class
    is a flat substitution, so the factors are those of the ideal on one
    representative per class.  They are read from Hochster's formula on
    the representatives (beta_r = H~_{classes-r-1}) or from the crosscut
    of the lcm lattice, the sets of generators whose union misses a class
    (beta_r = H~_{r-2}), so at most 2^min(classes, generators) faces.
    """
    if len(gens) == 1:
        return {1: 1}
    classes = [vertices]
    for g in gens:
        if len(classes) == bin(vertices).count("1"):
            break
        classes = [part for c in classes for part in (c & g, c & ~g) if part]
    reps = [c.bit_length() - 1 for c in classes]
    top = sum(1 << v for v in reps)
    gens = [g & top for g in gens]
    if len(reps) <= len(gens):
        through = {v: [g for g in gens if g >> v & 1] for v in reps}
        faces = _faces(reps, lambda f, v: all(g & ~f for g in through[v]))
        dims = reduced_homology(FaceSet._closed(top.bit_length(), faces))
        return {len(reps) - j - 1: h for j, h in dims.items()}

    def admits(s: int, _: int) -> bool:
        union = 0
        for i in bits(s):
            union |= gens[i]
        return union != top

    faces = _faces(list(range(len(gens))), admits)
    dims = reduced_homology(FaceSet._closed(len(gens), faces))
    return {j + 2: h for j, h in dims.items()}


def _factors(generators: Sequence[int], degree: int, memo: Dict[int, Dict[int, int]]) -> Dict[int, int]:
    """One degree's factors, {} unless its generators cover it; `memo` keys component masks."""
    parts = _components([g for g in generators if not g & ~degree])
    if sum(vertices for vertices, _ in parts) != degree:  # the masks are disjoint
        return {}
    factors = {0: 1}
    for vertices, group in parts:
        part = memo.get(vertices)
        if part is None:
            part = memo[vertices] = _component_factors(vertices, group)
        joined: Dict[int, int] = {}
        for r, x in factors.items():
            for s, y in part.items():
                joined[r + s] = joined.get(r + s, 0) + x * y
        factors = joined
    return dict(sorted(factors.items()))


def multiplicity_factors(generators: Sequence[int], degree: int) -> Dict[int, int]:
    """Sparse {r: beta} map for one squarefree degree (nonzero entries only; {} off the lattice)."""
    return _factors(generators, degree, {})


def multiplicity_table(generators: Sequence[int], degrees: Iterable[int]) -> Dict[int, Dict[int, int]]:
    """{degree: {r: beta}} for each of `degrees`, in their order; {} marks zero.

    Each distinct component is computed once per table.
    """
    memo: Dict[int, Dict[int, int]] = {}
    return {deg: _factors(generators, deg, memo) for deg in degrees}
