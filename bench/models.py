"""Model documents for the benchmark, generated as JSON text.

Every document carries both `sr_ideal` and `max_cones` (1-based), so the
package cross-validates them at parse time and the fan-route oracle can
run on it.  Generation goes through the package's own lattice and fan
helpers; nothing here computes cohomology.
"""

from __future__ import annotations

import json
from pathlib import Path

from toric_cohomology import sr_from_max_cones
from toric_cohomology.exact_linalg import DiagonalizedSystem


def _masks(sets):
    return [sum(1 << (i - 1) for i in s) for s in sets]


def _sets(masks):
    return [[i + 1 for i in range(m.bit_length()) if m >> i & 1] for m in sorted(masks)]


def _doc(names, dim, charges, max_cones):
    n = len(names)
    sr = sr_from_max_cones(_masks(max_cones), n)
    return {
        "coordinates": list(names),
        "dimension": dim,
        "charges": [list(r) for r in charges],
        "sr_ideal": _sets(sr),
        "max_cones": [sorted(c) for c in max_cones],
    }


def polygon_rays(n: int) -> list[tuple[int, int]]:
    """Rays of the complete smooth fan reached from P2 by n-3 blow-ups.

    Blow-up step s inserts the sum of two consecutive rays into the gap
    after ray (2 s mod current length): n=4 is F1, n=6 the hexagon (dP3).
    """
    if n < 3:
        raise ValueError("a complete polygon fan needs at least 3 rays")
    rays = [(1, 0), (0, 1), (-1, -1)]
    for s in range(n - 3):
        g = 2 * s % len(rays)
        a, b = rays[g], rays[(g + 1) % len(rays)]
        rays.insert(g + 1, (a[0] + b[0], a[1] + b[1]))
    return rays


def polygon_doc(n: int) -> dict:
    """The polygon fan with n rays; charges span the integer kernel of the rays."""
    rays = polygon_rays(n)
    matrix = tuple(tuple(v[k] for v in rays) for k in range(2))
    kernel = DiagonalizedSystem(matrix).kernel_basis()
    charges = [[col[i] for col in kernel] for i in range(n)]
    cones = [[i + 1, (i + 1) % n + 1] for i in range(n)]
    return _doc([f"x{i + 1}" for i in range(n)], 2, charges, cones)


def p1_doc() -> dict:
    return _doc(["x0", "x1"], 1, [[1], [1]], [[1], [2]])


def product_doc(a: dict, b: dict) -> dict:
    """Block-diagonal charges, product cones and shifted SR generators."""
    na, nb = len(a["coordinates"]), len(b["coordinates"])
    ka, kb = na - a["dimension"], nb - b["dimension"]
    charges = [list(r) + [0] * kb for r in a["charges"]]
    charges += [[0] * ka + list(r) for r in b["charges"]]
    cones = [ca + [i + na for i in cb] for ca in a["max_cones"] for cb in b["max_cones"]]
    names = [f"a{i + 1}" for i in range(na)] + [f"b{i + 1}" for i in range(nb)]
    doc = _doc(names, a["dimension"] + b["dimension"], charges, cones)
    shifted = a["sr_ideal"] + [[i + na for i in g] for g in b["sr_ideal"]]
    if sorted(map(sorted, shifted)) != sorted(doc["sr_ideal"]):
        raise AssertionError("product SR ideal differs from the one derived from its cones")
    return doc


def p1_power_doc(k: int) -> dict:
    doc = p1_doc()
    for _ in range(k - 1):
        doc = product_doc(doc, p1_doc())
    return doc


def bundled_doc(src: Path, name: str) -> dict:
    """A model shipped with the package, read as a plain document."""
    return json.loads((src / "toric_cohomology" / "data" / f"{name}.json").read_text())
