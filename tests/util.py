"""Independent naive oracles used by the test suite.

Everything here deliberately avoids the optimized code paths it is used to
check: dense Fraction elimination instead of the sparse integer echelon
form, full powerset loops and the paper's exact-degree complexes instead
of the lcm-lattice closure and Hochster's formula, bounding-box searches
instead of polytope walks, the exact simplex and Fourier-Motzkin
elimination instead of circuits, one pass over every term instead of the
surviving-term lists per kill mask.  It also holds the simplicial operations
only the tests use: explicit face lists, the link and the Alexander dual.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from toric_cohomology._bits import bits, bitstring, complement
from toric_cohomology.errors import NonFiniteCohomologyError
from toric_cohomology.exact_linalg import DiagonalizedSystem
from toric_cohomology.lp import OPTIMAL, UNBOUNDED, simplex_maximize
from toric_cohomology.model import ToricVarietyModel, sr_from_max_cones
from toric_cohomology.oracle import fan_complex
from toric_cohomology.simplicial import FaceSet, _require_closed, reduced_homology, restrict


def mask_of(indices) -> int:
    """Bitmask of a collection of 0-based vertex indices."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def faceset(vertex_count: int, *faces) -> FaceSet:
    """A FaceSet from explicit 0-based vertex collections."""
    return FaceSet(vertex_count, frozenset(mask_of(f) for f in faces))


def full_simplex(vertex_count: int) -> FaceSet:
    return FaceSet(vertex_count, frozenset(range(1 << vertex_count)))


def vertex_sets(delta: FaceSet) -> list[tuple[int, ...]]:
    return sorted(tuple(bits(f)) for f in delta.faces)


def _reindex(mask: int, ambient: int) -> int:
    """Compress a face mask into the coordinates of `ambient` (ascending)."""
    out = 0
    for pos, i in enumerate(bits(ambient)):
        if mask >> i & 1:
            out |= 1 << pos
    return out


def link(delta: FaceSet, sigma: int) -> FaceSet:
    """The link of `sigma`: faces disjoint from sigma whose union with it is a face."""
    _require_closed(delta, "link")
    hat = complement(sigma, delta.vertex_count)
    faces = frozenset(
        _reindex(f, hat) for f in delta.faces
        if f & sigma == 0 and (f | sigma) in delta.faces
    )
    return FaceSet(bin(hat).count("1"), faces)


def alexander_dual(delta: FaceSet) -> FaceSet:
    """The Alexander dual: subsets whose complement is not a face."""
    _require_closed(delta, "alexander_dual")
    n = delta.vertex_count
    if n > 22:
        raise ValueError("alexander_dual scans 2^n subsets; n > 22 unsupported")
    full = (1 << n) - 1
    faces = frozenset(m for m in range(1 << n) if (full ^ m) not in delta.faces)
    return FaceSet(n, faces)


def circuit_supports(vectors) -> set[int]:
    """The supports of the circuits of `vectors`, by ranks of every subset.

    S is a circuit support iff the vectors on S have rank |S| - 1 and so
    does every S minus one element (dependent, every proper subset not).
    """
    n = len(vectors)

    def rank(mask):
        return fraction_rank([vectors[i] for i in bits(mask)]) if mask else 0

    return {
        s for s in range(1, 1 << n)
        if rank(s) == s.bit_count() - 1 and all(rank(s & ~(1 << i)) == s.bit_count() - 1 for i in bits(s))
    }


def fraction_rank(rows) -> int:
    """Rank by plain Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def all_complexes(n: int):
    """All subset-closed face collections on n vertices (downsets), incl. void."""
    order = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))
    parents = {m: [m ^ (1 << i) for i in bits(m)] for m in order}
    out = []

    def rec(i, included):
        if i == len(order):
            out.append(frozenset(included))
            return
        s = order[i]
        rec(i + 1, included)
        if all(p in included for p in parents[s]):
            included.add(s)
            rec(i + 1, included)
            included.discard(s)

    rec(0, set())
    return [FaceSet(n, faces) for faces in out]


def fan_terms(model) -> list[tuple[int, tuple[int, ...]]]:
    """The fan route's (sigma, weights) terms by the plain 2^n loop.

    Each sigma is weighted by the reduced homology of the fan complex
    restricted to its complement, every restriction taken from the full
    complex and every one ranked unless it is a cone; `FanOracle.terms`
    sweeps the subsets instead and hands cone apexes down.
    """
    n, d = model.n, model.dim
    delta = fan_complex(model)
    terms = []
    for sigma in range(1 << n):
        hom = reduced_homology(restrict(delta, complement(sigma, n)))
        weights = tuple(hom.get(d - i - 1, 0) for i in range(d + 1))
        if any(weights):
            terms.append((sigma, weights))
    return terms


def random_complex(n: int, rng, max_gens: int = 4) -> FaceSet:
    gens = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, max_gens))]
    return FaceSet.closure(n, gens)


def naive_degree_map(generators, n):
    """Full 2^t powerset enumeration of union degrees."""
    t = len(generators)
    gens = sorted(generators)
    entries: dict[int, dict[int, list[int]]] = {}
    for tau in range(1 << t):
        deg = 0
        for i in bits(tau):
            deg |= gens[i]
        entries.setdefault(deg, {}).setdefault(bin(tau).count("1"), []).append(tau)
    for groups in entries.values():
        for taus in groups.values():
            taus.sort()
    return entries


def projected_homology(faces) -> dict[int, int]:
    """Reduced homology of any face collection, over Fraction.

    The boundary of a face keeps only the summands present in the
    collection.  Raises ValueError when that projected boundary does not
    square to zero.  On a subset-closed complex this is ordinary reduced
    homology.
    """
    faces = frozenset(faces)
    by_deg: dict[int, list[int]] = {}
    for f in faces:
        by_deg.setdefault(bin(f).count("1") - 1, []).append(f)
    for fl in by_deg.values():
        fl.sort()

    def boundary(f):
        return {
            f ^ (1 << i): 1 if s % 2 == 0 else -1
            for s, i in enumerate(bits(f)) if f ^ (1 << i) in faces
        }

    for f in faces:
        square: dict[int, int] = {}
        for mid, a in boundary(f).items():
            for low, b in boundary(mid).items():
                square[low] = square.get(low, 0) + a * b
        if any(square.values()):
            raise ValueError("projected boundary not a complex")
    ranks: dict[int, int] = {}
    for j, flist in by_deg.items():
        targets = by_deg.get(j - 1)
        if targets:
            rows = []
            for f in flist:
                terms = boundary(f)
                rows.append([terms.get(g, 0) for g in targets])
            ranks[j] = fraction_rank(rows)
    out = {}
    for j, flist in by_deg.items():
        h = len(flist) - ranks.get(j, 0) - ranks.get(j + 1, 0)
        if h:
            out[j] = h
    return out


def gamma_complex(generators, n, degree) -> frozenset[int]:
    """The exact-degree complex: generator subsets (masks over [t]) whose
    union is exactly `degree`; generally not subset-closed."""
    groups = naive_degree_map(generators, n).get(degree)
    if groups is None:
        raise ValueError(f"degree {degree:b} is not a union of generators")
    return frozenset(tau for taus in groups.values() for tau in taus)


def gamma_factor_table(generators, n) -> dict[int, dict[int, int]]:
    """Multiplicity factors by the paper's powerset route.

    For each union degree D, the projected-boundary homology of the
    exact-degree complex in degree r-1 is the factor at r.
    """
    table = {}
    for deg, groups in naive_degree_map(generators, n).items():
        faces = (tau for taus in groups.values() for tau in taus)
        table[deg] = {j + 1: h for j, h in sorted(projected_homology(faces).items())}
    return table


def contributing_degrees(degree_set) -> list[int]:
    """Lattice degrees whose complement degree is in the lattice too (the dual-degree filter)."""
    full = (1 << degree_set.n) - 1
    return [deg for deg in degree_set.degrees() if full ^ deg in degree_set]


def minimal_nonfaces(cones, n) -> list[int]:
    """The subsets of [n] in no cone whose every one-smaller subset is in one."""
    def is_face(s):
        return any(s & c == s for c in cones)
    return [
        s for s in range(1 << n)
        if not is_face(s) and all(is_face(s ^ 1 << i) for i in bits(s))
    ]


def k_pairs_doc(k: int) -> dict:
    """A cones-only document on n = 2k coordinates whose cone complements are
    the k disjoint pairs {2i+1, 2i+2}: its 2^k generators take one vertex of
    each pair."""
    n = 2 * k
    return {
        "coordinates": [f"x{i + 1}" for i in range(n)],
        "dimension": n - 2,
        "charges": [[1, i % 2] for i in range(n)],
        "max_cones": [[j + 1 for j in range(n) if j // 2 != i] for i in range(k)],
    }


def fan_document(model, key: str) -> dict:
    """The input document of `model` with its fan under `key` alone:
    "sr_ideal" for the generators, "max_cones" for the cones."""
    masks = model.sr_generators if key == "sr_ideal" else model.max_cones
    return {
        "coordinates": list(model.coordinate_names),
        "dimension": model.dim,
        "charges": [list(row) for row in model.charges],
        key: [[i + 1 for i in bits(m)] for m in masks],
    }


def unit_charges(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """A charge matrix of rank n - d: the unit rows, then zero rows."""
    return tuple(tuple(int(i == j) for j in range(n - d)) for i in range(n))


def random_pure_model(n: int, rng) -> ToricVarietyModel:
    """A model on n coordinates whose cones, and so every maximal face, are
    one to six random d-subsets, d in 0..n-1; the charges are `unit_charges`."""
    d = rng.randrange(n)
    cones = {mask_of(rng.sample(range(n), d)) for _ in range(rng.randint(1, 6))}
    return ToricVarietyModel(tuple(f"x{i + 1}" for i in range(n)), d, unit_charges(n, d),
                             max_cones=tuple(cones))


def nonsmooth_polygon_rays(rng, extra: int):
    """Rays of a complete simplicial polygon fan that is not smooth, in cyclic order.

    P2's rays plus `extra` random primitive vectors of [-4, 4]^2 (some may
    be P2's own), redrawn until two neighbouring rays span a cone of
    determinant > 1.  P2's rays
    leave no gap of half a turn, so neighbours always span a strictly
    convex cone.
    """
    box = [(x, y) for x in range(-4, 5) for y in range(-4, 5) if math.gcd(x, y) == 1]
    while True:
        rays = sorted({(1, 0), (0, 1), (-1, -1), *rng.sample(box, extra)},
                      key=lambda v: math.atan2(v[1], v[0]))
        dets = [a[0] * b[1] - a[1] * b[0] for a, b in zip(rays, rays[1:] + rays[:1])]
        if max(dets) > 1:
            return rays


def polygon_rays(gaps):
    """Rays of a complete smooth fan: P2's, blown up once per entry of `gaps`.

    Blow-up at gap g inserts the sum of rays g and g+1 (cyclically) after ray g.
    """
    rays = [(1, 0), (0, 1), (-1, -1)]
    for g in gaps:
        g %= len(rays)
        a, b = rays[g], rays[(g + 1) % len(rays)]
        rays.insert(g + 1, (a[0] + b[0], a[1] + b[1]))
    return rays


def polygon_model(rays):
    """The toric surface of a complete polygon fan: consecutive rays span cones,
    charges span the integer kernel of the ray matrix."""
    n = len(rays)
    kernel = DiagonalizedSystem(tuple(tuple(v[k] for v in rays) for k in range(2))).kernel_basis()
    cones = tuple(mask_of((i, (i + 1) % n)) for i in range(n))
    return ToricVarietyModel(
        tuple(f"x{i + 1}" for i in range(n)),
        2,
        tuple(tuple(col[i] for col in kernel) for i in range(n)),
        tuple(sr_from_max_cones(cones, n)),
        cones,
    )


def star_subdivided_p3(n: int, seed: int = 0):
    """A smooth projective threefold on n >= 4 rays: P3, star-subdivided n - 4 times.

    The rays start as e1, e2, e3 and -e1-e2-e3.  Each step subdivides a
    seeded random maximal cone by the sum of its rays (the blow-up of a
    torus-fixed point); the charges span the integer kernel of the ray
    matrix.
    """
    rng = random.Random(seed)
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    cones = [0b1111 ^ 1 << i for i in range(4)]
    while len(rays) < n:
        cone = cones.pop(rng.randrange(len(cones)))
        rays.append(tuple(map(sum, zip(*(rays[i] for i in bits(cone))))))
        new = 1 << len(rays) - 1
        cones += [cone ^ 1 << i | new for i in bits(cone)]
    kernel = DiagonalizedSystem(tuple(zip(*rays))).kernel_basis()
    cones = tuple(sorted(cones))
    return ToricVarietyModel(
        tuple(f"x{i + 1}" for i in range(n)),
        3,
        tuple(tuple(col[i] for col in kernel) for i in range(n)),
        tuple(sr_from_max_cones(cones, n)),
        cones,
    )


def product_model(a, b):
    """The product variety: block-diagonal charges, product cones, shifted generators."""
    pad_a, pad_b = (0,) * b.num_classes, (0,) * a.num_classes
    return ToricVarietyModel(
        a.coordinate_names + tuple(f"y{i + 1}" for i in range(b.n)),
        a.dim + b.dim,
        tuple(row + pad_a for row in a.charges) + tuple(pad_b + row for row in b.charges),
        a.sr_generators + tuple(g << a.n for g in b.sr_generators),
        tuple(ca | cb << a.n for ca in a.max_cones for cb in b.max_cones),
    )


def truncated_p2():
    """P2 with one maximal cone removed: an incomplete fan with infinite neg-groups."""
    cones = (0b011, 0b101)
    gens = tuple(sr_from_max_cones(cones, 3))
    return ToricVarietyModel(("x1", "x2", "x3"), 2, ((1,), (1,), (1,)), gens, cones)


def polygon_sections(rays, a) -> int:
    """h^0 of O(sum a_i D_i) on a polygon fan containing P2's rays, by brute force.

    Counts the characters m in Z^2 with <m, v_i> + a_i >= 0 for every ray,
    i.e. the monomials of that class.  The rays (1,0), (0,1), (-1,-1) bound
    m to a box.
    """
    lo1, lo2 = -a[rays.index((1, 0))], -a[rays.index((0, 1))]
    top = a[rays.index((-1, -1))]
    return sum(
        1
        for m1 in range(lo1, top - lo2 + 1)
        for m2 in range(lo2, top - lo1 + 1)
        if all(m1 * v[0] + m2 * v[1] + ai >= 0 for v, ai in zip(rays, a))
    )


def signed_system(model, sigma: int) -> list[list[int]]:
    """Rows of the matrix A with column i equal to -q_i on sigma and +q_i off it."""
    return [
        [-model.charges[i][j] if sigma >> i & 1 else model.charges[i][j]
         for i in range(model.n)]
        for j in range(model.num_classes)
    ]


def cone_recession_test(a) -> bool:
    """The recession test by the simplex: every nonzero w >= 0 has sum(w) > 0,
    so the cone {A w = 0, w >= 0} is nonzero iff sum(w) is unbounded on it."""
    n = len(a[0]) if a else 0
    if n == 0:
        return False
    status, _, _ = simplex_maximize(a, [0] * len(a), [1] * n)
    return status == UNBOUNDED


def boxed_recession_test(a) -> bool:
    """The recession test as a bounded program: maximize sum(w) subject to
    A w = 0 and 0 <= w_i <= 1 (slack variables make the box equational); a
    positive optimum is a nonzero nonnegative kernel vector."""
    m = len(a)
    n = len(a[0]) if a else 0
    if n == 0:
        return False
    rows = [list(row) + [0] * n for row in a]
    for i in range(n):
        box = [0] * (2 * n)
        box[i] = 1
        box[n + i] = 1
        rows.append(box)
    status, value, _ = simplex_maximize(rows, [0] * m + [1] * n, [1] * n + [0] * n)
    assert status == OPTIMAL  # the box bounds the program and w = 0 is feasible
    return value > 0


def fm_eliminate(rows, var) -> set:
    """Fourier-Motzkin elimination of y_var from `coeffs . y <= rhs` rows, as a set.

    The rows without y_var stay, and every pair with opposite signs at
    y_var gives the positive combination that cancels it.  A row whose
    coefficients share a factor that also divides its right-hand side is
    divided by it.
    """
    out = [(co, rhs) for co, rhs in rows if co[var] == 0]
    for cp, rp in rows:
        for cn, rn in rows:
            if cp[var] > 0 > cn[var]:
                a, b = -cn[var], cp[var]
                out.append((tuple(a * x + b * y for x, y in zip(cp, cn)), a * rp + b * rn))
    reduced = set()
    for co, rhs in out:
        g = math.gcd(*co)
        if g > 1 and rhs % g == 0:
            co, rhs = tuple(x // g for x in co), rhs // g
        reduced.add((co, rhs))
    return reduced


def _recedes(rows, nvars) -> bool:
    """True iff the homogeneous rows {y : coeffs . y <= 0} cut out a nonzero cone.

    Eliminating y_(nvars-1) down to y_(k+1) leaves level k, rows over
    y_0..y_k.  Cut at y_0 = ... = y_(k-1) = 0 it reads {a y_k <= 0}: {0}
    exactly when both signs of a occur.  A nonzero cone point has a first
    nonzero entry, so the cone is nonzero iff some level misses a sign.
    """
    rows = [(co, 0) for co, _ in rows]
    for var in range(nvars - 1, -1, -1):
        if {co[var] > 0 for co, _ in rows if co[var]} != {True, False}:
            return True
        if var:
            rows = fm_eliminate(rows, var)
    return False


def _rationally_empty(rows, nvars) -> bool:
    """True iff {y : coeffs . y <= rhs} has no rational point (Fourier-Motzkin down to constants)."""
    for var in range(nvars - 1, -1, -1):
        rows = fm_eliminate(rows, var)
    return any(rhs < 0 for _, rhs in rows)


def fiber_verdict(counter, alpha, sigma):
    """The counter's verdict on a neg-group's fiber, decided by its circuits."""
    rows = counter._fiber(alpha, sigma)
    return "infinite" if rows is None else "finite" if rows else "empty"


def fm_fiber_verdict(counter, alpha, sigma):
    """The Fourier-Motzkin verdict on a neg-group's fiber: "empty", "infinite" or "finite"."""
    u0 = counter._class(tuple(alpha))[0]
    if u0 is None:
        return "empty"
    rows = counter._inequalities(u0, sigma)
    if _rationally_empty(rows, counter._d):
        return "empty"
    return "infinite" if _recedes(rows, counter._d) else "finite"


def all_terms_dims(counter, alpha, terms) -> tuple[int, ...]:
    """h^0..h^d of alpha by one pass over every term: a sigma the class's
    kill mask empties is skipped, every other one counted and weighted.
    `NegGroupCounter.dims` walks only the terms a kill mask leaves alive."""
    alpha = tuple(alpha)
    model = counter.model
    dims = [0] * (model.dim + 1)
    u0, kill = counter._class(alpha)
    if u0 is None:
        return tuple(dims)
    for sigma, weights in terms:
        if kill & counter._fit_mask(sigma):
            continue
        count = counter.count(alpha, sigma)
        if count.is_infinite:
            raise NonFiniteCohomologyError(
                "non-finite cohomology: infinite neg-group at degree "
                f"{bitstring(sigma, model.n)} with nonzero multiplicity "
                "(input fan likely not complete)"
            )
        for i, w in enumerate(weights):
            dims[i] += count.value * w
    return tuple(dims)


def charge_image(model, u):
    return tuple(
        sum(model.charges[i][j] * u[i] for i in range(model.n))
        for j in range(model.num_classes)
    )


def neg_mask(u) -> int:
    return mask_of(i for i, x in enumerate(u) if x < 0)


def brute_force_neg_group(model, alpha, sigma, bound):
    """All u in the [-bound, bound]^n box with class alpha and Neg(u) = sigma."""
    sols = []
    for u in itertools.product(range(-bound, bound + 1), repeat=model.n):
        if neg_mask(u) == sigma and charge_image(model, u) == tuple(alpha):
            sols.append(u)
    return sorted(sols)


def series_count(weights, target, order=80):
    """Coefficient of z^target in prod 1/(1 - z^w), all weights positive."""
    if target < 0:
        return 0
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for w in weights:
        assert w > 0
        for k in range(w, order + 1):
            coeffs[k] += coeffs[k - w]
    assert target <= order
    return coeffs[target]
