import random
import time

import pytest

from toric_cohomology import (
    FaceSet,
    ModelError,
    ToricVarietyModel,
    bundled_model_names,
    load_bundled,
    multiplicity_factors,
    multiplicity_table,
    reduced_homology,
    restrict,
    scan_powerset,
)
from toric_cohomology import multiplicity
from toric_cohomology.multiplicity import MAX_FACES
from toric_cohomology.oracle import fan_complex

from util import (
    contributing_degrees,
    gamma_factor_table,
    polygon_model,
    polygon_rays,
    product_model,
)

P1 = ToricVarietyModel(("u", "v"), 1, ((1,), (1,)), (0b11,), (0b01, 0b10))


def lattice_table(gens, n):
    """The factor table over the lcm lattice of `gens`, as the engine builds it."""
    return multiplicity_table(gens, scan_powerset(gens, n).degrees())


def test_p2_factors():
    gens = (0b111,)
    assert multiplicity_factors(gens, 0b111) == {1: 1}
    assert multiplicity_factors(gens, 0) == {0: 1}


def test_p1xp1_factors():
    gens = (0b0011, 0b1100)
    assert multiplicity_factors(gens, 0b1111) == {2: 1}
    assert multiplicity_factors(gens, 0b0011) == {1: 1}
    assert multiplicity_factors(gens, 0b1100) == {1: 1}


def test_triangle_generators_stress_case():
    # three pairwise-overlapping generators: the all-ones degree carries
    # multiplicity two, pinned independently by the Hochster side below
    gens = (0b011, 0b110, 0b101)
    assert multiplicity_factors(gens, 0b111) == {2: 2}
    for single in (0b011, 0b110, 0b101):
        assert multiplicity_factors(gens, single) == {1: 1}


def test_tables_assemble_sparsely():
    assert lattice_table((0b111,), 3) == {0: {0: 1}, 0b111: {1: 1}}


def test_factor_range_bounds():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(2, 7)
        gens = sorted({rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 6))})
        for deg in scan_powerset(gens, n).degrees():
            size = bin(deg).count("1")
            for r, beta in multiplicity_factors(gens, deg).items():
                assert beta > 0
                assert 0 <= r <= size


def hochster_side(model, deg):
    size = bin(deg).count("1")
    dims = reduced_homology(restrict(fan_complex(model), deg))
    return {size - j - 1: h for j, h in dims.items()}


def sr_hochster(gens, n):
    """{D: factors} on every subset D, by Hochster's formula on the
    Stanley-Reisner complex {s : no generator inside s}, built face by face."""
    delta = FaceSet(n, [s for s in range(1 << n) if all(g & ~s for g in gens)])
    out = {}
    for deg in range(1 << n):
        dims = reduced_homology(restrict(delta, deg))
        out[deg] = {deg.bit_count() - j - 1: h for j, h in dims.items()}
    return out


def check_every_subset(gens, n):
    """The total function against Hochster on every subset; {} off the lattice."""
    lattice = scan_powerset(gens, n)
    for deg, expected in sr_hochster(gens, n).items():
        factors = multiplicity_factors(gens, deg)
        assert factors == expected, (gens, deg)
        assert deg in lattice or factors == {}, (gens, deg)


def test_hochster_agreement_on_bundled_models():
    for name in ("P2", "P1xP1", "P1xP1xP1", "F1", "dP3"):
        model = load_bundled(name)
        p = scan_powerset(model.sr_generators, model.n)
        for deg in p.degrees():
            assert multiplicity_factors(model.sr_generators, deg) == hochster_side(model, deg), (name, deg)


def test_vanishing_outside_degree_set():
    # the vanishing theorem through the total function: off the lattice the
    # factors read {} and so does Hochster on the fan complex
    for name in ("P2", "P1xP1", "P1xP1xP1", "F1", "dP3"):
        model = load_bundled(name)
        p = scan_powerset(model.sr_generators, model.n)
        for deg in range(1 << model.n):
            if deg not in p:
                assert hochster_side(model, deg) == {}, (name, deg)
                assert multiplicity_factors(model.sr_generators, deg) == {}, (name, deg)


def test_hochster_on_every_subset_of_bundled_models():
    for name in ("P2", "P1xP1", "P1xP1xP1", "F1", "dP3"):
        model = load_bundled(name)
        check_every_subset(model.sr_generators, model.n)


def test_hochster_on_every_subset_of_random_antichains():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 8)
        drawn = {rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 7))}
        antichain = sorted(g for g in drawn if not any(h != g and h & g == h for h in drawn))
        check_every_subset(antichain, n)


def test_symmetry_consequence_of_dual_filter():
    # any degree with a nonzero factor has its complement in the degree set
    for name in ("P2", "P1xP1", "P1xP1xP1", "F1", "dP3"):
        model = load_bundled(name)
        p = scan_powerset(model.sr_generators, model.n)
        contributing = set(contributing_degrees(p))
        for deg in p.degrees():
            if multiplicity_factors(model.sr_generators, deg):
                assert deg in contributing, (name, deg)


def test_equals_gamma_reference_on_bundled_models():
    for name in ("P2", "P1xP1", "P1xP1xP1", "F1", "dP3"):
        model = load_bundled(name)
        table = lattice_table(model.sr_generators, model.n)
        assert table == gamma_factor_table(model.sr_generators, model.n), name


@pytest.mark.parametrize("factor", ["P1", "F1"])
def test_products_compute_each_component_once(factor, monkeypatch):
    # a degree of dP3 x F1 joins a part of dP3 and a part of F1, so each
    # dP3 component recurs in every degree that pairs it with an F1 part;
    # the table computes each of dP3's 36 components once, as dP3's does
    calls = []
    homology = multiplicity.reduced_homology

    def counted(delta):
        calls.append(delta)
        return homology(delta)

    monkeypatch.setattr(multiplicity, "reduced_homology", counted)
    dp3 = load_bundled("dP3")
    model = product_model(dp3, P1 if factor == "P1" else load_bundled(factor))
    table = lattice_table(model.sr_generators, model.n)
    assert len(calls) == 36
    assert table == gamma_factor_table(model.sr_generators, model.n)
    calls.clear()
    lattice_table(dp3.sr_generators, dp3.n)
    assert len(calls) == 36


def test_degree_outside_the_lattice_rejected():
    # 0b001 is no union of generators: x1 lies in none inside it, so it is
    # a cone apex and the factors are zero, read as {} rather than refused
    gens = (0b011, 0b110)
    assert multiplicity_factors(gens, 0b001) == {}
    assert multiplicity_table(gens, [0b001, 0b011]) == {0b001: {}, 0b011: {1: 1}}


@pytest.mark.parametrize("name, gens, n, top", [
    # P1^12: the top degree joins 12 one-generator components; as one
    # complex it would have 3^12 faces
    ("P1^12", [0b11 << 2 * i for i in range(12)], 24, {12: 1}),
    ("P^12", [(1 << 13) - 1], 13, {1: 1}),
])
def test_large_tables_are_fast(name, gens, n, top):
    start = time.perf_counter()
    table = lattice_table(gens, n)
    elapsed = time.perf_counter() - start
    assert len(table) == 2 ** len(gens)
    assert table[(1 << n) - 1] == top
    assert elapsed < 1.0, (name, elapsed)


@pytest.mark.parametrize("gaps", [[], [0], [1], [0, 2], [0, 1], [0, 2, 4], [0, 0, 0], [1, 3, 0]])
def test_equals_gamma_reference_on_polygon_fans(gaps):
    model = polygon_model(polygon_rays(gaps))
    table = lattice_table(model.sr_generators, model.n)
    assert table == gamma_factor_table(model.sr_generators, model.n)


def five_collections():
    """Batyrev's Picard-rank-3 shape: primitive collections X_i u X_{i+1}."""
    blocks = [0b1111 << 4 * i for i in range(5)]
    return [blocks[i] | blocks[(i + 1) % 5] for i in range(5)], 20


def general_position():
    """Five generators meeting in all 31 Venn regions, one vertex each."""
    return [sum(1 << (v - 1) for v in range(1, 32) if v >> i & 1) for i in range(5)], 31


@pytest.mark.parametrize("case", [five_collections, general_position])
def test_overlapping_large_generators_are_fast(case):
    # the full degree of the five collections restricts the Stanley-Reisner
    # complex to about a million faces, but to five vertex classes; the
    # general-position set has 31 classes, so its crosscut on the five
    # generators is used
    gens, n = case()
    start = time.perf_counter()
    table = lattice_table(gens, n)
    assert time.perf_counter() - start < 1.0
    assert table == gamma_factor_table(gens, n)


def test_face_bound():
    # the twelve cyclic 6-windows of a 12-cycle: twelve classes, twelve
    # generators, and more than MAX_FACES faces either way
    gens = [sum(1 << (i + k) % 12 for k in range(6)) for i in range(12)]
    degrees = scan_powerset(gens, 12).degrees()
    start = time.perf_counter()
    with pytest.raises(ModelError, match=f"more than {MAX_FACES} faces"):
        multiplicity_table(gens, degrees)
    assert time.perf_counter() - start < 5.0


def test_vertex_classes_merge():
    # every vertex of the heptagon doubled: fourteen generators over seven
    # classes; unmerged, the full degree alone has more than MAX_FACES
    # faces.  Doubling variables is flat, so the factors are the
    # heptagon's, degree for degree.
    model = polygon_model(polygon_rays([0, 2, 4, 6]))

    def double(mask):
        return sum(3 << 2 * v for v in range(model.n) if mask >> v & 1)

    doubled = [double(g) for g in model.sr_generators]
    degrees = scan_powerset(doubled, 2 * model.n).degrees()
    start = time.perf_counter()
    table = multiplicity_table(doubled, degrees)
    assert time.perf_counter() - start < 1.0
    expected = lattice_table(model.sr_generators, model.n)
    assert table == {double(d): f for d, f in expected.items()}


def test_factor_complexes_are_built_closed(monkeypatch):
    # the factor complexes are recorded closed without a check; a validated
    # copy of each (range and closure checked) must read closed
    built = []
    homology = multiplicity.reduced_homology

    def captured(delta):
        built.append(delta)
        return homology(delta)

    monkeypatch.setattr(multiplicity, "reduced_homology", captured)
    models = [load_bundled(name) for name in bundled_model_names()]
    models.append(product_model(load_bundled("dP3"), load_bundled("F1")))
    cases = [(m.sr_generators, m.n) for m in models] + [five_collections(), general_position()]
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randint(2, 9)
        drawn = {rng.randrange(1, 1 << n) for _ in range(rng.randint(2, 7))}
        antichain = sorted(g for g in drawn if not any(h != g and h & g == h for h in drawn))
        cases.append((antichain, n))
    for gens, n in cases:
        lattice_table(gens, n)
    assert len(built) > 200
    for delta in built:
        assert FaceSet(delta.vertex_count, delta.faces).is_subset_closed, delta
