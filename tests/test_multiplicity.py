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


def test_p2_factors():
    p = scan_powerset((0b111,), 3)
    assert multiplicity_factors(p, 0b111) == {1: 1}
    assert multiplicity_factors(p, 0) == {0: 1}


def test_p1xp1_factors():
    p = scan_powerset((0b0011, 0b1100), 4)
    assert multiplicity_factors(p, 0b1111) == {2: 1}
    assert multiplicity_factors(p, 0b0011) == {1: 1}
    assert multiplicity_factors(p, 0b1100) == {1: 1}


def test_triangle_generators_stress_case():
    # three pairwise-overlapping generators: the all-ones degree carries
    # multiplicity two, pinned independently by the Hochster side below
    p = scan_powerset((0b011, 0b110, 0b101), 3)
    assert multiplicity_factors(p, 0b111) == {2: 2}
    for single in (0b011, 0b110, 0b101):
        assert multiplicity_factors(p, single) == {1: 1}


def test_tables_assemble_sparsely():
    p = scan_powerset((0b111,), 3)
    assert multiplicity_table(p) == {0: {0: 1}, 0b111: {1: 1}}


def test_factor_range_bounds():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(2, 7)
        gens = sorted({rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 6))})
        p = scan_powerset(gens, n)
        for deg in p.degrees():
            size = bin(deg).count("1")
            for r, beta in multiplicity_factors(p, deg).items():
                assert beta > 0
                assert 0 <= r <= size


def hochster_side(model, deg):
    size = bin(deg).count("1")
    dims = reduced_homology(restrict(fan_complex(model), deg))
    return {size - j - 1: h for j, h in dims.items()}


def test_hochster_agreement_on_bundled_models():
    for name in ("P2", "P1xP1", "P1xP1xP1", "F1", "dP3"):
        model = load_bundled(name)
        p = scan_powerset(model.sr_generators, model.n)
        for deg in p.degrees():
            assert multiplicity_factors(p, deg) == hochster_side(model, deg), (name, deg)


def test_vanishing_outside_degree_set():
    for name in ("P2", "P1xP1", "P1xP1xP1", "F1", "dP3"):
        model = load_bundled(name)
        p = scan_powerset(model.sr_generators, model.n)
        for deg in range(1 << model.n):
            if deg not in p:
                assert hochster_side(model, deg) == {}, (name, deg)


def test_symmetry_consequence_of_dual_filter():
    # any degree with a nonzero factor has its complement in the degree set
    for name in ("P2", "P1xP1", "P1xP1xP1", "F1", "dP3"):
        model = load_bundled(name)
        p = scan_powerset(model.sr_generators, model.n)
        contributing = set(contributing_degrees(p))
        for deg in p.degrees():
            if multiplicity_factors(p, deg):
                assert deg in contributing, (name, deg)


def test_equals_gamma_reference_on_bundled_models():
    for name in ("P2", "P1xP1", "P1xP1xP1", "F1", "dP3"):
        model = load_bundled(name)
        p = scan_powerset(model.sr_generators, model.n)
        table = multiplicity_table(p)
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
    p = scan_powerset(model.sr_generators, model.n)
    table = multiplicity_table(p)
    assert len(calls) == 36
    assert table == gamma_factor_table(model.sr_generators, model.n)
    calls.clear()
    multiplicity_table(scan_powerset(dp3.sr_generators, dp3.n))
    assert len(calls) == 36


def test_degree_outside_the_lattice_rejected():
    p = scan_powerset((0b011, 0b110), 3)
    with pytest.raises(ValueError, match="not in"):
        multiplicity_factors(p, 0b001)


@pytest.mark.parametrize("name, gens, n, top", [
    # P1^12: the top degree joins 12 one-generator components; as one
    # complex it would have 3^12 faces
    ("P1^12", [0b11 << 2 * i for i in range(12)], 24, {12: 1}),
    ("P^12", [(1 << 13) - 1], 13, {1: 1}),
])
def test_large_tables_are_fast(name, gens, n, top):
    start = time.perf_counter()
    p = scan_powerset(gens, n)
    table = multiplicity_table(p)
    elapsed = time.perf_counter() - start
    assert len(table) == 2 ** len(gens)
    assert table[(1 << n) - 1] == top
    assert elapsed < 1.0, (name, elapsed)


@pytest.mark.parametrize("gaps", [[], [0], [1], [0, 2], [0, 1], [0, 2, 4], [0, 0, 0], [1, 3, 0]])
def test_equals_gamma_reference_on_polygon_fans(gaps):
    model = polygon_model(polygon_rays(gaps))
    p = scan_powerset(model.sr_generators, model.n)
    table = multiplicity_table(p)
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
    p = scan_powerset(gens, n)
    table = multiplicity_table(p)
    assert time.perf_counter() - start < 1.0
    assert table == gamma_factor_table(gens, n)


def test_face_bound():
    # the twelve cyclic 6-windows of a 12-cycle: twelve classes, twelve
    # generators, and more than MAX_FACES faces either way
    gens = [sum(1 << (i + k) % 12 for k in range(6)) for i in range(12)]
    p = scan_powerset(gens, 12)
    start = time.perf_counter()
    with pytest.raises(ModelError, match=f"more than {MAX_FACES} faces"):
        multiplicity_table(p)
    assert time.perf_counter() - start < 5.0


def test_vertex_classes_merge():
    # every vertex of the heptagon doubled: fourteen generators over seven
    # classes; unmerged, the full degree alone has more than MAX_FACES
    # faces.  Doubling variables is flat, so the factors are the
    # heptagon's, degree for degree.
    model = polygon_model(polygon_rays([0, 2, 4, 6]))

    def double(mask):
        return sum(3 << 2 * v for v in range(model.n) if mask >> v & 1)

    heptagon = scan_powerset(model.sr_generators, model.n)
    doubled = scan_powerset([double(g) for g in model.sr_generators], 2 * model.n)
    start = time.perf_counter()
    table = multiplicity_table(doubled)
    assert time.perf_counter() - start < 1.0
    expected = multiplicity_table(heptagon)
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
        multiplicity_table(scan_powerset(gens, n))
    assert len(built) > 200
    for delta in built:
        assert FaceSet(delta.vertex_count, delta.faces).is_subset_closed, delta
