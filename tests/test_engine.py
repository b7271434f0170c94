import math
import random
import re
import time

import pytest

from toric_cohomology import (
    CohomologyEngine,
    NonFiniteCohomologyError,
    ToricVarietyModel,
    canonical_class,
    cohomology,
    engine_for,
    load_bundled,
    serre_check,
    sr_from_max_cones,
)

from util import polygon_model, polygon_rays

ALL_MODELS = ("P2", "P1xP1", "P1xP1xP1", "F1", "dP3")
# the engine's summation and the fan route, each on a given engine
ROUTES = (lambda eng: eng.cohomology, lambda eng: eng.oracle.cohomology_via_fan)
ROUTE_IDS = ("engine", "fan")


def p1_dims(m):
    if m >= 0:
        return (m + 1, 0)
    if m <= -2:
        return (0, -m - 1)
    return (0, 0)


@pytest.fixture(scope="module")
def p2():
    return load_bundled("P2")


@pytest.fixture(scope="module")
def p1xp1():
    return load_bundled("P1xP1")


class TestCohomology:
    def test_p2_examples(self, p2):
        assert cohomology(p2, (2,)).dims == (6, 0, 0)
        assert cohomology(p2, (-3,)).dims == (0, 0, 1)

    def test_p1xp1_example(self, p1xp1):
        assert cohomology(p1xp1, (-2, 3)).dims == (0, 4, 0)

    def test_structure_sheaf(self):
        for name in ALL_MODELS:
            m = load_bundled(name)
            assert cohomology(m, (0,) * m.num_classes).dims == (1,) + (0,) * m.dim

    def test_wrong_class_length(self, p2):
        with pytest.raises(ValueError, match="entries"):
            cohomology(p2, (0, 0))

    @pytest.mark.parametrize("route", ROUTES, ids=ROUTE_IDS)
    def test_class_length_checked_on_both_routes(self, p2, route):
        with pytest.raises(ValueError, match="divisor class needs 1 entries, got 2"):
            route(CohomologyEngine(p2))((1, 2))

    def test_breakdown_sums_to_dims(self, p1xp1):
        rng = random.Random(3)
        for _ in range(20):
            alpha = (rng.randint(-4, 4), rng.randint(-4, 4))
            res = cohomology(p1xp1, alpha)
            totals = [0] * (p1xp1.dim + 1)
            for entry in res.breakdown:
                for i, c in entry.contrib.items():
                    totals[i] += c
            assert tuple(totals) == res.dims


class TestBatch:
    def test_p2_series(self, p2):
        got = [cohomology(p2, a).dims for a in [(-1,), (0,), (1,)]]
        assert got == [(0, 0, 0), (1, 0, 0), (3, 0, 0)]

    def test_p1xp1_kunneth_box(self, p1xp1):
        for a in range(-2, 3):
            for b in range(-2, 3):
                expect = [0] * 3
                for p in range(2):
                    for q in range(2):
                        expect[p + q] += p1_dims(a)[p] * p1_dims(b)[q]
                assert cohomology(p1xp1, (a, b)).dims == tuple(expect)


class TestSerre:
    def test_p2_example(self, p2):
        ok, report = serre_check(p2, (2,))
        assert ok
        assert report["h_alpha"] == (6, 0, 0)
        assert report["serre_dual"] == (-5,)
        assert report["h_dual"] == (0, 0, 6)

    def test_p1xp1_example(self, p1xp1):
        ok, report = serre_check(p1xp1, (0, 0))
        assert ok and report["h_dual"] == (0, 0, 1)

    def test_random_classes_all_models(self):
        rng = random.Random(7)
        for name in ALL_MODELS:
            m = load_bundled(name)
            for _ in range(10):
                alpha = tuple(rng.randint(-3, 3) for _ in range(m.num_classes))
                ok, report = serre_check(m, alpha)
                assert ok, report


def truncated_p2():
    cones = (0b011, 0b101)  # one maximal cone removed
    gens = tuple(sr_from_max_cones(cones, 3))
    return ToricVarietyModel(("x1", "x2", "x3"), 2, ((1,), (1,), (1,)), gens, cones)


class TestNonFinite:
    def test_truncated_fan_raises(self):
        m = truncated_p2()
        for alpha in (-3, -1, 0, 2):
            with pytest.raises(NonFiniteCohomologyError, match="non-finite"):
                cohomology(m, (alpha,))

    @pytest.mark.parametrize("route", ROUTES, ids=ROUTE_IDS)
    def test_both_routes_raise_with_one_text(self, route):
        # the two routes reach different infinite fibers (011 and 100)
        with pytest.raises(NonFiniteCohomologyError) as info:
            route(CohomologyEngine(truncated_p2()))((0,))
        assert re.fullmatch(
            r"non-finite cohomology: infinite neg-group at degree [01]{3} "
            r"with nonzero multiplicity \(input fan likely not complete\)",
            str(info.value),
        )

    def test_class_outside_charge_lattice_is_zero(self):
        # charges 2,2,2: odd classes have no monomials at all, so the
        # infinite neg-groups of the truncated fan never meet them
        cones = (0b011, 0b101)
        m = ToricVarietyModel(
            ("x1", "x2", "x3"), 2, ((2,), (2,), (2,)),
            tuple(sr_from_max_cones(cones, 3)), cones,
        )
        assert cohomology(m, (1,)).dims == (0, 0, 0)
        with pytest.raises(NonFiniteCohomologyError, match="non-finite"):
            cohomology(m, (0,))

    def test_bundled_models_never_raise(self):
        rng = random.Random(11)
        for name in ALL_MODELS:
            m = load_bundled(name)
            for _ in range(5):
                alpha = tuple(rng.randint(-4, 4) for _ in range(m.num_classes))
                cohomology(m, alpha)  # must not raise


def test_determinism_and_caching(p2):
    a = cohomology(p2, (4,))
    b = cohomology(p2, (4,))
    assert a.dims == b.dims == (math.comb(6, 2), 0, 0)
    eng = engine_for(p2)
    assert eng.degree_set is engine_for(p2).degree_set


def test_breakdown_lists_the_nonzero_factor_degrees():
    # dP3: 46 lattice degrees, 12 of them with zero factors
    model = load_bundled("dP3")
    eng = engine_for(model)
    nonzero = [deg for deg, factors in sorted(eng.table.items()) if factors]
    assert len(nonzero) == 34 and len(eng.table) == 46
    assert list(eng.table) == sorted(eng.table)
    result = cohomology(model, (1, 1, 0, -1))
    assert "breakdown" not in vars(result)  # built when read, not by the engine
    assert [entry.degree for entry in result.breakdown] == nonzero


def test_count_memo_keeps_only_fibers_the_kill_mask_leaves():
    # dP3 at (1, 1, 1, -1): the kill mask empties 33 of the 34 fibers
    eng = CohomologyEngine(load_bundled("dP3"))
    result = eng.cohomology((1, 1, 1, -1))
    assert len(eng.counter._counts) == 1
    assert len(result.breakdown) == 34
    assert sum(1 for entry in result.breakdown if entry.count.value) == 1


def test_results_of_separate_engines_compare_equal():
    # a result holds its engine, but only alpha and dims decide equality
    model = load_bundled("dP3")
    a, b = (CohomologyEngine(model).cohomology((1, 1, 0, -1)) for _ in range(2))
    assert a.engine is not b.engine and a == b


def test_nonnegative_dims_everywhere():
    rng = random.Random(17)
    for name in ALL_MODELS:
        m = load_bundled(name)
        for _ in range(10):
            alpha = tuple(rng.randint(-5, 5) for _ in range(m.num_classes))
            assert all(h >= 0 for h in cohomology(m, alpha).dims)


def test_heptagon_structure_sheaf_is_fast():
    # 14 Stanley-Reisner generators: a 2^14 powerset walk with exact-degree
    # complexes did not finish in minutes
    model = polygon_model(polygon_rays([0, 2, 4, 6]))
    assert model.n == 7 and model.t == 14
    start = time.perf_counter()
    assert cohomology(model, (0,) * model.num_classes).dims == (1, 0, 0)
    assert time.perf_counter() - start < 5.0


def test_eleven_gon_structure_sheaf_is_fast():
    # 2^11 sigmas, most with nonzero factors, each needing a recession test
    model = polygon_model(polygon_rays([2 * s for s in range(8)]))
    assert model.n == 11
    start = time.perf_counter()
    assert cohomology(model, (0,) * model.num_classes).dims == (1, 0, 0)
    assert time.perf_counter() - start < 5.0
