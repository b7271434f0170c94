import random

import pytest

from toric_cohomology import (
    CohomologyEngine,
    FanOracle,
    ModelError,
    NonFiniteCohomologyError,
    ToricVarietyModel,
    cohomology,
    cohomology_via_fan,
    engine_for,
    fan_complex,
    hochster_check,
    load_bundled,
    oracle_for,
    sr_from_max_cones,
)
from toric_cohomology import engine as engine_module
from toric_cohomology.engine import counter_for
from toric_cohomology.oracle import HOCHSTER_SAMPLE

from util import product_model, vertex_sets

ALL_MODELS = ("P2", "P1xP1", "P1xP1xP1", "F1", "dP3")


@pytest.fixture(scope="module")
def p2():
    return load_bundled("P2")


class TestFanComplex:
    def test_p2_is_hollow_triangle(self, p2):
        fc = fan_complex(p2)
        assert vertex_sets(fc) == [
            (), (0,), (0, 1), (0, 2), (1,), (1, 2), (2,),
        ]

    def test_no_fan_data_rejected(self):
        m = ToricVarietyModel(
            ("x1", "x2", "x3"), 2, ((1,), (1,), (1,)), (0b111,), None
        )
        with pytest.raises(ModelError, match="max_cones"):
            fan_complex(m)
        with pytest.raises(ModelError, match="max_cones"):
            FanOracle(CohomologyEngine(m))


class TestRestrictionHomology:
    def test_p2_full_restriction_is_circle(self, p2):
        oracle = oracle_for(p2)
        assert oracle.restriction_homology(0b111) == {1: 1}

    def test_proper_restrictions_contractible(self, p2):
        oracle = oracle_for(p2)
        for sigma in range(1, 0b111):
            assert oracle.restriction_homology(sigma) == {}

    def test_empty_restriction(self, p2):
        assert oracle_for(p2).restriction_homology(0) == {-1: 1}


class TestFanRoute:
    def test_p2_examples(self, p2):
        assert cohomology_via_fan(p2, (2,)) == (6, 0, 0)
        assert cohomology_via_fan(p2, (-3,)) == (0, 0, 1)

    def test_p1xp1_example(self):
        m = load_bundled("P1xP1")
        assert cohomology_via_fan(m, (-2, 3)) == (0, 4, 0)

    def test_wrong_class_length(self, p2):
        with pytest.raises(ValueError, match="entries"):
            cohomology_via_fan(p2, (1, 1))

    def test_agrees_with_engine_route(self):
        rng = random.Random(5)
        for name in ALL_MODELS:
            m = load_bundled(name)
            for _ in range(15):
                alpha = tuple(rng.randint(-4, 4) for _ in range(m.num_classes))
                assert cohomology_via_fan(m, alpha) == cohomology(m, alpha).dims, (
                    name,
                    alpha,
                )


@pytest.mark.parametrize("k", range(1, 6))
def test_p1_power_terms_in_closed_form(k):
    # the fan complex of P1^k is the join of k two-point complexes; its
    # restriction to a complement is a cone unless that complement takes
    # each pair whole or not at all, and then it is a (k - p - 1)-sphere,
    # p the number of pairs in sigma, which weighs h^p with 1
    p1 = ToricVarietyModel(("u", "v"), 1, ((1,), (1,)), (0b11,), (0b01, 0b10))
    m = p1
    for _ in range(k - 1):
        m = product_model(p1, m)
    engine = CohomologyEngine(m)
    expected = []
    for pairs in range(1 << k):
        sigma = sum(0b11 << 2 * i for i in range(k) if pairs >> i & 1)
        p = pairs.bit_count()
        expected.append((sigma, tuple(int(i == p) for i in range(k + 1))))
    assert sorted(FanOracle(engine).terms) == expected
    assert "table" not in vars(engine)


def truncated_p2():
    cones = (0b011, 0b101)
    gens = tuple(sr_from_max_cones(cones, 3))
    return ToricVarietyModel(("x1", "x2", "x3"), 2, ((1,), (1,), (1,)), gens, cones)


def test_truncated_fan_raises_on_fan_route():
    m = truncated_p2()
    with pytest.raises(NonFiniteCohomologyError, match="non-finite"):
        cohomology_via_fan(m, (0,))


class TestHochster:
    def test_all_bundled_models_clean(self):
        for name in ALL_MODELS:
            report = hochster_check(load_bundled(name))
            assert report.ok, (name, report.mismatches)
            assert report.checked > 0
            assert report.vanishing_checked > 0

    def test_p2_counts(self, p2):
        report = hochster_check(p2)
        # degrees 000 and 111 are scanned; the other six must vanish
        assert report.checked == 2
        assert report.vanishing_checked == 6

    def test_sampling_is_deterministic(self):
        # P1^4 has 240 degrees outside its 16-degree lattice, more than the sample
        p1 = ToricVarietyModel(("u", "v"), 1, ((1,), (1,)), (0b11,), (0b01, 0b10))
        m = product_model(p1, load_bundled("P1xP1xP1"))
        a, b = FanOracle(CohomologyEngine(m)), FanOracle(CohomologyEngine(m))
        ra, rb = a.hochster_check(), b.hochster_check()
        assert ra.vanishing_checked == rb.vanishing_checked == HOCHSTER_SAMPLE
        assert ra.mismatches == rb.mismatches == []
        # the same degrees were sampled: both oracles computed the same restrictions
        assert a._homology.keys() == b._homology.keys()

    def test_mismatch_is_reported(self, p2):
        oracle = FanOracle(CohomologyEngine(p2))
        oracle._homology = {}
        oracle._homology[0b111] = {0: 5}  # poison the cache
        report = oracle.hochster_check()
        assert not report.ok
        assert any("111" in m for m in report.mismatches)


class TestOwnership:
    def test_engine_owns_the_oracle_and_the_counter(self):
        m = load_bundled("F1")
        engine = engine_for(m)
        assert oracle_for(m) is engine.oracle
        assert oracle_for(m).counter is engine.counter is counter_for(m)

    def test_direct_engine_has_a_private_counter(self):
        m = load_bundled("F1")
        assert CohomologyEngine(m).counter is not counter_for(m)
        # a bare model, as bench/make_refs.py passes, gets an engine of its own
        assert FanOracle(m).counter is not counter_for(m)

    def test_direct_engine_oracle_stays_on_that_engine(self):
        m = load_bundled("dP3")
        engine = CohomologyEngine(m)
        assert engine.oracle.counter is engine.counter
        registered = dict(engine_module._engines)
        assert engine.oracle.hochster_check().ok
        assert "table" in vars(engine)  # the owner's factor table was built
        assert engine_module._engines == registered
