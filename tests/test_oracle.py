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
from toric_cohomology import FaceSet, reduced_homology, restrict
from toric_cohomology import engine as engine_module
from toric_cohomology import oracle as oracle_module
from toric_cohomology._bits import bits, bitstring
from toric_cohomology.engine import counter_for
from toric_cohomology.oracle import MAX_SCAN_VERTICES

from util import (
    fan_terms,
    polygon_model,
    polygon_rays,
    product_model,
    random_complex,
    truncated_p2,
    vertex_sets,
)

ALL_MODELS = ("P2", "P1xP1", "P1xP1xP1", "F1", "dP3")

P1 = ToricVarietyModel(("u", "v"), 1, ((1,), (1,)), (0b11,), (0b01, 0b10))


def p1_power(k):
    m = P1
    for _ in range(k - 1):
        m = product_model(P1, m)
    return m


def polygon(n):
    return polygon_model(polygon_rays([2 * s for s in range(n - 3)]))



@pytest.fixture(scope="module")
def p2():
    return load_bundled("P2")


class TestFanComplex:
    def test_p2_is_hollow_triangle(self, p2):
        fc = fan_complex(p2)
        assert vertex_sets(fc) == [
            (), (0,), (0, 1), (0, 2), (1,), (1, 2), (2,),
        ]

    def test_sr_only_fan_complex_is_sr_complex(self):
        # the cones derived from the generators close to the sets holding none
        m = ToricVarietyModel(
            ("x1", "x2", "y1", "y2"), 2, ((1, 0), (1, 0), (0, 1), (0, 1)), (0b0011, 0b1100), None
        )
        faces = {s for s in range(16) if not any(g & s == g for g in m.sr_generators)}
        assert fan_complex(m).faces == faces
        assert FanOracle(CohomologyEngine(m)).hochster_check().ok


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
    engine = CohomologyEngine(p1_power(k))
    expected = []
    for pairs in range(1 << k):
        sigma = sum(0b11 << 2 * i for i in range(k) if pairs >> i & 1)
        p = pairs.bit_count()
        expected.append((sigma, tuple(int(i == p) for i in range(k + 1))))
    assert sorted(FanOracle(engine).terms) == expected
    assert "table" not in vars(engine)


class TestSweep:
    """`FanOracle.terms` sweeps the subsets; `fan_terms` is the plain 2^n loop."""

    def test_bundled_models(self):
        for name in ALL_MODELS:
            m = load_bundled(name)
            assert FanOracle(m).terms == fan_terms(m), name

    @pytest.mark.parametrize("n", range(3, 13))
    def test_polygon_fans(self, n):
        m = polygon(n)
        assert FanOracle(m).terms == fan_terms(m)

    def test_p1_powers_and_products(self):
        models = [p1_power(k) for k in range(1, 7)]
        models += [product_model(load_bundled(a), load_bundled(b))
                   for a, b in (("P2", "F1"), ("dP3", "P2"), ("F1", "P1xP1"))]
        models.append(product_model(polygon(7), P1))
        for m in models:
            assert FanOracle(m).terms == fan_terms(m), m.n

    def test_random_incomplete_cone_subsets(self):
        rng = random.Random(59)
        bases = [load_bundled(name) for name in ALL_MODELS]
        bases += [polygon(8), p1_power(4), product_model(load_bundled("P2"), P1)]
        for _ in range(60):
            base = rng.choice(bases)
            cones = tuple(sorted(rng.sample(base.max_cones, rng.randint(1, len(base.max_cones)))))
            m = ToricVarietyModel(base.coordinate_names, base.dim, base.charges,
                                  tuple(sr_from_max_cones(cones, base.n)), cones)
            assert FanOracle(m).terms == fan_terms(m), cones

    def test_apex_lemma_on_random_complexes(self):
        # a restriction that is a cone over a keeps that apex in every
        # restriction to a smaller subset containing a
        rng = random.Random(61)
        cones = 0
        for _ in range(300):
            n = rng.randint(1, 7)
            delta, sigma = random_complex(n, rng), rng.randrange(1 << n)
            a = restrict(delta, sigma).cone_apex
            if a < 0:
                continue
            cones += 1
            # the restriction keeps delta's labels: its apex is a vertex of sigma
            assert sigma >> a & 1, (delta, sigma, a)
            for v in bits(sigma & ~(1 << a)):
                child = sigma & ~(1 << v)
                faces = {f for f in delta.faces if not f & ~child}
                assert all(f | 1 << a in faces for f in faces), (delta, sigma, v)
        assert cones > 50

    @staticmethod
    def counted(monkeypatch):
        calls = {"restrict": 0, "reduced_homology": 0, "cone_apex": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in ("restrict", "reduced_homology"):
            monkeypatch.setattr(oracle_module, name, counting(name, getattr(oracle_module, name)))
        apex = FaceSet.cone_apex
        monkeypatch.setattr(apex, "func", counting("cone_apex", apex.func))
        return calls

    def test_p1_five_restricts_94_subsets_and_ranks_32(self, monkeypatch):
        m = p1_power(5)
        calls = self.counted(monkeypatch)
        terms = FanOracle(m).terms
        # the 32 restrictions taking each pair whole or not at all are
        # spheres, the terms; the other 62 restricted subsets are cones whose
        # parent hands down no apex they keep, and 930 subsets are not restricted
        assert len(terms) == 32
        assert calls == {"restrict": 94, "reduced_homology": 32, "cone_apex": 94}

    def test_twelve_gon_does_no_more_than_the_loop(self, monkeypatch):
        # almost no restriction of a 12-cycle is a cone: the sweep restricts
        # nearly every subset, with one cone test each
        m = polygon(12)
        calls = self.counted(monkeypatch)
        FanOracle(m).terms
        assert calls["cone_apex"] == calls["restrict"] <= 1 << m.n
        assert calls["reduced_homology"] <= calls["restrict"]

    @pytest.mark.parametrize("m", [load_bundled(name) for name in ALL_MODELS] + [p1_power(4)],
                             ids=list(ALL_MODELS) + ["P1^4"])
    def test_swept_map_answers_every_subset(self, m):
        # each non-acyclic restriction is stored, and only those
        homology = FanOracle(m)._homology
        delta = fan_complex(m)
        for sigma in range(1 << m.n):
            assert homology.get(sigma, {}) == reduced_homology(restrict(delta, sigma)), sigma
        assert all(homology.values())

    def test_bound(self):
        n = MAX_SCAN_VERTICES + 1
        full = (1 << n) - 1
        projective = ToricVarietyModel(tuple(f"x{i}" for i in range(n)), n - 1, ((1,),) * n,
                                       (full,), tuple(full ^ 1 << i for i in range(n)))
        with pytest.raises(ModelError, match=r"sweeps all 2\^n coordinate subsets; n=21 exceeds 20"):
            FanOracle(CohomologyEngine(projective))


def test_truncated_fan_raises_on_fan_route():
    m = truncated_p2()
    with pytest.raises(NonFiniteCohomologyError, match="non-finite"):
        cohomology_via_fan(m, (0,))


class TestHochster:
    def test_all_bundled_models_clean(self):
        for name in ALL_MODELS:
            engine = CohomologyEngine(load_bundled(name))
            report = engine.oracle.hochster_check()
            assert report.ok, (name, report.mismatches)
            assert report.checked == len(engine.table) > 0
            assert report.vanishing_checked == (1 << engine.model.n) - len(engine.table) > 0

    def test_p2_counts(self, p2):
        report = hochster_check(p2)
        # degrees 000 and 111 are scanned; the other six must vanish
        assert report.checked == 2
        assert report.vanishing_checked == 6

    def test_every_subset_outside_the_lattice_is_checked(self):
        # P1^4 has 240 subsets outside its 16-degree lattice
        engine = CohomologyEngine(p1_power(4))
        report = engine.oracle.hochster_check()
        assert (report.checked, report.vanishing_checked) == (16, 240)
        assert report.ok, report.mismatches

    def test_planted_homology_is_reported(self):
        engine = CohomologyEngine(p1_power(4))
        homology = engine.oracle._homology
        outside = next(s for s in range(1 << 8) if s not in engine.table)
        homology[outside] = {0: 1}
        lattice = max(engine.table)  # the full set, a 3-sphere with factors {4: 1}
        homology[lattice] = {0: 1}
        report = engine.oracle.hochster_check()
        assert sorted(report.mismatches, key=lambda m: "outside" not in m) == [
            f"degree {bitstring(outside, 8)} outside the degree set has "
            "nonvanishing restriction homology {0: 1}",
            "degree 11111111: factor table {4: 1} != Hochster {7: 1}",
        ]

    def test_mismatch_is_reported(self, p2):
        oracle = FanOracle(CohomologyEngine(p2))
        oracle._homology = {}
        oracle._homology[0b111] = {0: 5}  # planted in the swept map
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
