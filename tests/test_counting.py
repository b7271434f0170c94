import itertools
import json
import math
import random

import pytest

from toric_cohomology import (
    ToricVarietyModel,
    enumerate_neg_group,
    load_bundled,
    neg_group_count,
    recession_test,
)
from toric_cohomology.counting import format_rationom
from toric_cohomology.engine import counter_for
from toric_cohomology.model import parse_variety

from util import (
    boxed_recession_test,
    brute_force_neg_group,
    charge_image,
    cone_recession_test,
    mask_of,
    neg_mask,
    polygon_model,
    polygon_rays,
    product_model,
    series_count,
    signed_system,
)

RECEDING = {"coordinates": ["x1", "x2"], "dimension": 1,
             "charges": [[2], [0]], "sr_ideal": [[2]]}


@pytest.fixture(scope="module")
def p2():
    return load_bundled("P2")


@pytest.fixture(scope="module")
def p1xp1():
    return load_bundled("P1xP1")


class TestRecessionTest:
    def test_identity_kernel_trivial(self):
        assert recession_test([[1, 0], [0, 1]]) is False

    def test_mixed_signs(self):
        assert recession_test([[1, -1]]) is True

    def test_positive_row(self):
        assert recession_test([[1, 1, 1]]) is False

    def test_empty_matrix(self):
        assert recession_test([]) is False

    def test_matches_brute_force_ray_search(self):
        rng = random.Random(31)
        for _ in range(60):
            m, n = rng.randint(1, 3), rng.randint(1, 4)
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            # search small nonnegative integer vectors for a kernel witness
            witness = any(
                all(sum(r * w for r, w in zip(row, ws)) == 0 for row in a)
                for ws in itertools.product(range(4), repeat=n)
                if any(ws)
            )
            got = recession_test(a)
            if witness:
                assert got  # a rational ray certainly exists
            # (no integer witness in the box does not prove the cone trivial,
            # so only the forward implication is asserted here)
            assert got == boxed_recession_test(a)

    def test_matches_boxed_program_on_every_sigma(self):
        models = [load_bundled(name) for name in ("P2", "P1xP1", "P1xP1xP1", "F1", "dP3")]
        models += [polygon_model(polygon_rays([0, 2, 4, 6][:n - 3])) for n in range(3, 8)]
        for model in models:
            counter = counter_for(model)
            for sigma in range(1 << model.n):
                a = signed_system(model, sigma)
                expect = boxed_recession_test(a)
                assert recession_test(a) == expect, (model.n, sigma)
                assert counter.recession(sigma) == expect, (model.n, sigma)

    def test_matches_cone_program_on_larger_models(self):
        p1 = ToricVarietyModel(("u", "v"), 1, ((1,), (1,)), (0b11,), (0b01, 0b10))
        models = [
            polygon_model(polygon_rays([0, 2, 4, 6, 1])),
            product_model(p1, product_model(p1, load_bundled("P1xP1xP1"))),
            product_model(load_bundled("dP3"), p1),
        ]
        for model in models:
            counter = counter_for(model)
            for sigma in range(1 << model.n):
                a = signed_system(model, sigma)
                expect = cone_recession_test(a)
                assert recession_test(a) == expect, (model.n, sigma)
                assert counter.recession(sigma) == expect, (model.n, sigma)

    def test_zero_rows_recede(self):
        assert recession_test([[0, 0]]) is True
        assert recession_test([[0, 0], [1, 1]]) is False


class TestCounts:
    def test_p2_sections(self, p2):
        for d in range(0, 6):
            assert neg_group_count(p2, (d,), 0).value == math.comb(d + 2, 2)

    def test_p2_top_form(self, p2):
        assert neg_group_count(p2, (-3,), 0b111).value == 1

    def test_p1xp1_mixed(self, p1xp1):
        assert neg_group_count(p1xp1, (-2, 3), 0b0011).value == 4

    def test_p2_infinite_class(self, p2):
        assert neg_group_count(p2, (0,), 0b001).is_infinite

    def test_empty_when_class_unreachable(self, p2):
        assert neg_group_count(p2, (-1,), 0).value == 0
        assert neg_group_count(p2, (2,), 0b111).value == 0

    def test_receding_fiber_empty_over_q(self):
        # x2 has charge 0, so every sigma recedes along u2; class -2 needs
        # u1 = -1, which no sigma leaving x1 nonnegative admits
        model = parse_variety(json.dumps(RECEDING))
        counter = counter_for(model)
        for sigma in (0b00, 0b10):
            assert counter.recession(sigma)
            assert neg_group_count(model, (-2,), sigma).value == 0
            assert enumerate_neg_group(model, (-2,), sigma) == []
        assert neg_group_count(model, (2,), 0b00).is_infinite
        assert neg_group_count(model, (-2,), 0b01).is_infinite
        with pytest.raises(ValueError, match="infinite"):
            enumerate_neg_group(model, (2,), 0b00)


class TestEnumerate:
    def test_unique_point(self, p2):
        assert enumerate_neg_group(p2, (-3,), 0b111) == [(-1, -1, -1)]

    def test_degree_one_monomials(self, p2):
        assert enumerate_neg_group(p2, (1,), 0) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_p1xp1_single(self, p1xp1):
        assert enumerate_neg_group(p1xp1, (-2, 0), 0b0011) == [(-1, -1, 0, 0)]

    def test_limit_and_order(self, p2):
        full = enumerate_neg_group(p2, (3,), 0)
        assert full == sorted(full) and len(full) == 10
        assert full[:4] == [(0, 0, 3), (0, 1, 2), (0, 2, 1), (0, 3, 0)]

    def test_infinite_enumeration_rejected(self, p2):
        with pytest.raises(ValueError, match="infinite"):
            enumerate_neg_group(p2, (0,), 0b001)


class TestAgainstBruteForce:
    def test_p2_all_classes(self, p2):
        for alpha in range(-5, 5):
            for sigma in range(1 << 3):
                res = neg_group_count(p2, (alpha,), sigma)
                if res.is_infinite:
                    continue
                # entries of any solution are bounded by |alpha| + 3 here
                expect = brute_force_neg_group(p2, (alpha,), sigma, abs(alpha) + 3)
                assert enumerate_neg_group(p2, (alpha,), sigma) == expect
                assert res.value == len(expect)

    def test_p1xp1_box(self, p1xp1):
        # one walk of the [-5, 5]^4 box, bucketed by (class, negative support);
        # the walk is lexicographic, so every bucket is sorted
        buckets = {}
        for u in itertools.product(range(-5, 6), repeat=4):
            buckets.setdefault((charge_image(p1xp1, u), neg_mask(u)), []).append(u)
        for alpha in itertools.product(range(-3, 3), repeat=2):
            for sigma in range(1 << 4):
                res = neg_group_count(p1xp1, alpha, sigma)
                if res.is_infinite:
                    continue
                expect = buckets.get((alpha, sigma), [])
                assert enumerate_neg_group(p1xp1, alpha, sigma) == expect


def test_disjoint_union_classification(p2):
    # every vector of a class falls in exactly one neg-group
    for alpha in (-4, -3, 0, 2):
        seen = set()
        for u in itertools.product(range(-4, 5), repeat=3):
            if charge_image(p2, u) != (alpha,):
                continue
            sigma = neg_mask(u)
            if neg_group_count(p2, (alpha,), sigma).is_infinite:
                continue
            assert u not in seen
            seen.add(u)
            assert tuple(u) in enumerate_neg_group(p2, (alpha,), sigma)


def test_generating_function_cross_check(p2):
    # single charge column: counts are coefficients of prod 1/(1-z^q)
    for alpha in range(0, 12):
        assert neg_group_count(p2, (alpha,), 0).value == series_count([1, 1, 1], alpha)
    for alpha in range(-12, -2):
        # all-negative support: substitute and count with positive weights
        beta = -alpha - 3
        assert neg_group_count(p2, (alpha,), 0b111).value == series_count([1, 1, 1], beta)


def test_permutation_invariance(p1xp1):
    rng = random.Random(43)
    model = p1xp1
    for _ in range(20):
        perm = list(range(model.n))
        rng.shuffle(perm)
        permuted = type(model)(
            tuple(model.coordinate_names[p] for p in perm),
            model.dim,
            tuple(model.charges[p] for p in perm),
            tuple(mask_of(perm.index(i) for i in range(model.n) if g >> i & 1)
                  for g in model.sr_generators),
            None,
        )
        alpha = (rng.randint(-3, 3), rng.randint(-3, 3))
        sigma = rng.randrange(1 << model.n)
        sigma_p = mask_of(perm.index(i) for i in range(model.n) if sigma >> i & 1)
        a = neg_group_count(model, alpha, sigma)
        b = neg_group_count(permuted, alpha, sigma_p)
        assert a == b


def test_recession_memoized_per_sigma(p2):
    counter = counter_for(p2)
    counter.count((1,), 0b010)
    assert 0b010 in counter._recession


def test_signed_system_shape(p2):
    rows = signed_system(p2, 0b101)
    assert rows == [[-1, 1, -1]]


def test_format_rationom(p2):
    assert format_rationom(p2, (0, 0, 0)) == "1"
    assert format_rationom(p2, (2, 1, 0)) == "x1^2*x2"
    assert format_rationom(p2, (-1, -1, -1)) == "1/(x1*x2*x3)"
    assert format_rationom(p2, (3, -2, 0)) == "x1^3/x2^2"
