import itertools
import json
import math
import operator
import random

import pytest

from toric_cohomology import (
    NonFiniteCohomologyError,
    ToricVarietyModel,
    enumerate_neg_group,
    load_bundled,
    neg_group_count,
    recession_test,
)
from toric_cohomology import counting
from toric_cohomology.counting import (
    ZERO,
    _circuits,
    _fm_eliminate,
    _floor_sum,
    _lattice_count,
    _lattice_points,
    format_rationom,
)
from toric_cohomology.engine import CohomologyEngine, counter_for
from toric_cohomology.exact_linalg import echelon
from toric_cohomology.model import parse_variety

from util import (
    _recedes,
    all_terms_dims,
    boxed_recession_test,
    brute_force_neg_group,
    charge_image,
    circuit_supports,
    cone_recession_test,
    fiber_verdict,
    fm_eliminate,
    fm_fiber_verdict,
    mask_of,
    neg_mask,
    polygon_model,
    polygon_rays,
    product_model,
    series_count,
    signed_system,
    truncated_p2,
)

RECEDING = {"coordinates": ["x1", "x2"], "dimension": 1,
             "charges": [[2], [0]], "sr_ideal": [[2]]}
POINT = {"coordinates": ["x1", "x2"], "dimension": 0,
         "charges": [[1, 0], [0, 1]], "sr_ideal": [[1], [2]]}
P1 = ToricVarietyModel(("u", "v"), 1, ((1,), (1,)), (0b11,), (0b01, 0b10))


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
        models = [
            polygon_model(polygon_rays([0, 2, 4, 6, 1])),
            product_model(P1, product_model(P1, load_bundled("P1xP1xP1"))),
            product_model(load_bundled("dP3"), P1),
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


def oriented(*vectors):
    return sorted(v for t in vectors for v in (t, tuple(-x for x in t)))


def doubled(model):
    """The model with every charge doubled: classes with an odd entry leave the charge lattice."""
    return type(model)(model.coordinate_names, model.dim,
                       tuple(tuple(2 * q for q in row) for row in model.charges),
                       model.sr_generators, model.max_cones)


class TestCircuits:
    def test_hand_checked(self):
        # P1 and P2: the K rows are dependent only through the charge row
        assert sorted(_circuits(counter_for(P1)._rows)) == oriented((1, 1))
        assert sorted(_circuits(counter_for(load_bundled("P2"))._rows)) == oriented((1, 1, 1))
        assert sorted(_circuits(P1.charges)) == oriented((1, -1))
        # d = 0: every K row is the empty vector
        point = counter_for(parse_variety(json.dumps(POINT)))
        assert point._rows == [(), ()]
        assert sorted(_circuits(point._rows)) == oriented((1, 0), (0, 1))
        # K rows (0,) and (1,); charges 2 and 0
        receding = parse_variety(json.dumps(RECEDING))
        assert sorted(_circuits(counter_for(receding)._rows)) == oriented((1, 0))
        assert sorted(_circuits(receding.charges)) == oriented((0, 1))
        assert _circuits([]) == []

    def test_match_ranks_of_every_subset(self):
        rng = random.Random(7)
        for _ in range(150):
            n, m = rng.randint(1, 7), rng.randint(0, 4)
            vectors = [tuple(rng.choice([0, 0, 1, -1, 2, -3]) for _ in range(m)) for _ in range(n)]
            if rng.random() < 0.2 and n > 1:
                vectors[1] = tuple(2 * x for x in vectors[0])  # a parallel pair
            if rng.random() < 0.3 and m > 1:
                # the last coordinate a combination of the others: one condition drops
                c = [rng.choice([1, -1, 2, 0]) for _ in range(m - 1)]
                vectors = [v[:-1] + (sum(x * y for x, y in zip(c, v)),) for v in vectors]
                assert len(echelon(list(zip(*vectors)))) < m
            got = _circuits(vectors)
            assert len(set(got)) == len(got) and sorted(got) == oriented(*got[::2])
            for t in got:
                assert math.gcd(*t) == 1
                assert all(sum(ti * v[r] for ti, v in zip(t, vectors)) == 0 for r in range(m))
            assert {sum(1 << i for i, x in enumerate(t) if x) for t in got} == circuit_supports(vectors)


class TestCircuitVerdicts:
    """Circuits decide emptiness and recession; Fourier-Motzkin is the reference."""

    MODELS = {name: load_bundled(name) for name in ("P2", "P1xP1", "P1xP1xP1", "F1", "dP3")}
    MODELS.update((f"{n}-gon", polygon_model(polygon_rays([0, 2, 4, 6, 1, 3][:n - 3]))) for n in range(4, 10))
    MODELS.update({
        "dP3xP1": product_model(load_bundled("dP3"), P1),
        "P1^4": product_model(P1, product_model(P1, load_bundled("P1xP1"))),
        "2F1": doubled(load_bundled("F1")),
        "2P2": doubled(load_bundled("P2")),
        "receding": parse_variety(json.dumps(RECEDING)),
    })

    @pytest.mark.parametrize("name", MODELS)
    def test_every_sigma_over_sampled_classes(self, name):
        model = self.MODELS[name]
        rng = random.Random(model.n)
        counter = counter_for(model)
        # the classes of a few small vectors and their neighbours, inside and
        # (for the doubled charges) outside the charge lattice
        classes = {(1,) * model.num_classes}
        for _ in range(6):
            alpha = charge_image(model, [rng.randint(-2, 2) for _ in range(model.n)])
            classes.add(alpha)
            classes.add(tuple(a + rng.randint(-1, 1) for a in alpha))
        seen = set()
        for alpha in sorted(classes):
            for sigma in range(1 << model.n):
                verdict = fiber_verdict(counter, alpha, sigma)
                assert verdict == fm_fiber_verdict(counter, alpha, sigma), (alpha, sigma)
                seen.add(verdict)
        assert "empty" in seen and len(seen) > 1
        for sigma in range(1 << model.n):
            rows = counter._inequalities((0,) * model.n, sigma)
            assert counter.recession(sigma) == _recedes(rows, counter._d), sigma

    def test_empty_fibers_share_one_zero(self, p2):
        counter = counter_for(p2)
        assert counter.count((2,), 0b111) is ZERO  # killed by the circuit (1, 1, 1)
        assert counter.count((-1,), 0) is ZERO
        assert counter.count((1,), 0).value == 3


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


class TestInputChecks:
    """A class and a degree are checked where they first enter the counter's memos."""

    @pytest.mark.parametrize("alpha", [(2.0,), (1.5,), (True,)])
    def test_class_entries_must_be_ints(self, p2, alpha):
        counter = CohomologyEngine(p2).counter
        for call in (counter.count, counter.enumerate):
            with pytest.raises(ValueError, match="must be integers"):
                call(alpha, 0)
        with pytest.raises(ValueError, match="must be integers"):
            counter.dims(alpha, [])
        assert counter._base == {} and counter._counts == {}

    def test_class_length_checked_on_every_entry_point(self, p2):
        counter = CohomologyEngine(p2).counter
        for call, second in ((counter.count, 0), (counter.enumerate, 0), (counter.dims, [])):
            with pytest.raises(ValueError, match="divisor class needs 1 entries, got 2"):
                call((1, 2), second)

    @pytest.mark.parametrize("sigma", [0b1000, -1, 1 << 64])
    def test_degree_outside_the_coordinates_refused(self, p2, sigma):
        counter = CohomologyEngine(p2).counter
        for call in (lambda: counter.count((3,), sigma), lambda: counter.enumerate((3,), sigma),
                     lambda: counter.recession(sigma)):
            with pytest.raises(ValueError, match="not a subset of the 3 coordinates"):
                call()
        assert counter.count((3,), 0).value == 10


class TestAliveTerms:
    """`dims` sums only the terms a class's kill mask leaves alive; one pass over every term is the reference."""

    MODELS = {name: load_bundled(name) for name in ("P2", "P1xP1", "P1xP1xP1", "F1", "dP3")}
    MODELS.update((f"{n}-gon", polygon_model(polygon_rays([0, 2, 4, 6, 1][:n - 3]))) for n in (4, 6, 8))
    MODELS.update({"P1^4": product_model(P1, product_model(P1, load_bundled("P1xP1"))),
                   "2F1": doubled(load_bundled("F1")),
                   "2P2": doubled(load_bundled("P2"))})

    @pytest.mark.parametrize("name", MODELS)
    def test_dims_match_the_all_terms_loop(self, name):
        model = self.MODELS[name]
        rng = random.Random(name)
        eng = CohomologyEngine(model)
        off_lattice = 0
        for _ in range(40):
            alpha = tuple(rng.randint(-5, 5) for _ in range(model.num_classes))
            off_lattice += eng.counter._class(alpha)[0] is None
            for terms in (eng.terms, eng.oracle.terms):
                assert eng.counter.dims(alpha, terms) == all_terms_dims(eng.counter, alpha, terms), alpha
        # the doubled charges put about half the classes outside the lattice
        assert off_lattice > 5 if name.startswith("2") else off_lattice == 0
        # one list per kill mask met, for each of the two term lists
        kills = {eng.counter._class(alpha)[1] for alpha in eng.counter._base if eng.counter._base[alpha][0]}
        assert len(eng.counter._alive) == 2
        assert all(set(masks) == kills for _, masks in eng.counter._alive.values())

    @pytest.mark.parametrize("route", ["engine", "oracle"])
    def test_non_finite_class_raises_the_same_message(self, route):
        eng = CohomologyEngine(truncated_p2())
        terms = eng.terms if route == "engine" else eng.oracle.terms
        with pytest.raises(NonFiniteCohomologyError) as got:
            eng.counter.dims((0,), terms)
        with pytest.raises(NonFiniteCohomologyError) as expect:
            all_terms_dims(eng.counter, (0,), terms)
        assert str(got.value) == str(expect.value)

    def test_short_lived_term_lists_each_get_their_own_answer(self, p2):
        # each list is dropped after its call, so a later one can take its
        # address; every call shares one kill mask and one alive sigma
        counter = CohomologyEngine(p2).counter
        for w in range(1, 20):
            assert counter.dims((1,), [(0, (0, w, 0))]) == (0, 3 * w, 0)


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

    @staticmethod
    def check_class_box(model, classes, bound):
        """count == len(enumerate) == the bucket of one walk of the
        [-bound, bound]^n box, by (class, negative support), for every sigma
        of every class with a finite neg-group.  The walk is lexicographic,
        so every bucket is sorted; a point outside the box fails the check."""
        buckets = {}
        for u in itertools.product(range(-bound, bound + 1), repeat=model.n):
            buckets.setdefault((charge_image(model, u), neg_mask(u)), []).append(u)
        finite = 0
        for alpha in classes:
            for sigma in range(1 << model.n):
                res = neg_group_count(model, alpha, sigma)
                if res.is_infinite:
                    continue
                finite += 1
                expect = buckets.get((alpha, sigma), [])
                assert enumerate_neg_group(model, alpha, sigma) == expect, (alpha, sigma)
                assert res.value == len(expect), (alpha, sigma)
        assert finite

    def test_p1xp1_box(self, p1xp1):
        self.check_class_box(p1xp1, itertools.product(range(-3, 3), repeat=2), 5)

    # the models whose counts dominate the benchmark's class sweep and
    # oracle check; every point of these classes' finite neg-groups lies in
    # [-5, 5]^4 on F1 and [-3, 3]^6 on dP3
    def test_f1_box(self):
        self.check_class_box(load_bundled("F1"), itertools.product(range(-3, 3), repeat=2), 5)

    def test_dp3_box(self):
        self.check_class_box(load_bundled("dP3"), itertools.product(range(-1, 2), repeat=4), 3)


def box_rows(bounds):
    """Rows lo_i <= y_i <= hi_i."""
    rows = []
    for i, (lo, hi) in enumerate(bounds):
        unit = tuple(int(j == i) for j in range(len(bounds)))
        rows += [(unit, hi), (tuple(-x for x in unit), -lo)]
    return rows


class TestClosedFormCount:
    """The count sums the last two coordinates in closed form; the walk is the reference."""

    def test_floor_sum(self):
        rng = random.Random(5)
        for _ in range(500):
            n, m = rng.randint(0, 25), rng.randint(1, 12)
            a, b = rng.randint(-30, 30), rng.randint(-50, 50)
            assert _floor_sum(n, m, a, b) == sum((a * x + b) // m for x in range(n))
        assert _floor_sum(10**5, 7, 3, -5) == sum((3 * x - 5) // 7 for x in range(10**5))

    @pytest.mark.parametrize("rows, expect", [
        # w <= v and w <= 4 - v cross at the integer v = 2; 0 <= w
        ([((-1, 1), 0), ((1, 1), 4), ((0, -1), 0)], 9),
        # 3w <= 2v and 2w <= 8 - v cross at v = 24/7; 0 <= w
        ([((-2, 3), 0), ((1, 2), 8), ((0, -1), 0)], 16),
        # parallel upper rows v + 2w <= 6 and v + 2w <= 7 in the box [0, 6]^2
        (box_rows([(0, 6), (0, 6)]) + [((1, 2), 6), ((1, 2), 7)], 16),
        # two lower lines crossing at v = 12/5: w >= 5 - 2v, w >= v/2 - 1
        (box_rows([(0, 6), (0, 6)]) + [((-2, -1), -5), ((1, -2), 2)], 34),
        # a one-point range: v = 3
        (box_rows([(3, 3), (-2, 5)]), 8),
        # v/3 <= w <= (v + 1)/3: empty at v = 1 and v = 4
        ([((-1, 3), 1), ((1, -3), 0), ((1, 0), 5), ((-1, 0), 0)], 4),
        # 2v = 1 has a rational point and no integer one
        ([((2, 0), 1), ((-2, 0), -1), ((0, 1), 3), ((0, -1), 0)], 0),
        # an empty polygon
        (box_rows([(0, 4), (0, 4)]) + [((1, 1), -1)], 0),
    ])
    def test_two_variable_cases(self, rows, expect):
        assert not _recedes(rows, 2)
        assert len(list(_lattice_points(rows, 2))) == expect
        assert _lattice_count(rows, 2) == expect

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
    def test_random_bounded_systems(self, nvars):
        rng = random.Random(17 + nvars)
        for _ in range(400):
            bounds = []
            for _ in range(nvars):
                lo = rng.randint(-6, 6)
                bounds.append((lo, lo + rng.randint(-1, 9)))  # hi = lo - 1 is empty
            rows = box_rows(bounds)
            for _ in range(rng.randint(0, 5)):
                co = [rng.randint(-4, 4) for _ in range(nvars)]
                if rng.random() < 0.3:  # free of the variable eliminated first
                    co[-1] = 0
                co = tuple(co)
                rows.append((co, rng.randint(-12, 20)))
                if rng.random() < 0.3:  # a parallel row
                    rows.append((co, rng.randint(-12, 20)))
                if rng.random() < 0.2:  # a repeated row
                    rows.append(rows[-1])
            assert _lattice_count(rows, nvars) == len(list(_lattice_points(rows, nvars))), rows

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
    def test_count_matches_a_box_walk(self, nvars, extra, monkeypatch):
        # The walk shares the Fourier-Motzkin levels with the count, so the
        # reference here is every point of a bounding box, tested row by row.
        # The last coordinate w has `lines` bounding rows; v, the one before
        # it, ranges over lines + extra values at every prefix, because every
        # row holds at w = w0 over the whole box.  Fewer values than lines
        # are summed value by value, the others in closed form.  Half the
        # systems then get rows that cut the box anywhere, so that the
        # bounds on the first coordinates come from combined rows too.
        closed = []
        sum_floor_min = counting._sum_floor_min
        monkeypatch.setattr(counting, "_sum_floor_min", lambda *a: closed.append(a) or sum_floor_min(*a))
        rng = random.Random(31 + 10 * nvars + extra)
        for _ in range(60):
            center = [rng.randint(-4, 4) for _ in range(nvars)]
            co_rows = []
            for _ in range(rng.randint(0, 4)):
                co = [rng.randint(-3, 3) for _ in range(nvars)]
                if rng.random() < 0.2:  # free of w
                    co[-1] = 0
                co_rows.append(co)
            lines = 2 + sum(1 for co in co_rows if co[-1])
            bounds = [(c - rng.randint(0, 1), c + rng.randint(0, 1)) for c in center]
            bounds[-1] = (center[-1] - rng.randint(0, 3), center[-1] + rng.randint(0, 3))
            if nvars > 1:
                width = lines + extra
                lo = center[-2] - rng.randrange(width)
                bounds[-2] = (lo, lo + width - 1)
            rows = box_rows(bounds)
            for co in co_rows:
                top = sum(max(x * lo, x * hi) for x, (lo, hi) in zip(co[:-1], bounds))
                rows.append((tuple(co), top + co[-1] * center[-1] + rng.randint(0, 3)))
            cutting = rng.random() < 0.5
            for _ in range(rng.randint(1, 2) if cutting else 0):
                co = [rng.randint(-3, 3) for _ in range(nvars)]
                top = sum(max(x * lo, x * hi) for x, (lo, hi) in zip(co, bounds))
                low = sum(min(x * lo, x * hi) for x, (lo, hi) in zip(co, bounds))
                rows.append((tuple(co), rng.randint(low, top)))
            closed.clear()
            expect = sum(
                all(sum(map(operator.mul, co, y)) <= rhs for co, rhs in rows)
                for y in itertools.product(*(range(lo, hi + 1) for lo, hi in bounds))
            )
            assert _lattice_count(rows, nvars) == expect, rows
            if nvars > 1 and not cutting:
                assert bool(closed) == (extra >= 0), rows

    def test_fm_eliminate_matches_the_plain_rule(self):
        rng = random.Random(23)
        for _ in range(500):
            nvars = rng.randint(1, 4)
            rows = []
            for _ in range(rng.randint(0, 8)):
                co = [rng.choice((0, 0, 1, -1, 2, -3, 4)) for _ in range(nvars)]
                scale = rng.choice((1, 1, 2, 3))  # rows with a common factor
                rows.append((tuple(scale * x for x in co), rng.randint(-12, 12)))
                if rng.random() < 0.2:
                    rows.append(rows[-1])
            var = rng.randrange(nvars)
            got = _fm_eliminate(rows, var)
            assert len(set(got)) == len(got)
            assert set(got) == fm_eliminate(rows, var), (rows, var)


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
