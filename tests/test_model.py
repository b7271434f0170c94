import json
import random
import time

import pytest

from toric_cohomology import (
    ModelError,
    ToricVarietyModel,
    bundled_model_names,
    canonical_class,
    load_bundled,
    parse_variety,
    sr_from_max_cones,
)
from toric_cohomology import model as model_module
from toric_cohomology._bits import to_1based

from util import fan_document, k_pairs_doc, mask_of, minimal_nonfaces, random_pure_model, unit_charges

P2_DOC = {
    "coordinates": ["x1", "x2", "x3"],
    "dimension": 2,
    "charges": [[1], [1], [1]],
    "sr_ideal": [[1, 2, 3]],
}

P1XP1_DOC = {
    "coordinates": ["x1", "x2", "y1", "y2"],
    "dimension": 2,
    "charges": [[1, 0], [1, 0], [0, 1], [0, 1]],
    "sr_ideal": [[1, 2], [3, 4]],
}


class TestParse:
    def test_p2(self):
        m = parse_variety(json.dumps(P2_DOC))
        assert m.n == 3 and m.dim == 2 and m.t == 1
        assert m.sr_generators == (0b111,)
        assert m.max_cones == (0b011, 0b101, 0b110)

    def test_p1xp1(self):
        m = parse_variety(json.dumps(P1XP1_DOC))
        assert m.n == 4 and m.dim == 2 and m.t == 2
        assert m.sr_generators == (0b0011, 0b1100)

    def test_non_minimal_generators_rejected(self):
        doc = dict(P2_DOC, sr_ideal=[[1, 2], [1, 2, 3]])
        with pytest.raises(ModelError, match="non-minimal"):
            parse_variety(json.dumps(doc))
        doc = dict(P2_DOC, sr_ideal=[[1, 2, 3], [1, 2, 3]])
        with pytest.raises(ModelError, match="non-minimal"):
            parse_variety(json.dumps(doc))

    def test_malformed_document(self):
        with pytest.raises(ModelError, match="malformed"):
            parse_variety("{not json")
        with pytest.raises(ModelError, match="malformed"):
            parse_variety("[" * 100000)
        with pytest.raises(ModelError, match="missing"):
            parse_variety(json.dumps({"coordinates": ["x"], "dimension": 1}))
        with pytest.raises(ModelError):
            parse_variety(json.dumps({"coordinates": ["x"], "charges": []}))

    def test_requires_some_fan_data(self):
        doc = {k: v for k, v in P2_DOC.items() if k != "sr_ideal"}
        with pytest.raises(ModelError, match="sr_ideal"):
            parse_variety(json.dumps(doc))

    def test_non_integer_charges(self):
        doc = dict(P2_DOC, charges=[[1], [1.5], [1]])
        with pytest.raises(ModelError, match="non-integer"):
            parse_variety(json.dumps(doc))

    def test_null_charges(self):
        # sr_ideal and max_cones may be null, the required charges may not
        doc = dict(P2_DOC, charges=None)
        with pytest.raises(ModelError, match="charges"):
            parse_variety(json.dumps(doc))

    def test_dimension_consistency(self):
        doc = dict(P2_DOC, charges=[[1, 0], [0, 1], [1, 1]])
        with pytest.raises(ModelError):
            parse_variety(json.dumps(doc))

    def test_rank_deficient_charges(self):
        doc = dict(P1XP1_DOC, charges=[[1, 1], [1, 1], [2, 2], [0, 0]])
        with pytest.raises(ModelError, match="rank"):
            parse_variety(json.dumps(doc))

    def test_bad_vertex_index(self):
        doc = dict(P2_DOC, sr_ideal=[[1, 2, 7]])
        with pytest.raises(ModelError, match="out of range"):
            parse_variety(json.dumps(doc))

    def test_generator_order_insensitive(self):
        a = parse_variety(json.dumps(P1XP1_DOC))
        b = parse_variety(json.dumps(dict(P1XP1_DOC, sr_ideal=[[4, 3], [2, 1]])))
        assert a == b

    def test_coordinates_must_be_a_list_of_strings(self):
        with pytest.raises(ModelError, match="coordinates"):
            parse_variety(json.dumps(dict(P2_DOC, coordinates="xyz")))

    def test_dimension_below_coordinate_count(self):
        # no complete fan of dimension d >= 1 has fewer than d + 1 rays
        doc = {"coordinates": ["x1", "x2"], "dimension": 2,
               "charges": [[], []], "sr_ideal": [[1, 2]]}
        with pytest.raises(ModelError, match="dimension 2 out of range 0..1"):
            parse_variety(json.dumps(doc))

    def test_dimension_must_not_be_a_bool(self):
        doc = dict(P2_DOC, coordinates=["x1", "x2"], charges=[[1], [1]], dimension=True,
                   sr_ideal=[[1, 2]])
        with pytest.raises(ModelError, match="dimension"):
            parse_variety(json.dumps(doc))

    def test_sr_ideal_must_be_lists_of_integers(self):
        for bad in ([1], [[1, True]], [[1, 2.0]], {"a": [1]}):
            with pytest.raises(ModelError, match="sr_ideal"):
                parse_variety(json.dumps(dict(P2_DOC, sr_ideal=bad)))
        doc = dict(P2_DOC, max_cones=[[1, 2], [1, "3"]])
        with pytest.raises(ModelError, match="max_cones"):
            parse_variety(json.dumps(doc))

    def test_sr_derived_from_cones_only(self):
        doc = {k: v for k, v in P2_DOC.items() if k != "sr_ideal"}
        doc["max_cones"] = [[1, 2], [1, 3], [2, 3]]
        m = parse_variety(json.dumps(doc))
        assert m.sr_generators == (0b111,)

    @pytest.mark.parametrize("keys", [("max_cones",), ("sr_ideal",), ("sr_ideal", "max_cones")],
                             ids=["cones-only", "sr-only", "both-given"])
    def test_each_document_derives_once(self, keys, monkeypatch):
        calls = []

        def counted(cones, n):
            calls.append(n)
            return sr_from_max_cones(cones, n)

        monkeypatch.setattr(model_module, "sr_from_max_cones", counted)
        doc = dict(P1XP1_DOC, max_cones=[[1, 3], [1, 4], [2, 3], [2, 4]])
        doc = {k: v for k, v in doc.items() if k in keys or k not in ("sr_ideal", "max_cones")}
        m = parse_variety(json.dumps(doc))
        assert m.sr_generators == (0b0011, 0b1100)
        assert m.max_cones == (0b0101, 0b0110, 0b1001, 0b1010)
        assert calls == [4]

    def test_model_needs_generators_or_cones(self):
        with pytest.raises(ModelError, match="required"):
            ToricVarietyModel(("x1", "x2", "x3"), 2, ((1,), (1,), (1,)))


class TestSrFromMaxCones:
    def test_p2(self):
        cones = [mask_of((0, 1)), mask_of((0, 2)), mask_of((1, 2))]
        assert sr_from_max_cones(cones, 3) == [0b111]

    def test_p1xp1(self):
        cones = [mask_of(c) for c in ((0, 2), (0, 3), (1, 2), (1, 3))]
        assert sr_from_max_cones(cones, 4) == [0b0011, 0b1100]

    def test_full_simplex_has_no_nonfaces(self):
        assert sr_from_max_cones([0b11], 2) == []

    def test_empty_cone_list(self):
        with pytest.raises(ModelError):
            sr_from_max_cones([], 3)

    def test_derived_generators_are_nonfaces(self):
        rng = random.Random(41)
        for _ in range(30):
            n = rng.randint(2, 7)
            d = rng.randint(1, n - 1)
            cones = {mask_of(rng.sample(range(n), d)) for _ in range(rng.randint(1, 5))}
            gens = sr_from_max_cones(sorted(cones), n)
            for g in gens:
                assert all(g & c != g for c in cones)

    def test_matches_brute_force_minimal_nonfaces(self):
        rng = random.Random(17)
        for case in range(300):
            n = rng.randint(1, 8)
            # any masks: non-pure, nested and repeated cones all occur
            cones = [rng.getrandbits(n) for _ in range(rng.randint(1, 6))]
            if case % 5 == 0:
                cones.append(rng.choice(cones))
            if case % 7 == 0:
                cones.append(rng.choice(cones) & rng.getrandbits(n))
            if case % 11 == 0:
                cones.append((1 << n) - 1)
            assert sr_from_max_cones(cones, n) == minimal_nonfaces(cones, n), (cones, n)

    def test_k_pairs_derive_quickly(self):
        start = time.perf_counter()
        m = parse_variety(json.dumps(k_pairs_doc(13)))
        assert m.t == 1 << 13 and time.perf_counter() - start < 1.0
        assert all(bin(g).count("1") == 13 for g in m.sr_generators)

    def test_k_pairs_over_the_bound(self):
        start = time.perf_counter()
        with pytest.raises(ModelError, match="passed 65536"):
            parse_variety(json.dumps(k_pairs_doc(17)))
        assert time.perf_counter() - start < 2.0

    def test_sr_only_k_pairs_parse_quickly(self):
        # minimality compares a generator with strictly smaller ones only,
        # and the 8,192 generators of k = 13 all have 13 vertices
        k = 13
        doc = {key: v for key, v in k_pairs_doc(k).items() if key != "max_cones"}
        doc["sr_ideal"] = [[2 * i + 1 + (c >> i & 1) for i in range(k)] for c in range(1 << k)]
        text = json.dumps(doc)
        start = time.perf_counter()
        m = parse_variety(text)
        assert time.perf_counter() - start < 1.0
        full = (1 << 2 * k) - 1
        assert m.t == 1 << k and m.max_cones == tuple(sorted(full ^ 3 << 2 * i for i in range(k)))
        # one smaller generator inside many of them is still named
        doc["sr_ideal"].append([1, 3])
        with pytest.raises(ModelError, match=r"non-minimal generating set: \{1, 3\} vs \{1, 3, "):
            parse_variety(json.dumps(doc))

    def test_sr_only_p2_power_parses_quickly(self):
        # one Berge pass to the 3^10 maximal faces, none back to the generators
        k = 10
        doc = {
            "coordinates": [f"x{i + 1}" for i in range(3 * k)],
            "dimension": 2 * k,
            "charges": [[int(i // 3 == j) for j in range(k)] for i in range(3 * k)],
            "sr_ideal": [[3 * i + 1, 3 * i + 2, 3 * i + 3] for i in range(k)],
        }
        text = json.dumps(doc)
        start = time.perf_counter()
        m = parse_variety(text)
        assert time.perf_counter() - start < 0.4
        assert m.t == k and len(m.max_cones) == 3 ** k

    def test_generator_list_over_the_bound(self):
        # refused before any per-generator check, in one line
        with pytest.raises(ModelError, match="^65537 Stanley-Reisner generators, more than 65536$"):
            ToricVarietyModel(("x1", "x2", "x3"), 2, ((1,), (1,), (1,)), (0b111,) * 65537)


class TestValidationInvariants:
    @pytest.mark.parametrize("dim, charges, message", [
        (2.0, ((1,), (1,), (1,)), "dimension must be an integer"),
        (True, ((1, 0),) * 3, "dimension must be an integer"),
        (2, ((1,), (True,), (1,)), "non-integer charge entry"),
    ], ids=["float-dimension", "bool-dimension", "bool-charge"])
    def test_constructor_needs_integers(self, dim, charges, message):
        with pytest.raises(ModelError, match=message):
            ToricVarietyModel(("x1", "x2", "x3"), dim, charges, max_cones=(0b011, 0b101, 0b110))

    def test_cone_containing_generator_rejected(self):
        with pytest.raises(ModelError):
            ToricVarietyModel(
                ("x1", "x2", "x3"), 2, ((1,), (1,), (1,)),
                (0b011,), (0b011, 0b101),
            )

    def test_repeated_cone_refused(self):
        # kept, it would make the model unequal to the same fan listed once
        with pytest.raises(ModelError, match=r"^maximal cone \{2, 3\} is listed twice$"):
            ToricVarietyModel(
                ("x1", "x2", "x3"), 2, ((1,), (1,), (1,)), None, (0b011, 0b101, 0b110, 0b110),
            )

    def test_cone_size_must_match_dimension(self):
        with pytest.raises(ModelError, match="vertices"):
            ToricVarietyModel(
                ("x1", "x2", "x3"), 2, ((1,), (1,), (1,)),
                (0b111,), (0b001, 0b110),
            )

    def test_cross_validation_of_stored_sr(self):
        # stored SR misses the {3,4} generator the cones imply
        with pytest.raises(ModelError, match="inconsistent"):
            ToricVarietyModel(
                ("x1", "x2", "x3", "x4"), 2,
                ((1, 0), (1, 0), (0, 1), (0, 1)),
                (0b0011,), (0b0101, 0b1001, 0b0110, 0b1010),
            )

    def test_coordinate_bound(self):
        names = tuple(f"x{i}" for i in range(64))
        with pytest.raises(ModelError, match="at most 63 coordinates supported, got 64"):
            ToricVarietyModel(names, 63, ((1,),) * 64, ((1 << 64) - 1,))

    @pytest.mark.parametrize("gens, cones, message", [
        ((0b1111,), None, "Stanley-Reisner generator outside coordinate range"),
        (None, (0b011, 0b101, 0b1010), "maximal cone outside coordinate range"),
    ], ids=["generator", "cone"])
    def test_mask_outside_coordinate_range(self, gens, cones, message):
        # parse_variety refuses a bad JSON index first; the constructor takes masks
        with pytest.raises(ModelError, match=message):
            ToricVarietyModel(("x1", "x2", "x3"), 2, ((1,), (1,), (1,)), gens, cones)

    def test_bundled_models_round_trip(self):
        for name in bundled_model_names():
            m = load_bundled(name)
            assert m.max_cones is not None
            assert tuple(sr_from_max_cones(m.max_cones, m.n)) == m.sr_generators


class TestAlexanderDuality:
    """Generators and maximal faces are derived from each other, and either one
    given alone yields the same model."""

    def test_cones_and_generators_parse_to_one_model(self):
        rng = random.Random(53)
        for _ in range(500):
            model = random_pure_model(rng.randint(1, 8), rng)
            for key in ("max_cones", "sr_ideal"):
                assert parse_variety(json.dumps(fan_document(model, key))) == model, (model, key)

    def test_contained_or_repeated_generators_refused(self):
        names, charges = tuple(f"x{i + 1}" for i in range(6)), unit_charges(6, 2)
        rng = random.Random(43)
        for _ in range(500):
            gens = sorted(rng.randrange(1, 64) for _ in range(rng.randint(0, 8)))
            # the first generator that repeats or contains an earlier one, and
            # the smallest earlier one inside it
            pair = next(((g, h) for i, h in enumerate(gens) for g in gens[:i] if g & h == g), None)
            try:
                ToricVarietyModel(names, 2, charges, tuple(gens))
                message = ""
            except ModelError as exc:
                message = str(exc)
            if pair:
                g, h = (set(to_1based(m)) for m in pair)
                assert message == f"non-minimal generating set: {g} vs {h}", (gens, message)
            else:
                assert not message.startswith("non-minimal"), (gens, message)

    def test_no_generators_leave_the_full_simplex(self):
        # its one maximal face has n vertices, and the dimension is below n
        message = r"^sr_ideal: maximal face \{1, 2, 3\} does not have 2 vertices$"
        with pytest.raises(ModelError, match=message):
            ToricVarietyModel(("x1", "x2", "x3"), 2, ((1,), (1,), (1,)), ())


class TestCanonicalClass:
    def test_p2(self):
        assert canonical_class(load_bundled("P2")) == (-3,)

    def test_p1xp1(self):
        assert canonical_class(load_bundled("P1xP1")) == (-2, -2)


def test_bundled_model_names():
    assert bundled_model_names() == ["F1", "P1xP1", "P1xP1xP1", "P2", "dP3"]


def test_unknown_bundled_model():
    with pytest.raises(ModelError, match="no bundled model named 'nope'"):
        load_bundled("nope")
