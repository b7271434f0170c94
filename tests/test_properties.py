"""Property tests: random generator sets, random polygon fans, random documents."""

import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from toric_cohomology import ToricVarietyModel, load_bundled, multiplicity_factors, scan_powerset
from toric_cohomology.cli import build_parser, run
from toric_cohomology.engine import CohomologyEngine
from toric_cohomology.oracle import FanOracle

from util import (
    charge_image,
    gamma_factor_table,
    naive_degree_map,
    polygon_model,
    polygon_rays,
    polygon_sections,
    product_model,
)


@st.composite
def generator_sets(draw):
    n = draw(st.integers(1, 7))
    gens = draw(st.sets(st.integers(1, (1 << n) - 1), max_size=7))
    return sorted(gens), n


@settings(max_examples=40, deadline=None)
@given(generator_sets())
def test_lattice_and_factors_match_the_gamma_route(case):
    gens, n = case
    p = scan_powerset(gens, n)
    assert p.degrees() == sorted(naive_degree_map(gens, n))
    reference = gamma_factor_table(gens, n)
    for deg in p.degrees():
        assert multiplicity_factors(p, deg) == reference[deg], (gens, deg)


@settings(max_examples=12, deadline=None)
@given(
    gaps=st.lists(st.integers(0, 6), min_size=1, max_size=4),
    divisors=st.lists(st.lists(st.integers(-2, 2), min_size=7, max_size=7), min_size=2, max_size=3),
)
def test_polygon_fans(gaps, divisors):
    rays = polygon_rays(gaps)
    model = polygon_model(rays)
    engine, oracle = CohomologyEngine(model), FanOracle(CohomologyEngine(model))
    for a in divisors:
        a = a[:model.n]
        alpha = charge_image(model, a)
        dims = engine.cohomology(alpha).dims
        assert dims == oracle.cohomology_via_fan(alpha)
        assert engine.serre_check(alpha)[0]
        assert dims[0] == polygon_sections(rays, a)


P1 = ToricVarietyModel(("u", "v"), 1, ((1,), (1,)), (0b11,), (0b01, 0b10))


@settings(max_examples=25, deadline=None)
@given(
    gaps=st.lists(st.integers(0, 6), max_size=3),
    factor=st.sampled_from([None, "P1", "F1"]),
    a=st.lists(st.integers(-3, 4), min_size=10, max_size=10),
)
def test_count_matches_enumeration(gaps, factor, a):
    # d = 2 on a polygon fan: the closed form alone; d = 3 and 4 on its
    # product with P1 or F1: the walk over the first coordinates too
    model = polygon_model(polygon_rays(gaps))
    if factor is not None:
        model = product_model(model, P1 if factor == "P1" else load_bundled("F1"))
    engine = CohomologyEngine(model)
    alpha = charge_image(model, a[:model.n])
    for sigma in engine.table:
        count = engine.counter.count(alpha, sigma)
        if not count.is_infinite:
            assert count.value == len(engine.counter.enumerate(alpha, sigma)), (alpha, sigma)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
index_lists = st.lists(st.lists(st.integers(-1, 5), max_size=4), max_size=5)
model_documents = st.fixed_dictionaries(
    {},
    optional={
        "coordinates": st.lists(st.sampled_from(["x1", "x2", "x3", "x4"]), max_size=5) | json_values,
        "dimension": st.integers(-1, 5) | json_values,
        "charges": st.lists(st.lists(st.integers(-2, 2), max_size=3), max_size=5) | json_values,
        "sr_ideal": index_lists | json_values,
        "max_cones": index_lists | json_values,
    },
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=model_documents | json_values, classes=st.lists(st.integers(-2, 2), min_size=1, max_size=3))
def test_cli_never_raises(doc, classes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(doc))
        argv = [str(path), "--class=" + ",".join(map(str, classes)), "--serre-check"]
        out, err = io.StringIO(), io.StringIO()
        assert run(build_parser().parse_args(argv), out=out, err=err) in (0, 1, 2, 3)
