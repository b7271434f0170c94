"""Checked families beyond smooth surfaces and products.

Weighted projective spaces put both routes on complete fans whose cones are
not unimodular: h^0 of O(k) counts the monomials of weighted degree k, h^top
those of degree -k - sum(w) (Serre duality), and every other h^i vanishes.
On smooth complete polygon fans, Riemann-Roch gives the Euler
characteristic from the intersection form, and on complete polygon fans
that are not smooth, h^0 counts the lattice points of P_D.  Iterated star
subdivisions of P3 are threefolds that are not products: there the
Hochster check, the fan route and Serre duality are checked at multiples
of K.  On every family, and on random pure complexes, each multiplicity
factor lands in 0..d, since every maximal face has d vertices.
"""

import random

import pytest

from toric_cohomology import (
    CohomologyEngine,
    ToricVarietyModel,
    bundled_model_names,
    canonical_class,
    load_bundled,
)

from util import (
    charge_image,
    nonsmooth_polygon_rays,
    polygon_model,
    polygon_rays,
    polygon_sections,
    product_model,
    random_pure_model,
    series_count,
    star_subdivided_p3,
)

WEIGHTS = [(1, 1, 2), (1, 2, 3), (1, 1, 1, 3), (2, 3, 5), (1, 2, 2, 3), (1, 3, 4, 5)]


def weighted_projective(weights):
    """P(w): one charge row of weights, every n-1 of the n rays span a cone."""
    n = len(weights)
    full = (1 << n) - 1
    return ToricVarietyModel(
        tuple(f"x{i + 1}" for i in range(n)), n - 1, tuple((w,) for w in weights),
        (full,), tuple(full ^ 1 << i for i in range(n)),
    )


@pytest.mark.parametrize("weights", WEIGHTS, ids=lambda w: "P" + "".join(map(str, w)))
def test_weighted_projective_space(weights):
    engine = CohomologyEngine(weighted_projective(weights))
    top = len(weights) - 1
    for k in range(-sum(weights) - 12, 15):
        dims = engine.cohomology((k,)).dims
        assert dims[0] == series_count(weights, k), k
        assert dims[top] == series_count(weights, -k - sum(weights)), k
        assert not any(dims[1:top]), k
        assert engine.oracle.cohomology_via_fan((k,)) == dims, k
        assert engine.serre_check((k,))[0], k


def intersection_form(rays):
    """D_i . D_j on a smooth complete fan in the plane, rays in cyclic order.

    Neighbouring divisors meet once; D_i^2 = -a_i, where
    v_(i-1) + v_(i+1) = a_i v_i.
    """
    n = len(rays)
    form = [[0] * n for _ in range(n)]
    for i, (x, y) in enumerate(rays):
        s = [p + q for p, q in zip(rays[i - 1], rays[(i + 1) % n])]
        a = s[0] // x if x else s[1] // y
        assert s == [a * x, a * y]
        form[i][i] = -a
        form[i][(i + 1) % n] = form[(i + 1) % n][i] = 1
    return form


def test_riemann_roch_on_smooth_polygon_fans():
    # chi(D) = 1 + (D^2 - D.K) / 2 with K = -sum D_i
    rng = random.Random(67)
    for _ in range(20):
        rays = polygon_rays([rng.randrange(7) for _ in range(rng.randint(0, 4))])
        model, form = polygon_model(rays), intersection_form(rays)
        engine = CohomologyEngine(model)
        n = len(rays)
        for _ in range(6):
            a = [rng.randint(-3, 3) for _ in range(n)]
            da = [sum(form[i][j] * a[j] for j in range(n)) for i in range(n)]
            square, dk = sum(x * y for x, y in zip(a, da)), -sum(da)
            h = engine.cohomology(charge_image(model, a)).dims
            assert 2 * (h[0] - h[1] + h[2]) == 2 + square - dk, (rays, a)


@pytest.mark.parametrize("n", range(4, 11))
def test_star_subdivided_p3(n):
    engine = CohomologyEngine(star_subdivided_p3(n))
    report = engine.oracle.hochster_check()
    assert report.ok, report.mismatches
    assert report.vanishing_checked == 2 ** n - len(engine.table)
    k = canonical_class(engine.model)
    for c in (0, 1, -1, 2):
        alpha = tuple(c * x for x in k)
        assert engine.oracle.cohomology_via_fan(alpha) == engine.cohomology(alpha).dims, c
        assert engine.serre_check(alpha)[0], c


def test_nonsmooth_polygon_fans():
    # h^0 is the lattice-point count of P_D, Serre duality holds, and the
    # fan route agrees, on fans with a cone of determinant > 1
    rng = random.Random(71)
    for _ in range(40):
        rays = nonsmooth_polygon_rays(rng, rng.randint(1, 5))
        engine = CohomologyEngine(polygon_model(rays))
        for _ in range(4):
            a = [rng.randint(-2, 4) for _ in rays]
            alpha = charge_image(engine.model, a)
            dims = engine.cohomology(alpha).dims
            assert dims[0] == polygon_sections(rays, a), (rays, a)
            assert engine.serre_check(alpha)[0], (rays, a)
            assert engine.oracle.cohomology_via_fan(alpha) == dims, (rays, a)


def _family_models():
    rng = random.Random(73)
    yield from (load_bundled(name) for name in bundled_model_names())
    yield from (polygon_model(polygon_rays([rng.randrange(7) for _ in range(k)])) for k in range(6))
    yield from (polygon_model(nonsmooth_polygon_rays(rng, k)) for k in range(1, 6))
    yield from (star_subdivided_p3(n) for n in range(4, 9))
    yield from (weighted_projective(w) for w in WEIGHTS)
    yield product_model(load_bundled("P2"), load_bundled("F1"))
    yield product_model(load_bundled("dP3"), load_bundled("P1xP1"))
    yield from (random_pure_model(rng.randint(1, 8), rng) for _ in range(200))


def test_factors_land_in_cohomological_range():
    # every maximal face has d vertices, so a factor of a degree D at r
    # weighs into h^(|D| - r) with 0 <= |D| - r <= d
    for model in _family_models():
        for deg, factors in CohomologyEngine(model).table.items():
            for r in factors:
                assert 0 <= deg.bit_count() - r <= model.dim, (model, deg, factors)
