import math
import random
import time

import pytest

from toric_cohomology import FaceSet, reduced_homology, restrict, simplicial
from toric_cohomology._bits import complement

from util import (
    _reindex,
    alexander_dual,
    all_complexes,
    faceset,
    full_simplex,
    link,
    mask_of,
    projected_homology,
    random_complex,
)


def cone(delta, v):
    """The cone over `delta` with a new apex vertex at position `v`."""
    low = (1 << v) - 1
    shifted = {f & low | (f & ~low) << 1 for f in delta.faces}
    return FaceSet(delta.vertex_count + 1, frozenset(shifted | {f | 1 << v for f in shifted}))


def all_graphs(n):
    """Every complex of dimension <= 1 on n vertices: each vertex subset
    (the other vertices absent), each edge set on it."""
    for vertices in range(1 << n):
        points = [1 << v for v in range(n) if vertices >> v & 1]
        pairs = [a | b for k, a in enumerate(points) for b in points[k + 1:]]
        for chosen in range(1 << len(pairs)):
            edges = (e for k, e in enumerate(pairs) if chosen >> k & 1)
            yield FaceSet(n, frozenset({0, *points, *edges}))


def triangle_boundary():
    # all proper faces of {0,1,2}
    return faceset(3, (), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2))


class TestFaceSet:
    def test_vertex_count_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="vertex_count must be nonnegative"):
            FaceSet(-1, frozenset())

    def test_faces_must_lie_in_the_vertex_set(self):
        with pytest.raises(ValueError, match="not within the ambient vertex set"):
            FaceSet(2, frozenset({0, 0b100}))


class TestRestrict:
    def test_triangle_to_edge(self):
        # the restriction keeps the triangle's labels and vertex count
        r = restrict(triangle_boundary(), mask_of((1, 2)))
        assert r.vertex_count == 3
        assert r == faceset(3, (), (1,), (2,), (1, 2))

    def test_restrict_to_empty(self):
        assert restrict(triangle_boundary(), 0) == FaceSet(3, frozenset({0}))
        void = FaceSet(3, frozenset())
        assert restrict(void, 0).is_void

    def test_points(self):
        pts = faceset(3, (), (0,), (1,), (2,))
        r = restrict(pts, mask_of((0, 2)))
        assert r == faceset(3, (), (0,), (2,))

    def test_requires_closed(self):
        with pytest.raises(ValueError):
            restrict(faceset(2, (0, 1)), 0b11)

    def test_closedness_checked_once_per_complex(self):
        delta = triangle_boundary()
        restrict(delta, 0b011)
        delta.__dict__["is_subset_closed"] = False  # the cached verdict decides
        with pytest.raises(ValueError, match="subset-closed"):
            restrict(delta, 0b101)

    def test_result_is_recorded_closed(self):
        rng = random.Random(37)
        for _ in range(50):
            n = rng.randint(1, 7)
            d, sigma = random_complex(n, rng), rng.randrange(1 << n)
            r = restrict(d, sigma)
            assert r.faces == {f for f in d.faces if not f & ~sigma}
            assert r.is_subset_closed == FaceSet(r.vertex_count, r.faces).is_subset_closed
            # homology does not see the labels: renumbering onto sigma's
            # vertices leaves it as it is
            reindexed = FaceSet(sigma.bit_count(), frozenset(_reindex(f, sigma) for f in r.faces))
            assert reduced_homology(r) == reduced_homology(reindexed)


class TestLink:
    def test_link_of_vertex_in_triangle(self):
        lk = link(triangle_boundary(), mask_of((0,)))
        assert lk == faceset(2, (), (0,), (1,))

    def test_link_of_empty_is_identity(self):
        d = triangle_boundary()
        assert link(d, 0) == d

    def test_link_of_facet(self):
        d = FaceSet.closure(3, [mask_of((0, 1))])
        assert link(d, mask_of((0, 1))) == FaceSet(1, frozenset({0}))


class TestAlexanderDual:
    def test_three_points_self_dual(self):
        pts = faceset(3, (), (0,), (1,), (2,))
        assert alexander_dual(pts) == pts

    def test_full_simplex_dual_is_void(self):
        full = full_simplex(3)
        assert alexander_dual(full).is_void

    def test_involution(self):
        rng = random.Random(3)
        for _ in range(50):
            d = random_complex(rng.randint(1, 6), rng)
            assert alexander_dual(alexander_dual(d)) == d


class TestReducedHomology:
    def test_hollow_triangle_is_circle(self):
        assert reduced_homology(triangle_boundary()) == {1: 1}

    def test_empty_complex(self):
        assert reduced_homology(FaceSet(0, frozenset({0}))) == {-1: 1}

    def test_void_complex(self):
        assert reduced_homology(FaceSet(2, frozenset())) == {}

    def test_vertex_without_empty_face(self):
        # the exact-degree convention: no empty face to cancel the vertex
        assert projected_homology({0b1}) == {0: 1}

    def test_single_bare_edge(self):
        assert projected_homology({0b11}) == {1: 1}

    def test_contractible_point(self):
        assert reduced_homology(faceset(1, (), (0,))) == {}

    def test_two_spheres_of_each_dimension(self):
        for n in range(2, 6):
            boundary = FaceSet(n, frozenset(range((1 << n) - 1)))
            assert reduced_homology(boundary) == {n - 2: 1}

    @pytest.mark.parametrize("m, k", [(11, 4), (11, 5)])
    def test_skeleton_at_the_face_bound(self, m, k):
        # the subsets of size <= k of an m-set (562 and 1,024 faces) have
        # reduced homology only in degree k-1, of rank C(m-1, k)
        skeleton = FaceSet(m, frozenset(f for f in range(1 << m) if f.bit_count() <= k))
        start = time.perf_counter()
        assert reduced_homology(skeleton) == {k - 1: math.comb(m - 1, k)}
        assert time.perf_counter() - start < 1.0

    def test_projected_boundary_failure_detected(self):
        # d(e_01) projects to -e_0, whose boundary -e_{} survives: d*d != 0
        with pytest.raises(ValueError, match="not a complex"):
            projected_homology({0b11, 0b01, 0})

    def test_requires_closed(self):
        for faces in ({0b1}, {0b11}, {0b11, 0b01, 0}):
            with pytest.raises(ValueError, match="subset-closed"):
                reduced_homology(FaceSet(2, frozenset(faces)))

    @pytest.mark.parametrize("delta, dims", [
        (FaceSet(0, frozenset()), {}),
        (FaceSet(3, frozenset({0})), {-1: 1}),
        (faceset(1, (), (0,)), {}),
        (faceset(2, (), (0,), (1,)), {0: 1}),
        (faceset(3, (), (0,), (1,), (2,), (0, 1)), {0: 1}),
    ])
    def test_edge_cases_keep_their_answers(self, delta, dims):
        assert reduced_homology(delta) == dims == projected_homology(delta.faces)

    def test_cones_are_acyclic(self, monkeypatch):
        monkeypatch.delattr(simplicial, "integer_rank")  # a cone takes no ranks
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(0, 6)
            d = cone(random_complex(n, rng) if n else FaceSet(0, frozenset({0})),
                     rng.randint(0, n))
            assert reduced_homology(d) == {} == projected_homology(d.faces)

    def test_cone_apex_is_the_lowest_apex(self):
        rng = random.Random(47)
        cones = 0
        for _ in range(200):
            n = rng.randint(0, 6)
            d = random_complex(n, rng) if n else FaceSet(0, frozenset({0}))
            if rng.random() < 0.5:
                d = cone(d, rng.randint(0, n))
            apexes = [v for v in range(d.vertex_count)
                      if all(f | 1 << v in d.faces for f in d.faces)]
            assert d.cone_apex == (apexes[0] if apexes else -1)
            cones += bool(apexes)
        assert 60 < cones < 200

    def test_against_naive_rational_oracle(self):
        rng = random.Random(5)
        complexes = [random_complex(rng.randint(1, 7), rng) for _ in range(150)]
        # few generators make mostly cones, so add complexes that are not:
        # simplex boundaries and Alexander duals
        complexes += [FaceSet(n, frozenset(range((1 << n) - 1))) for n in range(1, 8)]
        complexes += [alexander_dual(d) for d in complexes[:150]]
        # every complex of dimension <= 1 on five vertices, where the
        # edges' rank is vertices less components
        graphs = list(all_graphs(5))
        assert len(graphs) == 1 + 5 + 10 * 2 + 10 * 8 + 5 * 64 + 1024
        nonzero = 0
        for d in complexes + graphs:
            dims = reduced_homology(d)
            assert dims == projected_homology(d.faces)
            nonzero += bool(dims)
        assert nonzero > 60
        # without the empty face a graph's homology is the unreduced one
        for d in graphs:
            unreduced = {j: h for j, h in reduced_homology(d).items() if j >= 0}
            if len(d.faces) > 1:
                unreduced[0] = unreduced.get(0, 0) + 1
            assert projected_homology(d.faces - {0}) == unreduced


class TestAlexanderDuality:
    @staticmethod
    def check_duality(d):
        n = d.vertex_count
        star = alexander_dual(d)
        hd = reduced_homology(d)
        hs = reduced_homology(star)
        assert hs == projected_homology(star.faces)
        for i in range(-1, n + 1):
            assert hs.get(i, 0) == hd.get(n - 3 - i, 0), (d, i)

    def test_exhaustive_small(self):
        for n in (2, 3):
            for d in all_complexes(n):
                full = 1 << n
                if d.is_void or len(d.faces) == full:
                    continue
                self.check_duality(d)

    def test_random_medium(self):
        rng = random.Random(17)
        done = 0
        while done < 60:
            n = rng.randint(4, 7)
            d = random_complex(n, rng)
            if d.is_void or len(d.faces) == 1 << n:
                continue
            self.check_duality(d)
            done += 1

    def test_link_form(self):
        # dim H~_i(link_{D*}(s)) = dim H~_{|V|-|s|-3-i}(D|_{s^})
        rng = random.Random(23)
        done = 0
        while done < 60:
            n = rng.randint(3, 6)
            d = random_complex(n, rng)
            if d.is_void or len(d.faces) == 1 << n:
                continue
            star = alexander_dual(d)
            sigma = rng.choice(sorted(star.faces))
            lk = reduced_homology(link(star, sigma))
            size = bin(sigma).count("1")
            res = reduced_homology(restrict(d, complement(sigma, n)))
            for i in range(-1, n + 1):
                assert lk.get(i, 0) == res.get(n - size - 3 - i, 0)
            done += 1


def test_euler_characteristic_invariant():
    rng = random.Random(29)
    for _ in range(50):
        d = random_complex(rng.randint(1, 6), rng)
        hom = reduced_homology(d)
        chi_f = sum((-1) ** (bin(f).count("1") - 1) for f in d.faces)
        chi_h = sum((-1) ** j * h for j, h in hom.items())
        assert chi_f == chi_h
