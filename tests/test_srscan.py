import random

import pytest

from toric_cohomology import ModelError, scan_powerset
from toric_cohomology.srscan import MAX_DEGREES

from util import contributing_degrees, gamma_complex, naive_degree_map

P2_GENS = (0b111,)
P1XP1_GENS = (0b0011, 0b1100)
TRIANGLE_GENS = (0b011, 0b110, 0b101)  # {1,2}, {2,3}, {1,3}


def test_p2_scan():
    p = scan_powerset(P2_GENS, 3)
    assert p.degrees() == [0, 0b111]
    assert p.entries[0] == {0: [0]}
    assert p.entries[0b111] == {1: [0b1]}


def test_p1xp1_scan():
    p = scan_powerset(P1XP1_GENS, 4)
    assert set(p.degrees()) == {0, 0b0011, 0b1100, 0b1111}
    assert p.entries[0b1111] == {2: [0b11]}


def test_triangle_generators_degree_collision():
    p = scan_powerset(TRIANGLE_GENS, 3)
    assert set(p.degrees()) == {0, 0b011, 0b110, 0b101, 0b111}
    # the three pairs and the full triple all share the all-ones degree;
    # the scan keeps one subset per degree, all generators it contains
    assert gamma_complex(TRIANGLE_GENS, 3, 0b111) == {0b011, 0b101, 0b110, 0b111}
    assert p.entries[0b111] == {3: [0b111]}


def test_zero_degree_is_exactly_empty_subset():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(2, 8)
        gens = sorted({rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 6))})
        p = scan_powerset(gens, n)
        assert p.entries[0] == {0: [0]}


def test_matches_naive_enumeration():
    # same degrees as the 2^t walk; each keeps the largest subset realizing it
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(2, 8)
        gens = sorted({rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 9))})
        p = scan_powerset(gens, n)
        naive = naive_degree_map(gens, n)
        assert p.degrees() == sorted(naive)
        for deg, groups in naive.items():
            largest = 0
            for taus in groups.values():
                for tau in taus:
                    largest |= tau
            assert p.entries[deg] == {bin(largest).count("1"): [largest]}


def test_input_order_insensitive():
    a = scan_powerset(TRIANGLE_GENS, 3)
    b = scan_powerset(tuple(reversed(TRIANGLE_GENS)), 3)
    assert a.entries == b.entries and a.supports == b.supports


def test_lattice_bound():
    # k disjoint generators give 2^k degrees
    def gens(k):
        return tuple(1 << i for i in range(k))

    k = MAX_DEGREES.bit_length() - 1
    assert len(scan_powerset(gens(k), k).entries) == MAX_DEGREES
    with pytest.raises(ModelError, match="lcm lattice"):
        scan_powerset(gens(k + 1), k + 1)


class TestGammaComplex:
    """The exact-degree complexes of the test-side reference route."""

    def test_p2(self):
        assert gamma_complex(P2_GENS, 3, 0b111) == frozenset({0b1})
        assert gamma_complex(P2_GENS, 3, 0) == frozenset({0})

    def test_p1xp1(self):
        assert gamma_complex(P1XP1_GENS, 4, 0b1111) == frozenset({0b11})

    def test_triangle(self):
        assert gamma_complex(TRIANGLE_GENS, 3, 0b111) == frozenset({0b011, 0b101, 0b110, 0b111})

    def test_unknown_degree(self):
        with pytest.raises(ValueError, match="not a union"):
            gamma_complex(P2_GENS, 3, 0b001)


class TestContributingDegrees:
    """The dual-degree filter: the reference of acceptance criterion 9."""

    def test_p2(self):
        p = scan_powerset(P2_GENS, 3)
        assert contributing_degrees(p) == [0, 0b111]

    def test_p1xp1_all_degrees_pair_up(self):
        p = scan_powerset(P1XP1_GENS, 4)
        assert contributing_degrees(p) == [0, 0b0011, 0b1100, 0b1111]

    def test_incomplete_data_can_empty_the_filter(self):
        p = scan_powerset((0b011,), 3)
        assert contributing_degrees(p) == []


def test_every_generator_support_is_a_degree():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 8)
        gens = sorted({rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 7))})
        p = scan_powerset(gens, n)
        for g in gens:
            assert g in p
