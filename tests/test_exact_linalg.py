import itertools
import random

import pytest

from toric_cohomology.exact_linalg import DiagonalizedSystem, integer_rank
from toric_cohomology.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, simplex_maximize

from util import fraction_rank


def random_matrix(rng, nr, nc, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]


def test_integer_rank_matches_rational_elimination():
    rng = random.Random(7)
    for _ in range(200):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, nr, nc)
        assert integer_rank(m) == fraction_rank(m)


def test_rank_edge_cases():
    assert integer_rank([]) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[1, 2], [2, 4]]) == 1


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def as_system(rows):
    return DiagonalizedSystem(tuple(map(tuple, rows)))


def test_column_echelon_invariants():
    rng = random.Random(11)
    for _ in range(100):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, nr, nc, -4, 4) if rng.random() < 0.7 else \
            random_matrix(rng, 1, nc) * nr  # repeated rows: rank-deficient
        sys = as_system(a)
        assert mat_mul(a, sys.v) == sys.echelon
        assert sys.rank == integer_rank(a)
        r = 0
        for row, p in zip(sys.echelon, sys.pivots):
            if p is None:
                assert not any(row[r:])
            else:
                assert p == r and row[r] and not any(row[r + 1:])
                r += 1
        # V is unimodular: every unit vector is an integer combination of its columns
        v_sys = as_system(sys.v)
        for j in range(nc):
            assert v_sys.solve([int(i == j) for i in range(nc)]) is not None


def test_integer_solve_and_kernel():
    rng = random.Random(13)
    for _ in range(150):
        nr, nc = rng.randint(1, 4), rng.randint(1, 5)
        a = random_matrix(rng, nr, nc)
        sys = DiagonalizedSystem(tuple(tuple(r) for r in a))
        x = [rng.randint(-5, 5) for _ in range(nc)]
        b = [sum(ai * xi for ai, xi in zip(row, x)) for row in a]
        got = sys.solve(b)
        assert got is not None
        assert [sum(ai * xi for ai, xi in zip(row, got)) for row in a] == b
        kernel = sys.kernel_basis()
        assert len(kernel) == nc - integer_rank(a)
        for k in kernel:
            assert all(sum(ai * ki for ai, ki in zip(row, k)) == 0 for row in a)


def test_kernel_basis_is_a_lattice_basis():
    # every integer kernel vector in a box is an integer combination of the
    # basis, not just a rational one
    rng = random.Random(17)
    checked = 0
    for _ in range(60):
        nr, nc = rng.randint(1, 3), rng.randint(2, 4)
        a = random_matrix(rng, nr, nc, -3, 3)
        if rng.random() < 0.3:
            a.append([x + y for x, y in zip(a[0], a[-1])])  # rank-deficient
        basis = as_system(a).kernel_basis()
        columns = as_system([[k[i] for k in basis] for i in range(nc)]) if basis else None
        for x in itertools.product(range(-4, 5), repeat=nc):
            if any(x) and all(sum(ai * xi for ai, xi in zip(row, x)) == 0 for row in a):
                assert columns is not None and columns.solve(list(x)) is not None, (a, x)
                checked += 1
    assert checked > 1000


def test_integer_solve_detects_unsolvable():
    # 2x = 1 has no integer solution
    sys = DiagonalizedSystem(((2,),))
    assert sys.solve([1]) is None
    assert sys.solve([4]) == [2]
    # inconsistent system over Q
    sys = DiagonalizedSystem(((1, 1), (1, 1)))
    assert sys.solve([0, 1]) is None


def test_simplex_basics():
    # max x1 + x2 s.t. x1 + x2 + s = 1
    status, value, x = simplex_maximize([[1, 1, 1]], [1], [1, 1, 0])
    assert status == OPTIMAL and value == 1
    # infeasible: x1 + x2 = -1 with x >= 0
    status, _, _ = simplex_maximize([[1, 1]], [-1], [1, 0])
    assert status == INFEASIBLE
    # unbounded: x1 - x2 = 0, maximize x1
    status, _, _ = simplex_maximize([[1, -1]], [0], [1, 0])
    assert status == UNBOUNDED


def test_simplex_degenerate_and_redundant():
    # redundant constraint rows must not break phase 1
    status, value, _ = simplex_maximize(
        [[1, 1, 1, 0], [2, 2, 2, 0], [1, 0, 0, 1]], [2, 4, 1], [0, 1, 0, 0]
    )
    assert status == OPTIMAL and value == 2


@pytest.mark.parametrize("seed", range(5))
def test_simplex_value_bounded_by_box(seed):
    rng = random.Random(seed)
    n = 4
    a = [random_matrix(rng, 1, n)[0] + [0] * n for _ in range(2)]
    rows = a + [[1 if j == i or j == n + i else 0 for j in range(2 * n)] for i in range(n)]
    b = [0, 0] + [1] * n
    c = [1] * n + [0] * n
    status, value, x = simplex_maximize(rows, b, c)
    if status == OPTIMAL:
        assert 0 <= value <= n
