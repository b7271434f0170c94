import itertools
import math
import random

import pytest

from toric_cohomology.exact_linalg import DiagonalizedSystem, echelon, integer_rank
from toric_cohomology.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, simplex_maximize

from util import fraction_rank


def random_matrix(rng, nr, nc, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]


def sparse_matrix(rng):
    """Up to 12 x 12, about 70% zeros, entries up to +-10^6, with zero and repeated rows."""
    nr, nc = rng.randint(1, 12), rng.randint(1, 12)
    bound = rng.choice((1, 6, 10 ** 6))
    m = [[rng.randint(-bound, bound) if rng.random() < 0.3 else 0 for _ in range(nc)]
         for _ in range(nr)]
    for i in range(1, nr):
        if rng.random() < 0.15:
            m[i] = [0] * nc
        elif rng.random() < 0.2:
            m[i] = [rng.choice((1, -2)) * x for x in m[rng.randrange(i)]]
    return m


def as_maps(m):
    """The rows of `m` as sparse {column: nonzero entry} maps."""
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def test_integer_rank_matches_rational_elimination():
    rng = random.Random(7)
    for _ in range(200):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, nr, nc)
        assert integer_rank(m) == integer_rank(as_maps(m)) == fraction_rank(m)
    for _ in range(300):
        m = sparse_matrix(rng)
        assert integer_rank(m) == integer_rank(as_maps(m)) == fraction_rank(m), m


def test_sparse_rows_past_the_first_rows_length():
    # the first row has one nonzero but the rank is 3: nothing may stop
    # the reduction once the kept rows number the first row's entries
    rows = [{5: 1}, {0: 2, 3: -1}, {1: 1, 5: 4}, {0: 4, 3: -2}]
    assert integer_rank(rows) == 3
    assert integer_rank([[1, 0], [0, 1], [1, 1], [0, 0]]) == 2


def test_echelon_rows_are_primitive_with_distinct_leads():
    rng = random.Random(19)
    for _ in range(200):
        m = sparse_matrix(rng)
        rows = echelon(m)
        assert echelon(as_maps(m)) == rows
        leads = [min(r) for r in rows]
        assert len(set(leads)) == len(leads)
        for r in rows:
            assert all(r.values()) and math.gcd(*r.values()) == 1
        # the kept rows lie in the row space of the input
        dense = [[r.get(j, 0) for j in range(len(m[0]))] for r in rows]
        assert fraction_rank(m + dense) == fraction_rank(m)


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


def test_solve_needs_one_entry_per_row():
    sys = DiagonalizedSystem(((1, 0), (0, 1)))
    for b in ([1], [1, 2, 3]):
        with pytest.raises(ValueError, match="right-hand side has wrong length"):
            sys.solve(b)


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


def unimodular_pair(rng, n):
    """A random unimodular n x n matrix and its inverse, as products of column additions."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in u]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-3, 3)
        for row in u:  # u <- u E with E = I + q e_i e_j^T: column j += q column i
            row[j] += q * row[i]
        inv[i] = [a - q * b for a, b in zip(inv[i], inv[j])]  # inv <- E^-1 inv
    return u, inv


def test_solve_against_smith_form_systems():
    # A = U D W with U, W unimodular and D diagonal with non-unit entries:
    # A x = U c has an integer solution iff d_i divides c_i below the rank
    # of D and c_i = 0 past it
    rng = random.Random(29)
    outside = 0
    for _ in range(300):
        nr, nc = rng.randint(1, 4), rng.randint(1, 5)
        diag = [rng.choice((1, -1, 2, 3, -4, 6)) for _ in range(rng.randint(0, min(nr, nc)))]
        d = [[diag[i] if i == j and i < len(diag) else 0 for j in range(nc)] for i in range(nr)]
        u, u_inv = unimodular_pair(rng, nr)
        w, _ = unimodular_pair(rng, nc)
        a = mat_mul(mat_mul(u, d), w)
        assert mat_mul(u, u_inv) == [[int(i == j) for j in range(nr)] for i in range(nr)]
        sys = as_system(a)
        for _ in range(6):
            c = [diag[i] * rng.randint(-4, 4) if i < len(diag) else 0 for i in range(nr)]
            if rng.random() < 0.5:
                c[rng.randrange(nr)] += rng.randint(1, 3)
            solvable = all(ci % di == 0 for ci, di in zip(c, diag)) and not any(c[len(diag):])
            b = [sum(x * y for x, y in zip(row, c)) for row in u]
            got = sys.solve(b)
            if solvable:
                assert got is not None and mat_mul(a, [[x] for x in got]) == [[x] for x in b], (a, b)
            else:
                assert got is None, (a, b)
                outside += 1
    assert outside > 300


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
