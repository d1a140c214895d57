"""Randomized validation of the exact linear algebra kernel."""

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, ZZ, Matrix, Rational
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix

import oracles
from cmfields.linalg import (
    det_fraction,
    elementary_divisors,
    first_dependency,
    hnf_with_transform,
    integer_row,
    kernel_mod_p,
    lattice_hnf,
    linear_solver,
    mat_mul,
    mat_vec,
    reduce_mod_hnf,
    right_kernel_fraction,
    row_reduce,
    triangular_adjugate,
)


def test_hnf_randomized():
    rng = random.Random(3)
    for _ in range(250):
        n = rng.randint(1, 5)
        m = n + rng.randint(0, 3)
        A = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        H, U = hnf_with_transform(A)
        assert abs(det_fraction(U)) == 1
        AU = mat_mul(A, U)
        r = len(H[0]) if H and H[0] else 0
        for i in range(n):
            for j in range(m - r):
                assert AU[i][j] == 0
            for j in range(r):
                assert AU[i][m - r + j] == H[i][j]
        # echelon shape: positive pivots, reduced entries to the right
        for j in range(r):
            nz = [i for i in range(n) if H[i][j] != 0]
            piv = max(nz)
            assert H[piv][j] > 0
            for k in range(j + 1, r):
                assert 0 <= H[piv][k] < H[piv][j]
        # canonical: invariant under unimodular column mixing
        B = [[A[i][j] for j in range(m)] for i in range(n)]
        perm = list(range(m))
        rng.shuffle(perm)
        B = [[A[i][perm[j]] for j in range(m)] for i in range(n)]
        for _ in range(5):
            c1, c2 = rng.randrange(m), rng.randrange(m)
            if c1 != c2:
                q = rng.randint(-3, 3)
                for i in range(n):
                    B[i][c1] += q * B[i][c2]
        assert hnf_with_transform(B, want_transform=False)[0] == H


def _full_rank_relations(rng):
    """Relation rows as a ray class group has them: g exponents per row, g to
    g + 4 rows, of rank g."""
    while True:
        g = rng.randint(1, 6)
        rows = [[rng.randint(-20, 20) for _ in range(g)] for _ in range(g + rng.randint(0, 4))]
        if Matrix(rows).rank() == g:
            return rows


def test_elementary_divisors_against_sympy():
    rng = random.Random(7)
    for _ in range(300):
        rows = _full_rank_relations(rng)
        H = lattice_hnf(rows)[1]
        expected = [abs(int(d)) for d in invariant_factors(Matrix(rows), domain=ZZ)]
        assert elementary_divisors(H) == [d for d in expected if d > 1], rows
        assert math.prod(H[i][i] for i in range(len(H))) == math.prod(expected)
    # a naive Smith-form pivoting blew this one up to million-bit entries
    rows = [[17, 9, -16, -15, -3], [10, -16, -17, -1, 16], [8, -2, 4, 2, -19],
            [9, 2, -10, 19, -13], [11, -17, -7, -2, -12], [-5, 5, 5, 11, -15],
            [-10, 8, 5, 15, -3], [-12, 7, 15, -3, 6]]
    assert elementary_divisors(lattice_hnf(rows)[1]) == []


def test_solve_and_inverse():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 5)
        while True:
            A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            if det_fraction(A) != 0:
                break
        # one reduction answers every right-hand side: the columns of A^-1
        solve = linear_solver(A)
        inverse = Matrix(A).inv()
        for j in range(n):
            col = solve([int(i == j) for i in range(n)])
            assert [Rational(c.numerator, c.denominator) for c in col] == list(inverse[:, j])


def test_kernel():
    rng = random.Random(6)
    for _ in range(100):
        n, m = rng.randint(1, 4), rng.randint(1, 6)
        A = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        kernel = right_kernel_fraction(A)
        assert len(kernel) == m - Matrix(A).rank()
        for v in kernel:
            assert all(sum(A[i][j] * v[j] for j in range(m)) == 0 for i in range(n))


def test_kernel_mod_p():
    rng = random.Random(8)
    for _ in range(100):
        p = rng.choice([2, 3, 5, 7])
        n, m = rng.randint(1, 4), rng.randint(1, 6)
        A = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        kernel = kernel_mod_p(A, p)
        assert len(kernel) == m - DomainMatrix.from_list(A, GF(p)).rank()
        for v in kernel:
            assert all(sum(A[i][j] * v[j] for j in range(m)) % p == 0 for i in range(n))


def test_solve_general_underdetermined_and_inconsistent():
    rng = random.Random(7)
    for _ in range(100):
        n, m = rng.randint(1, 4), rng.randint(1, 6)
        A = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        # b in the column space: a solution exists and is returned
        x0 = [rng.randint(-3, 3) for _ in range(m)]
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
        solve = linear_solver(A)
        x = solve(b)
        assert [sum(a * xj for a, xj in zip(row, x)) for row in A] == b
        # with y^T A = 0 and y != 0, y^T (b + y) = |y|^2 > 0: b + y has no
        # solution, and the same reduction answers it
        if Matrix(A).rank() < n:
            y = [Fraction(int(c.p), int(c.q)) for c in Matrix(A).T.nullspace()[0]]
            assert solve([bi + yi for bi, yi in zip(b, y)]) is None
    # a wide system: x + y = 1 has the solution with the free variable at 0
    assert linear_solver([[1, 1]])([1]) == [1, 0]
    assert linear_solver([[1, 2], [2, 4]])([1, 3]) is None


def _sympy_first_dependency(vectors):
    # the least j whose first j + 1 vectors have a nullspace; that nullspace
    # is a line, and scaling its last entry to -1 gives the coefficients
    for j in range(len(vectors)):
        null = Matrix([list(map(Rational, v)) for v in vectors[: j + 1]]).T.nullspace()
        if null:
            (n,) = null
            return [-n[i] / n[j] for i in range(j)]
    return None


def test_first_dependency_matches_sympy_nullspace():
    # power vectors v, Av, A^2 v, ... of random integer matrices of random
    # rank, so the first dependency falls anywhere from v itself (v = 0) to
    # the (n + 1)-th vector
    rng = random.Random(11)
    seen = set()
    for _ in range(60):
        n, r = rng.randint(1, 6), rng.randint(0, 6)
        B = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        C = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        A = mat_mul(B, C) if r else [[0] * n for _ in range(n)]
        v = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        vectors = [v]
        for _ in range(rng.randint(0, n)):
            vectors.append([sum(a * x for a, x in zip(row, vectors[-1])) for row in A])
        ours = first_dependency(vectors)
        expected = _sympy_first_dependency(vectors)
        if expected is None:
            assert ours is None
        else:
            assert [Rational(c.numerator, c.denominator) for c in ours] == expected
        seen.add(None if ours is None else len(ours))
    assert None in seen and 0 in seen and len(seen) >= 5


def test_singular_matrix_raises():
    for A in ([[0]], [[1, 2], [2, 4]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]]):
        assert linear_solver(A)([1] * len(A)) is None


@st.composite
def upper_triangular_hnfs(draw):
    """Square column HNFs: positive diagonal, entries right of a pivot in [0, pivot)."""
    n = draw(st.integers(1, 8))
    diag = [draw(st.integers(1, 60)) for _ in range(n)]
    return [
        [diag[i] if j == i else draw(st.integers(0, diag[i] - 1)) if j > i else 0
         for j in range(n)]
        for i in range(n)
    ]


@settings(max_examples=200, deadline=None)
@given(upper_triangular_hnfs())
def test_triangular_adjugate(H):
    n = len(H)
    det, adj = triangular_adjugate(H)
    assert det == math.prod(H[i][i] for i in range(n))
    # det != 0, so H adj = det I determines adj
    assert mat_mul(H, adj) == [[det if i == j else 0 for j in range(n)] for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(upper_triangular_hnfs(), st.data())
def test_reduce_mod_hnf_is_the_residue(H, data):
    # v and v + H z have one residue r, with 0 <= r_i < H_ii and v - r in the
    # lattice (adj(H) (v - r) is divisible by det H)
    n = len(H)
    v = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n))
    z = data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    r = reduce_mod_hnf(H, v)
    assert reduce_mod_hnf(H, [a + b for a, b in zip(v, mat_vec(H, z))]) == r
    assert all(0 <= r[i] < H[i][i] for i in range(n))
    det, adj = triangular_adjugate(H)
    assert all(x % det == 0 for x in mat_vec(adj, [a - b for a, b in zip(v, r)]))


@st.composite
def rational_matrices(draw):
    """Rational matrices of 1..8 rows and columns, some of them rank deficient
    (a product through a thinner matrix, squares included), some with zero
    columns."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    shape = draw(st.sampled_from(["full", "low_rank", "singular_square", "zero_columns"]))
    entries = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    if shape == "singular_square":
        m = n
    if shape in ("low_rank", "singular_square"):
        r = draw(st.integers(0, min(n, m) - 1))
        B = [[draw(entries) for _ in range(r)] for _ in range(n)]
        C = [[draw(entries) for _ in range(m)] for _ in range(r)]
        return [[sum((B[i][k] * C[k][j] for k in range(r)), Fraction(0)) for j in range(m)]
                for i in range(n)]
    A = [[draw(entries) for _ in range(m)] for _ in range(n)]
    if shape == "zero_columns":
        zero = draw(st.sets(st.integers(0, m - 1), min_size=1))
        A = [[Fraction(0) if j in zero else x for j, x in enumerate(row)] for row in A]
    return A


def _agrees_with_the_fraction_oracles(A):
    n, m = len(A), len(A[0])
    # the integer rows, each scaled by its own lcm, end as d times the RREF
    scaled = [integer_row(row) for row in A]
    M = [w for _, w in scaled]
    R = [list(row) for row in A]
    pivots, d, sign = row_reduce(M, m)
    assert pivots == oracles.fraction_gauss_jordan(R, m)
    assert [[Fraction(x, d) for x in row] for row in M] == R
    if n == m:
        assert det_fraction(A) == oracles.fraction_det(A)
        if len(pivots) == n:
            assert Fraction(sign * d, math.prod(s for s, _ in scaled)) == oracles.fraction_det(A)
    assert right_kernel_fraction(A) == oracles.fraction_kernel(A)
    columns = [list(col) for col in zip(*A)]
    assert first_dependency(columns) == oracles.fraction_first_dependency(columns)
    assert first_dependency(A) == oracles.fraction_first_dependency(A)
    # right-hand sides inside the column space, and e_0 (outside it when the
    # rank is short of n, or not)
    solve = linear_solver(A)
    for b in (columns[-1], [sum(columns[j][i] for j in range(m)) for i in range(n)],
              [int(i == 0) for i in range(n)]):
        assert solve(b) == oracles.fraction_solve(A, b)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rational_matrices())
def test_fraction_free_routines_match_the_fraction_oracles(A):
    _agrees_with_the_fraction_oracles(A)


def test_fraction_free_routines_on_closure_shaped_systems():
    # the power vectors w^0..w^30 of an element of a 30-dimensional algebra,
    # as a closure round makes them: 31 rational vectors of length 30, for a
    # generating element (dependency at 30) and for one of a repeated block
    # (dependency at 15), with the 30 x 30 solve and determinant on top
    rng = random.Random(16)
    for repeated in (False, True):
        size = 15 if repeated else 30
        block = [[rng.choice((-1, 0, 0, 0, 1)) for _ in range(size)] for _ in range(size)]
        A = [row + [0] * (30 - size) for row in block]
        if repeated:
            A += [[0] * 15 + row for row in block]
        v = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(30)]
        vectors = [v]
        for _ in range(30):
            vectors.append([sum(a * x for a, x in zip(row, vectors[-1])) for row in A])
        dependency = first_dependency(vectors)
        assert dependency == oracles.fraction_first_dependency(vectors)
        assert len(dependency) <= 15 if repeated else len(dependency) == 30
        square = [list(row) for row in zip(*vectors[:30])]
        _agrees_with_the_fraction_oracles(square)
