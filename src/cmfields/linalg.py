"""Exact linear algebra over Q, F_p and Z: Gauss-Jordan and column HNF.

Matrices are lists of rows. Sizes in this package stay at or below 16x~256.
Over Q the one elimination is the fraction-free Gauss-Jordan `row_reduce` on
integer rows (a rational row is scaled by the lcm of its denominators, which
keeps the kernel, the column dependencies and the reduced echelon form); it
serves determinants, solving (`linear_solver` reduces once for many
right-hand sides), kernels, minimal polynomials (`first_dependency`) and
the element inverses of `numfield`. Dot products are sum(map(mul, ...)).
`kernel_mod_p` is the one elimination over F_p. Lattices and orders are integer: a rational lattice is a canonical
(den, integer HNF) pair from `lattice_hnf` (`reduced_pair` divides out the
content), and the inverse of a triangular basis is its integer adjugate over
its determinant (`triangular_adjugate`). Over Z the one elimination is the
textbook column HNF `hnf_with_transform`: a quotient Z^g / H Z^g is worked in
by `reduce_mod_hnf`, and its `elementary_divisors` come from alternating
HNFs of H and its transpose, with no Smith-form routine.
"""

import math
from fractions import Fraction
from operator import mul

from .intutil import xgcd


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    if len(A[0]) != k:
        raise ValueError(f"cannot multiply: {len(A[0])} columns against {k} rows")
    Bt = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in Bt] for row in A]


def mat_vec(A, v):
    return [sum(map(mul, row, v)) for row in A]


def transpose(A):
    return [list(row) for row in zip(*A)]


def integer_row(row):
    """(s, w): the rational row is w/s with s the lcm of its denominators, in lowest terms."""
    s = math.lcm(*(x.denominator for x in row))
    return s, [x.numerator * (s // x.denominator) for x in row]


def row_reduce(M, ncols):
    """Fraction-free Gauss-Jordan (Bareiss 1968) on the integer rows M, in place.

    Pivots are sought in the first ncols columns only (later columns are an
    augmented block). Returns (pivots, d, sign): M ends as d times its reduced
    row echelon form, and a square M of full rank had determinant sign*d.
    Every entry stays a minor of M up to sign (Sylvester's identity), so each
    division by the previous pivot is exact.
    """
    n = len(M)
    pivots = []
    d, sign = 1, 1
    for c in range(ncols):
        row = len(pivots)
        if row == n:
            break
        piv = next((r for r in range(row, n) if M[r][c]), None)
        if piv is None:
            continue
        if piv != row:
            M[row], M[piv] = M[piv], M[row]
            sign = -sign
        top = M[row]
        p = top[c]
        for r in range(n):
            if r == row:
                continue
            f = M[r][c]
            if f:
                M[r] = [(p * x - f * y) // d for x, y in zip(M[r], top)]
            elif p != d:
                M[r] = [p * x // d for x in M[r]]
        d = p
        pivots.append(c)
    return pivots, d, sign


def det_fraction(A):
    """Determinant of a square rational matrix: one reduction of its integer rows."""
    M = [integer_row(row) for row in A]
    pivots, d, sign = row_reduce([w for _, w in M], len(M))
    if len(pivots) < len(M):
        return Fraction(0)
    return Fraction(sign * d, math.prod(s for s, _ in M))


def linear_solver(A):
    """A function b -> some rational x with A x = b (A is n x m), or None if inconsistent.

    [A | I] is reduced once to d [R | T] with T A = R (row scaling keeps that
    relation), so each solve is one integer matrix-vector product with the
    block d T: x takes the entries of T b on the pivot columns (free
    variables 0), and T b must vanish past the rank.
    """
    n, m = len(A), len(A[0])
    M = [integer_row(list(row) + [int(i == j) for j in range(n)])[1] for i, row in enumerate(A)]
    pivots, d, _ = row_reduce(M, m)
    T = [row[m:] for row in M]
    rank = len(pivots)

    def solve(b):
        e, w = integer_row(b)
        y = [sum(t * x for t, x in zip(row, w)) for row in T]
        if any(y[rank:]):
            return None
        x = [Fraction(0)] * m
        for c, v in zip(pivots, y):
            x[c] = Fraction(v, d * e)
        return x

    return solve


def first_dependency(vectors):
    """The first vector that depends on the ones before it, as a combination.

    Returns [a_0, ..., a_{j-1}] with v_j = sum a_i v_i for the least such j,
    or None when the vectors are independent. One reduction of the matrix
    whose columns are the vectors: the columns before the first non-pivot
    column are pivots 0..j-1, so its entries over d are the coefficients.
    """
    M = [integer_row(row)[1] for row in zip(*vectors)]
    pivots, d, _ = row_reduce(M, len(vectors))
    j = next((j for j, c in enumerate(pivots) if j != c), len(pivots))
    if j == len(vectors):
        return None
    return [Fraction(M[r][j], d) for r in range(j)]


def right_kernel_fraction(A):
    """Basis of {x : A x = 0} over Q, one vector per non-pivot column."""
    m = len(A[0])
    M = [integer_row(row)[1] for row in A]
    pivots, d, _ = row_reduce(M, m)
    basis = []
    for fc in range(m):
        if fc in pivots:
            continue
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for row, pc in zip(M, pivots):
            v[pc] = Fraction(-row[fc], d)
        basis.append(v)
    return basis


def kernel_mod_p(A, p):
    """Basis vectors of the right kernel of the integer matrix A over F_p."""
    n, m = len(A), len(A[0])
    M = [[x % p for x in row] for row in A]
    pivots = []
    for c in range(m):
        row = len(pivots)
        if row == n:  # every row has its pivot: the other columns are free
            break
        piv = next((r for r in range(row, n) if M[r][c]), None)
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        inv = pow(M[row][c], -1, p)
        M[row] = [x * inv % p for x in M[row]]
        for r in range(n):
            if r != row and M[r][c]:
                f = M[r][c]
                M[r] = [(x - f * y) % p for x, y in zip(M[r], M[row])]
        pivots.append(c)
    out = []
    pivot_set = set(pivots)
    for fc in range(m):
        if fc in pivot_set:
            continue
        v = [0] * m
        v[fc] = 1
        for row, pc in zip(M, pivots):
            v[pc] = -row[fc] % p
        out.append(v)
    return out


def triangular_adjugate(H):
    """(det, adj) of a square upper-triangular integer H with nonzero diagonal.

    adj = det * H^-1 is upper triangular; it is found column by column by
    back-substitution, and every division is exact because adj is integral.
    """
    n = len(H)
    det = math.prod(H[i][i] for i in range(n))
    adj = [[0] * n for _ in range(n)]
    for j in range(n):
        adj[j][j] = det // H[j][j]
        for i in range(j - 1, -1, -1):
            s = sum(H[i][k] * adj[k][j] for k in range(i + 1, j + 1))
            adj[i][j] = -s // H[i][i]
    return det, adj


def lattice_hnf(cols, den=1):
    """Canonical (den, H) for the lattice spanned by the integer columns over den.

    H is the column HNF of the columns, and the pair is reduced by its
    content (`reduced_pair`), so two lattices are equal exactly when their
    pairs are.
    """
    return reduced_pair(den, hnf_with_transform(list(zip(*cols)), want_transform=False)[0])


def reduced_pair(den, H):
    """The lattice H/den as (den, H) divided by the gcd of den and H's entries.

    An HNF divided by a common factor is again an HNF, so this is the one
    place where a (den, HNF) pair becomes canonical.
    """
    if den == 1:
        return den, H
    g = math.gcd(den, *(x for row in H for x in row))
    if g == 1:
        return den, H
    return den // g, [[x // g for x in row] for row in H]


def reduce_mod_hnf(H, v):
    """The residue of the integer vector v modulo the columns of H, as a tuple.

    H is a square upper-triangular column HNF with positive diagonal.
    Back-substitution from the last coordinate gives the one r = v - H z
    with 0 <= r_i < H_ii, so two vectors are congruent exactly when their
    residues are equal.
    """
    v = list(v)
    for i in range(len(v) - 1, -1, -1):
        q = v[i] // H[i][i]
        if q:
            for k in range(i + 1):
                v[k] -= q * H[k][i]
    return tuple(v)


def elementary_divisors(H):
    """The elementary divisors > 1 of Z^g / H Z^g, ascending, each dividing the next.

    H is a square upper-triangular column HNF with positive diagonal. The
    column HNF of its transpose (`lattice_hnf` of its rows) is a row HNF of
    H, so alternating the two changes H by unimodular matrices on either
    side until it is diagonal; then each pair of diagonal entries becomes
    their gcd and lcm, which keeps the group. Termination: a pass makes the
    last pivot the gcd of the current last column, so it never grows. It
    stays only when it divides that column, whose other entries are reduced
    into [0, pivot) and hence 0; the next pass then leaves the last row and
    column cleared for good, and the same argument holds for the leading
    block. Entries of a reduced HNF stay below its determinant, the group
    order, so no pass starts from a larger matrix than that.
    """
    g = len(H)
    while any(H[i][j] for i in range(g) for j in range(i + 1, g)):
        H = lattice_hnf(H)[1]
    d = [H[i][i] for i in range(g)]
    for i in range(g):
        for j in range(i + 1, g):
            a, b = d[i], d[j]
            d[i] = math.gcd(a, b)
            d[j] = a * b // d[i]
    return [x for x in d if x > 1]


def _swap_cols(M, i, j):
    for row in M:
        row[i], row[j] = row[j], row[i]


def _addmul_col(M, dst, src, q):
    if q == 0:
        return
    for row in M:
        row[dst] += q * row[src]


def _neg_col(M, j):
    for row in M:
        row[j] = -row[j]


def hnf_with_transform(A, want_transform=True):
    """Column HNF with unimodular U such that (A U) = [zero-cols | H].

    Returns (H, U) where H keeps only the nonzero echelon columns. If
    want_transform is False, U is None. The column operations run on A with
    the identity stacked below it, so the lower block ends as U.
    """
    n = len(A)
    m = len(A[0]) if n else 0
    M = [list(map(int, row)) for row in A] + (identity_matrix(m) if want_transform else [])
    # Eliminate bottom-up; pivot columns accumulate at the right end.
    last = m  # columns >= last are finished pivots
    pivot_rows = []
    for i in range(n - 1, -1, -1):
        row_i = M[i]
        nz = [j for j in range(last) if row_i[j] != 0]
        if not nz:
            continue
        piv = min(nz, key=lambda j: abs(row_i[j]))
        for j in nz:
            if j == piv:
                continue
            a, b = row_i[piv], row_i[j]
            if b % a == 0:
                _addmul_col(M, j, piv, -(b // a))
            else:
                # (col_piv, col_j) <- (x*col_piv + y*col_j, u*col_j + mv*col_piv)
                g, x, y = xgcd(a, b)
                mv, u = -(b // g), a // g
                for row in M:
                    row[piv], row[j] = x * row[piv] + y * row[j], mv * row[piv] + u * row[j]
        if row_i[piv] < 0:
            _neg_col(M, piv)
        _swap_cols(M, piv, last - 1)
        last -= 1
        pivot_rows.append(i)
    # Reduce entries to the right of each pivot, bottom pivot row first; the
    # pivot of column m - 1 - t is in row pivot_rows[t].
    for t, i in enumerate(pivot_rows):
        j = m - 1 - t
        for k in range(j + 1, m):
            _addmul_col(M, k, j, -(M[i][k] // M[i][j]))
    H = [row[last:] for row in M[:n]]
    return H, (M[n:] if want_transform else None)
