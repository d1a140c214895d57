"""Exact linear algebra over Q, F_p and Z: Gauss-Jordan, column HNF, SNF.

Matrices are lists of rows. Sizes in this package stay at or below 16x~256.
Over Q, one Gauss-Jordan reduction (`_gauss_jordan`) serves solving, kernels
and minimal polynomials (`first_dependency`), and `linear_solver` reduces a
matrix once for many right-hand sides; `kernel_mod_p` is the one elimination
over F_p. Lattices and orders are integer: a rational lattice is a canonical
(den, integer HNF) pair from `lattice_hnf`, the inverse of a triangular basis
is its integer adjugate over its determinant (`triangular_adjugate`), and
HNF and SNF are textbook integer column and row operations.
"""

import math
from fractions import Fraction

from .intutil import xgcd


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    if len(A[0]) != k:
        raise ValueError(f"cannot multiply: {len(A[0])} columns against {k} rows")
    Bt = list(zip(*B))
    return [[sum(ai * bj for ai, bj in zip(row, col)) for col in Bt] for row in A]


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def transpose(A):
    return [list(row) for row in zip(*A)]


def det_fraction(A):
    """Determinant by fraction Gaussian elimination."""
    n = len(A)
    M = [list(map(Fraction, row)) for row in A]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det *= M[c][c]
        inv = 1 / M[c][c]
        for r in range(c + 1, n):
            if M[r][c] != 0:
                f = M[r][c] * inv
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return det


def _gauss_jordan(M, ncols):
    """Reduce the Fraction rows M in place to reduced row echelon form.

    Pivots are sought in the first ncols columns only (later columns are an
    augmented right-hand side); returns the pivot columns, row r having its
    pivot 1 in column pivots[r].
    """
    n = len(M)
    pivots = []
    for c in range(ncols):
        row = len(pivots)
        if row == n:
            break
        piv = next((r for r in range(row, n) if M[r][c] != 0), None)
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        inv = 1 / M[row][c]
        M[row] = [x * inv for x in M[row]]
        for r in range(n):
            if r != row and M[r][c] != 0:
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[row])]
        pivots.append(c)
    return pivots


def linear_solver(A):
    """A function b -> some rational x with A x = b (A is n x m), or None if inconsistent.

    [A | I] is reduced once to [R | T] with T A = R, and T is kept as an
    integer matrix over one denominator, so each solve is one integer
    matrix-vector product: x takes the entries of T b on the pivot columns
    (free variables 0), and T b must vanish past the rank.
    """
    n, m = len(A), len(A[0])
    M = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(A)]
    pivots = _gauss_jordan(M, m)
    den = math.lcm(*(x.denominator for row in M for x in row[m:]))
    T = [[int(x * den) for x in row[m:]] for row in M]
    rank = len(pivots)

    def solve(b):
        b = [Fraction(x) for x in b]
        d = math.lcm(*(x.denominator for x in b))
        w = [x.numerator * (d // x.denominator) for x in b]
        y = [sum(t * x for t, x in zip(row, w)) for row in T]
        if any(y[rank:]):
            return None
        x = [Fraction(0)] * m
        for c, v in zip(pivots, y):
            x[c] = Fraction(v, den * d)
        return x

    return solve


def first_dependency(vectors):
    """The first vector that depends on the ones before it, as a combination.

    Returns [a_0, ..., a_{j-1}] with v_j = sum a_i v_i for the least such j,
    or None when the vectors are independent. One reduction of the matrix
    whose columns are the vectors: the columns before the first non-pivot
    column are pivots 0..j-1, so its entries are the coefficients.
    """
    M = [list(map(Fraction, row)) for row in zip(*vectors)]
    pivots = _gauss_jordan(M, len(vectors))
    j = next((j for j, c in enumerate(pivots) if j != c), len(pivots))
    if j == len(vectors):
        return None
    return [M[r][j] for r in range(j)]


def right_kernel_fraction(A):
    """Basis of {x : A x = 0} over Q."""
    m = len(A[0])
    M = [list(map(Fraction, row)) for row in A]
    pivots = _gauss_jordan(M, m)
    basis = []
    for fc in range(m):
        if fc in pivots:
            continue
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for row, pc in zip(M, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def kernel_mod_p(A, p):
    """Basis vectors of the right kernel of the integer matrix A over F_p."""
    n, m = len(A), len(A[0])
    M = [[x % p for x in row] for row in A]
    pivots = []
    for c in range(m):
        row = len(pivots)
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
    for fc in range(m):
        if fc in pivots:
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
    content, so two lattices are equal exactly when their pairs are.
    """
    h = hnf_columns(list(zip(*cols)))
    g = math.gcd(den, *(x for row in h for x in row))
    if g > 1:
        h = [[x // g for x in row] for row in h]
        den //= g
    return den, h


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


def hnf_columns(A):
    """Column HNF of an integer matrix: returns the n x r echelon matrix.

    Columns generate the same lattice as the columns of A. The result is
    column-permuted upper triangular with positive pivots and entries to the
    right of each pivot reduced into [0, pivot). For a full-rank square
    lattice this is the canonical upper-triangular positive-diagonal form.
    """
    H, _ = hnf_with_transform(A, want_transform=False)
    return H


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


def snf_with_transform(A):
    """Smith normal form: returns (D, U, V) with U A V = D, U and V unimodular.

    The operations run on the block matrix [[A, I_n], [I_m, 0]]: row
    operations on its top n rows, column operations on its left m columns,
    so the blocks end as [[D, U], [V, 0]].
    """
    n = len(A)
    m = len(A[0]) if n else 0
    M = [list(map(int, row)) + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    M += [[int(i == j) for j in range(m)] + [0] * n for i in range(m)]

    def row_addmul(dst, src, q):
        M[dst] = [a + q * b for a, b in zip(M[dst], M[src])]

    k = 0
    while k < min(n, m):
        piv = None
        for i in range(k, n):
            for j in range(k, m):
                if M[i][j] != 0 and (piv is None or abs(M[i][j]) < abs(M[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        M[k], M[piv[0]] = M[piv[0]], M[k]
        _swap_cols(M, k, piv[1])
        while True:
            dirty = False
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    q = M[i][k] // M[k][k]
                    row_addmul(i, k, -q)
                    if M[i][k] != 0:
                        M[i], M[k] = M[k], M[i]
                        dirty = True
            for j in range(k + 1, m):
                if M[k][j] != 0:
                    q = M[k][j] // M[k][k]
                    _addmul_col(M, j, k, -q)
                    if M[k][j] != 0:
                        _swap_cols(M, j, k)
                        dirty = True
            if not dirty:
                break
        # pivot must divide every remaining entry; if not, fold the bad row in
        bad = next(
            (i for i in range(k + 1, n) if any(M[i][j] % M[k][k] for j in range(k + 1, m))), None
        )
        if bad is not None:
            row_addmul(k, bad, 1)
            continue
        if M[k][k] < 0:
            M[k] = [-a for a in M[k]]
        k += 1
    return [row[:m] for row in M[:n]], [row[m:] for row in M[:n]], [row[:m] for row in M[n:]]
