"""Principality testing by short-vector enumeration, and the ideal classes.

The form Q(x) = Tr(x * conj(x)) is positive definite on a totally imaginary
or totally real field, and an element generates an integral ideal a exactly
when it lies in a with |Nm| = N(a). The search radius starts at the AM-GM
floor 2g * N^(1/g) and doubles until the budget is exhausted; for imaginary
quadratics Q = 2*Nm, so the first radius holds every generator and the
decision is complete. The units u with u * conj(u) = e lie on the sphere
Q(u) = Tr(e), so one finite search lists them all, the roots of unity
(e = 1) included.

The search runs on integers. On the order basis w the trace form is the
integer matrix T = Tr(w_i * conj(w_j)), built once per order, and an ideal
with integer HNF H has the Gram matrix H^T T H. An integral LLL (Cohen 1993,
Alg. 2.6.7) turns that into R = U^T (H^T T H) U with U unimodular, and
Fincke-Pohst, itself on integers, enumerates on R, as Fincke and Pohst
(1985) prescribe: on the HNF basis the search tree grows with the skew of
H, on a reduced basis it stays small.

The generator returned is the one a search on the HNF basis itself finds
first. That search visits vectors depth first, last coordinate outermost
and each level ascending, so its first hit is the generator whose HNF
coordinates (v_{n-1}, ..., v_0) are lexicographically least among those
within the bound. y -> U y is a bijection of Z^n that keeps the value of the
form, so the reduced search finds the same vectors, and the least of them
mapped back through U is that first hit. The roots of unity are sorted the
same way.

`class_representatives` is the one ideal-class computation: every integral
ideal of norm up to Minkowski's bound, built as a product of powers of the
primes of that norm, is compared with the classes found so far by a
principality test. The lattice models of `latticeav` and the ray class
groups of `rayclass` both use it.
"""

import math
from fractions import Fraction
from operator import mul

from .closure import complex_conjugation
from .errors import EnumerationBoundExceeded, InvariantViolated, OrderMismatch
from .ideals import FracIdeal, primes_of_norm_below
from .intutil import primes_up_to, root_upper
from .linalg import identity_matrix, mat_mul, mat_vec, transpose
from .memo import per_field
from .numfield import numerator_rows
from .unipoly import sturm_real_root_count

BUDGET_DOUBLINGS = 10  # doublings of the search bound before is_principal gives up


def _gram_schmidt_row(G, d, lam, k):
    """Fill lam[k][:k] and d[k+1] from row k of the integer Gram matrix G.

    d[i] is the determinant of the leading i x i block (d[0] = 1) and
    lam[k][j] = d[j+1] * mu_kj, both integers, so every division is exact
    (Cohen 1993, Alg. 2.6.7, step 2).
    """
    for j in range(k + 1):
        u = G[k][j]
        for i in range(j):
            u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
        if j < k:
            lam[k][j] = u
        else:
            d[k + 1] = u
    if d[k + 1] <= 0:
        raise InvariantViolated("form is not positive definite")


def fincke_pohst(G, bound):
    """All nonzero integer vectors v with v^T G v <= bound (exact, both signs).

    G is a positive definite integer matrix. With the data of
    `_gram_schmidt_row`, v^T G v = sum_i x_i^2 / (d[i] d[i+1]) for the
    integers x_i = d[i+1] v_i + sum_{j>i} lam[j][i] v_j, so scaled by M =
    lcm(d[i] d[i+1]) the search runs on integers. Vectors come depth first,
    last coordinate outermost, each level in ascending order.
    """
    n = len(G)
    d, lam = [1] + [0] * n, [[0] * n for _ in range(n)]
    for k in range(n):
        _gram_schmidt_row(G, d, lam, k)
    M = math.lcm(*(d[i] * d[i + 1] for i in range(n)))
    scale = [M // (d[i] * d[i + 1]) for i in range(n)]
    out = []
    v = [0] * n

    def rec(i, remaining):
        if i < 0:
            if any(v):
                out.append(list(v))
            return
        s = sum(lam[j][i] * v[j] for j in range(i + 1, n))
        r = math.isqrt(remaining // scale[i])
        di = d[i + 1]
        for vi in range(-((r + s) // di), (r - s) // di + 1):
            x = di * vi + s
            v[i] = vi
            rec(i - 1, remaining - scale[i] * x * x)
        v[i] = 0

    if bound >= 0:
        rec(n - 1, math.floor(Fraction(bound) * M))
    return out


def lll_gram(G):
    """(R, U): R = U^T G U is LLL-reduced (delta = 3/4) and U is unimodular.

    G is a positive definite integer Gram matrix; the columns of U are the
    reduced basis in the coordinates of G. This is the integral LLL of Cohen
    (1993, Alg. 2.6.7, after de Weger) on the integer Gram-Schmidt data of
    `_gram_schmidt_row`, kept for the current basis, so every division is
    exact and no Fraction is built.
    """
    n = len(G)
    G = [list(row) for row in G]
    U = identity_matrix(n)
    d, lam = [1] + [0] * n, [[0] * n for _ in range(n)]
    _gram_schmidt_row(G, d, lam, 0)

    def red(k, l):
        if 2 * abs(lam[k][l]) <= d[l + 1]:
            return
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
        for row in U:
            row[k] -= q * row[l]
        Gk, Gl = G[k], G[l]
        for i in range(n):
            Gk[i] -= q * Gl[i]
        Gk[k] -= q * Gk[l]
        for i in range(n):
            G[i][k] = Gk[i]
        lam[k][l] -= q * d[l + 1]
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k):
        for row in U:
            row[k - 1], row[k] = row[k], row[k - 1]
        G[k - 1], G[k] = G[k], G[k - 1]
        for row in G:
            row[k - 1], row[k] = row[k], row[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        m = lam[k][k - 1]
        B = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
            lam[i][k - 1] = (B * t + m * lam[i][k]) // d[k + 1]
        d[k] = B

    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            _gram_schmidt_row(G, d, lam, k)
        red(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return G, U


def _form(G, v):
    return sum(map(mul, v, mat_vec(G, v)))


def _search_order(v):
    """The key under which the HNF-basis Fincke-Pohst visits v: (v_{n-1}, ..., v_0)."""
    return v[::-1]


def _trace_form(order):
    """T[i][j] = Tr(w_i * conj(w_j)) on the order basis w: an integer matrix.

    Tr(x*y) = x^T S y on power-basis coordinates, with S[k][l] =
    Tr(theta^(k+l)) from the power sums of min_poly (Newton's identities),
    so T needs the basis and its conjugates but no product of field
    elements. Memoized per order: a non-maximal order has an entry of its own.
    """
    return per_field("trace_form", order.field, lambda: _build_trace_form(order), order)


def _build_trace_form(order):
    field = order.field
    conj = complex_conjugation(field)
    if conj is None:
        raise EnumerationBoundExceeded("the trace form needs a totally real or CM field")
    n = field.degree
    c = field.min_poly.coeffs
    s = [Fraction(n)]
    for k in range(1, 2 * n - 1):
        t = -k * c[n - k] if k <= n else 0
        s.append(t - sum(c[n - i] * s[k - i] for i in range(1, min(k, n + 1))))
    # T = W·S·C^T with S[k][l] = s[k + l], on integer numerators over one denominator
    ds = math.lcm(*(x.denominator for x in s))
    S = [[int(x * ds) for x in s[k:k + n]] for k in range(n)]
    dw, W = numerator_rows(order.elements)
    dc, C = numerator_rows([conj(w) for w in order.elements])
    T = mat_mul(W, mat_mul(S, transpose(C)))
    d = ds * dw * dc
    if any(t % d for row in T for t in row):
        raise InvariantViolated("the trace form of an order is not integral")
    return [[t // d for t in row] for row in T]


def _is_imaginary_quadratic(field):
    """A quadratic a x^2 + b x + c has no real root exactly when b^2 - 4ac < 0."""
    if field.degree != 2:
        return False
    c, b, a = field.min_poly.coeffs
    return b * b - 4 * a * c < 0


def is_principal(a):
    """A generator of the fractional ideal a, or None.

    Complete (None is a proof) for imaginary quadratic fields; for other
    totally real/imaginary fields the search bound doubles BUDGET_DOUBLINGS
    times, and an exhausted search raises EnumerationBoundExceeded with the
    final bound. The generator is the one whose HNF coordinates come first
    in `_search_order`, among the generators within the first bound that
    has one.
    """
    order = a.order
    field = order.field
    T = _trace_form(order)
    # a.den * a is the integral ideal with integer HNF H
    H = a.hnf
    n = field.degree
    target = abs(math.prod(H[i][i] for i in range(n)))
    R, U = lll_gram(mat_mul(transpose(H), mat_mul(T, H)))

    g_half = n // 2
    floor_bound = 2 * g_half * root_upper(Fraction(target) ** 2, n)
    bound = floor_bound + 1
    for _ in range(BUDGET_DOUBLINGS):
        for v in sorted((mat_vec(U, y) for y in fincke_pohst(R, bound)), key=_search_order):
            x = order.element_from_coords(mat_vec(H, v))
            if abs(x.norm()) == target:
                return x / a.den
        if _is_imaginary_quadratic(field):
            # Q = 2 Nm there, so every generator (Q = 2 N(a)) lies within
            # the first bound, 2 N(a) + 3, and the search is complete
            return None
        bound *= 2
    raise EnumerationBoundExceeded(f"no generator within trace-form bound {bound}")


def units_of_relative_norm(order, e):
    """Every u in the order with u * conj(u) = e, sorted by `_search_order`.

    Such a u has Q(u) = Tr(u * conj(u)) = Tr(e), so it is among the vectors
    of value Tr(e) under the trace form, which Fincke-Pohst lists in full on
    its LLL-reduced Gram matrix: the search is finite and complete.
    """
    R, U = lll_gram(_trace_form(order))
    conj = complex_conjugation(order.field)
    tr = e.trace()
    coords = sorted((mat_vec(U, y) for y in fincke_pohst(R, tr) if _form(R, y) == tr),
                    key=_search_order)
    candidates = (order.element_from_coords(v) for v in coords)
    return [u for u in candidates if u * conj(u) == e]


def torsion_units(order):
    """All roots of unity in the maximal order: the units with u * conj(u) = 1.

    Sorted by `_search_order` of their coordinates. Memoized per field;
    there is one maximal order per field.
    """
    if order.index_in_maximal != 1:
        raise OrderMismatch("torsion_units needs the maximal order")
    return per_field("torsion_units", order.field, lambda: _torsion_units(order))


def _torsion_units(order):
    out = units_of_relative_norm(order, order.field.one())
    if order.field.one() not in out:
        raise InvariantViolated("1 is missing from the roots of unity")
    return out


def class_representatives(order):
    """One integral ideal per ideal class of the maximal order; the order comes first.

    Every class holds an integral ideal of norm at most Minkowski's bound, so
    the candidates are all integral ideals up to that norm, in (norm, HNF)
    order: the products of powers of the primes of such norm, each made once
    and none past the bound. A candidate opens a new class when no earlier
    representative r makes a * r^-1 principal. The count is the class
    number, and the principality test is decisive for imaginary quadratic
    fields. Memoized per field; there is one maximal order per field.
    """
    if order.index_in_maximal != 1:
        raise OrderMismatch("class_representatives needs the maximal order")
    return per_field("class_representatives", order.field, lambda: _class_representatives(order))


def _class_representatives(order):
    cap = _minkowski_cap(order)
    candidates = [FracIdeal.unit_ideal(order)]
    for p in primes_up_to(cap):
        for P in primes_of_norm_below(p, order, cap + 1):
            for a in list(candidates):
                while a.norm() * P.norm() <= cap:
                    a = a * P
                    candidates.append(a)
    candidates.sort(key=lambda a: (a.norm(), a.hnf))
    reps, inverses = [], []
    for a in candidates:
        if all(is_principal(a * r_inv) is None for r_inv in inverses):
            reps.append(a)
            inverses.append(a.inverse())
    return reps


def _minkowski_cap(order):
    """An integer above Minkowski's bound (n!/n^n) (4/pi)^s sqrt|disc|.

    s is the number of complex places, and 16/pi^2 < 4053/2500, so the square
    of the bound is below X = (n!/n^n)^2 (4053/2500)^s |disc| and isqrt(X) + 1
    exceeds the bound. For a quadratic field X = |disc| * 4053/10000.
    """
    field = order.field
    n = field.degree
    s = (n - sturm_real_root_count(field.min_poly)) // 2
    x = Fraction(math.factorial(n), n**n) ** 2 * Fraction(4053, 2500) ** s * abs(order.disc())
    return math.isqrt(math.floor(x)) + 1
