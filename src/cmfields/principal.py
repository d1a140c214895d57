"""Principality testing by short-vector enumeration on the trace form.

The form Q(x) = Tr(x * conj(x)) is positive definite on a totally imaginary
or totally real field, and an element generates an integral ideal a exactly
when it lies in a with |Nm| = N(a). For imaginary quadratics Q = 2*Nm makes
the search sphere exact and the decision complete; otherwise the radius grows
from the AM-GM floor 2g * N^(1/g) until the budget is exhausted.
"""

import math
from fractions import Fraction

from .closure import complex_conjugation
from .errors import EnumerationBoundExceeded, OrderMismatch
from .intutil import root_upper
from .memo import per_field
from .unipoly import sturm_real_root_count


def trace_gram(elements, conj):
    """Gram matrix Tr(b_i * conj(b_j)) for a list of field elements."""
    conj_elems = [conj(b) for b in elements]
    return [[(bi * cj).trace() for cj in conj_elems] for bi in elements]


def _ldl(G):
    """Rational LDL^T data for a positive definite Gram matrix."""
    n = len(G)
    A = [[Fraction(x) for x in row] for row in G]
    d = [Fraction(0)] * n
    L = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = A[i][i]
        assert d[i] > 0, "form is not positive definite"
        for j in range(i + 1, n):
            L[i][j] = A[i][j] / d[i]
        for k in range(i + 1, n):
            for l in range(i + 1, n):
                A[k][l] -= A[k][i] * A[i][l] / A[i][i]
    return d, L


def _sqrt_upper(x):
    if x <= 0:
        return Fraction(0)
    num, den = x.numerator, x.denominator
    return Fraction(math.isqrt(num * den) + 1, den)


def fincke_pohst(G, bound):
    """All nonzero integer vectors v with v^T G v <= bound (exact, both signs)."""
    n = len(G)
    d, L = _ldl(G)
    out = []
    v = [0] * n

    def rec(i, remaining):
        if i < 0:
            if any(v):
                out.append(list(v))
            return
        s = sum(L[i][j] * v[j] for j in range(i + 1, n))
        t = remaining / d[i]
        r = _sqrt_upper(t)
        lo = math.ceil(-s - r)
        hi = math.floor(-s + r)
        for vi in range(lo, hi + 1):
            term = d[i] * (vi + s) ** 2
            if term <= remaining:
                v[i] = vi
                rec(i - 1, remaining - term)
        v[i] = 0

    rec(n - 1, Fraction(bound))
    return out


def _is_imaginary_quadratic(field):
    return field.degree == 2 and sturm_real_root_count(field.min_poly) == 0


def is_principal(a, budget_doublings=10):
    """A generator of the fractional ideal a, or None.

    Complete (None is a proof) for imaginary quadratic fields; for other
    totally real/imaginary fields an exhausted search raises
    EnumerationBoundExceeded with the final bound.
    """
    order = a.order
    field = order.field
    conj = complex_conjugation(field)
    if conj is None:
        raise EnumerationBoundExceeded(
            "principality search needs a totally real or CM field"
        )
    num = a.scaled(a.den)
    target = num.norm()
    assert target.denominator == 1
    target = int(target)
    basis = num.basis_elements()
    G = trace_gram(basis, conj)
    n = field.degree

    def generator_from(vs):
        for v in vs:
            x = field.zero()
            for c, b in zip(v, basis):
                if c:
                    x = x + b * c
            if abs(x.norm()) == target:
                return x
        return None

    if _is_imaginary_quadratic(field):
        sols = fincke_pohst(G, 2 * target)
        g = generator_from(sols)
        if g is None:
            return None
        return g / a.den

    g_half = n // 2
    floor_bound = 2 * g_half * root_upper(Fraction(target) ** 2, n)
    bound = floor_bound + 1
    for _ in range(budget_doublings):
        g = generator_from(fincke_pohst(G, bound))
        if g is not None:
            return g / a.den
        bound *= 2
    raise EnumerationBoundExceeded(f"no generator within trace-form bound {bound}")


def torsion_units(order):
    """All roots of unity in the maximal order (exact sphere Tr(x conj x) = degree).

    Memoized per field; there is one maximal order per field.
    """
    if order.index_in_maximal != 1:
        raise OrderMismatch("torsion_units needs the maximal order")
    return per_field("torsion_units", order.field, lambda: _torsion_units(order))


def _torsion_units(order):
    field = order.field
    conj = complex_conjugation(field)
    assert conj is not None
    basis = [order.element_from_coords([1 if i == j else 0 for i in range(order.degree)])
             for j in range(order.degree)]
    G = trace_gram(basis, conj)
    n = field.degree
    out = []
    for v in fincke_pohst(G, n):
        q = sum(G[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
        if q != n:
            continue
        x = field.zero()
        for c, b in zip(v, basis):
            if c:
                x = x + b * c
        out.append(x)
    assert field.one() in out
    return out
