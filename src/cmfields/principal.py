"""Principality testing by short-vector enumeration, and the ideal classes.

The form Q(x) = Tr(x * conj(x)) is positive definite on a totally imaginary
or totally real field, and an element generates an integral ideal a exactly
when it lies in a with |Nm| = N(a). For imaginary quadratics Q = 2*Nm makes
the search sphere exact and the decision complete; otherwise the radius grows
from the AM-GM floor 2g * N^(1/g) until the budget is exhausted.

`class_representatives` is the one ideal-class computation: every integral
ideal of norm up to Minkowski's bound, enumerated directly as an HNF, is
compared with the classes found so far by a principality test. The lattice
models of `latticeav` and the ray class groups of `rayclass` both use it.
"""

import math
from fractions import Fraction

from .closure import complex_conjugation
from .errors import EnumerationBoundExceeded, InvariantViolated, OrderMismatch
from .ideals import integral_ideals_of_norm
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
        if d[i] <= 0:
            raise InvariantViolated("form is not positive definite")
        for j in range(i + 1, n):
            L[i][j] = A[i][j] / d[i]
        for k in range(i + 1, n):
            for l in range(i + 1, n):
                A[k][l] -= A[k][i] * A[i][l] / A[i][i]
    return d, L


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
        r = root_upper(t, 2)
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
    if target.denominator != 1:
        raise InvariantViolated(f"an integral ideal has norm {target}")
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
    if conj is None:
        raise EnumerationBoundExceeded("torsion units need a totally real or CM field")
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
    if field.one() not in out:
        raise InvariantViolated("1 is missing from the roots of unity")
    return out


def class_representatives(order):
    """One integral ideal per ideal class of the maximal order; the order comes first.

    Every class holds an integral ideal of norm at most Minkowski's bound, so
    the candidates are all integral ideals up to that norm, in (norm, HNF)
    order; a candidate opens a new class when no earlier representative r
    makes a * r^-1 principal. The count is the class number, and the
    principality test is decisive for imaginary quadratic fields. Memoized
    per field; there is one maximal order per field.
    """
    if order.index_in_maximal != 1:
        raise OrderMismatch("class_representatives needs the maximal order")
    return per_field("class_representatives", order.field, lambda: _class_representatives(order))


def _class_representatives(order):
    reps = []
    for norm in range(1, _minkowski_cap(order) + 1):
        for a in integral_ideals_of_norm(order, norm):
            if all(is_principal(a * r.inverse()) is None for r in reps):
                reps.append(a)
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
