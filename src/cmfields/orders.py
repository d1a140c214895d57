"""Orders in number fields and maximal-order computation (Pohst-Zassenhaus).

An Order keeps its basis as an integer upper-triangular matrix over one
denominator; coordinates come from its integer adjugate, with no Fraction
elimination. Its multiplication table is built once, so the matrix of
multiplication by an element is n^2 integer dot products. The maximal order
p-maximalizes the equation order at every prime whose square divides
disc(min_poly): the multiplier ring of the p-radical R (`ideals.p_radical`),
the colon ideal (R : R), strictly contains O exactly when O is not
p-maximal.
"""

import math
from fractions import Fraction
from operator import mul

from .errors import CMFieldsError, InvariantViolated
from .ideals import colon_ideal, p_radical
from .intutil import factorize
from .linalg import (
    det_fraction,
    lattice_hnf,
    mat_mul,
    mat_vec,
    reduced_pair,
    transpose,
    triangular_adjugate,
)
from .memo import per_field, recorded
from .numfield import numerator_rows
from .unipoly import UniPoly


class Order:
    """A full-rank order in a number field, with basis columns basis/den.

    self.basis is an integer upper-triangular matrix with nonzero diagonal
    (columns = basis elements in the power basis) over den > 0, and
    (den, basis) is reduced by its content.
    """

    def __init__(self, field, den, basis):
        self.field = field
        n = field.degree
        if len(basis) != n or any(len(row) != n for row in basis) or any(
            basis[i][j] for i in range(n) for j in range(i)
        ) or not all(basis[i][i] for i in range(n)):
            raise CMFieldsError("order basis is not an upper-triangular full-rank n x n matrix")
        self.den, self.basis = reduced_pair(den, basis)
        # coordinates of w/d are den adj(basis) w / (det(basis) d); adj is
        # upper triangular, so row i is kept from column i on
        det, adj = triangular_adjugate(self.basis)
        self._det = det
        self._adj = [[self.den * x for x in row[i:]] for i, row in enumerate(adj)]
        self.elements = [field.element(col) / self.den for col in zip(*self.basis)]
        one = self.integral_coords(field.one())
        if one is None:
            raise CMFieldsError("1 is not in the order")
        self.one_coords = tuple(one)
        # multiplication table: w_i * w_j in order coordinates (must be integral)
        self._mult = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                coords = self.integral_coords(self.elements[i] * self.elements[j])
                if coords is None:
                    raise CMFieldsError("order basis is not closed under multiplication")
                self._mult[i][j] = self._mult[j][i] = coords
        # _mult_rows[k][j][i] is coordinate k of w_i * w_j; a's matrix has a . it at (k, j)
        self._mult_rows = [[[row[j][k] for row in self._mult] for j in range(n)] for k in range(n)]
        self.index_in_maximal = None  # 1 once maximal_order has proved it maximal
        self._disc = None

    def __repr__(self):
        return f"Order({self.field!r}, index={self.index_in_maximal})"

    def __eq__(self, other):
        return (
            isinstance(other, Order)
            and self.field == other.field
            and self.den == other.den
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.den, tuple(tuple(r) for r in self.basis)))

    @property
    def degree(self):
        return self.field.degree

    def _coords_num(self, elem):
        """(v, d) with v integer and d > 0: elem has coordinates v/d in the order basis."""
        w = elem.num
        v = [sum(map(mul, row, w[i:])) for i, row in enumerate(self._adj)]
        d = elem.den * self._det
        g = math.gcd(d, *v) if d > 0 else -math.gcd(d, *v)
        return [x // g for x in v], d // g

    def integral_coords(self, elem):
        """The integer coordinates of elem, or None when elem is not in the order."""
        v, d = self._coords_num(elem)
        return v if d == 1 else None

    def element_from_coords(self, coords):
        return self.field.element(mat_vec(self.basis, coords)) / self.den

    def contains(self, elem):
        return self._coords_num(elem)[1] == 1

    def mult_coords(self, a, b):
        """Product of two order-coordinate vectors, in order coordinates."""
        n = self.degree
        out = [0] * n
        for ai, table in zip(a, self._mult):
            if not ai:
                continue
            for bj, row in zip(b, table):
                if not bj:
                    continue
                f = ai * bj
                for k in range(n):
                    if row[k]:
                        out[k] += f * row[k]
        return out

    def mult_matrix_coords(self, a):
        """Matrix of multiplication by the order-coordinate vector a."""
        return [[sum(map(mul, a, t)) for t in row] for row in self._mult_rows]

    def disc(self):
        """Discriminant of the order: det of the trace form on the basis."""
        if self._disc is None:
            n = self.degree
            traces = [
                [(self.elements[i] * self.elements[j]).trace() for j in range(n)]
                for i in range(n)
            ]
            d = det_fraction(traces)
            if d.denominator != 1:
                raise InvariantViolated(f"order discriminant {d} is not an integer")
            self._disc = int(d)
        return self._disc

    def equation_order_index(self):
        """[O : Z[D*theta]] (an integer for orders containing the equation order)."""
        D, _ = integral_presentation(self.field)
        n = self.degree
        ind = Fraction(D ** (n * (n - 1) // 2) * self.den**n, abs(self._det))
        if ind.denominator != 1:
            raise CMFieldsError("the order does not contain the equation order")
        return int(ind)


def integral_presentation(field):
    """(D, g) with g integer monic and g(D*theta) = 0, for the least such D > 0.

    With f = x^n + sum c_i x^i, D^n f(x/D) has the coefficients D^(n-i) c_i,
    which are integers exactly when v_p(D) (n - i) >= v_p(den c_i) for every
    p and i, so the least D is the product of p^(max_i ceil(v_p(den c_i) /
    (n - i))); D = 1 for an integral min_poly.
    """
    f = field.min_poly
    n = f.degree
    exponents = {}
    for i, c in enumerate(f.coeffs[:n]):
        for p, v in factorize(c.denominator).items():
            exponents[p] = max(exponents.get(p, 0), -(-v // (n - i)))
    D = math.prod(p**v for p, v in exponents.items())
    g = UniPoly([c * Fraction(D) ** (n - i) for i, c in enumerate(f.coeffs)])
    if any(c.denominator != 1 for c in g.coeffs) or g.lc() != 1:
        raise InvariantViolated(f"D^n f(x/D) is not integer monic for D = {D}")
    return D, g


def equation_order(field):
    """Z[D*theta] as an order, D the least with D*theta integral (`integral_presentation`)."""
    n = field.degree
    D, _ = integral_presentation(field)
    return Order(field, 1, [[D**j if i == j else 0 for j in range(n)] for i in range(n)])


def maximal_order(field):
    """The maximal order, by p-maximalizing the equation order (memoized)."""
    return per_field("maximal_order", field, lambda: _maximal_order(field))


def _start_order(field):
    """The order generated by Z[D*theta] and the roots recorded for field, if any.

    `closure.SplittingData` records under "closure_roots" the field K whose
    closure this is and the tracked roots r of K's min_poly that make up the
    closure's generator. x = D_K*r is a root of K's integer monic polynomial,
    so R[x] is spanned by R's basis times x^e for e < [K:Q], and each root
    costs one HNF. With nothing recorded this is Z[D*theta].
    """
    order = equation_order(field)
    record = recorded("closure_roots", field)
    if record is None:
        return order
    K, roots = record
    D_K = integral_presentation(K)[0]
    basis = order.elements
    for r in roots:
        x = r * D_K
        powers = [field.one()]
        while len(powers) < K.degree:
            powers.append(powers[-1] * x)
        den, cols = numerator_rows([b * w for b in basis for w in powers])
        den, H = lattice_hnf(cols, den)
        basis = [field.element(col) / den for col in zip(*H)]
    return Order(field, den, H)


def _maximal_order(field):
    D, g = integral_presentation(field)
    n = field.degree
    # g is monic with root D*theta, so disc(g) = (-1)^(n(n-1)/2) N(g'(D*theta))
    disc_eq = (-1) ** (n * (n - 1) // 2) * g.derivative()(field.gen() * D).norm()
    if disc_eq.denominator != 1:
        raise InvariantViolated(f"disc of the integer polynomial {g} is {disc_eq}")
    disc_eq = int(disc_eq)
    if disc_eq == 0:
        raise CMFieldsError("degenerate (non-separable) polynomial")
    order = _start_order(field)
    bad = [p for p, e in factorize(disc_eq).items() if e >= 2]
    for p in bad:
        while True:
            rad = p_radical(order, p)[0]
            # the multiplier ring contains O, so it is O exactly at norm 1
            ring = colon_ideal(rad, rad)
            if ring.norm() == 1:
                break
            # the ring's columns are basis/den times ring.hnf/ring.den in the power basis
            order = Order(
                field, *lattice_hnf(transpose(mat_mul(order.basis, ring.hnf)), order.den * ring.den)
            )
    index = order.equation_order_index()
    if order.disc() * index * index != disc_eq:
        raise InvariantViolated(
            f"disc(O) [O : Z[D theta]]^2 = {order.disc() * index * index}, not disc(g) = {disc_eq}"
        )
    order.index_in_maximal = 1
    order.equation_index = index
    order.equation_gen = field.gen() * D
    order.equation_poly = g
    # the basis in powers of theta = D*gen: w_j = sum_i T[i][j] theta^i / t,
    # and t divides the index because index*O <= Z[theta]
    t = order.den * D ** (n - 1)
    T = [[x * D ** (n - 1 - i) for x in row] for i, row in enumerate(order.basis)]
    c = math.gcd(t, *(x for row in T for x in row))
    if index % (t // c):
        raise InvariantViolated(f"theta-coordinate denominator {t // c} does not divide {index}")
    order.equation_basis = (t // c, [[x // c for x in row] for row in T])
    return order
