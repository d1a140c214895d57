"""Orders in number fields and maximal-order computation (Pohst-Zassenhaus).

An Order stores a basis matrix W (columns = basis elements in the power
basis). The maximal order is obtained by p-maximalizing the equation order at
every prime whose square divides disc(min_poly): the p-radical R of O/pO is
the kernel of the iterated Frobenius, and the multiplier ring of R, which is
the colon ideal (R : R) of `ideals`, strictly contains O exactly when O is
not p-maximal.
"""

from fractions import Fraction

from .errors import CMFieldsError
from .ideals import FracIdeal, colon_ideal
from .intutil import factorize
from .linalg import (
    det_fraction,
    hnf_columns,
    kernel_mod_p,
    lattice_hnf,
    mat_inverse_fraction,
    mat_mul,
    mat_vec,
    transpose,
)
from .memo import per_field


class Order:
    """A (full-rank) order in a number field, given by a column basis matrix."""

    def __init__(self, field, basis):
        self.field = field
        n = field.degree
        self.basis = [[Fraction(x) for x in row] for row in basis]
        self.basis_inv = mat_inverse_fraction(self.basis)
        self.elements = [
            field.element([self.basis[i][j] for i in range(n)]) for j in range(n)
        ]
        one = self.coords_of(field.one())
        if any(c.denominator != 1 for c in one):
            raise CMFieldsError("1 is not in the order")
        self.one_coords = tuple(int(c) for c in one)
        # multiplication table: w_i * w_j in order coordinates (must be integral)
        self._mult = {}
        for i in range(n):
            for j in range(i, n):
                coords = self.coords_of(self.elements[i] * self.elements[j])
                if any(c.denominator != 1 for c in coords):
                    raise CMFieldsError("order basis is not closed under multiplication")
                self._mult[(i, j)] = tuple(int(c) for c in coords)
        self.index_in_maximal = None  # 1 once maximal_order has proved it maximal
        self._disc = None

    def __repr__(self):
        return f"Order({self.field!r}, index={self.index_in_maximal})"

    def __eq__(self, other):
        return (
            isinstance(other, Order)
            and self.field == other.field
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, tuple(tuple(r) for r in self.basis)))

    @property
    def degree(self):
        return self.field.degree

    def coords_of(self, elem):
        """Coordinates of a field element in the order basis (rational in general)."""
        return mat_vec(self.basis_inv, list(elem.coords))

    def element_from_coords(self, coords):
        n = self.degree
        power = mat_vec(self.basis, [Fraction(c) for c in coords])
        return self.field.element(power)

    def contains(self, elem):
        return all(c.denominator == 1 for c in self.coords_of(elem))

    def mult_coords(self, a, b):
        """Product of two order-coordinate vectors, in order coordinates."""
        n = self.degree
        out = [0] * n
        for i in range(n):
            ai = a[i]
            if not ai:
                continue
            for j in range(n):
                bj = b[j]
                if not bj:
                    continue
                row = self._mult[(i, j) if i <= j else (j, i)]
                f = ai * bj
                for k in range(n):
                    if row[k]:
                        out[k] += f * row[k]
        return out

    def mult_matrix_coords(self, a):
        """Matrix of multiplication by the order-coordinate vector a."""
        n = self.degree
        cols = []
        for j in range(n):
            unit = [0] * n
            unit[j] = 1
            cols.append(self.mult_coords(a, unit))
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    def disc(self):
        """Discriminant of the order: det of the trace form on the basis."""
        if self._disc is None:
            n = self.degree
            traces = [
                [(self.elements[i] * self.elements[j]).trace() for j in range(n)]
                for i in range(n)
            ]
            d = det_fraction(traces)
            assert d.denominator == 1
            self._disc = int(d)
        return self._disc

    def equation_order_index(self):
        """[O : Z[D*theta]] (an integer for orders containing the equation order)."""
        D, _ = integral_presentation(self.field)
        n = self.degree
        eq_det = Fraction(D) ** (n * (n - 1) // 2)
        ind = eq_det / abs(det_fraction(self.basis))
        assert ind.denominator == 1
        return int(ind)


def integral_presentation(field):
    """(D, g) with g integer monic and g(D*theta) = 0; D = 1 for integral min_poly."""
    from .unipoly import UniPoly

    f = field.min_poly
    D = f.denominator_lcm()
    n = f.degree
    g = UniPoly([c * Fraction(D) ** (n - i) for i, c in enumerate(f.coeffs)])
    assert all(c.denominator == 1 for c in g.coeffs) and g.lc() == 1
    return D, g


def equation_order(field):
    """Z[D*theta] as an order, D clearing the min_poly denominators."""
    n = field.degree
    D, _ = integral_presentation(field)
    return Order(
        field,
        [[Fraction(D) ** j if i == j else Fraction(0) for j in range(n)] for i in range(n)],
    )


def _p_radical_lattice(order, p):
    """Order-coordinate basis columns of the p-radical ideal of the order."""
    n = order.degree
    # Frobenius matrix on O/pO: columns = coords of w_i^p
    k = 1
    q = p
    while q < n:
        q *= p
        k += 1
    cols = []
    for i in range(n):
        unit = [0] * n
        unit[i] = 1
        acc = unit
        for _ in range(k):
            # acc := acc^p via repeated squaring in coords mod p
            acc = _coords_pow(order, acc, p, p)
        cols.append([c % p for c in acc])
    A = [[cols[j][i] for j in range(n)] for i in range(n)]
    kernel = kernel_mod_p(A, p)
    gens = [[p if i == j else 0 for j in range(n)] for i in range(n)]
    gens = [list(col) for col in zip(*gens)]  # columns of p*I
    gens.extend(kernel)
    mat = [[gens[j][i] for j in range(len(gens))] for i in range(n)]
    return hnf_columns(mat)


def _coords_pow(order, a, e, p):
    out = list(order.one_coords)
    base = [c % p for c in a]
    while e:
        if e & 1:
            out = [c % p for c in order.mult_coords(out, base)]
        base = [c % p for c in order.mult_coords(base, base)]
        e >>= 1
    return out


def maximal_order(field):
    """The maximal order, by p-maximalizing the equation order (memoized)."""
    return per_field("maximal_order", field, lambda: _maximal_order(field))


def _maximal_order(field):
    D, g = integral_presentation(field)
    from .unipoly import poly_discriminant

    disc_eq = poly_discriminant(g)
    assert disc_eq.denominator == 1
    disc_eq = int(disc_eq)
    if disc_eq == 0:
        raise CMFieldsError("degenerate (non-separable) polynomial")
    order = equation_order(field)
    bad = [p for p, e in factorize(disc_eq).items() if e >= 2]
    for p in bad:
        while True:
            rad = FracIdeal(order, 1, _p_radical_lattice(order, p))
            # the multiplier ring contains O, so it is O exactly at norm 1
            ring = colon_ideal(rad, rad)
            if ring.norm() == 1:
                break
            den, h = lattice_hnf(transpose(mat_mul(order.basis, ring.hnf)), ring.den)
            order = Order(field, [[Fraction(x, den) for x in row] for row in h])
    index = order.equation_order_index()
    assert order.disc() * index * index == disc_eq
    order.index_in_maximal = 1
    order.equation_index = index
    order.equation_gen = field.gen() * D
    order.equation_poly = g
    return order
