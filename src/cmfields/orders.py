"""Orders in number fields and maximal-order computation (Pohst-Zassenhaus).

An Order stores a basis matrix W (columns = basis elements in the power
basis). The maximal order is obtained by p-maximalizing the equation order at
every prime whose square divides disc(min_poly): the p-radical of O/pO is the
kernel of the iterated Frobenius, and the multiplier ring of the radical
strictly contains O exactly when O is not p-maximal.
"""

from fractions import Fraction

from .errors import CMFieldsError
from .intutil import factorize
from .linalg import (
    det_fraction,
    hnf_columns,
    mat_inverse_fraction,
    mat_mul,
    mat_vec,
    transpose,
)
from .memo import per_field


class Order:
    """A (full-rank) order in a number field, given by a column basis matrix."""

    def __init__(self, field, basis, index_in_maximal=None, check=True):
        self.field = field
        n = field.degree
        self.basis = [[Fraction(x) for x in row] for row in basis]
        self.basis_inv = mat_inverse_fraction(self.basis)
        self.elements = [
            field.element([self.basis[i][j] for i in range(n)]) for j in range(n)
        ]
        if check:
            self._verify_ring()
        # multiplication table: w_i * w_j in order coordinates (must be integral)
        self._mult = {}
        for i in range(n):
            for j in range(i, n):
                coords = self.coords_of(self.elements[i] * self.elements[j])
                assert all(c.denominator == 1 for c in coords), "basis not multiplicatively closed"
                self._mult[(i, j)] = tuple(int(c) for c in coords)
        self.one_coords = tuple(int(c) for c in self.coords_of(field.one()))
        self.index_in_maximal = index_in_maximal
        self._disc = None

    def _verify_ring(self):
        n = self.field.degree
        one = self.coords_of(self.field.one())
        if not all(c.denominator == 1 for c in one):
            raise CMFieldsError("1 is not in the order")
        for i in range(n):
            for j in range(i, n):
                coords = self.coords_of(self.elements[i] * self.elements[j])
                if not all(c.denominator == 1 for c in coords):
                    raise CMFieldsError("order basis is not closed under multiplication")

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
    D = 1
    for c in f.coeffs:
        D = D * c.denominator // _gcd(D, c.denominator)
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
        check=False,
    )


def _lattice_canonical(cols):
    """Canonical (den, integer HNF) for the lattice spanned by rational columns."""
    den = 1
    for col in cols:
        for x in col:
            x = Fraction(x)
            den = den * x.denominator // _gcd(den, x.denominator)
    mat = [[int(Fraction(cols[j][i]) * den) for j in range(len(cols))] for i in range(len(cols[0]))]
    h = hnf_columns(mat)
    g = den
    for row in h:
        for x in row:
            g = _gcd(g, abs(x))
    if g > 1:
        h = [[x // g for x in row] for row in h]
        den //= g
    return den, h


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


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
    kernel = _kernel_mod_p(A, p)
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


def _kernel_mod_p(A, p):
    """Basis vectors of the right kernel of A over F_p."""
    n = len(A)
    M = [[x % p for x in row] for row in A]
    pivots = []
    row = 0
    for c in range(n):
        piv = next((r for r in range(row, n) if M[r][c] % p), None)
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
        row += 1
    free = [c for c in range(n) if c not in pivots]
    out = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-M[r][fc]) % p
        out.append(v)
    return out


def _multiplier_ring(order, rad_cols):
    """Basis (in order coordinates, rational) of {x in E : x*rad <= rad}."""
    n = order.degree
    rad = [[Fraction(rad_cols[i][j]) for j in range(n)] for i in range(n)]
    rad_inv_t = transpose(mat_inverse_fraction(rad))
    duals = []
    for j in range(n):
        v = [rad_cols[i][j] for i in range(n)]
        Mv = order.mult_matrix_coords(v)
        # dual of Mv^{-1} * rad-lattice is Mv^T * rad^{-T}
        D = mat_mul(transpose(Mv), rad_inv_t)
        duals.append(D)
    big = [[duals[t][i][j] for t in range(n) for j in range(n)] for i in range(n)]
    den, h = _lattice_canonical([[big[i][j] for i in range(n)] for j in range(len(big[0]))])
    # sum lattice is (1/den)*h; the multiplier ring is its dual
    hs = [[Fraction(h[i][j], den) for j in range(n)] for i in range(n)]
    mult_cols = transpose(mat_inverse_fraction(hs))
    return mult_cols


def maximal_order(field):
    """The maximal order, by p-maximalizing the equation order (memoized)."""
    return per_field("maximal_order", field, lambda: _maximal_order(field))


def _maximal_order(field):
    n = field.degree
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
            rad = _p_radical_lattice(order, p)
            mult_cols = _multiplier_ring(order, rad)
            new_basis_power = mat_mul(order.basis, mult_cols)
            if _lattice_canonical(transpose(new_basis_power)) == _lattice_canonical(
                transpose(order.basis)
            ):
                break
            den, h = _lattice_canonical(transpose(new_basis_power))
            basis = [[Fraction(h[i][j], den) for j in range(n)] for i in range(n)]
            order = Order(field, basis, check=False)
    index = order.equation_order_index()
    assert order.disc() * index * index == disc_eq
    final = Order(field, order.basis, index_in_maximal=1, check=True)
    final.equation_index = index
    final.equation_gen = field.gen() * D
    final.equation_poly = g
    return final
