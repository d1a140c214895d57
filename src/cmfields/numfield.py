"""Number fields Q[x]/(f), exact element arithmetic, and field morphisms."""

import math
import operator
from fractions import Fraction

from .errors import InvariantViolated
from .linalg import det_fraction, first_dependency, linear_solver, transpose
from .unipoly import UniPoly, poly_xgcd


class NumberField:
    """A number field presented as Q[x]/(min_poly), min_poly monic irreducible.

    Elements are coordinate vectors in the power basis 1, x, ..., x^(n-1).
    """

    def __init__(self, min_poly, check=True):
        if not isinstance(min_poly, UniPoly):
            min_poly = UniPoly(min_poly)
        if min_poly.degree < 1:
            raise ValueError("min_poly must be nonconstant")
        if min_poly.lc() != 1:
            raise ValueError("min_poly must be monic")
        if check:
            from .ratfactor import is_irreducible_over_q

            if not is_irreducible_over_q(min_poly):
                raise ValueError("min_poly is reducible over Q")
        self.min_poly = min_poly
        self.degree = min_poly.degree
        n = self.degree
        # reduction table: x^(n+k) mod min_poly for k = 0..n-2, kept as the
        # integer rows of red_den times it (red_den is 1 for integral min_poly)
        red = []
        cur = [-c for c in min_poly.coeffs[:-1]]
        red.append(cur)
        for _ in range(n - 2):
            top = cur[-1]
            cur = [s + top * r for s, r in zip([Fraction(0)] + cur[:-1], red[0])]
            red.append(cur)
        self._red_den = math.lcm(*(c.denominator for row in red for c in row))
        self._red = [tuple(int(c * self._red_den) for c in row) for row in red]

    def __repr__(self):
        return f"NumberField({self.min_poly!r})"

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(self.min_poly)

    def element(self, coords):
        coords = [Fraction(c) for c in coords]
        if len(coords) > self.degree:
            raise ValueError("too many coordinates")
        coords += [Fraction(0)] * (self.degree - len(coords))
        return NFElement(self, tuple(coords))

    def zero(self):
        return self.element([])

    def one(self):
        return self.element([1])

    def gen(self):
        if self.degree == 1:
            return self.element([-self.min_poly.coeffs[0]])
        return self.element([0, 1])

    def from_poly(self, poly):
        """Image of a UniPoly under Q[x] -> Q[x]/(min_poly)."""
        rem = poly % self.min_poly
        return self.element(list(rem.coeffs))


class NFElement:
    """A field element: coords is the tuple of its Fraction power-basis coordinates."""

    __slots__ = ("field", "coords", "_num")

    def __init__(self, field, coords, num=None):
        self.field = field
        self.coords = coords
        self._num = num

    def _numerators(self):
        """(d, w): the coordinates are w/d with w integer and d the least such."""
        if self._num is None:
            d = math.lcm(*(c.denominator for c in self.coords))
            self._num = (d, [c.numerator * (d // c.denominator) for c in self.coords])
        return self._num

    def __repr__(self):
        return f"NFElement({list(self.coords)})"

    def poly(self):
        return UniPoly(self.coords)

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coerce(self.field, other)
        return (
            isinstance(other, NFElement)
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.field.min_poly, self.coords))

    def __add__(self, other):
        other = _coerce(self.field, other)
        return NFElement(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        return NFElement(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        other = _coerce(self.field, other)
        return NFElement(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NFElement(self.field, tuple(a * other for a in self.coords))
        if not isinstance(other, NFElement) or other.field != self.field:
            return NotImplemented
        field = self.field
        n = field.degree
        da, a = self._numerators()
        db, b = other._numerators()
        conv = [0] * (2 * n - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        conv[i + j] += ca * cb
        den = field._red_den
        out = conv[:n] if den == 1 else [den * c for c in conv[:n]]
        for c, row in zip(conv[n:], field._red):
            if c:
                for i in range(n):
                    if row[i]:
                        out[i] += c * row[i]
        return _from_numerators(field, den * da * db, out)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        g, s, _ = poly_xgcd(self.poly(), self.field.min_poly)
        if g.degree != 0:
            raise InvariantViolated("element and min_poly share a factor: min_poly is reducible")
        inv = s * (1 / g.coeffs[0])
        return self.field.from_poly(inv)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(self.field, other) / self

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return binary_power(self, k, self.field.one())

    def mult_matrix(self):
        """Matrix of multiplication by self on the power basis (columns = images)."""
        n = self.field.degree
        cols = []
        cur = self
        gen = self.field.gen()
        for _ in range(n):
            cols.append(cur.coords)
            cur = cur * gen
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    def trace(self):
        m = self.mult_matrix()
        return sum(m[i][i] for i in range(self.field.degree))

    def norm(self):
        return det_fraction(self.mult_matrix())

    def min_poly_over_q(self):
        """Monic minimal polynomial of this element over Q."""
        powers = [self.field.one()]
        for _ in range(self.field.degree):
            powers.append(powers[-1] * self)
        coeffs = first_dependency([p.coords for p in powers])
        return UniPoly([-c for c in coeffs] + [1])


def primitive_element(span, degree, min_poly=NFElement.min_poly_over_q, singles=True):
    """A generator w of the Q-algebra A spanned by span = [s_0, ..., s_{m-1}].

    A has dimension `degree`; span elements support + and multiplication by
    an integer, and min_poly(w) is the monic minimal polynomial of w over Q,
    of degree `degree` exactly when w generates A. The candidates are each
    s_k alone, in order (skipped when singles is False, for a caller that
    knows none of them generates), then w_c = sum_k c^k s_k for c = 1, 2, ....
    Returns (w, min_poly(w), a) with w = sum_k a_k s_k.

    Termination: A is a field or a product of fields, so it has `degree`
    distinct Q-algebra maps to C, and w generates A exactly when their
    values at w are distinct. Two distinct maps t, t' differ at w_c by
    sum_k c^k (t(s_k) - t'(s_k)), a polynomial in c of degree < m that is
    nonzero because the s_k span A; it vanishes for at most m - 1 values
    of c. The degree(degree - 1)/2 pairs of maps rule out at most m - 1
    values each, so some c <= (m - 1) degree(degree - 1)/2 + 1 works, and
    failing past that bound is an InvariantViolated.
    """
    m = len(span)
    for k, s in enumerate(span if singles else []):
        h = min_poly(s)
        if h.degree == degree:
            return s, h, tuple(int(i == k) for i in range(m))
    bound = (m - 1) * degree * (degree - 1) // 2 + 1 if m > 1 else 0
    for c in range(1, bound + 1):
        coeffs = tuple(c**k for k in range(m))
        w = span[0]
        for a, s in zip(coeffs[1:], span[1:]):
            w = w + s * a
        h = min_poly(w)
        if h.degree == degree:
            return w, h, coeffs
    raise InvariantViolated(
        f"no primitive element of degree {degree} among {m} span elements and "
        f"{bound} combinations"
    )


def binary_power(base, k, one, mul=operator.mul):
    """base**k for k >= 0: no product with one, no squaring past the top bit."""
    out = None
    while k:
        if k & 1:
            out = base if out is None else mul(out, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return one if out is None else out


def _from_numerators(field, den, out):
    """The element with integer coordinates out over den > 0, in lowest terms."""
    g = math.gcd(den, *out)
    if g > 1:
        den //= g
        out = [c // g for c in out]
    coords = tuple(Fraction(c, den) for c in out) if den > 1 else tuple(map(Fraction, out))
    return NFElement(field, coords, (den, out))


def numerator_rows(elements):
    """(d, rows): the coordinate vectors of the elements are rows/d, all integers."""
    nums = [x._numerators() for x in elements]
    d = math.lcm(*(e for e, _ in nums))
    return d, [[c * (d // e) for c in w] for e, w in nums]


def _coerce(field, value):
    if isinstance(value, NFElement):
        if value.field != field:
            raise ValueError("element of a different field")
        return value
    if isinstance(value, (int, Fraction)):
        return field.element([value])
    raise TypeError(f"cannot coerce {type(value)} into {field!r}")


class FieldMorphism:
    """A Q-algebra homomorphism between number fields, given by the generator image.

    The images of the source power basis are the columns of one integer
    matrix over one denominator, so an image is one integer mat-vec.
    """

    __slots__ = ("source", "target", "image_of_generator", "_den", "_matrix", "_solver")

    def __init__(self, source, target, image_of_generator, check=True):
        self.source = source
        self.target = target
        self.image_of_generator = image_of_generator
        if check:
            if not source.min_poly(image_of_generator).is_zero():
                raise ValueError("generator image is not a root of the source min_poly")
        powers = [target.one()]
        for _ in range(source.degree - 1):
            powers.append(powers[-1] * image_of_generator)
        self._den, rows = numerator_rows(powers)
        self._matrix = transpose(rows)
        self._solver = None

    def __repr__(self):
        return f"FieldMorphism({self.image_of_generator!r})"

    def __eq__(self, other):
        return (
            isinstance(other, FieldMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.image_of_generator == other.image_of_generator
        )

    def __hash__(self):
        return hash((self.source.min_poly, self.target.min_poly, self.image_of_generator.coords))

    def __call__(self, elem):
        if elem.field != self.source:
            raise ValueError("element not in the source field")
        d, w = elem._numerators()
        out = [sum(a * x for a, x in zip(row, w)) for row in self._matrix]
        return _from_numerators(self.target, d * self._den, out)

    def compose(self, other):
        """self after other: (self . other)(x) = self(other(x))."""
        if other.target != self.source:
            raise ValueError("morphisms not composable")
        return FieldMorphism(other.source, self.target, self(other.image_of_generator), check=False)

    def is_identity(self):
        return self.source == self.target and self.image_of_generator == self.source.gen()

    def preimage(self, elem):
        """The unique preimage of elem under this morphism, or None."""
        if elem.field != self.target:
            raise ValueError("element not in the target field")
        if self._solver is None:
            self._solver = linear_solver(self._matrix)
        sol = self._solver([c * self._den for c in elem.coords])
        if sol is None:
            return None
        return self.source.element(sol)

    def inverse_automorphism(self):
        """Inverse of an automorphism (source == target, bijective)."""
        if self.source != self.target:
            raise ValueError("not an automorphism")
        pre = self.preimage(self.source.gen())
        if pre is None:
            raise ValueError("morphism is not surjective")
        return FieldMorphism(self.source, self.source, pre, check=False)
