"""Number fields Q[x]/(f), exact integer element arithmetic, and field morphisms."""

import math
import operator
from fractions import Fraction

from .errors import InvariantViolated
from .intutil import binary_power
from .linalg import first_dependency, integer_row, linear_solver, row_reduce, transpose
from .ratfactor import is_irreducible_over_q
from .unipoly import UniPoly


class NumberField:
    """A number field presented as Q[x]/(min_poly), min_poly monic irreducible.

    Elements are coordinate vectors in the power basis 1, x, ..., x^(n-1),
    kept as integer numerators over one denominator (NFElement).
    """

    def __init__(self, min_poly, check=True):
        if not isinstance(min_poly, UniPoly):
            min_poly = UniPoly(min_poly)
        if min_poly.degree < 1:
            raise ValueError("min_poly must be nonconstant")
        if min_poly.lc() != 1:
            raise ValueError("min_poly must be monic")
        if check and not is_irreducible_over_q(min_poly):
            raise ValueError("min_poly is reducible over Q")
        self.min_poly = min_poly
        self.degree = min_poly.degree
        n = self.degree
        # reduction table: x^(n+k) mod min_poly for k = 0..n-2, kept as integer
        # rows over red_den (1 for integral min_poly). With x^n = a/D, row k is
        # over D^(k+1): x^(n+k+1) = x * x^(n+k) takes one more factor D
        D, a = integer_row([-c for c in min_poly.coeffs[:-1]])
        red = [a]
        for _ in range(n - 2):
            red.append([D * s + red[-1][-1] * r for s, r in zip([0] + red[-1][:-1], a)])
        red = [[x * D ** (len(red) - 1 - k) for x in row] for k, row in enumerate(red)]
        g = math.gcd(D ** len(red), *(x for row in red for x in row))
        self._red_den = D ** len(red) // g
        self._red = [[x // g for x in row] for row in red]

    def __repr__(self):
        return f"NumberField({self.min_poly!r})"

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(self.min_poly)

    def element(self, coords):
        """The element with the given rational coordinates (missing ones are 0)."""
        coords = [c if isinstance(c, int) else Fraction(c) for c in coords]
        if len(coords) > self.degree:
            raise ValueError("too many coordinates")
        den, num = integer_row(coords)  # in lowest terms: the coordinates are reduced
        return NFElement(self, den, num + [0] * (self.degree - len(num)))

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
    """A field element with power-basis coordinates num/den.

    num is the list of integer numerators and den > 0 the least common
    denominator, so equal elements have equal (den, num); all arithmetic
    runs on these integers, and coords is derived from them. Inverse, norm
    and trace read one integer matrix, the rows self * theta^i.
    """

    __slots__ = ("field", "den", "num")

    def __init__(self, field, den, num):
        self.field = field
        self.den = den
        self.num = num

    @property
    def coords(self):
        """The tuple of Fraction power-basis coordinates."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def __repr__(self):
        return f"NFElement({list(self.coords)})"

    def is_zero(self):
        return not any(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coerce(self.field, other)
        return (
            isinstance(other, NFElement)
            and self.field == other.field
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.field.min_poly, self.coords))

    def __add__(self, other):
        return _sum(self, _coerce(self.field, other), 1)

    __radd__ = __add__

    def __neg__(self):
        return NFElement(self.field, self.den, [-a for a in self.num])

    def __sub__(self, other):
        return _sum(self, _coerce(self.field, other), -1)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _from_numerators(
                self.field, self.den * other.denominator, [a * other.numerator for a in self.num]
            )
        if not isinstance(other, NFElement) or other.field != self.field:
            return NotImplemented
        field = self.field
        n = field.degree
        da, a = self.den, self.num
        db, b = other.den, other.num
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

    def _mult_rows(self):
        """(d, M): row i of M/d is self * theta^i; M/d is the transposed multiplication matrix."""
        gen = self.field.gen()
        rows = [self]
        for _ in range(self.field.degree - 1):
            rows.append(rows[-1] * gen)
        return numerator_rows(rows)

    def inverse(self):
        """One reduction of [M^T | d e_0]: (M^T/d) y = e_0 says self * y = 1."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        n = self.field.degree
        d, M = self._mult_rows()
        A = [list(col) + [d * (i == 0)] for i, col in enumerate(zip(*M))]
        pivots, det, _ = row_reduce(A, n)
        if len(pivots) < n:
            raise InvariantViolated("a nonzero element is a zero divisor: min_poly is reducible")
        s = 1 if det > 0 else -1  # A ends as det [I | y], and det may be negative
        return _from_numerators(self.field, s * det, [s * row[n] for row in A])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division of a field element by zero")
            s = 1 if other > 0 else -1  # the sign goes to the numerators, so den > 0
            q, d = s * other.denominator, s * other.numerator
            return _from_numerators(self.field, self.den * d, [a * q for a in self.num])
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(self.field, other) / self

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return binary_power(self, k, self.field.one())

    def trace(self):
        d, M = self._mult_rows()
        return Fraction(sum(row[i] for i, row in enumerate(M)), d)

    def norm(self):
        d, M = self._mult_rows()
        pivots, det, sign = row_reduce(M, len(M))
        if len(pivots) < len(M):
            return Fraction(0)
        return Fraction(sign * det, d ** len(M))

    def min_poly_over_q(self):
        """Monic minimal polynomial of this element over Q."""
        powers = [self.field.one()]
        for _ in range(self.field.degree):
            powers.append(powers[-1] * self)
        coeffs = first_dependency(numerator_rows(powers)[1])
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


def _from_numerators(field, den, out):
    """The element with integer coordinates out (a list) over den > 0, in lowest terms."""
    if den > 1:
        g = math.gcd(den, *out)
        if g > 1:
            den //= g
            out = [c // g for c in out]
    return NFElement(field, den, out)


def _sum(x, y, sign):
    """x + sign*y for sign = 1 or -1, over the lcm of the two denominators."""
    den = math.lcm(x.den, y.den)
    a, b = den // x.den, sign * (den // y.den)
    return _from_numerators(x.field, den, [a * u + b * v for u, v in zip(x.num, y.num)])


def numerator_rows(elements):
    """(d, rows): the coordinate vectors of the elements are rows/d, all integers."""
    d = math.lcm(*(x.den for x in elements))
    return d, [[c * (d // x.den) for c in x.num] for x in elements]


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

    def __call__(self, elem):
        if elem.field != self.source:
            raise ValueError("element not in the source field")
        out = [sum(map(operator.mul, row, elem.num)) for row in self._matrix]
        return _from_numerators(self.target, elem.den * self._den, out)

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
        # the matrix is den times the map: solve on the numerators, then rescale
        sol = self._solver(elem.num)
        if sol is None:
            return None
        return self.source.element(sol) * Fraction(self._den, elem.den)
