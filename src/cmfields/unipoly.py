"""Univariate polynomials over Q, coefficients stored lowest degree first."""

import math
from fractions import Fraction

from .intutil import binary_power
from .linalg import integer_row


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class UniPoly:
    """Immutable rational polynomial. The zero polynomial has no coefficients."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs=()):
        self.coeffs = _trim(Fraction(c) for c in coeffs)
        self._hash = None

    @property
    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        # hashing Fractions is slow, and every memo lookup hashes a min_poly
        if self._hash is None:
            self._hash = hash(self.coeffs)
        return self._hash

    def __repr__(self):
        if not self.coeffs:
            return "UniPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "UniPoly(" + " + ".join(terms) + ")"

    def lc(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return UniPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d, lcb = other.degree, other.lc()
        rem = list(self.coeffs)
        if len(rem) - 1 < d:
            return UniPoly(), self
        q = [Fraction(0)] * (len(rem) - d)
        for k in range(len(q) - 1, -1, -1):
            c = rem[k + d]
            if c != 0:
                f = c / lcb
                q[k] = f
                for i, oc in enumerate(other.coeffs):
                    rem[k + i] -= f * oc
        return UniPoly(q), UniPoly(rem[:d])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, k):
        return binary_power(self, k, UniPoly([1]))

    def __call__(self, x):
        """Horner evaluation; x may be any element of a commutative Q-algebra."""
        if not self.coeffs:
            return x * 0
        acc = x * 0 + self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def monic(self):
        if self.is_zero():
            return self
        lc = self.lc()
        return UniPoly([c / lc for c in self.coeffs])

    def derivative(self):
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def is_even_poly(self):
        return all(c == 0 for c in self.coeffs[1::2])

    def int_coeffs(self):
        """Integer coefficient list after clearing denominators (primitive not enforced)."""
        d, w = integer_row(self.coeffs)
        return w, d


def _primitive(a):
    """An integer coefficient list over its positive content."""
    g = math.gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _pseudo_remainder(a, b):
    """|lc(b)|^(deg a - deg b + 1) (a mod b), for integer lists a, b."""
    if b[-1] < 0:
        b = [-c for c in b]
    lc, db = b[-1], len(b) - 1
    r = list(a)
    for k in range(len(a) - 1, db - 1, -1):
        c = r[k]
        r = [lc * x for x in r]
        if c:
            for i, bc in enumerate(b):
                r[k - db + i] -= c * bc
    return list(_trim(r[:db]))


def _remainder_sequence(a, b):
    """The primitive remainder sequence a, b, r_2, ..., r_k of integer lists.

    Each r_{i+1} is -prem(r_{i-1}, r_i) over its positive content (Cohen
    1993, §3.3), a positive multiple of -(r_{i-1} mod r_i) over Q. The
    chain stops at its last nonzero entry, a gcd of a and b over Q.
    """
    chain = [a]
    while b:
        chain.append(b)
        a, b = b, _primitive([-c for c in _pseudo_remainder(a, b)])
    return chain


def poly_gcd(a, b):
    """Monic gcd over Q."""
    chain = _remainder_sequence(_primitive(a.int_coeffs()[0]), _primitive(b.int_coeffs()[0]))
    return UniPoly(chain[-1]).monic()


def sturm_real_root_count(f):
    """Number of distinct real roots of f, by a Sturm chain (exact).

    The chain f, f', ..., -(p_{i-1} mod p_i) is the remainder sequence of
    the primitive integer f and f', so every sign is that of the chain over
    Q. With repeated roots the chain ends at gcd(f, f'), a common factor of
    every entry whose sign at -inf and at +inf is the same for all of them,
    so the variations there still count distinct roots.
    """
    if f.degree <= 0:
        return 0
    a = _primitive(f.int_coeffs()[0])
    chain = _remainder_sequence(a, _primitive([i * c for i, c in enumerate(a)][1:]))

    def variations(signs):
        return sum(1 for s, t in zip(signs, signs[1:]) if s * t < 0)

    # signs at -inf and +inf from leading terms
    return (variations([p[-1] * (-1) ** (len(p) - 1) for p in chain])
            - variations([p[-1] for p in chain]))
