"""Element arithmetic, morphisms, and edge cases of the number-field core."""

import functools
import math
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, Matrix, Poly, Rational, rem, symbols

from cmfields import linalg
from cmfields.errors import EnumerationBoundExceeded, InvariantViolated
from cmfields.numfield import FieldMorphism, NFElement, NumberField, primitive_element
from cmfields.orders import maximal_order
from cmfields.unipoly import UniPoly

X = symbols("x")
RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def sympy_poly(coeffs):
    """The sympy polynomial with the given low-to-high rational coefficients."""
    return Poly([Rational(c.numerator, c.denominator) for c in reversed(coeffs)], X, domain=QQ)


def sympy_coords(poly, n):
    """Low-to-high coefficients of a sympy polynomial, padded to n."""
    coeffs = list(reversed(poly.all_coeffs())) if not poly.is_zero else []
    return [Fraction(int(c.p), int(c.q)) for c in coeffs] + [Fraction(0)] * (n - len(coeffs))


@st.composite
def fields_and_elements(draw):
    """A monic f of degree 1..6 with rational coefficients, and three elements of Q[x]/(f)."""
    n = draw(st.integers(1, 6))
    f = [draw(RATIONALS) for _ in range(n)] + [Fraction(1)]
    elems = [[draw(RATIONALS) for _ in range(n)] for _ in range(3)]
    return f, elems


def assert_products_match_sympy(f, elems):
    K = NumberField(UniPoly(f), check=False)
    a, b, c = (K.element(e) for e in elems)
    F = sympy_poly(f)
    A, B, C = (sympy_poly(e) for e in elems)
    assert list((a * b).coords) == sympy_coords(rem(A * B, F), K.degree)
    # a product's integer numerators feed the next product
    assert list((a * b * c).coords) == sympy_coords(rem(A * B * C, F), K.degree)


class TestElements:
    def test_field_axioms_random(self, zeta5):
        rng = random.Random(12)
        for _ in range(60):
            a = zeta5.element([rng.randint(-9, 9) for _ in range(4)])
            b = zeta5.element([rng.randint(-9, 9) for _ in range(4)])
            c = zeta5.element([rng.randint(-9, 9) for _ in range(4)])
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            if not a.is_zero():
                assert a * a.inverse() == zeta5.one()
                assert (b / a) * a == b

    def test_rational_coercion(self, gauss):
        i = gauss.gen()
        assert i + 1 == gauss.element([1, 1])
        assert 2 * i == i * 2
        assert 1 - i == -(i - 1)
        assert (i + 1) / 2 == gauss.element([Fraction(1, 2), Fraction(1, 2)])
        assert 2 / (i + 1) == gauss.element([1, -1])

    def test_pow_negative(self, gauss):
        i = gauss.gen()
        assert (i + 1) ** -2 == ((i + 1) ** 2).inverse()
        assert i**0 == gauss.one()

    def test_norm_trace_minpoly(self, zeta5):
        z = zeta5.gen()
        assert z.norm() == 1
        assert z.trace() == -1
        assert (z + z.inverse()).min_poly_over_q() == UniPoly([-1, 1, 1])

    @settings(max_examples=150, deadline=None)
    @given(fields_and_elements())
    def test_products_match_sympy_rem(self, case):
        # Q[x]/(f) multiplication is defined for any monic f, so the draws
        # need not be irreducible; most have non-integral coefficients
        assert_products_match_sympy(*case)

    def test_products_with_a_non_integral_min_poly(self):
        # x^3 + x/2 + 1/3 is irreducible (3-Eisenstein after x -> x/6) and its
        # reduction table has denominators
        f = [Fraction(1, 3), Fraction(1, 2), Fraction(0), Fraction(1)]
        K = NumberField(UniPoly(f))
        assert K._red_den > 1
        rng = random.Random(21)
        for _ in range(30):
            elems = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(3)]
                     for _ in range(3)]
            assert_products_match_sympy(f, elems)

    def test_pow_does_no_wasted_products(self, zeta5, monkeypatch):
        a = zeta5.element([1, -2, 0, 3])
        powers = [reduce(NFElement.__mul__, [a] * k, zeta5.one()) for k in range(6)]
        calls = []
        mul = NFElement.__mul__

        def counting(x, y):
            calls.append(1)
            return mul(x, y)

        monkeypatch.setattr(NFElement, "__mul__", counting)
        counts = []
        for k in range(6):
            calls.clear()
            assert a**k == powers[k]
            counts.append(len(calls))
        # no product by one and no squaring after the top bit
        assert counts == [0, 0, 1, 2, 2, 3]

    def test_zero_division(self, gauss):
        with pytest.raises(ZeroDivisionError):
            gauss.zero().inverse()

    def test_reducible_minpoly_rejected(self):
        with pytest.raises(ValueError):
            NumberField(UniPoly([-1, 0, 1]))

    def test_nonmonic_rejected(self):
        with pytest.raises(ValueError):
            NumberField(UniPoly([1, 0, 2]))


class TestPrimitiveElement:
    @staticmethod
    def recording(min_poly):
        tried = []

        def wrapped(w):
            tried.append(w)
            return min_poly(w)

        return tried, wrapped

    def test_candidate_order(self):
        # integers stand in for algebra elements; the fake minimal polynomial
        # has degree 2 only at 21, so the search must walk s_0, s_1 and then
        # w_c = s_0 + c*s_1 for c = 1, 2
        tried, min_poly = self.recording(lambda w: UniPoly([0, 0, 1] if w == 21 else [0, 1]))
        w, h, coeffs = primitive_element([1, 10], 2, min_poly)
        assert tried == [1, 10, 11, 21]
        assert (w, h, coeffs) == (21, UniPoly([0, 0, 1]), (1, 2))

    def test_first_span_element_of_full_degree_wins(self, zeta5):
        z = zeta5.gen()
        span = [zeta5.one(), z + z.inverse(), z, z * z]
        w, h, coeffs = primitive_element(span, 4)
        assert (w, coeffs) == (z, (0, 0, 1, 0))
        assert h == zeta5.min_poly

    def test_combination_when_no_span_element_generates(self):
        # Q(zeta8) = Q(i, sqrt 2): 1, i, sqrt 2, i sqrt 2 each lie in a proper
        # subfield, and w_1 = (1 + i)(1 + sqrt 2) has four distinct conjugates
        K = NumberField(UniPoly([1, 0, 0, 0, 1]))
        z = K.gen()
        i, r2 = z * z, z - z**3
        span = [K.one(), i, r2, i * r2]
        w, h, coeffs = primitive_element(span, 4)
        assert coeffs == (1, 1, 1, 1)
        assert w == (1 + i) * (1 + r2)
        assert h == w.min_poly_over_q() and h.degree == 4

    def test_span_of_a_subfield_raises_after_the_bound(self, zeta5):
        # 1 and zeta + zeta^-1 span Q(sqrt 5) only: every candidate fails, and
        # the search stops after m + (m - 1) D (D - 1) / 2 + 1 of them
        z = zeta5.gen()
        tried, min_poly = self.recording(lambda w: w.min_poly_over_q())
        with pytest.raises(InvariantViolated):
            primitive_element([zeta5.one(), z + z.inverse()], 4, min_poly)
        assert len(tried) == 2 + 1 * 4 * 3 // 2 + 1


class TestMorphisms:
    def test_bad_generator_image_rejected(self, gauss, zeta5):
        with pytest.raises(ValueError):
            FieldMorphism(gauss, zeta5, zeta5.gen())

    def test_compose_and_inverse(self, zeta5):
        from oracles import inverse_automorphism, nf_automorphisms

        autos = nf_automorphisms(zeta5)
        z = zeta5.gen()
        sigma = next(a for a in autos if a.image_of_generator == z * z)
        tau = inverse_automorphism(sigma)
        assert sigma.compose(tau).is_identity()
        assert tau.compose(sigma).is_identity()

    def test_preimage(self, quartic, quartic_cm):
        from cmfields.closure import splitting_data

        sd = splitting_data(quartic)
        j0 = sd.embeddings[0]
        x = quartic.element([1, 2, 0, 1])
        assert j0.preimage(j0(x)) == x
        # an element outside the image has no preimage
        assert j0.preimage(sd.closure.gen()) is None

    def test_preimage_reduces_once_and_matches_sympy(self, quartic, monkeypatch):
        from cmfields.closure import splitting_data

        sd = splitting_data(quartic)
        j0 = sd.embeddings[0]
        fresh = FieldMorphism(quartic, sd.closure, j0.image_of_generator, check=False)
        calls = []
        real = linalg.row_reduce
        monkeypatch.setattr(linalg, "row_reduce", lambda *a: calls.append(1) or real(*a))
        A = Matrix([[Rational(c.numerator, c.denominator) for c in row] for row in zip(
            *(j0(quartic.gen() ** i).coords for i in range(quartic.degree)))])
        rng = random.Random(8)
        for _ in range(10):
            x = quartic.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)])
            y = j0(x)
            b = Matrix([Rational(c.numerator, c.denominator) for c in y.coords])
            expected = A.gauss_jordan_solve(b)[0]
            assert [Rational(c.numerator, c.denominator) for c in fresh.preimage(y).coords] == \
                list(expected)
        assert fresh.preimage(sd.closure.gen()) is None
        assert len(calls) == 1


@functools.cache
def closure_morphisms():
    """Every embedding into and automorphism of the closure, for the degree-8
    closure of x^4 + 6x^2 + 3 and for Q(zeta5), which is its own closure."""
    from cmfields.closure import splitting_data

    out = []
    for coeffs in ((3, 0, 6, 0, 1), (1, 1, 1, 1, 1)):
        sd = splitting_data(NumberField(UniPoly(list(coeffs))))
        out += sd.embeddings + sd.autos
    return out


# monic irreducible min_polys of degree 2..8, low to high, two of them not integral
ELEMENT_FIELDS = (
    (Fraction(-1, 2), 0, 1), (1, 0, 1), (-2, 0, 0, 1), (Fraction(-1, 3), 0, 0, 0, 1),
    (3, 0, 6, 0, 1), (-1, -1, 0, 0, 0, 1), (1, 1, 1, 1, 1, 1, 1), (-2, 0, 0, 0, 0, 0, 0, 1),
    (1, -1, 0, 1, -1, 1, 0, -1, 1),
)
SCALARS = st.one_of(st.integers(-30, 30), RATIONALS)


@functools.cache
def element_field(i):
    return NumberField(UniPoly([Fraction(c) for c in ELEMENT_FIELDS[i]]))


@st.composite
def elements_with_oracle(draw):
    """A field of ELEMENT_FIELDS, two elements (zero and integral ones
    included) and a scalar, with the Fraction coordinates of the elements."""
    i = draw(st.integers(0, len(ELEMENT_FIELDS) - 1))
    n = len(ELEMENT_FIELDS[i]) - 1
    coords = st.one_of(
        st.lists(RATIONALS, min_size=n, max_size=n),
        st.lists(st.integers(-9, 9).map(Fraction), min_size=n, max_size=n),
        st.just([Fraction(0)] * n),
    )
    return element_field(i), draw(coords), draw(coords), draw(SCALARS)


class TestIntegerElements:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(elements_with_oracle())
    def test_arithmetic_matches_the_fraction_oracle(self, case):
        # (den, num) arithmetic against Fraction coordinates, reduced by
        # Fraction polynomial remainders
        from oracles import fraction_field_mul

        K, u, v, c = case
        f = K.min_poly.coeffs
        x, y = K.element(u), K.element(v)
        assert x.coords == tuple(u) and x.den > 0
        assert x.den == math.lcm(*(a.denominator for a in u))
        assert (x + y).coords == tuple(a + b for a, b in zip(u, v))
        assert (x - y).coords == tuple(a - b for a, b in zip(u, v))
        assert (-x).coords == tuple(-a for a in u)
        assert (x * y).coords == fraction_field_mul(f, u, v)
        assert (x * c).coords == (c * x).coords == tuple(a * c for a in u)
        assert (x + c).coords == (u[0] + c,) + tuple(u[1:])
        if c:
            assert (x / c).coords == tuple(a / c for a in u)
        assert (x == y) == (u == v)
        assert (x == x * 1) and (x + y == y + x)
        assert x.is_zero() == (not any(u))
        assert hash(x) == hash((K.min_poly, tuple(u)))
        # every result keeps the least denominator, which equality relies on
        for z in (x + y, x - y, x * y, x * c, x + c):
            assert z.den == math.lcm(*(a.denominator for a in z.coords))
        if any(u):
            inv = x.inverse()
            assert fraction_field_mul(f, u, inv.coords) == (1,) + (0,) * (K.degree - 1)
            assert (y / x).coords == fraction_field_mul(f, v, inv.coords)


# the fields of ELEMENT_FIELDS and a degree-1 field with a non-integral root
INVERSE_FIELDS = ((Fraction(-5, 3), 1),) + ELEMENT_FIELDS


@st.composite
def nonzero_elements(draw):
    """A nonzero element of a field of INVERSE_FIELDS, with its coordinates.

    Elements with a zero first coordinate are drawn on purpose: their
    elimination swaps rows, so its last pivot can be minus the determinant.
    """
    i = draw(st.integers(0, len(INVERSE_FIELDS) - 1))
    n = len(INVERSE_FIELDS[i]) - 1
    coords = draw(st.one_of(
        st.lists(RATIONALS, min_size=n, max_size=n),
        st.lists(st.integers(-9, 9).map(Fraction), min_size=n, max_size=n),
        st.lists(RATIONALS, min_size=n, max_size=n).map(lambda c: [Fraction(0)] + c[1:]),
    ).filter(any))
    K = NumberField(UniPoly([Fraction(c) for c in INVERSE_FIELDS[i]]))
    return K, coords


class TestIntegerInverse:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(nonzero_elements())
    def test_inverse_norm_trace_match_the_fraction_oracles(self, case):
        # one reduction of the integer multiplication matrix against the
        # extended Euclidean algorithm over Q and a Fraction determinant
        from oracles import coordinate_matrix, fraction_det, inverse_by_xgcd

        K, u = case
        x = K.element(u)
        inv = x.inverse()
        assert inv == inverse_by_xgcd(x)
        assert inv.den > 0 and inv.den == math.lcm(*(c.denominator for c in inv.coords))
        assert x * inv == K.one()
        M = coordinate_matrix(x)
        assert x.norm() == fraction_det(M) and isinstance(x.norm(), Fraction)
        assert x.trace() == sum(M[i][i] for i in range(K.degree))
        assert isinstance(x.trace(), Fraction)

    def test_elements_whose_last_pivot_is_negative(self, gauss):
        # i, 2i and (1 + i)^2 = 2i swap the rows of [[0, -c], [c, 0]]; a real
        # quadratic element of negative norm needs no swap
        from oracles import inverse_by_xgcd

        K = NumberField(UniPoly([Fraction(-1, 2), 0, 1]))
        i, t = gauss.gen(), K.gen()
        for x in (i, i * 2, -i, (i + 1) ** 2, t, t * 3 - 1, K.element([Fraction(-1, 3)])):
            inv = x.inverse()
            assert inv.den > 0 and x * inv == 1 and inv == inverse_by_xgcd(x)
        assert (i + 1) ** -2 == gauss.element([0, Fraction(-1, 2)])
        assert t.norm() == Fraction(-1, 2) and t.trace() == 0

    def test_zero_has_no_inverse_and_zero_norm(self):
        for coeffs in INVERSE_FIELDS[:4]:
            K = NumberField(UniPoly([Fraction(c) for c in coeffs]))
            with pytest.raises(ZeroDivisionError):
                K.zero().inverse()
            assert K.zero().norm() == 0 and K.zero().trace() == 0

    def test_a_zero_divisor_is_an_invariant_violation(self):
        # Q[x]/(x^2 - 1) built unchecked is not a field: x - 1 has no inverse
        K = NumberField(UniPoly([-1, 0, 1]), check=False)
        with pytest.raises(InvariantViolated):
            (K.gen() - 1).inverse()


NONZERO_SCALARS = st.one_of(
    st.integers(-30, -1), st.integers(1, 30), RATIONALS.filter(bool),
    st.fractions(max_value=-1, max_denominator=12).map(lambda q: q / 7),
)


@st.composite
def rational_elements(draw):
    """A field of INVERSE_FIELDS (degree 1 to 8) and the Fraction coordinates
    of one of its elements, zero included."""
    i = draw(st.integers(0, len(INVERSE_FIELDS) - 1))
    n = len(INVERSE_FIELDS[i]) - 1
    K = NumberField(UniPoly([Fraction(c) for c in INVERSE_FIELDS[i]]))
    return K, draw(st.lists(RATIONALS, min_size=n, max_size=n))


class TestScalarDivision:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(rational_elements(), NONZERO_SCALARS)
    def test_division_by_a_rational_matches_fraction_coordinates(self, case, c):
        # den and num scaled by the divisor's numerator and denominator, the
        # sign moved to the numerators: the least positive denominator
        K, u = case
        y = K.element(u) / c
        assert y.coords == tuple(a / c for a in u)
        assert type(y.den) is int and y.den > 0
        assert y.den == math.lcm(*(a.denominator for a in y.coords))
        assert y == K.element(u) * (1 / Fraction(c))

    def test_division_by_zero_raises(self, gauss):
        for zero in (0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                gauss.gen() / zero

    def test_element_from_coords_builds_no_fraction(self):
        # Z[(1 + sqrt-3)/2] has basis denominator 2, which element_from_coords
        # divides by
        import cProfile
        import pstats

        K = NumberField(UniPoly([3, 0, 1]))
        O = maximal_order(K)
        assert O.den == 2
        prof = cProfile.Profile()
        x = prof.runcall(O.element_from_coords, [3, 5])
        assert x == K.element([Fraction(11, 2), Fraction(5, 2)])
        made = [f for f in pstats.Stats(prof).stats if f[0].endswith("fractions.py")]
        assert made == []


class TestIntegerMorphisms:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(coords=st.lists(RATIONALS, min_size=8, max_size=8))
    def test_image_matches_the_fraction_evaluation(self, coords):
        # one integer mat-vec over a common denominator against the sum of
        # Fraction multiples of the generator's powers, on all 20 morphisms
        from oracles import morphism_by_fractions

        morphisms = closure_morphisms()
        assert len(morphisms) == 20
        for phi in morphisms:
            x = phi.source.element(coords[: phi.source.degree])
            y = phi(x)
            assert y == morphism_by_fractions(phi, x)
            d, w = y.den, y.num
            assert w == [c.numerator * (d // c.denominator) for c in y.coords]
            assert phi.preimage(y) == x


class TestPrincipalityBudget:
    def test_exhausted_budget_is_honest(self, zeta5, monkeypatch):
        from cmfields import principal
        from cmfields.ideals import FracIdeal, prime_split
        from cmfields.orders import maximal_order
        from cmfields.principal import is_principal

        O = maximal_order(zeta5)
        P = prime_split(11, O)[0]
        monkeypatch.setattr(principal, "BUDGET_DOUBLINGS", 0)
        with pytest.raises(EnumerationBoundExceeded):
            is_principal(P)
