"""Fractional-ideal arithmetic: worked examples, invariants, oracle agreement."""

import math
import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from sympy import Matrix, Poly, Rational, factorint, ilcm, multiplicity, symbols
from sympy.matrices.normalforms import hermite_normal_form
from sympy.polys.numberfields.basis import round_two
from sympy.polys.numberfields.exceptions import ClosureFailure
from sympy.polys.numberfields.primes import prime_decomp

from cmfields import ideals, memo, principal
from cmfields.closure import complex_conjugation, splitting_data
from cmfields.errors import CMFieldsError, InvariantViolated, OrderMismatch
from cmfields.ideals import (
    FracIdeal,
    colon_ideal,
    coprime_scale,
    factor_ideal,
    p_radical,
    prime_split,
    primes_of_norm_below,
)
from cmfields.intutil import primes_up_to
from cmfields.linalg import mat_vec
from cmfields.numfield import NumberField
from cmfields.orders import (
    Order,
    _maximal_order,
    equation_order,
    integral_presentation,
    maximal_order,
)
from cmfields.principal import (
    class_representatives,
    is_principal,
    torsion_units,
    units_of_relative_norm,
)
from cmfields.ratfactor import is_irreducible_over_q
from cmfields.unipoly import UniPoly

from oracles import (
    bqf_class_number,
    class_representatives_by_hnf_enumeration,
    colon_ideal_by_adjugate,
    coprime_scale_by_elements,
    factor_ideal_by_all_valuations,
    ideal_product_by_bases,
    ideal_sum,
    integral_ideals_of_norm,
    lattice_index_by_cosets,
    mult_matrix_by_units,
    poly_discriminant,
    prime_split_by_dedekind_at,
    prime_split_by_generators,
    principal_by_box_search,
    principal_by_unreduced_search,
    torsion_units_by_unreduced_search,
    trace_form_by_fractions,
    trace_gram,
)


def random_ideal(order, rng, prime_bound=40, factors=2):
    """A random fractional ideal from small prime powers and a denominator."""
    out = FracIdeal.unit_ideal(order)
    for _ in range(factors):
        p = rng.choice([q for q in primes_up_to(prime_bound) if order.equation_index % q])
        P = rng.choice(prime_split(p, order))
        out = out * P ** rng.choice([1, 1, 2, -1])
    return out


def closure_order(field):
    return maximal_order(splitting_data(field).closure)


def primes_below(order, bound):
    """Every prime of the maximal order above p < bound, p prime to the index."""
    return [
        P for p in primes_up_to(bound - 1) if order.equation_index % p
        for P in prime_split(p, order)
    ]


def inverse_by_products(P):
    """P^-1 = (1/p) P^(e-1) prod_{Q != P} Q^e_Q over the primes Q above p: no colon ideal."""
    out = P ** (P.e - 1)
    for Q in prime_split(P.p, P.order):
        if Q != P:
            out = out * Q**Q.e
    return out.scaled(Fraction(1, P.p))


def valuation_by_containment(I, P):
    """v_P(I) as the largest k with I X <= P^k, from `contains_ideal` and products.

    X is an integral ideal prime to P that clears the denominators of I at the
    other primes (v_Q(I) >= -e_Q ord_q(den) for Q above q), so I X <= P^k
    exactly when v_P(I) >= k; the search starts at k = -e ord_p(den), which
    always holds.
    """
    order = I.order
    X = FracIdeal.unit_ideal(order)
    for q, m in factorint(I.den).items():
        for Q in prime_split(q, order):
            if Q != P:
                X = X * Q ** (Q.e * m)
    J = I * X
    k = -P.e * multiplicity(P.p, I.den)
    power = inverse_by_products(P) ** -k
    assert power.contains_ideal(J)
    while (power * P).contains_ideal(J):
        power = power * P
        k += 1
    return k


def colon_by_fraction_duality(b, a):
    """Basis columns of (b : a) by the Fraction formula, in sympy: the dual of
    the lattice spanned by the rows of b^{-1} M_v over the basis v of a."""
    order = a.order
    b_inv = (Matrix(b.hnf) / b.den).inv()
    rows = []
    for col in a.basis_columns():
        N = b_inv * Matrix(order.mult_matrix_coords(col)) / a.den
        rows.extend(N.row(i) for i in range(order.degree))
    G = Matrix.vstack(*rows).T
    d = ilcm(*[x.q for x in G])
    S = hermite_normal_form((G * d).applyfunc(int)) / d
    return S.T.inv()


def same_lattice(A, B):
    return all(x.is_integer for x in A.inv() * B) and all(x.is_integer for x in B.inv() * A)


class TestProducts:
    def test_principal_products_gauss(self, gauss):
        O = maximal_order(gauss)
        one, i = gauss.one(), gauss.gen()
        assert FracIdeal.principal(O, one * 2) * FracIdeal.principal(O, one * 3) == \
            FracIdeal.principal(O, one * 6)
        assert FracIdeal.principal(O, one + i) * FracIdeal.principal(O, one - i) == \
            FracIdeal.principal(O, one * 2)

    def test_nonprincipal_square(self, sqrt5):
        O = maximal_order(sqrt5)
        r = sqrt5.gen()
        P2 = FracIdeal.from_generators(O, [sqrt5.one() * 2, sqrt5.one() + r])
        assert P2 * P2 == FracIdeal.principal(O, sqrt5.one() * 2)

    def test_unit_law_and_commutativity(self, zeta5):
        O = maximal_order(zeta5)
        rng = random.Random(5)
        one = FracIdeal.unit_ideal(O)
        for _ in range(20):
            a, b = random_ideal(O, rng), random_ideal(O, rng)
            assert a * one == a
            assert a * b == b * a

    def test_powers_are_products_with_no_wasted_hnf(self, zeta5, monkeypatch):
        O = maximal_order(zeta5)
        one = FracIdeal.unit_ideal(O)
        I = random_ideal(O, random.Random(7))
        assert not I.is_unit()
        products = [one]
        for _ in range(5):
            products.append(products[-1] * I)
        calls = []
        real = ideals.lattice_hnf
        monkeypatch.setattr(ideals, "lattice_hnf",
                            lambda cols, den=1: calls.append(1) or real(cols, den))
        counts = []
        for k in range(6):
            calls.clear()
            assert I**k == products[k]
            counts.append(len(calls))
        # P**1 costs no HNF and P**2 one; no product by the unit ideal
        assert counts == [0, 0, 1, 2, 2, 3]
        calls.clear()
        assert one * I is I and I * one is I and calls == []

    def test_order_mismatch(self, gauss, sqrt5):
        a = FracIdeal.unit_ideal(maximal_order(gauss))
        b = FracIdeal.unit_ideal(maximal_order(sqrt5))
        with pytest.raises(OrderMismatch):
            a * b
        with pytest.raises(OrderMismatch):
            a.contains_ideal(b)

    def test_unit_ideal_is_generated_by_one(self, gauss, sqrt5, zeta5, quartic):
        # the identity lattice is the ideal 1*O, also for an equation order and a
        # field whose minimal polynomial is not integral
        fields = [gauss, sqrt5, zeta5, quartic, splitting_data(quartic).closure,
                  NumberField(UniPoly([Fraction(1, 3), Fraction(1, 2), 0, 1]))]
        for K in fields:
            for O in (maximal_order(K), equation_order(K)):
                assert FracIdeal.unit_ideal(O) == FracIdeal.from_generators(O, [K.one()])


class TestProductsByGenerators:
    @pytest.mark.parametrize(
        "build", [lambda: NumberField(UniPoly([5, 0, 1])), lambda: _zeta5(),
                  lambda: _quartic_closure()],
        ids=["Q(sqrt-5)", "Q(zeta5)", "closure(x^4+6x^2+3)"])
    def test_products_by_a_prime_equal_the_basis_product(self, build):
        # a*P spans a's basis times P's two generators p and gens[0]; the
        # HNF is canonical, so each product is the matrix of the old product
        # of every pair of basis columns
        O = maximal_order(build())
        rng = random.Random(O.degree)
        primes = primes_below(O, 30)
        fractional = 0
        for _ in range(4):
            P, Q = rng.choice(primes), rng.choice(primes)
            a = random_ideal(O, rng, prime_bound=30) * P.inverse()
            fractional += not a.is_integral()
            for b in (a, a.scaled(a.den)):
                assert b * P == ideal_product_by_bases(b, P)
                assert P * b == ideal_product_by_bases(P, b)
            assert P * Q == ideal_product_by_bases(P, Q)
            assert P * P == ideal_product_by_bases(P, P)
            power = P
            for k in range(2, 5):
                power = ideal_product_by_bases(power, P)
                assert P**k == power, (P, k)
        assert fractional
        assert len(P.generator_columns()) == 2 and len(a.generator_columns()) == O.degree


class TestContainment:
    def test_contains_ideal_matches_the_sum_definition(self, zeta5, quartic):
        # b <= a exactly when a + b == a, on integral and fractional pairs
        outcomes = set()
        for O, seed in ((maximal_order(zeta5), 61), (closure_order(quartic), 62)):
            rng = random.Random(seed)
            primes = primes_below(O, 20)
            for _ in range(6):
                a = random_ideal(O, rng, prime_bound=20)
                c = rng.choice(primes) ** rng.randint(1, 2)
                b = random_ideal(O, rng, prime_bound=20)
                for x, y in ((a, a * c), (a * c, a), (a, b), (c, a * c), (a, a.scaled(3)),
                             (a.scaled(Fraction(1, 2)), a), (a, a)):
                    expected = ideal_sum(x, y) == x
                    assert x.contains_ideal(y) == expected, (x, y)
                    outcomes.add((expected, x.is_integral() and y.is_integral()))
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


# Q(i), Q(sqrt-5), Q(zeta5) and the degree-8 closure of x^4+6x^2+3
FOUR_ORDERS = pytest.mark.parametrize(
    "build", [lambda: NumberField(UniPoly([1, 0, 1])), lambda: NumberField(UniPoly([5, 0, 1])),
              lambda: _zeta5(), lambda: _quartic_closure()],
    ids=["Q(i)", "Q(sqrt-5)", "Q(zeta5)", "closure(x^4+6x^2+3)"])


class TestInverse:
    def test_principal_inverses(self, gauss):
        O = maximal_order(gauss)
        one, i = gauss.one(), gauss.gen()
        assert FracIdeal.principal(O, one * 2).inverse() == \
            FracIdeal.principal(O, one / 2)
        assert FracIdeal.principal(O, one + i).inverse() == \
            FracIdeal.principal(O, (one - i) / 2)

    def test_inverse_law_random(self, gauss, sqrt5, zeta5):
        for field, seed in ((gauss, 1), (sqrt5, 2), (zeta5, 3)):
            O = maximal_order(field)
            one = FracIdeal.unit_ideal(O)
            rng = random.Random(seed)
            for _ in range(25):
                a = random_ideal(O, rng)
                assert a * a.inverse() == one

    @FOUR_ORDERS
    def test_inverse_matches_the_adjugate_colon(self, build):
        # (O : a) with b^-1 = I read straight off M_v, against the colon that
        # multiplies by the adjugate of O's identity HNF, on integral,
        # fractional and prime ideals
        O = maximal_order(build())
        one = FracIdeal.unit_ideal(O)
        rng = random.Random(70 + O.degree)
        primes = primes_below(O, 30)
        cases = [rng.choice(primes) for _ in range(3)]
        for _ in range(3):
            a = random_ideal(O, rng, prime_bound=30)
            cases += [a.scaled(a.den), a.scaled(Fraction(1, a.den * rng.randint(2, 5)))]
        kinds = set()
        for a in cases:
            kinds.add("prime" if hasattr(a, "p") else "integral" if a.den == 1 else "fractional")
            inv = a.inverse()
            assert inv == colon_ideal_by_adjugate(one, a), a
            assert a * inv == one
        assert kinds == {"prime", "integral", "fractional"}

    @FOUR_ORDERS
    def test_the_order_is_its_own_inverse(self, build):
        # (O : O) = O is returned with no colon; negative powers of primes,
        # which start from an inverse, still round-trip
        O = maximal_order(build())
        one = FracIdeal.unit_ideal(O)
        assert one.inverse() == colon_ideal_by_adjugate(one, one) == one
        for P in primes_below(O, 12)[:3]:
            for k in (1, 2, 3):
                assert P**-k == colon_ideal_by_adjugate(one, P**k)
                assert (P**-k).inverse() == P**k and P**-k * P**k == one

    @FOUR_ORDERS
    def test_is_unit_reads_the_pivots(self, build):
        # den == 1 and a unit diagonal against the norm, on prime, integral
        # and den > 1 ideals; P * Q^-1 for two primes of one norm has norm 1
        # and is not the order
        O = maximal_order(build())
        one = FracIdeal.unit_ideal(O)
        rng = random.Random(90 + O.degree)
        primes = primes_below(O, 30)
        cases = [one, one.scaled(Fraction(1, 2)), one.scaled(3)] + primes[:4]
        for _ in range(4):
            a = random_ideal(O, rng, prime_bound=30)
            cases += [a, a.scaled(a.den), a.scaled(Fraction(1, a.den * rng.randint(2, 5)))]
        same_norm = [(P, Q) for P in primes for Q in primes if P != Q and P.norm() == Q.norm()]
        cases += [P * Q.inverse() for P, Q in same_norm[:2]]
        kinds = set()
        for a in cases:
            kinds.add("prime" if hasattr(a, "p") else "integral" if a.den == 1 else "fractional")
            assert a.is_unit() == (a.norm() == 1 and a.den == 1) == (a == one), a
        assert kinds == {"prime", "integral", "fractional"}

    @FOUR_ORDERS
    def test_mult_matrix_table_matches_unit_vector_products(self, build):
        O = maximal_order(build())
        rng = random.Random(80 + O.degree)
        for _ in range(20):
            a = [rng.randint(-20, 20) for _ in range(O.degree)]
            assert O.mult_matrix_coords(a) == mult_matrix_by_units(O, a)

    def test_colon_matches_quotient(self, sqrt5):
        O = maximal_order(sqrt5)
        rng = random.Random(9)
        for _ in range(15):
            a, b = random_ideal(O, rng), random_ideal(O, rng)
            assert colon_ideal(b, a) == b * a.inverse()

    def test_colon_is_the_quotient_by_containment_and_norm(self, zeta5, quartic):
        # in a Dedekind domain (b : a) = b a^-1: c a <= b forces c <= b a^-1,
        # and equal norms then force equality
        for O, seed, count in ((maximal_order(zeta5), 17, 20), (closure_order(quartic), 18, 6)):
            rng = random.Random(seed)
            for _ in range(count):
                a, b = random_ideal(O, rng), random_ideal(O, rng)
                c = colon_ideal(b, a)
                assert b.contains_ideal(c * a)
                assert c.norm() == b.norm() / a.norm()

    def test_colon_matches_fraction_duality_on_a_non_maximal_order(self):
        # x^4+5x^2+1 has equation-order index 4; p-maximalization at 2 takes
        # the colon ideal (R : R) of the 2-radical R of Z[theta]
        K = NumberField(UniPoly([1, 0, 5, 0, 1]))
        O = equation_order(K)
        theta = K.gen()
        rad = p_radical(O, 2)[0]
        cases = [
            rad,
            rad * rad,
            FracIdeal.unit_ideal(O),
            FracIdeal.from_generators(O, [K.one() * 3, theta + 1]),
            FracIdeal.principal(O, (theta * theta + theta * 3) / 2),
        ]
        for a in cases:
            for b in cases:
                c = colon_ideal(b, a)
                assert same_lattice(Matrix(c.hnf) / c.den, colon_by_fraction_duality(b, a))
        # the multiplier ring of R holds Z[theta] with index 4: one step of
        # p-maximalization reaches the index of the maximal order
        ring = colon_ideal(rad, rad)
        assert ring.contains_ideal(FracIdeal.unit_ideal(O)) and ring.norm() == Fraction(1, 4)
        assert maximal_order(K).equation_order_index() == 4


class TestNorms:
    def test_known_values(self, gauss, sqrt5):
        O = maximal_order(gauss)
        assert FracIdeal.principal(O, gauss.one() + gauss.gen()).norm() == 2
        assert FracIdeal.unit_ideal(O).norm() == 1
        O5 = maximal_order(sqrt5)
        P2 = FracIdeal.from_generators(O5, [sqrt5.one() * 2, sqrt5.one() + sqrt5.gen()])
        assert P2.norm() == 2

    def test_norm_is_lattice_index(self, sqrt5):
        # oracle: the HNF determinant counts cosets
        O = maximal_order(sqrt5)
        P3 = prime_split(3, O)[0]
        count, det = lattice_index_by_cosets(P3.hnf)
        assert count == det == int(P3.norm())

    def test_multiplicativity_1000_per_field(self, gauss, sqrt5, zeta5, quartic):
        for field, seed in ((gauss, 11), (sqrt5, 12), (zeta5, 13), (quartic, 14)):
            O = maximal_order(field)
            rng = random.Random(seed)
            for _ in range(1000):
                a, b = random_ideal(O, rng), random_ideal(O, rng)
                assert (a * b).norm() == a.norm() * b.norm()

    def test_principal_norm_is_element_norm(self, zeta5):
        O = maximal_order(zeta5)
        rng = random.Random(4)
        for _ in range(40):
            coords = [rng.randint(-5, 5) for _ in range(4)]
            e = zeta5.element(coords)
            if e.is_zero():
                continue
            assert FracIdeal.principal(O, e).norm() == abs(e.norm())


# (a, b) of irreducible CM quartics x^4+ax^2+b, a^2 > 4b > 0: indexes 4, 8 and
# 9, the corpus quartic, then pairs with 3 <= a <= 40 once drawn at random and
# kept as a fixed list, so that no edit elsewhere can move the examples
ROUND_TWO_QUARTICS = [
    (5, 1), (6, 1), (7, 1), (6, 3), (3, 1), (12, 1), (12, 7), (26, 1), (26, 61),
    (24, 32), (26, 82), (13, 31), (21, 52), (13, 10), (17, 37), (17, 17), (21, 37),
    (37, 37), (13, 13), (27, 57), (27, 27), (39, 145), (39, 39), (8, 13), (23, 1),
    (23, 23), (6, 2), (6, 6), (28, 163), (29, 142), (37, 260), (24, 8), (24, 24),
    (16, 45),
]
# sympy 1.14's round_two is no oracle on x^4+16x^2+45: its basis holds 1/3 and
# its d_K = 51342 does not divide disc(f) = 4158720; x^4+1620x^2+40500 defines
# the same field (sympy's field_isomorphism), and there it gives 462080
ROUND_TWO_STAND_INS = {(16, 45): (1620, 40500)}


class TestMaximalOrder:
    # p-maximalization (the multiplier ring as a colon ideal) against sympy's
    # independent Round Two on irreducible CM quartics x^4+ax^2+b
    def test_discriminant_matches_round_two(self):
        x = symbols("x")
        for a, b in ROUND_TWO_QUARTICS:
            f = Poly(x**4 + a * x**2 + b, x)
            assert f.is_irreducible, (a, b)
            O = maximal_order(NumberField(UniPoly([b, 0, a, 0, 1])))
            # disc(f) = [O_K : Z[theta]]^2 d_K holds for the true d_K
            disc_f = int(f.discriminant())
            assert disc_f == O.disc() * O.equation_order_index() ** 2, (a, b)
            a2, b2 = ROUND_TWO_STAND_INS.get((a, b), (a, b))
            _, dK = round_two(Poly(x**4 + a2 * x**2 + b2, x))
            assert O.disc() == dK, (a, b)

    # disc(g) inside _maximal_order is a norm; the order's own cross-check
    # ties it to disc(O) [O : Z[D theta]]^2, and that must be the Sylvester
    # determinant on seeded fields of degree 2-8, on rational minimal
    # polynomials and on the degree-8 closure of x^4+6x^2+3
    def test_discriminant_matches_sylvester(self, quartic):
        rng = random.Random(21)
        polys = [UniPoly([Fraction(-1, 2), 0, 1]), UniPoly([Fraction(-1, 3), 0, 0, 0, 1])]
        for n in range(2, 9):
            found = 0
            while found < 3:
                den = rng.choice((1, 1, 2, 3)) if n <= 4 else 1
                f = UniPoly([Fraction(rng.randint(-4, 4), den) for _ in range(n)] + [1])
                if is_irreducible_over_q(f):
                    polys.append(f)
                    found += 1
        fields = [NumberField(f) for f in polys] + [splitting_data(quartic).closure]
        assert sorted({K.degree for K in fields}) == list(range(2, 9))
        for K in fields:
            _, g = integral_presentation(K)
            O = _maximal_order(K)
            assert O.disc() * O.equation_index**2 == poly_discriminant(g), K.min_poly

    def test_order_rejects_a_basis_that_is_not_a_ring(self, gauss):
        # 2Z + Zi misses 1; Z + Z(i/2) is not closed, (i/2)^2 = -1/4
        for den, basis, reason in (
            (1, [[2, 0], [0, 1]], "1 is not"),
            (2, [[2, 0], [0, 1]], "closed"),
        ):
            with pytest.raises(CMFieldsError, match=reason):
                Order(gauss, den, basis)

    def test_order_refuses_a_basis_that_is_not_triangular(self, gauss):
        # columns 1 + i and i span Z[i], but the basis is refused, not
        # re-normalised, so order coordinates always mean the given columns
        with pytest.raises(CMFieldsError, match="upper-triangular"):
            Order(gauss, 1, [[1, 0], [1, 1]])
        assert Order(gauss, 1, [[1, 0], [0, 1]]) == equation_order(gauss)


SURVEY_POLYS = (
    (1, 0, 1), (1, 1, 1), (5, 0, 1), (1, 1, 1, 1, 1), (1, 0, 5, 0, 1), (3, 0, 6, 0, 1),
    (1, 1, 1, 1, 1, 1, 1), (1, -1, 0, 1, -1, 1, 0, -1, 1),
)


class TestOrderCoordinates:
    @pytest.mark.parametrize("coeffs", SURVEY_POLYS + ("closure",), ids=str)
    def test_coords_num_matches_sympy_solve(self, coeffs, quartic):
        field = splitting_data(quartic).closure if coeffs == "closure" else \
            NumberField(UniPoly(list(coeffs)))
        O = maximal_order(field)
        n = field.degree
        B = Matrix(O.basis) / O.den
        assert all(O.basis[i][j] == 0 for i in range(n) for j in range(i))
        rng = random.Random(n)
        for trial in range(12):
            height = 1 if trial < 4 else 9
            e = field.element([Fraction(rng.randint(-height, height), rng.randint(1, 3))
                               for _ in range(n)])
            expected = B.solve(Matrix([Rational(c.numerator, c.denominator) for c in e.coords]))
            v, d = O._coords_num(e)
            ours = [Fraction(x, d) for x in v]
            assert [Rational(c.numerator, c.denominator) for c in ours] == list(expected)
            assert O.contains(e) == all(c.is_integer for c in expected)
            assert O.element_from_coords(ours) == e


class TestPrimeSplit:
    @pytest.mark.parametrize("coeffs", [(3, 0, 6, 0, 1), (1, 0, 5, 0, 1)], ids=str)
    def test_splitting_types_match_sympy_prime_decomp(self, coeffs):
        x = symbols("x")
        T = Poly(sum(c * x**i for i, c in enumerate(coeffs)), x)
        O = maximal_order(NumberField(UniPoly(list(coeffs))))
        checked = 0
        for p in primes_up_to(49):
            if O.equation_index % p == 0:
                continue
            ours = sorted((P.e, P.f) for P in prime_split(p, O))
            assert ours == sorted((Q.e, Q.f) for Q in prime_decomp(p, T=T)), p
            checked += 1
        assert checked >= 12

    def test_gauss_splitting_patterns(self, gauss):
        O = maximal_order(gauss)
        s5 = prime_split(5, O)
        assert len(s5) == 2 and all(P.e == 1 and P.f == 1 for P in s5)
        s2 = prime_split(2, O)
        assert len(s2) == 1 and s2[0].e == 2 and s2[0].f == 1
        s7 = prime_split(7, O)
        assert len(s7) == 1 and s7[0].e == 1 and s7[0].f == 2

    def test_completeness_under_200(self, gauss, sqrt5, eisenstein, zeta5):
        for field in (gauss, sqrt5, eisenstein, zeta5):
            O = maximal_order(field)
            n = field.degree
            for p in primes_up_to(199):
                if O.equation_index % p == 0:
                    continue
                splits = prime_split(p, O)
                assert sum(P.e * P.f for P in splits) == n
                prod = FracIdeal.unit_ideal(O)
                for P in splits:
                    prod = prod * P**P.e
                assert prod == FracIdeal.principal(O, field.one() * p)

    def test_index_primes_split(self, quartic):
        # the closure of x^4+6x^2+3 has equation-order index 2^17 3^8 23:
        # 2 = P^8, 3 = P^4 with f = 2, and 23 splits completely; x^4+7x^2+1
        # has index 9, and 3 is two primes of degree 2
        OL = maximal_order(splitting_data(quartic).closure)
        assert OL.equation_index % (2 * 3 * 23) == 0
        assert [(P.e, P.f) for P in prime_split(2, OL)] == [(8, 1)]
        assert [(P.e, P.f) for P in prime_split(3, OL)] == [(4, 2)]
        assert [(P.e, P.f) for P in prime_split(23, OL)] == [(1, 1)] * 8
        O = maximal_order(NumberField(UniPoly([1, 0, 7, 0, 1])))
        assert O.equation_index % 3 == 0
        assert [(P.e, P.f) for P in prime_split(3, O)] == [(1, 2), (1, 2)]

    def test_valuations_match_containment(self, zeta5, quartic):
        # every prime above p < 30, against the largest k with I X <= P^k
        kinds = set()
        for O, seed in ((maximal_order(zeta5), 23), (closure_order(quartic), 24)):
            rng = random.Random(seed)
            primes = primes_below(O, 30)
            kinds |= {(P.e > 1, P.f == O.degree, P.e == P.f == 1) for P in primes}
            P, Q = primes[0], primes[-1]
            cases = [
                P**2 * Q,
                P * Q**3,
                (P**2).scaled(Fraction(1, P.p * Q.p)),
                random_ideal(O, rng, prime_bound=30),
                random_ideal(O, rng, prime_bound=30).scaled(Fraction(Q.p, P.p**2)),
                FracIdeal.principal(O, O.field.element([rng.randint(-4, 4) for _ in range(O.degree)])
                                    + O.field.one() * 7),
            ]
            for I in cases:
                for R in primes:
                    assert I.valuation(R) == valuation_by_containment(I, R), (I, R)
        # ramified, inert and unramified degree-one primes all occur
        assert any(k[0] for k in kinds) and any(k[1] for k in kinds) and any(k[2] for k in kinds)

    def test_factor_ideal_builds_no_prime_inverse(self, zeta5, quartic, monkeypatch):
        # valuations use the prime's anti-uniformizer; with the colon ideal and
        # the inverse made to raise, factoring still works, new primes included
        cases = []
        orders = [maximal_order(zeta5), closure_order(quartic)]
        for O, seed in zip(orders, (41, 42)):
            rng = random.Random(seed)
            primes = primes_below(O, 40)
            for _ in range(4):
                exps = {}
                for _ in range(2):
                    P = rng.choice(primes)
                    exps[P] = exps.get(P, 0) + rng.choice([1, 2, -1])
                I = FracIdeal.unit_ideal(O)
                for P, k in exps.items():
                    I = I * P**k
                cases.append((I, {P: k for P, k in exps.items() if k}))

        def refuse(*args):
            raise AssertionError("an ideal inverse was built")

        monkeypatch.setattr(ideals, "colon_ideal", refuse)
        monkeypatch.setattr(FracIdeal, "inverse", refuse)
        for I, expected in cases:
            assert factor_ideal(I) == expected
        for O, q in zip(orders, (59, 61)):
            # drop any cached split so prime_split builds the primes here
            memo._store.pop(("prime_split", O.field.min_poly, q), None)
            split = prime_split(q, O)
            for P in split:
                expected = {Q: -Q.e for Q in split}
                expected[P] += 3
                expected = {Q: k for Q, k in expected.items() if k}
                assert factor_ideal((P**3).scaled(Fraction(1, q))) == expected

    def test_prime_split_checks_survive_optimize(self):
        # the splitting identities are real checks: under python -O, a
        # factorization mod p that lost a factor still raises InvariantViolated
        code = textwrap.dedent("""
            from cmfields import modpoly
            from cmfields.errors import InvariantViolated
            from cmfields.ideals import prime_split
            from cmfields.numfield import NumberField
            from cmfields.orders import maximal_order
            from cmfields.unipoly import UniPoly

            O = maximal_order(NumberField(UniPoly([1, 1, 1, 1, 1])))
            factor = modpoly.factor
            modpoly.factor = lambda g, p: factor(g, p)[1:]
            print("debug", __debug__)
            try:
                prime_split(11, O)
            except InvariantViolated as exc:
                print("raised", exc)
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, env=env, timeout=300)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == [
            "debug False", "raised Dedekind splitting of 11 incomplete"]

    def test_valuations(self, sqrt5):
        O = maximal_order(sqrt5)
        P2, = prime_split(2, O)
        a = P2**3
        assert a.valuation(P2) == 3
        assert (a * P2.inverse() ** 5).valuation(P2) == -2
        P3 = prime_split(3, O)[0]
        assert a.valuation(P3) == 0

    def test_factor_ideal_roundtrip(self, zeta5):
        O = maximal_order(zeta5)
        rng = random.Random(21)
        for _ in range(10):
            a = random_ideal(O, rng)
            fac = factor_ideal(a)
            rebuilt = FracIdeal.unit_ideal(O)
            for P, v in fac.items():
                rebuilt = rebuilt * P**v
            assert rebuilt == a


    def test_factor_ideal_matches_a_valuation_at_every_prime(self, gauss, zeta5, quartic,
                                                             monkeypatch):
        # factor_ideal takes no valuation at p once the exponents found account
        # for ord_p of the numerator's norm; a valuation at every prime above
        # the support gives the same factorization, with more valuations
        calls = []
        valuation = FracIdeal.valuation

        def counted(self, prime):
            calls.append(prime)
            return valuation(self, prime)

        monkeypatch.setattr(FracIdeal, "valuation", counted)
        taken = []
        for O, seed in zip([maximal_order(gauss), maximal_order(zeta5), closure_order(quartic)],
                           (51, 52, 53)):
            rng = random.Random(seed)
            small = [1] + [p for p in primes_up_to(12) if O.equation_index % p]
            for _ in range(6):
                q = Fraction(rng.choice(small) * rng.choice(small), rng.choice(small) ** 2)
                a = random_ideal(O, rng, factors=3).scaled(q)
                calls.clear()
                fac = factor_ideal(a)
                taken.append(len(calls))
                calls.clear()
                assert fac == factor_ideal_by_all_valuations(a), a
                taken[-1] -= len(calls)
        assert all(t <= 0 for t in taken) and any(t < 0 for t in taken)


class TestPrincipality:
    def test_worked_examples(self, gauss, sqrt5):
        O = maximal_order(gauss)
        g = is_principal(FracIdeal.principal(O, gauss.one() * 2))
        assert g is not None and abs(g.norm()) == 4
        O5 = maximal_order(sqrt5)
        r = sqrt5.gen()
        P2 = FracIdeal.from_generators(O5, [sqrt5.one() * 2, sqrt5.one() + r])
        assert is_principal(P2) is None
        P3a = FracIdeal.from_generators(O5, [sqrt5.one() * 3, sqrt5.one() + r])
        P3b = FracIdeal.from_generators(O5, [sqrt5.one() * 3, sqrt5.one() - r])
        g = is_principal(P3a * P3b)
        assert g is not None and abs(g.norm()) == 9

    def test_box_search_agreement(self, sqrt5):
        # independent naive oracle against Fincke-Pohst, all ideals of norm <= 30
        O = maximal_order(sqrt5)
        conj = complex_conjugation(sqrt5)
        rng = random.Random(3)
        seen = 0
        for p in primes_up_to(30):
            for P in prime_split(p, O):
                if P.norm() > 30:
                    continue
                mine = is_principal(P)
                oracle = principal_by_box_search(P, conj)
                assert (mine is None) == (oracle is None)
                seen += 1
        assert seen >= 8

    def test_forms_oracle_agreement_all_discs(self):
        # every fundamental discriminant -3 >= d > -100: is_principal on every
        # ideal of norm <= 50 agrees with the reduced-forms class test
        from oracles import ideal_form_is_principal

        for d in _fundamental_discriminants(-100):
            field = _quadratic_field(d)
            O = maximal_order(field)
            assert O.disc() == d
            conj = complex_conjugation(field)
            seen = 0
            for p in primes_up_to(50):
                if O.equation_index % p == 0:
                    continue
                for P in prime_split(p, O):
                    if P.norm() > 50:
                        continue
                    mine = is_principal(P) is not None
                    oracle = ideal_form_is_principal(P, conj)
                    assert mine == oracle, (d, p, mine, oracle)
                    seen += 1
                    # also a non-prime ideal of norm <= 50 when it fits
                    sq = P * P
                    if sq.norm() <= 50:
                        assert (is_principal(sq) is not None) == ideal_form_is_principal(
                            sq, conj
                        )
            assert seen > 0, d

    def test_class_representatives_match_the_hnf_enumeration(self, zeta5):
        # the candidates are products of prime powers up to the Minkowski cap;
        # every integral HNF of each norm up to it, in (norm, HNF) order, must
        # give the same representatives, on every -100 < d <= -3, Q(zeta5),
        # x^2+31 (index 2) and x^2+14 (h = 4)
        fields = [_quadratic_field(d) for d in _fundamental_discriminants(-100)]
        fields += [zeta5, NumberField(UniPoly([31, 0, 1])), NumberField(UniPoly([14, 0, 1]))]
        for field in fields:
            O = maximal_order(field)
            expected = class_representatives_by_hnf_enumeration(O, principal._minkowski_cap(O))
            assert class_representatives(O) == expected, field.min_poly
        assert [len(class_representatives(maximal_order(f))) for f in fields[-3:]] == [1, 3, 4]

    def test_torsion_units(self, gauss, eisenstein, sqrt5, zeta5):
        assert len(torsion_units(maximal_order(gauss))) == 4
        assert len(torsion_units(maximal_order(eisenstein))) == 6
        assert len(torsion_units(maximal_order(sqrt5))) == 2
        assert len(torsion_units(maximal_order(zeta5))) == 10
        # memoized per field, so only the maximal order is accepted
        with pytest.raises(OrderMismatch):
            torsion_units(equation_order(zeta5))

    def test_units_of_relative_norm_on_zeta5(self, zeta5):
        # e = (1 + z)(1 + z^4) is eps * conj(eps) for the unit eps = 1 + z, so
        # the units of relative norm e^k are the ten eps^k * zeta; -1 and
        # z + z^4, negative at one real place, are no relative norms
        O = maximal_order(zeta5)
        conj = complex_conjugation(zeta5)
        z = zeta5.gen()
        eps = zeta5.one() + z
        roots = torsion_units(O)
        for k in range(-3, 4):
            e = (eps * conj(eps)) ** k
            units = units_of_relative_norm(O, e)
            assert len(units) == 10
            assert all(u * conj(u) == e and u / eps**k in roots for u in units)
        assert units_of_relative_norm(O, -zeta5.one()) == []
        assert units_of_relative_norm(O, z + z**4) == []

    def test_generators_match_the_unreduced_search_on_quadratics(self):
        # the reduced search returns the very element the search on the HNF
        # basis found first, on every integral ideal of norm <= 40 of each
        # imaginary quadratic field -3 >= d > -100, and on fractional ones
        for d in _fundamental_discriminants(-100):
            field = _quadratic_field(d)
            O = maximal_order(field)
            conj = complex_conjugation(field)
            small = []
            for norm in range(1, 41):
                for a in integral_ideals_of_norm(O, norm):
                    assert is_principal(a) == principal_by_unreduced_search(a, conj), (d, a)
                    if norm <= 6:
                        small.append(a)
            for a in small:
                for b in small[1:]:
                    q = a * b.inverse()
                    assert is_principal(q) == principal_by_unreduced_search(q, conj), (d, a, b)

    def test_generators_match_the_unreduced_search_on_zeta5(self, zeta5, monkeypatch):
        # Q(zeta5) has class number 1 and its search starts at the AM-GM
        # floor: every integral ideal of norm <= 11 has a generator within
        # that first bound, and 17 of the 36 quotients a * b^-1 of them need
        # one doubling (P5^-1 = (1/5) P5^3: Q((1 - zeta)^3) = 100 > 49)
        O = maximal_order(zeta5)
        conj = complex_conjugation(zeta5)
        bounds = []
        real_fincke_pohst = principal.fincke_pohst

        def counted(G, bound):
            bounds.append(bound)
            return real_fincke_pohst(G, bound)

        monkeypatch.setattr(principal, "fincke_pohst", counted)
        small = [a for norm in range(1, 12) for a in integral_ideals_of_norm(O, norm)]
        assert sorted(a.norm() for a in small) == [1, 5, 11, 11, 11, 11]
        doubled = 0
        for a in small + [a * b.inverse() for a in small for b in small]:
            del bounds[:]
            g = is_principal(a)
            assert g is not None and g == principal_by_unreduced_search(a, conj), a
            if len(bounds) > 1:
                assert bounds == [bounds[0], 2 * bounds[0]]
                doubled += 1
        assert doubled == 17

    def test_torsion_units_keep_the_unreduced_order(self, gauss, eisenstein, zeta5, quartic):
        # the list order matters: the reflex suite iterates over it. The last
        # field is Q(zeta5) generated by 3 zeta^3 + zeta^2, whose reduction
        # swaps basis vectors, so the reduced search visits the roots in
        # another order than the unreduced one
        skewed = NumberField(UniPoly([61, 4, 1, 4, 1]))
        for field in (gauss, eisenstein, zeta5, splitting_data(quartic).closure, skewed):
            O = maximal_order(field)
            units = torsion_units(O)
            assert units == torsion_units_by_unreduced_search(O, complex_conjugation(field))
            assert len(units) == {2: 4 if field == gauss else 6, 4: 10, 8: 2}[field.degree]

    def test_integer_trace_form_matches_fraction_products(self, gauss, sqrt5, zeta5, quartic):
        for O in (maximal_order(gauss), maximal_order(sqrt5), maximal_order(zeta5),
                  closure_order(quartic)):
            conj = complex_conjugation(O.field)
            assert principal._build_trace_form(O) == trace_form_by_fractions(O, conj)

    def test_non_maximal_order_gets_its_own_trace_form(self):
        # Z[sqrt -3] has index 2 in Z[zeta3]; both trace forms are memoized
        field = NumberField(UniPoly([3, 0, 1]))
        conj = complex_conjugation(field)
        E, O = equation_order(field), maximal_order(field)
        assert E != O
        for order in (E, O, E):
            assert principal._trace_form(order) == trace_gram(order.elements, conj)
        two = FracIdeal.from_generators(E, [field.one() * 2, field.gen() + 1])
        assert is_principal(two) == principal_by_unreduced_search(two, conj)


def _quadratic_field(d):
    assert d < 0 and d % 4 in (0, 1)
    if d % 4 == 1:
        return NumberField(UniPoly([Fraction(1 - d, 4), -1, 1]))
    return NumberField(UniPoly([-d // 4, 0, 1]))


def _fundamental_discriminants(floor):
    out = []
    for d in range(-3, floor, -1):
        if d % 4 == 1 and _squarefree(-d):
            out.append(d)
        elif d % 4 == 0:
            m = d // 4
            if _squarefree(-m) and (-m) % 4 in (1, 2):
                out.append(d)
    return out


def _squarefree(n):
    q = 2
    while q * q <= n:
        if n % (q * q) == 0:
            return False
        q += 1
    return True


def _sqrt_field(d):
    """Q(sqrt d) for a fundamental d: x^2 - d for d = 1 mod 4, whose equation
    order has index 2, so the basis has denominators in powers of theta, and
    x^2 - d/4 for d = 0 mod 4, of index 1, so that p = 2 is split too."""
    if d % 4 == 1:
        return NumberField(UniPoly([-d, 0, 1]))
    return NumberField(UniPoly([-d // 4, 0, 1]))


def _zeta5():
    return NumberField(UniPoly([1, 1, 1, 1, 1]))


def _quartic_closure():
    return splitting_data(NumberField(UniPoly([3, 0, 6, 0, 1]))).closure


def _sympy_splitting_types(field, primes):
    """{p: sorted (e, f)} from sympy: prime_decomp, or, where sympy's round_two
    fails (it raises ClosureFailure on the degree-8 closure), the factors of
    the defining polynomial mod p, which give (e, f) for p prime to the index
    (Kummer-Dedekind)."""
    x = symbols("x")
    T = Poly([int(c) for c in reversed(field.min_poly.coeffs)], x)
    try:
        ZK, dK = round_two(T)
    except ClosureFailure:
        return {p: sorted((m, g.degree()) for g, m in Poly(T, modulus=p).factor_list()[1])
                for p in primes}
    return {p: sorted((Q.e, Q.f) for Q in prime_decomp(p, T=T, ZK=ZK, dK=dK)) for p in primes}


CLOSED_FORM_PRIMES = primes_up_to(199) + [100003, 999983]
CLOSED_FORM_FIELDS = (
    [(f"Q(sqrt{d})", lambda d=d: _sqrt_field(d)) for d in _fundamental_discriminants(-100)]
    + [("Q(zeta5)", _zeta5), ("closure(x^4+6x^2+3)", _quartic_closure)]
)


class TestClosedFormPrimes:
    @pytest.mark.parametrize("build", [b for _, b in CLOSED_FORM_FIELDS],
                             ids=[name for name, _ in CLOSED_FORM_FIELDS])
    def test_prime_split_matches_the_generator_construction(self, build):
        # every prime is written down from its factor g_i of g mod p alone, as
        # the kernel of O -> F_p[x]/(g_i); the old construction (HNF of
        # (p, g_i(theta)), then the product of the P^e checked against pO)
        # must give the same list
        field = build()
        O = maximal_order(field)
        primes = [p for p in CLOSED_FORM_PRIMES if O.equation_index % p]
        expected_types = _sympy_splitting_types(field, primes)
        degree_one = 0
        for p in primes:
            ours = prime_split(p, O)
            old = prime_split_by_generators(p, O)
            assert [(P.hnf, P.den, P.e, P.f, P.order, P.gens) for P in ours] == [
                (P.hnf, P.den, P.e, P.f, P.order, P.gens) for P in old], p
            assert sorted((P.e, P.f) for P in ours) == expected_types[p], p
            degree_one += sum(P.f == 1 for P in ours)
        assert len(primes) >= len(CLOSED_FORM_PRIMES) - 3 and degree_one > 0

    @pytest.mark.parametrize("build", [b for _, b in CLOSED_FORM_FIELDS],
                             ids=[name for name, _ in CLOSED_FORM_FIELDS])
    def test_the_cofactor_is_an_anti_uniformizer(self, build):
        # beta = h(theta), h = g / g_i mod p, read off the prime's matrix as
        # beta * 1: beta * P <= pO on P's basis columns, and beta is not in pO
        O = maximal_order(build())
        for p in CLOSED_FORM_PRIMES:
            if O.equation_index % p == 0:
                continue
            for P in prime_split(p, O):
                beta = mat_vec(P.beta_matrix, O.one_coords)
                assert any(x % p for x in beta), (p, P)
                for col in P.basis_columns():
                    assert all(x % p == 0 for x in mat_vec(P.beta_matrix, col)), (p, P)

    def test_a_beta_in_pO_fails_the_split_check(self, gauss, monkeypatch):
        # with beta in pO, beta/p is integral and the valuation count runs on
        # to its cap, ord_5(25) + 1 = 3 for pO in Q(i), not e = 1
        O = maximal_order(gauss)
        coords = ideals._theta_coords
        monkeypatch.setattr(ideals, "_theta_coords",
                            lambda order, u: [5 * x for x in coords(order, u)])
        with pytest.raises(InvariantViolated, match=re.escape("v_P(5) is 3, not e = 1")):
            ideals._prime_split(5, O)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda fs: [(fs[0][0], 2)], "v_P(5) is 1, not e = 2"),
            (lambda fs: fs[:1], "Dedekind splitting of 5 incomplete"),
            (lambda fs: [fs[0], fs[0]], "a prime above 5 is listed twice"),
        ],
        ids=["wrong-e", "dropped-prime", "repeated-prime"],
    )
    def test_split_check_catches_a_wrong_factorization(self, gauss, monkeypatch, mutate, message):
        # 5 = (2 + i)(2 - i): a wrong exponent (with sum e f kept at 2), a
        # dropped prime and a repeated prime each fail one of the p-independent
        # checks that replace the product of the P^e
        O = maximal_order(gauss)
        factor = ideals._factor_mod_p
        monkeypatch.setattr(ideals, "_factor_mod_p", lambda g, p: mutate(factor(g, p)))
        with pytest.raises(InvariantViolated, match=re.escape(message)):
            ideals._prime_split(5, O)


def _quartic_reflex():
    from cmfields.cmreflex import cm_check, enumerate_cm_types, reflex_field

    quartic = NumberField(UniPoly([3, 0, 6, 0, 1]))
    return reflex_field(enumerate_cm_types(cm_check(quartic))[0]).reflex_field


BOUNDED_NORM_FIELDS = [
    ("Q(i)", lambda: NumberField(UniPoly([1, 0, 1])), 200),
    ("Q(zeta5)", _zeta5, 200),
    ("x^4+6x^2+3", lambda: NumberField(UniPoly([3, 0, 6, 0, 1])), 200),
    ("reflex(x^4+6x^2+3)", _quartic_reflex, 200),
    ("closure(x^4+6x^2+3)", _quartic_closure, 200),
    ("x^8+1", lambda: NumberField(UniPoly([1, 0, 0, 0, 0, 0, 0, 0, 1])), 60),
]


class TestPrimesOfNormBelow:
    @pytest.mark.parametrize("build, bound", [(b, B) for _, b, B in BOUNDED_NORM_FIELDS],
                             ids=[name for name, _, _ in BOUNDED_NORM_FIELDS])
    def test_equals_the_filtered_split(self, build, bound, monkeypatch):
        # at every p < bound prime to the index: the primes of norm < bound
        # in prime_split's order, and some p decided from g mod p alone
        O = maximal_order(build())
        primes = [p for p in primes_up_to(bound - 1) if O.equation_index % p]
        split = []
        monkeypatch.setattr(ideals, "prime_split",
                            lambda p, order: split.append(p) or prime_split(p, order))
        ours = {p: primes_of_norm_below(p, O, bound) for p in primes}
        monkeypatch.undo()
        for p in primes:
            assert ours[p] == [P for P in prime_split(p, O) if P.norm() < bound], p
        assert len(split) < len(primes)

    def test_an_index_prime_goes_to_prime_split(self):
        # x^4+5x^2+1 has equation-order index 4; at p = 2 the enumeration
        # filters prime_split's primes, which are two of norm 4
        O = maximal_order(NumberField(UniPoly([1, 0, 5, 0, 1])))
        assert O.equation_index % 2 == 0
        assert [(P.e, P.f) for P in prime_split(2, O)] == [(1, 2), (1, 2)]
        for bound, count in ((2, 0), (3, 0), (5, 2), (200, 2)):
            assert primes_of_norm_below(2, O, bound) == prime_split(2, O)[:count], bound


def _irreducible_count(p, f):
    """Monic irreducible polynomials of degree f over F_p: (1/f) sum mu(d) p^(f/d)."""
    total = 0
    for d in range(1, f + 1):
        if f % d == 0:
            mu = 0 if any(d % (q * q) == 0 for q in range(2, d + 1)) else \
                (-1) ** len(factorint(d))
            total += mu * p ** (f // d)
    return total // f


def _check_index_split(O, p):
    """The split of p against the oracles; False when p is a common index divisor.

    (a) the P^e multiply to pO; (b) some e > 1 exactly when p divides
    disc(O_K); (c) the primes are Dedekind's on another generator alpha of
    O with p prime to [O : Z[alpha]]. No such alpha exists exactly when some
    residue degree f has more primes than F_p has monic irreducibles of
    degree f (Hensel), and then the oracle finds none.
    """
    split = prime_split(p, O)
    prod = FracIdeal.unit_ideal(O)
    for P in split:
        prod = prod * P**P.e
    assert prod == FracIdeal.principal(O, O.field.one() * p), p
    assert any(P.e > 1 for P in split) == (O.disc() % p == 0), p
    oracle = prime_split_by_dedekind_at(p, O)
    degrees = [P.f for P in split]
    common = any(degrees.count(f) > _irreducible_count(p, f) for f in set(degrees))
    assert (oracle is None) == common, p
    if oracle is not None:
        assert sorted((P.hnf, P.e, P.f) for P in split) == oracle, p
    return not common


# (name, field, index primes); 2 is a common index divisor of x^4+5x^2+1,
# which has two primes of degree 2 above it and F_2 one irreducible quadratic
INDEX_PRIME_FIELDS = [
    ("x^4+5x^2+1", lambda: NumberField(UniPoly([1, 0, 5, 0, 1])), {2: False}),
    ("x^4+6x^2+1", lambda: NumberField(UniPoly([1, 0, 6, 0, 1])), {2: True}),
    ("x^4+7x^2+1", lambda: NumberField(UniPoly([1, 0, 7, 0, 1])), {3: True}),
    ("x^2+31", lambda: NumberField(UniPoly([31, 0, 1])), {2: True}),
    ("closure(x^4+6x^2+3)", _quartic_closure, {2: True, 3: True, 23: True}),
    ("reflex(x^4+6x^2+3)", _quartic_reflex, {2: True, 3: True}),
]


class TestIndexPrimes:
    # p | [O : Z[theta]] splits over the p-radical; sympy's prime_decomp is
    # no oracle there (wrong e, exceptions and long runs at index primes),
    # so the checks are the product, the discriminant and Dedekind's
    # criterion on another generator of O

    @pytest.mark.parametrize("build, primes", [(b, ps) for _, b, ps in INDEX_PRIME_FIELDS],
                             ids=[name for name, _, _ in INDEX_PRIME_FIELDS])
    def test_named_fields_match_the_oracles(self, build, primes):
        O = maximal_order(build())
        for p, dedekind in primes.items():
            assert O.equation_index % p == 0, p
            assert _check_index_split(O, p) == dedekind, p

    def test_a_seeded_batch_of_fields_matches_the_oracles(self):
        # monic polynomials of degree 2 to 6 with coefficients in [-9, 9],
        # every prime of every nontrivial equation-order index
        rng = random.Random(2024)
        checked = dedekind = 0
        while checked < 24:
            n = rng.randint(2, 6)
            g = UniPoly([rng.randint(-9, 9) for _ in range(n)] + [1])
            if g.coeffs[0] == 0 or not is_irreducible_over_q(g):
                continue
            O = maximal_order(NumberField(g))
            for p in factorint(O.equation_index):
                dedekind += _check_index_split(O, p)
                checked += 1
        assert dedekind >= checked // 2

    @pytest.mark.parametrize("build", [_zeta5, _quartic_closure, _quartic_reflex],
                             ids=["Q(zeta5)", "closure(x^4+6x^2+3)", "reflex(x^4+6x^2+3)"])
    def test_the_radical_route_gives_the_dedekind_primes(self, build):
        # at primes prime to the index both routes apply and agree on every HNF
        O = maximal_order(build())
        n = O.degree
        for p in [p for p in primes_up_to(60) if O.equation_index % p]:
            pO = FracIdeal(O, 1, [[p * int(i == j) for j in range(n)] for i in range(n)])
            ours = sorted((P.hnf, P.e, P.f) for P in ideals._radical_primes(p, O, pO))
            assert ours == sorted((P.hnf, P.e, P.f) for P in prime_split(p, O)), p


class TestCoprimeScale:
    def test_worked_examples(self, gauss, sqrt5):
        O = maximal_order(gauss)
        sc, b = coprime_scale(FracIdeal.principal(O, gauss.one() / 2), 3)
        assert b.is_integral() and math.gcd(int(b.norm()), 3) == 1
        sc, b = coprime_scale(FracIdeal.principal(O, gauss.one() + gauss.gen()), 2)
        assert b.is_integral() and int(b.norm()) % 2 == 1
        O5 = maximal_order(sqrt5)
        sc, b = coprime_scale(FracIdeal.principal(O5, sqrt5.one() * 3), 5)
        assert math.gcd(int(b.norm()), 5) == 1

    def test_matches_the_element_construction(self, gauss, sqrt5, zeta5):
        # c, x_v and the CRT on integer coordinates give the same (scalar, b)
        # as building field elements and testing membership on them
        rng = random.Random(41)
        for k in range(100):
            O = maximal_order((gauss, sqrt5, zeta5)[k % 3])
            a = random_ideal(O, rng, prime_bound=20 if O.degree == 2 else 12)
            if k % 4 == 0:
                a = a.scaled(a.den)
            m = rng.choice([1, 2, 3, 4, 5, 6, 10, 12])
            assert coprime_scale(a, m) == coprime_scale_by_elements(a, m), (a, m)

    def test_scaled_ideal_is_scalar_multiple(self, sqrt5):
        O = maximal_order(sqrt5)
        rng = random.Random(31)
        for _ in range(30):
            a = random_ideal(O, rng, prime_bound=20)
            m = rng.choice([1, 2, 3, 4, 6, 10])
            scalar, b = coprime_scale(a, m)
            assert b == a.mult_by_element(scalar)
            assert b.is_integral()
            assert math.gcd(int(b.norm()), m) == 1
