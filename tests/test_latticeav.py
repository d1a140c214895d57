"""Lattice models and the a-multiplication calculus."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from cmfields.cmreflex import cm_check, enumerate_cm_types
from cmfields.errors import InvariantViolated, NonIntegralIdeal, SourceMismatch
from cmfields.ideals import FracIdeal, prime_split
from cmfields.intutil import primes_up_to
from cmfields.latticeav import (
    AMult,
    LatticeAV,
    TorsionModule,
    amul,
    amul_degree,
    compose,
    elem_degree,
    factor_through,
    hom_ideal,
    induced_torsion_matrix,
    isogeny_classes,
)
from cmfields.linalg import det_fraction
from cmfields.numfield import NumberField
from cmfields.orders import maximal_order
from cmfields.principal import is_principal
from cmfields.unipoly import UniPoly

from oracles import bqf_class_number, fraction_det
from test_ideals import random_ideal


def _model(cmfield, ideal=None):
    order = maximal_order(cmfield.field)
    t = enumerate_cm_types(cmfield)[0]
    return LatticeAV(t, ideal if ideal is not None else FracIdeal.unit_ideal(order))


class TestAMul:
    def test_target_lattice(self, gauss, gauss_cm):
        O = maximal_order(gauss)
        A = _model(gauss_cm)
        Ip = FracIdeal.principal(O, gauss.one() + gauss.gen())
        lam = amul(A, Ip)
        assert lam.target.lattice == Ip.inverse()
        assert amul_degree(lam) == 2

    def test_unit_ideal_is_identity(self, gauss_cm):
        A = _model(gauss_cm)
        lam = amul(A, FracIdeal.unit_ideal(A.lattice.order))
        assert lam.target == A and amul_degree(lam) == 1

    def test_nonprincipal(self, sqrt5, sqrt5_cm):
        O = maximal_order(sqrt5)
        A = _model(sqrt5_cm)
        P2 = FracIdeal.from_generators(O, [sqrt5.one() * 2, sqrt5.one() + sqrt5.gen()])
        lam = amul(A, P2)
        assert amul_degree(lam) == 2
        assert is_principal(P2) is None
        assert lam.target != A

    def test_rejects_non_integral(self, gauss_cm):
        A = _model(gauss_cm)
        O = A.lattice.order
        half = FracIdeal.principal(O, A.cmtype.cmfield.field.one() / 2)
        with pytest.raises(NonIntegralIdeal):
            amul(A, half)


class TestDegrees:
    def test_elem_degrees(self, gauss, zeta5, gauss_cm, zeta5_cm):
        A = _model(gauss_cm)
        assert elem_degree(A, gauss.element([2])) == 4
        assert elem_degree(A, gauss.one() + gauss.gen()) == 2
        Az = _model(zeta5_cm)
        assert elem_degree(Az, zeta5.gen()) == 1  # unit: isomorphism

    def test_elem_degree_matches_amul_degree(self, gauss, gauss_cm):
        O = maximal_order(gauss)
        A = _model(gauss_cm)
        rng = random.Random(17)
        for _ in range(50):
            a = gauss.element([rng.randint(-6, 6), rng.randint(-6, 6)])
            if a.is_zero():
                continue
            lam = amul(A, FracIdeal.principal(O, a))
            assert elem_degree(A, a) == amul_degree(lam)

    def test_degree_equals_norm_500_random(self, gauss, sqrt5, zeta5,
                                           gauss_cm, sqrt5_cm, zeta5_cm):
        rng = random.Random(99)
        cases = [(gauss_cm, gauss), (sqrt5_cm, sqrt5), (zeta5_cm, zeta5)]
        done = 0
        while done < 500:
            cmf, field = cases[done % len(cases)]
            O = maximal_order(field)
            a = random_ideal(O, rng, prime_bound=30)
            a = a.scaled(a.den)  # make integral
            A = _model(cmf)
            lam = amul(A, a)
            assert amul_degree(lam) == int(a.norm())
            done += 1

    def test_composition_multiplicativity_500(self, gauss, sqrt5,
                                              gauss_cm, sqrt5_cm):
        rng = random.Random(100)
        cases = [(gauss_cm, gauss), (sqrt5_cm, sqrt5)]
        done = 0
        while done < 500:
            cmf, field = cases[done % len(cases)]
            O = maximal_order(field)
            a = random_ideal(O, rng, prime_bound=20)
            b = random_ideal(O, rng, prime_bound=20)
            a, b = a.scaled(a.den), b.scaled(b.den)
            A = _model(cmf)
            lam = amul(A, a)
            mu = amul(lam.target, b)
            both = compose(lam, mu)
            assert both.ideal == b * a
            assert amul_degree(both) == amul_degree(lam) * amul_degree(mu)
            done += 1


class TestHomAndFactoring:
    def test_hom_endomorphisms(self, gauss_cm):
        A = _model(gauss_cm)
        assert hom_ideal(A, A) == FracIdeal.unit_ideal(A.lattice.order)

    def test_hom_on_the_order_model_still_takes_the_colon(self, gauss, gauss_cm, monkeypatch):
        # O^-1 = O is returned with no colon, but Hom's own colon still runs
        # through the lattices, and its cross-check still catches a wrong one
        import cmfields.latticeav as latticeav

        O = maximal_order(gauss)
        A = _model(gauss_cm)
        B = LatticeAV(A.cmtype, FracIdeal.principal(O, gauss.one() + gauss.gen()))
        assert A.lattice.inverse() is A.lattice
        calls = []
        colon = latticeav.colon_ideal

        def counted(b, a):
            calls.append((b, a))
            return colon(b, a)

        monkeypatch.setattr(latticeav, "colon_ideal", counted)
        assert hom_ideal(A, A) == A.lattice and hom_ideal(A, B) == B.lattice
        assert calls == [(A.lattice, A.lattice), (B.lattice, A.lattice)]
        monkeypatch.setattr(latticeav, "colon_ideal", lambda b, a: B.lattice)
        with pytest.raises(InvariantViolated):
            hom_ideal(A, A)

    def test_hom_formula(self, gauss, gauss_cm):
        O = maximal_order(gauss)
        A = _model(gauss_cm)
        Ip = FracIdeal.principal(O, gauss.one() + gauss.gen())
        B = LatticeAV(A.cmtype, Ip.inverse())
        assert hom_ideal(A, B) == Ip.inverse()

    def test_hom_smallest_isogeny_degree(self, sqrt5, sqrt5_cm):
        O = maximal_order(sqrt5)
        P2 = FracIdeal.from_generators(O, [sqrt5.one() * 2, sqrt5.one() + sqrt5.gen()])
        A = _model(sqrt5_cm)
        B = LatticeAV(A.cmtype, P2.inverse())
        H = hom_ideal(A, B)
        assert H == P2.inverse()
        # multiply-by-x has degree |Nm x| * N(lat_A)/N(lat_B); the minimum over
        # nonzero x in Hom is 2 because P2 is not principal
        basis = H.basis_elements()
        degrees = set()
        for u in range(-3, 4):
            for v in range(-3, 4):
                x = basis[0] * u + basis[1] * v
                if x.is_zero():
                    continue
                degrees.add(abs(x.norm()) * A.lattice.norm() / B.lattice.norm())
        assert min(degrees) == 2

    def test_factor_through_known_cases(self, gauss, sqrt5, gauss_cm, sqrt5_cm):
        O = maximal_order(gauss)
        A = _model(gauss_cm)
        lam = amul(A, FracIdeal.principal(O, gauss.one() + gauss.gen()))
        mu = amul(A, FracIdeal.principal(O, gauss.one() * 2))
        assert factor_through(lam, mu)          # (2) inside (1+i)
        nu = amul(A, FracIdeal.principal(O, gauss.one() * 3))
        assert not factor_through(nu, mu)
        O5 = maximal_order(sqrt5)
        A5 = _model(sqrt5_cm)
        P2 = FracIdeal.from_generators(O5, [sqrt5.one() * 2, sqrt5.one() + sqrt5.gen()])
        lam5 = amul(A5, P2)
        mu5 = amul(A5, FracIdeal.principal(O5, sqrt5.one() * 2))
        assert factor_through(lam5, mu5)

    def test_factor_through_iff_containment_500(self, gauss, gauss_cm):
        O = maximal_order(gauss)
        A = _model(gauss_cm)
        rng = random.Random(101)
        for _ in range(500):
            a = random_ideal(O, rng, prime_bound=20)
            b = random_ideal(O, rng, prime_bound=20)
            a, b = a.scaled(a.den), b.scaled(b.den)
            lam, mu = amul(A, a), amul(A, b)
            assert factor_through(lam, mu) == a.contains_ideal(b)

    def test_source_mismatch(self, gauss, gauss_cm):
        O = maximal_order(gauss)
        A = _model(gauss_cm)
        lam = amul(A, FracIdeal.principal(O, gauss.one() * 2))
        other = amul(lam.target, FracIdeal.principal(O, gauss.one() * 3))
        with pytest.raises(SourceMismatch):
            factor_through(lam, other)

    def test_principal_collapse(self, gauss, gauss_cm):
        # amul by (a) has target isomorphic to the source: hom contains 1/a-witness
        O = maximal_order(gauss)
        A = _model(gauss_cm)
        a = gauss.element([1, 2])
        lam = amul(A, FracIdeal.principal(O, a))
        H = hom_ideal(lam.target, A)
        assert H.contains(a)  # multiply-by-a maps target back onto A


class TestIsogenyClasses:
    def test_gauss_one_class(self, gauss_cm):
        t = enumerate_cm_types(gauss_cm)[0]
        classes = isogeny_classes(gauss_cm, t)
        assert len(classes) == 1

    def test_sqrt5_two_classes(self, sqrt5, sqrt5_cm):
        t = enumerate_cm_types(sqrt5_cm)[0]
        classes = isogeny_classes(sqrt5_cm, t)
        assert len(classes) == 2
        assert bqf_class_number(-20) == 2
        # representatives pairwise non-isomorphic
        for a, b in itertools.combinations(classes, 2):
            assert is_principal(a.lattice * b.lattice.inverse()) is None

    def test_disc_23_three_classes(self):
        field = NumberField(UniPoly([6, -1, 1]))  # disc -23
        cmf = cm_check(field)
        t = enumerate_cm_types(cmf)[0]
        assert len(isogeny_classes(cmf, t)) == 3 == bqf_class_number(-23)

    def test_class_numbers_at_index_primes(self):
        # x^2 + k has equation-order index 2 for k = 3 mod 4 (x^2 + 31: h = 3),
        # and the classes of norm 2 count like every other
        for k in range(1, 200):
            field = NumberField(UniPoly([k, 0, 1]))
            cmf = cm_check(field)
            h = len(isogeny_classes(cmf, enumerate_cm_types(cmf)[0]))
            assert h == bqf_class_number(maximal_order(field).disc()), k


class TestTorsion:
    def test_cardinality_and_generator(self, gauss_cm):
        A = _model(gauss_cm)
        T = TorsionModule(A, 2)
        assert T.cardinality() == 4
        assert T.is_generator(T.generator)
        assert TorsionModule(A, 1).cardinality() == 1

    def test_zeta5_inert_two(self, zeta5_cm):
        A = _model(zeta5_cm)
        T = TorsionModule(A, 2)
        assert T.cardinality() == 16
        assert T.is_generator(T.generator)

    def test_commutant_property_exhaustive(self, gauss_cm, sqrt5_cm):
        # every O/m-linear endomorphism commuting with the action is an
        # element action: exhaustive for m <= 4 on quadratic fields
        for cmf in (gauss_cm, sqrt5_cm):
            A = _model(cmf)
            for m in (2, 3, 4):
                T = TorsionModule(A, m)
                n = 2
                action_mats = [tuple(tuple(row) for row in M) for M in T.action]
                element_actions = set()
                for r in itertools.product(range(m), repeat=n):
                    M = [[0] * n for _ in range(n)]
                    for t_idx, rt in enumerate(r):
                        for i in range(n):
                            for j in range(n):
                                M[i][j] = (M[i][j] + rt * T.action[t_idx][i][j]) % m
                    element_actions.add(tuple(tuple(row) for row in M))
                commuting = set()
                for flat in itertools.product(range(m), repeat=n * n):
                    M = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
                    if all(
                        _mat_mul_mod(M, A_, m) == _mat_mul_mod(A_, M, m)
                        for A_ in T.action
                    ):
                        commuting.add(tuple(tuple(row) for row in M))
                assert commuting == element_actions, (cmf, m)

    def test_torsion_of_nonprincipal_lattice_is_cyclic(self, sqrt5, sqrt5_cm):
        O = maximal_order(sqrt5)
        P2 = FracIdeal.from_generators(O, [sqrt5.one() * 2, sqrt5.one() + sqrt5.gen()])
        t = enumerate_cm_types(sqrt5_cm)[0]
        for m in (2, 3, 4, 6):
            T = TorsionModule(LatticeAV(t, P2), m)
            assert T.cardinality() == m**2
            assert T.is_generator(T.generator)

    def test_generator_outside_the_unit_box(self, sqrt5, sqrt5_cm):
        # m = 138 = 2 * 3 * 23 on the prime above 3: no generator in [0, 3]^2
        O = maximal_order(sqrt5)
        P3 = FracIdeal(O, 1, [[3, 2], [0, 1]])
        assert P3 in prime_split(3, O)
        T = TorsionModule(LatticeAV(enumerate_cm_types(sqrt5_cm)[0], P3), 138)
        assert T.is_generator(T.generator)
        assert T.generator == [1, 4]

    def test_det_fraction_matches_the_fraction_determinant(self):
        # the determinant behind the bijectivity tests against Fraction
        # elimination, on full and singular integer matrices: its gcd with m
        # is that of the determinant mod m, and the matrix is left as it was
        rng = random.Random(40)
        singular = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.3:
                k, r = rng.sample(range(n), 2)
                c = rng.randint(-2, 2)
                M[k] = [c * x for x in M[r]]
            m = rng.randint(2, 60)
            det = fraction_det(M)
            singular += det == 0
            copy = [list(row) for row in M]
            assert det_fraction(M) == det
            assert math.gcd(int(det_fraction(M)), m) == math.gcd(int(det) % m, m)
            assert M == copy
        assert singular >= 50

    def test_prime_to_degree_bijectivity(self, sqrt5, sqrt5_cm):
        O = maximal_order(sqrt5)
        A = _model(sqrt5_cm)
        P3 = prime_split(3, O)[0]
        lam = amul(A, P3)
        # degree 3 coprime to 2 and 5: bijective; not coprime to 3
        for m, expect in ((2, True), (5, True), (4, True), (3, False), (6, False)):
            _, bij = induced_torsion_matrix(lam, m)
            assert bij == expect, m


def _mat_mul_mod(A, B, m):
    n = len(A)
    return [
        [sum(A[i][k] * B[k][j] for k in range(n)) % m for j in range(n)]
        for i in range(n)
    ]
