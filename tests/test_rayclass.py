"""Ray class groups, discrete logs, and the reflex transport check."""

import math
import random

import pytest

from cmfields import cli
from cmfields.cmreflex import ReflexData, cm_check, enumerate_cm_types
from cmfields.errors import (
    InvariantViolated,
    ModulusTooLarge,
    NonCyclicClassGroup,
    NotCoprime,
    UnitsUnavailable,
)
from cmfields.ideals import FracIdeal, coprime_scale, factor_ideal, prime_split
from cmfields.intutil import primes_up_to
from cmfields.numfield import NumberField
from cmfields.orders import maximal_order
from cmfields.rayclass import (
    Modulus,
    _ResidueGroup,
    ray_class_group,
    reflex_transport_check,
)
from cmfields.unipoly import UniPoly

from oracles import quadratic_ray_class_counts, totient_of_modulus
from test_ideals import random_ideal


class TestGroupOrders:
    def test_trivial_modulus_gauss(self, gauss, gauss_cm):
        O = maximal_order(gauss)
        G = ray_class_group(gauss_cm, Modulus(FracIdeal.unit_ideal(O)))
        assert G.order_count == 1 and G.elementary_divisors == []

    def test_gauss_mod_5(self, gauss, gauss_cm):
        O = maximal_order(gauss)
        G = ray_class_group(gauss_cm, Modulus(FracIdeal.principal(O, gauss.one() * 5)))
        assert G.order_count == 4  # 16 / 4
        assert G.elementary_divisors == [4]

    def test_sqrt5_trivial_modulus(self, sqrt5, sqrt5_cm):
        O = maximal_order(sqrt5)
        G = ray_class_group(sqrt5_cm, Modulus(FracIdeal.unit_ideal(O)))
        assert G.order_count == 2  # h(-20) = 2

    def test_exact_sequence_orders_up_to_500(self, gauss, sqrt5, gauss_cm, sqrt5_cm):
        # |C_m| * |image units| = |(O/m)x| * h for assorted moduli of norm <= 500
        for field, cmf, h in ((gauss, gauss_cm, 1), (sqrt5, sqrt5_cm, 2)):
            O = maximal_order(field)
            moduli = []
            for val in (2, 3, 5, 7, 9, 11, 13, 21):
                m = FracIdeal.principal(O, field.one() * val)
                if m.norm() <= 500:
                    moduli.append(m)
            P = prime_split(41, O)[0]
            if P.norm() <= 500:
                moduli.append(P)
            for m_ideal in moduli:
                G = ray_class_group(cmf, Modulus(m_ideal))
                phi = totient_of_modulus(factor_ideal(m_ideal))
                assert phi == G.residues.unit_count
                assert G.order_count * G._unit_image_size == phi * h

    def test_prime_power_modulus(self, gauss, gauss_cm):
        # modulus P^3 for the split prime above 5: Phi = 5^2 * 4 = 100,
        # torsion units inject, so |C_m| = 25
        O = maximal_order(gauss)
        P = prime_split(5, O)[0]
        G = ray_class_group(gauss_cm, Modulus(P**3))
        assert G.order_count == 25
        c = G.ray_class(FracIdeal.principal(O, gauss.one() * 7))
        acc = G.identity()
        for _ in range(25):
            acc = G.add(acc, c)
        assert acc == G.identity()

    def test_ramified_modulus(self, gauss, gauss_cm):
        # (1+i)^2 = (2): the ramified prime squared
        O = maximal_order(gauss)
        P2 = prime_split(2, O)[0]
        G = ray_class_group(gauss_cm, Modulus(P2 * P2))
        # (Z[i]/2)x has order 2, torsion unit image is {1, i} -> order 2
        assert G.order_count * G._unit_image_size == G.residues.unit_count

    def test_class_number_at_an_index_prime(self):
        # x^2 + 31 has equation-order index 2, and h(-31) = 3
        field = NumberField(UniPoly([31, 0, 1]))
        O = maximal_order(field)
        G = ray_class_group(cm_check(field), Modulus(FracIdeal.unit_ideal(O)))
        assert G.class_number == 3
        assert G.order_count == 3 and G.elementary_divisors == [3]

    def test_class_generator_has_order_h(self):
        # h(-56) = 4 and the prime above 2 has class order 2: the generator
        # must be an ideal of class order 4, or the class relation is wrong
        field = NumberField(UniPoly([14, 0, 1]))
        O = maximal_order(field)
        G = ray_class_group(cm_check(field), Modulus(FracIdeal.unit_ideal(O)))
        assert G.class_number == 4 and G.class_gen.norm() != 2
        assert G.order_count == 4 and G.elementary_divisors == [4]

    def test_a_class_group_that_is_not_cyclic_is_refused(self):
        # Cl(Q(sqrt-21)) = (Z/2)^2: no class representative has order h = 4,
        # so the group is refused before any generator search, with a typed
        # error that the CLI maps to exit 3
        field = NumberField(UniPoly([21, 0, 1]))
        O = maximal_order(field)
        with pytest.raises(NonCyclicClassGroup, match="class number 4, but no class has order 4"):
            ray_class_group(cm_check(field), Modulus(FracIdeal.unit_ideal(O)))
        assert [code for cls, code, _ in cli.REFUSALS if cls is NonCyclicClassGroup] == [3]

    def test_units_unavailable(self, quartic, quartic_cm):
        O = maximal_order(quartic)
        with pytest.raises(UnitsUnavailable):
            ray_class_group(quartic_cm, Modulus(FracIdeal.principal(O, quartic.one() * 2)))

    def test_modulus_cap(self, gauss, gauss_cm):
        O = maximal_order(gauss)
        with pytest.raises(ModulusTooLarge):
            ray_class_group(
                gauss_cm, Modulus(FracIdeal.principal(O, gauss.one() * 101))
            )


# the moduli m (as m*O) of the ray-class ops of the lattice_rayclass benchmark
RAY_MODULI = (1, 2, 3, 4, 5, 7, 9, 11, 13, 15, 21)


class TestResidueUnits:
    def test_unit_table_matches_element_membership(self, gauss, sqrt5):
        # a residue is a unit exactly when the field element of its
        # coordinates lies in no prime dividing m
        for K in (gauss, sqrt5):
            O = maximal_order(K)
            for m in RAY_MODULI:
                R = _ResidueGroup(O, FracIdeal.principal(O, K.one() * m))
                units = {v for v in R._elements()
                         if not any(P.contains(O.element_from_coords(list(v)))
                                    for P in R.prime_divisors)}
                assert {v for v in R._elements() if R._is_unit(v)} == units, (K, m)
                assert set(R.table) == units and R.unit_count == len(units), (K, m)
                assert R.unit_count == totient_of_modulus(factor_ideal(R.modulus))

    def test_a_false_unit_raises_instead_of_looping(self, gauss, monkeypatch):
        # every residue of Z[i]/2 (ring size 4) taken for a unit: 0 has no
        # order, and the power loop must stop below the ring size and raise;
        # a product budget turns an unbounded loop into a failure, not a hang
        O = maximal_order(gauss)
        mul = _ResidueGroup._mul
        calls = []

        def counted_mul(self, a, b):
            calls.append(1)
            assert len(calls) < 100, "the power loop did not stop"
            return mul(self, a, b)

        monkeypatch.setattr(_ResidueGroup, "_is_unit", lambda self, vec: True)
        monkeypatch.setattr(_ResidueGroup, "_mul", counted_mul)
        with pytest.raises(InvariantViolated):
            _ResidueGroup(O, FracIdeal.principal(O, gauss.one() * 2))
        assert len(calls) < 4


class TestRayClassInvariants:
    def test_invariants_against_the_quotient_count(self, gauss, eisenstein):
        # Z[i] (u^2 = -1) and Z[zeta3] (u^2 = -u - 1) are maximal orders with
        # basis (1, u) and h = 1, so C_m is (O/m)x modulo the roots of unity;
        # #{x : x^k = 1} is the product of gcd(k, d) over the divisors d
        noncyclic = []
        for field, (t, n) in ((gauss, (0, 1)), (eisenstein, (-1, 1))):
            O = maximal_order(field)
            assert O.den == 1 and O.basis == [[1, 0], [0, 1]]
            cmf = cm_check(field)
            for m in RAY_MODULI:
                G = ray_class_group(cmf, Modulus(FracIdeal.principal(O, field.one() * m)))
                order, counts = quadratic_ray_class_counts(t, n, m)
                assert G.order_count == order, (field, m)
                for k, count in counts.items():
                    assert math.prod(math.gcd(k, d) for d in G.elementary_divisors) == count
                if len(G.elementary_divisors) > 1:
                    noncyclic.append(G.elementary_divisors)
        assert len(noncyclic) == 7


class TestRayClassMap:
    def test_worked_examples(self, gauss, gauss_cm):
        O = maximal_order(gauss)
        G = ray_class_group(gauss_cm, Modulus(FracIdeal.principal(O, gauss.one() * 5)))
        c7 = G.ray_class(FracIdeal.principal(O, gauss.one() * 7))
        acc = G.identity()
        for _ in range(4):
            acc = G.add(acc, c7)
        assert acc == G.identity()
        # a generator 1 mod 5 lands on the identity
        assert G.ray_class(
            FracIdeal.principal(O, gauss.one() + gauss.gen() * 5)
        ) == G.identity()
        assert G.ray_class(FracIdeal.unit_ideal(O)) == G.identity()

    def test_not_coprime(self, gauss, gauss_cm):
        O = maximal_order(gauss)
        G = ray_class_group(gauss_cm, Modulus(FracIdeal.principal(O, gauss.one() * 5)))
        with pytest.raises(NotCoprime):
            G.ray_class(FracIdeal.principal(O, gauss.one() * 5))

    def test_homomorphism_on_random_pairs(self, gauss, sqrt5, gauss_cm, sqrt5_cm):
        cases = [(gauss, gauss_cm, 7), (sqrt5, sqrt5_cm, 3)]
        done = 0
        rng = random.Random(55)
        for field, cmf, mval in cases:
            O = maximal_order(field)
            G = ray_class_group(cmf, Modulus(FracIdeal.principal(O, field.one() * mval)))
            while done < 250 * (cases.index((field, cmf, mval)) + 1):
                a = random_ideal(O, rng, prime_bound=30)
                b = random_ideal(O, rng, prime_bound=30)
                ok = True
                for x in (a, b):
                    xi = x.scaled(x.den)
                    if math.gcd(int(xi.norm()) * x.den, mval) != 1:
                        ok = False
                if not ok:
                    continue
                assert G.ray_class(a * b) == G.add(G.ray_class(a), G.ray_class(b))
                done += 1

    def test_coprime_scale_lands_in_domain(self, sqrt5, sqrt5_cm):
        # Lemma-integration: coprime_scale output is always in the domain
        O = maximal_order(sqrt5)
        m = 3
        G = ray_class_group(sqrt5_cm, Modulus(FracIdeal.principal(O, sqrt5.one() * m)))
        rng = random.Random(66)
        for _ in range(60):
            a = random_ideal(O, rng, prime_bound=20)
            _, b = coprime_scale(a, m)
            G.ray_class(b)  # must not raise NotCoprime


class TestTransport:
    def test_gauss_m3(self, gauss, gauss_cm):
        O = maximal_order(gauss)
        t = enumerate_cm_types(gauss_cm)[0]
        rep = reflex_transport_check(
            t, 3, FracIdeal.principal(O, gauss.one() * 3), 30, seed=11
        )
        assert rep["ok"] and rep["multiplicativity"]

    def test_zeta5_m2(self, zeta5, zeta5_cm):
        O = maximal_order(zeta5)
        t = enumerate_cm_types(zeta5_cm)[0]
        rep = reflex_transport_check(
            t, 2, FracIdeal.principal(O, zeta5.one() * 2), 30, seed=12
        )
        assert rep["ok"] and rep["multiplicativity"]

    def test_a_wrong_reflex_norm_fails_in_one_pass(self, gauss, gauss_cm, monkeypatch):
        # beta = 1 (mod m') with m | m' puts N_Phi(beta) in the trivial class
        # mod m, so a nontrivial class is a fault and the modulus never grows;
        # a reflex norm off by the factor 1 + i (not a unit mod 3) shows it
        right = ReflexData.reflex_norm_element
        monkeypatch.setattr(ReflexData, "reflex_norm_element",
                            lambda self, b: right(self, b) * (gauss.gen() + 1))
        O = maximal_order(gauss)
        t = enumerate_cm_types(gauss_cm)[0]
        rep = reflex_transport_check(
            t, 3, FracIdeal.principal(O, gauss.one() * 3), 5, seed=11
        )
        assert rep["ok"] is False
        assert rep["escalations"] == []
        assert rep["final_modulus_norm"] == 9

    def test_negative_control_gauss(self, gauss, gauss_cm):
        O = maximal_order(gauss)
        t = enumerate_cm_types(gauss_cm)[0]
        rep = reflex_transport_check(
            t, 3, FracIdeal.principal(O, gauss.one() * 3), 30, seed=11,
            negative_control=True,
        )
        assert rep["nontrivial_seen"]
