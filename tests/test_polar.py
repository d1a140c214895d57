"""Riemann-form elements and quadruple equivalence."""

import random

import pytest

from cmfields.cmreflex import cm_check, enumerate_cm_types
from cmfields.embeddings import certified_embeddings
from cmfields.errors import PairMismatch
from cmfields.ideals import FracIdeal, prime_split
from cmfields.numfield import NumberField
from cmfields.orders import maximal_order
from cmfields.polar import (
    RiemannElement,
    TypeQuadruple,
    find_riemann_element,
    quadruples_equivalent,
    validate_quadruple,
)
from cmfields.principal import torsion_units
from cmfields.unipoly import UniPoly
from oracles import re_sign


class TestFindRiemannElement:
    def test_gauss_both_types(self, gauss, gauss_cm):
        t_plus, t_minus = enumerate_cm_types(gauss_cm)
        for t in (t_plus, t_minus):
            r = find_riemann_element(t)
            assert gauss_cm.conj(r.alpha) == -r.alpha
            # the two types get opposite elements
        a0 = find_riemann_element(t_plus).alpha
        a1 = find_riemann_element(t_minus).alpha
        assert a0 == -a1
        assert a0 in (gauss.gen(), -gauss.gen())

    def test_every_corpus_pair(self, gauss_cm, sqrt5_cm, zeta5_cm, quartic_cm):
        # Q(zeta7), Q(zeta15) and x^8 + 1 have real subfields of degree 3 and
        # 4, where the multiplier changes sign between several real places
        wider = [cm_check(NumberField(UniPoly(c))) for c in (
            [1, 1, 1, 1, 1, 1, 1], [1, -1, 0, 1, -1, 1, 0, -1, 1], [1, 0, 0, 0, 0, 0, 0, 0, 1])]
        for cmf in [gauss_cm, sqrt5_cm, zeta5_cm, quartic_cm] + wider:
            for t in enumerate_cm_types(cmf):
                r = find_riemann_element(t)
                embs = certified_embeddings(cmf.field)
                for i in t.indices():
                    sign = embs[i].eval_refining(r.alpha, lambda b: b.im_sign())
                    assert sign == 1

    def test_deterministic(self, quartic_cm):
        t = enumerate_cm_types(quartic_cm)[1]
        assert find_riemann_element(t).alpha == find_riemann_element(t).alpha


class TestValidate:
    def test_worked_examples(self, gauss, gauss_cm):
        types = enumerate_cm_types(gauss_cm)
        t_plus = next(
            t for t in types
            if certified_embeddings(gauss)[t.indices()[0]].ball.im > 0
        )
        O = maximal_order(gauss)
        one_ideal = FracIdeal.unit_ideal(O)
        i = gauss.gen()
        ok, _ = validate_quadruple(TypeQuadruple(t_plus, one_ideal, i))
        assert ok
        ok, diag = validate_quadruple(TypeQuadruple(t_plus, one_ideal, -i))
        assert not ok and not diag["im_positive_on_type"]
        ok, diag = validate_quadruple(TypeQuadruple(t_plus, one_ideal, gauss.one()))
        assert not ok and not diag["conj_t_is_minus_t"]

    def test_totally_positive_closure(self, quartic, quartic_cm):
        # t valid and a totally positive in F implies a*t valid
        t = enumerate_cm_types(quartic_cm)[0]
        O = maximal_order(quartic)
        alpha = find_riemann_element(t).alpha
        q = TypeQuadruple(t, FracIdeal.unit_ideal(O), alpha)
        assert validate_quadruple(q)[0]
        F = quartic_cm.real_subfield
        rng = random.Random(77)
        found = 0
        for _ in range(200):
            a = F.element([rng.randint(-4, 4), rng.randint(-2, 2)])
            if a.is_zero():
                continue
            embs = certified_embeddings(F)
            signs = [e.eval_refining(a, re_sign) for e in embs]
            if signs != [1, 1]:
                continue
            found += 1
            at = quartic_cm.real_embedding(a) * alpha
            ok, _ = validate_quadruple(TypeQuadruple(t, FracIdeal.unit_ideal(O), at))
            assert ok
        assert found >= 5


class TestEquivalence:
    def test_constructed_witness_roundtrip(self, gauss, gauss_cm):
        types = enumerate_cm_types(gauss_cm)
        t = types[0]
        O = maximal_order(gauss)
        i = gauss.gen()
        alpha = find_riemann_element(t).alpha
        rng = random.Random(3)
        for _ in range(60):
            a = gauss.element([rng.randint(-4, 4), rng.randint(-4, 4)])
            if a.is_zero():
                continue
            q1 = TypeQuadruple(t, FracIdeal.unit_ideal(O), alpha)
            q2 = TypeQuadruple(
                t, q1.ideal.mult_by_element(a), q1.t / (a * gauss_cm.conj(a))
            )
            w = quadruples_equivalent(q1, q2)
            assert w is not None
            assert q2.ideal == q1.ideal.mult_by_element(w)
            assert q2.t == q1.t / (w * gauss_cm.conj(w))

    def test_inequivalent_scaling(self, gauss, gauss_cm):
        # t and 2t on the same lattice: would need a*conj(a) = 1/2, impossible
        t = enumerate_cm_types(gauss_cm)[0]
        O = maximal_order(gauss)
        alpha = find_riemann_element(t).alpha
        q1 = TypeQuadruple(t, FracIdeal.unit_ideal(O), alpha)
        q2 = TypeQuadruple(t, FracIdeal.unit_ideal(O), alpha * 2)
        assert quadruples_equivalent(q1, q2) is None

    def test_reflexive_and_symmetric(self, sqrt5, sqrt5_cm):
        t = enumerate_cm_types(sqrt5_cm)[0]
        O = maximal_order(sqrt5)
        alpha = find_riemann_element(t).alpha
        q = TypeQuadruple(t, FracIdeal.unit_ideal(O), alpha)
        w = quadruples_equivalent(q, q)
        assert w is not None and abs(w.norm()) == 1
        r = sqrt5.gen()
        a = sqrt5.one() * 2 + r
        q2 = TypeQuadruple(t, q.ideal.mult_by_element(a), q.t / (a * sqrt5_cm.conj(a)))
        w12 = quadruples_equivalent(q, q2)
        w21 = quadruples_equivalent(q2, q)
        assert w12 is not None and w21 is not None
        assert (w12 * w21).norm() == 1  # inverse witnesses up to a unit

    def test_transitive_on_witnesses(self, gauss, gauss_cm):
        t = enumerate_cm_types(gauss_cm)[0]
        O = maximal_order(gauss)
        alpha = find_riemann_element(t).alpha
        q1 = TypeQuadruple(t, FracIdeal.unit_ideal(O), alpha)
        a = gauss.element([1, 1])
        b = gauss.element([2, -1])
        q2 = TypeQuadruple(t, q1.ideal.mult_by_element(a), q1.t / (a * gauss_cm.conj(a)))
        ab = a * b
        q3 = TypeQuadruple(
            t, q1.ideal.mult_by_element(ab), q1.t / (ab * gauss_cm.conj(ab))
        )
        assert quadruples_equivalent(q1, q2) is not None
        assert quadruples_equivalent(q2, q3) is not None
        assert quadruples_equivalent(q1, q3) is not None

    def test_non_principal_quotient(self, sqrt5, sqrt5_cm):
        # h(-20) = 2 and the prime above 2 is not principal, so (P, t) and
        # (O, t) differ by no element: no witness, whatever t is
        t = enumerate_cm_types(sqrt5_cm)[0]
        O = maximal_order(sqrt5)
        P = prime_split(2, O)[0]
        alpha = find_riemann_element(t).alpha
        q1 = TypeQuadruple(t, FracIdeal.unit_ideal(O), alpha)
        q2 = TypeQuadruple(t, P, alpha)
        assert quadruples_equivalent(q1, q2) is None

    def test_pair_mismatch(self, gauss, gauss_cm):
        t1, t2 = enumerate_cm_types(gauss_cm)
        O = maximal_order(gauss)
        a1 = find_riemann_element(t1).alpha
        a2 = find_riemann_element(t2).alpha
        q1 = TypeQuadruple(t1, FracIdeal.unit_ideal(O), a1)
        q2 = TypeQuadruple(t2, FracIdeal.unit_ideal(O), a2)
        with pytest.raises(PairMismatch):
            quadruples_equivalent(q1, q2)

    def test_round_trips_past_degree_two_find_a_witness(self, zeta5, zeta5_cm):
        # a = b * (1 + zeta5)^k with 1 + zeta5 a unit of infinite order: the
        # generator found for the quotient (a) is a witness only up to a unit
        # of relative norm t1/(t2 g conj(g)), which the unit search finds.
        # With b = 1 the quotient is O and g a root of unity
        t = enumerate_cm_types(zeta5_cm)[0]
        O = maximal_order(zeta5)
        alpha = find_riemann_element(t).alpha
        q1 = TypeQuadruple(t, FracIdeal.unit_ideal(O), alpha)
        eps = zeta5.one() + zeta5.gen()
        rng = random.Random(5)
        for k in range(-4, 5):
            bs = [zeta5.one()]
            while len(bs) < 4:
                b = zeta5.element([rng.randint(-2, 2) for _ in range(4)])
                if not b.is_zero():
                    bs.append(b)
            for b in bs:
                a = b * eps**k
                q2 = TypeQuadruple(t, q1.ideal.mult_by_element(a), alpha / (a * zeta5_cm.conj(a)))
                w = quadruples_equivalent(q1, q2)
                assert w is not None
                assert q2.ideal == q1.ideal.mult_by_element(w)
                assert q2.t == q1.t / (w * zeta5_cm.conj(w))

    def test_a_unit_of_no_relative_norm_has_no_witness(self, zeta5, zeta5_cm):
        # t2 = t1 / e with e = zeta5 + zeta5^4 a unit of the real subfield that
        # is negative at one real place, so no u has u * conj(u) = e
        t = enumerate_cm_types(zeta5_cm)[0]
        O = maximal_order(zeta5)
        alpha = find_riemann_element(t).alpha
        z = zeta5.gen()
        q1 = TypeQuadruple(t, FracIdeal.unit_ideal(O), alpha)
        q2 = TypeQuadruple(t, q1.ideal, alpha / (z + z**4))
        assert quadruples_equivalent(q1, q2) is None

    def test_riemann_element_validates_as_quadruple(self, zeta5, zeta5_cm):
        O = maximal_order(zeta5)
        for t in enumerate_cm_types(zeta5_cm):
            alpha = find_riemann_element(t).alpha
            ok, _ = validate_quadruple(TypeQuadruple(t, FracIdeal.unit_ideal(O), alpha))
            assert ok
