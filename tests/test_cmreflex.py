"""CM recognition, reflex construction, and the reflex-norm identity suite."""

import cmath
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from sympy import CRootOf, Poly, cyclotomic_poly, symbols
from sympy.polys.numberfields.subfield import field_isomorphism

from cmfields import closure, cmreflex
from cmfields.closure import complex_conjugation, splitting_data
from cmfields.embeddings import certified_embeddings
from cmfields.cmreflex import (
    CMField,
    CMType,
    NotCM,
    ReflexData,
    cm_check,
    conjugate_ideal,
    enumerate_cm_types,
    reflex_field,
    reflex_norm_elem,
    reflex_norm_ideal,
    verify_reflex_identities,
)
from cmfields.errors import ConjugatesMissing, InvariantViolated
from cmfields.ideals import FracIdeal, prime_split, primes_of_norm_below
from cmfields.intutil import primes_up_to
from cmfields.numfield import NumberField
from cmfields.orders import maximal_order
from cmfields.unipoly import UniPoly
from oracles import (
    complex_conjugation_by_search,
    conjugate_ideal_by_generators,
    conjugate_type,
    fixing_subgroup_of,
    prime_below_by_search,
    reflex_norm_ideal_by_root,
    reflex_per_type,
)
from test_ideals import random_ideal


class TestCMCheck:
    def test_gauss_is_cm(self, gauss, gauss_cm):
        assert isinstance(gauss_cm, CMField)
        assert gauss_cm.real_subfield.degree == 1

    def test_real_cubic_is_not(self):
        assert isinstance(cm_check(NumberField(UniPoly([-2, 0, 0, 1]))), NotCM)

    def test_real_quadratic_is_not(self):
        assert isinstance(cm_check(NumberField(UniPoly([-2, 0, 1]))), NotCM)

    def test_quartic_with_sqrt6_subfield(self, quartic_cm):
        assert isinstance(quartic_cm, CMField)
        F = quartic_cm.real_subfield
        assert F.degree == 2
        assert maximal_order(F).disc() == 24  # Q(sqrt 6)

    def test_conjugation_is_involution(self, quartic_cm):
        conj = quartic_cm.conj
        assert not conj.is_identity()
        assert conj.compose(conj).is_identity()

    def test_real_embedding_lands_in_fixed_part(self, quartic_cm):
        w = quartic_cm.real_embedding.image_of_generator
        assert quartic_cm.conj(w) == w


class TestEnumerate:
    def test_counts(self, gauss_cm, quartic_cm, zeta5_cm):
        assert len(enumerate_cm_types(gauss_cm)) == 2
        assert len(enumerate_cm_types(quartic_cm)) == 4
        assert len(enumerate_cm_types(zeta5_cm)) == 4

    def test_types_partition_pairs(self, quartic_cm):
        for t in enumerate_cm_types(quartic_cm):
            conj_t = conjugate_type(t)
            assert t.phi & conj_t.phi == set()
            assert t.phi | conj_t.phi == set(range(4))


class TestReflexField:
    def test_gauss_self_reflex(self, gauss_cm):
        t = enumerate_cm_types(gauss_cm)[0]
        rd = reflex_field(t)
        assert rd.reflex_field.degree == 2
        assert rd.reflex_field.min_poly == gauss_cm.field.min_poly

    def test_zeta5_reflex_is_degree_four(self, zeta5_cm):
        for t in enumerate_cm_types(zeta5_cm):
            rd = reflex_field(t)
            assert rd.reflex_field.degree == 4
            # E* = E here: the reflex field is isomorphic to Q(zeta5)
            assert maximal_order(rd.reflex_field).disc() == 125

    def test_quartic_reflex_inside_octic(self, quartic_cm):
        for t in enumerate_cm_types(quartic_cm):
            rd = reflex_field(t)
            assert rd.closure.degree == 8
            assert rd.reflex_field.degree == 4
            assert len(rd.stabilizer) == 2
            # Psi is a CM-type on E*
            assert len(rd.reflex_type.indices()) == 2

    def test_stabilizer_is_pointwise_fixer(self, quartic_cm):
        # sigma Phi = Phi <=> sigma fixes E* pointwise
        for t in enumerate_cm_types(quartic_cm):
            rd = reflex_field(t)
            sd = rd.sd
            w = rd.reflex_inclusion.image_of_generator
            fixers = fixing_subgroup_of(sd, w)
            assert sorted(fixers) == sorted(rd.stabilizer)

    def test_reflex_of_reflex_contains_e(self, gauss_cm, zeta5_cm, quartic_cm):
        # the double-reflex stabilizer fixes the reference copy of E pointwise
        for cmf in (gauss_cm, zeta5_cm, quartic_cm):
            for t in enumerate_cm_types(cmf):
                rd = reflex_field(t)
                sd = rd.sd
                size = len(sd.autos)
                stab = set(rd.stabilizer)
                cosets = {frozenset(sd.mult[s][u] for u in stab) for s in rd.psi_reps}
                double_stab = [
                    s for s in range(size)
                    if {frozenset(sd.mult[s][c] for c in coset) for coset in cosets}
                    == cosets
                ]
                point_stab = set(sd.stabilizer_of_point(rd.j0))
                assert set(double_stab) <= point_stab


class TestReflexNormElements:
    def test_gauss_degenerate(self, gauss, gauss_cm):
        a = gauss.element([3, 1])
        values = set()
        for t in enumerate_cm_types(gauss_cm):
            values.add(reflex_norm_elem(t, gauss, a).coords)
        assert values == {(3, 1), (3, -1)}

    def test_conjugate_product_on_two(self, gauss, gauss_cm):
        t = enumerate_cm_types(gauss_cm)[0]
        two = gauss.element([2])
        n = reflex_norm_elem(t, gauss, two)
        assert n == two
        assert (n * gauss_cm.conj(n)).coords[0] == 4

    def test_zeta5_product_of_conjugates(self, zeta5, zeta5_cm):
        sd = splitting_data(zeta5)
        z = zeta5.gen()
        id_idx = next(i for i, e in enumerate(sd.embeddings) if e.image_of_generator == z)
        sq_idx = next(i for i, e in enumerate(sd.embeddings) if e.image_of_generator == z * z)
        t = CMType(zeta5_cm, {id_idx, sq_idx})
        n = reflex_norm_elem(t, zeta5, z)
        assert n == z**4
        assert n * zeta5_cm.conj(n) == zeta5.one()

    def test_conjugates_missing(self, quartic, quartic_cm):
        t = enumerate_cm_types(quartic_cm)[0]
        with pytest.raises(ConjugatesMissing):
            reflex_norm_elem(t, quartic, quartic.gen())


class TestReflexNormIdeals:
    def test_gauss_degenerate_prime(self, gauss, gauss_cm):
        O = maximal_order(gauss)
        t = enumerate_cm_types(gauss_cm)[0]
        Ip = FracIdeal.principal(O, gauss.one() + gauss.gen())
        out = reflex_norm_ideal(t, gauss, Ip)
        assert out in (Ip, conjugate_ideal(gauss_cm, Ip))

    def test_zeta5_split_11(self, zeta5, zeta5_cm):
        O = maximal_order(zeta5)
        t = enumerate_cm_types(zeta5_cm)[0]
        P11 = prime_split(11, O)[0]
        out = reflex_norm_ideal(t, zeta5, P11)
        assert out.norm() == 121
        assert out * conjugate_ideal(zeta5_cm, out) == FracIdeal.principal(
            O, zeta5.one() * 11
        )

    def test_inert_prime_gives_power(self, zeta5, zeta5_cm):
        O = maximal_order(zeta5)
        t = enumerate_cm_types(zeta5_cm)[0]
        P2 = prime_split(2, O)[0]  # inert, f = 4
        out = reflex_norm_ideal(t, zeta5, P2)
        assert out.norm() == 16**2  # q^g with q = 16, g = 2

    def test_principal_consistency(self, zeta5, zeta5_cm):
        O = maximal_order(zeta5)
        t = enumerate_cm_types(zeta5_cm)[0]
        rng = random.Random(8)
        for _ in range(10):
            e = zeta5.element([rng.randint(-3, 3) for _ in range(4)])
            if e.is_zero() or e.norm() % 5 == 0:
                continue
            lhs = reflex_norm_ideal(t, zeta5, FracIdeal.principal(O, e))
            rhs = FracIdeal.principal(O, reflex_norm_elem(t, zeta5, e))
            assert lhs == rhs


class TestConjugateIdeal:
    def test_matches_the_generator_route(self, zeta5, quartic):
        # the integer matrix of the involution on the basis columns against
        # the O-span of the conjugated generators, on the primes above 2, 3
        # and 23 (the closure's index primes among them) and seeded ideals
        rng = random.Random(31)
        for field in (zeta5, quartic, splitting_data(quartic).closure):
            cmf = cm_check(field)
            O = maximal_order(field)
            ideals = [P for p in (2, 3, 23) for P in prime_split(p, O)]
            ideals += [random_ideal(O, rng) for _ in range(6)]
            for a in ideals:
                assert conjugate_ideal(cmf, a) == conjugate_ideal_by_generators(cmf, a), a


class TestBeyondTheQuarticCorpus:
    def test_zeta8_reflex_is_quadratic(self):
        # Klein-four cyclotomic: every CM-type reflexes to an imaginary
        # quadratic field (Q(i) or Q(sqrt-2)); [L : E*] = 2 exercises the
        # nontrivial exact-root path with k = E
        z8 = NumberField(UniPoly([1, 0, 0, 0, 1]))
        cmf = cm_check(z8)
        assert isinstance(cmf, CMField)
        assert maximal_order(cmf.real_subfield).disc() == 8
        discs = []
        for t in enumerate_cm_types(cmf):
            rd = reflex_field(t)
            assert rd.reflex_field.degree == 2
            assert len(rd.reflex_type.indices()) == 1
            discs.append(maximal_order(rd.reflex_field).disc())
        assert sorted(discs) == [-8, -8, -4, -4]
        t0 = enumerate_cm_types(cmf)[0]
        rep = verify_reflex_identities(t0, z8, 20, seed=3, norm_bound=60)
        assert rep["ok"], rep

    @pytest.mark.parametrize("m", [16, 24])
    def test_cyclotomic_reflex_degree_is_the_type_stabilizer_index(self, m):
        # Q(zeta_m) is abelian: embedding i sends zeta to zeta^(k_i), a type
        # is a set Phi of units mod m, and E* is the fixed field of
        # {u : u Phi = Phi}, of degree phi(m) / |{u : u Phi = Phi}|; E* must
        # also embed into Q(zeta_m), which sympy's field_isomorphism decides
        x = symbols("x")
        cyclo = Poly(cyclotomic_poly(m, x), x)
        E = NumberField(UniPoly([int(c) for c in reversed(cyclo.all_coeffs())]))
        cmf = cm_check(E)
        assert isinstance(cmf, CMField)
        k = [round(cmath.phase(complex(float(e.ball.re), float(e.ball.im))) * m / (2 * math.pi)) % m
             for e in certified_embeddings(E)]
        units = [u for u in range(1, m) if math.gcd(u, m) == 1]
        assert sorted(k) == units
        types = enumerate_cm_types(cmf)
        assert len(types) == 16
        embeds = {}
        for t in types:
            phi = {k[i] for i in t.phi}
            stab = sum({u * a % m for a in phi} == phi for u in units)
            rd = reflex_field(t)
            assert rd.reflex_field.degree == len(units) // stab, sorted(phi)
            assert isinstance(rd.reflex_cmfield, CMField)
            assert len(rd.reflex_type.indices()) == rd.reflex_field.degree // 2
            mp = rd.reflex_field.min_poly
            if mp not in embeds:
                star = Poly([int(c) for c in reversed(mp.coeffs)], x)
                embeds[mp] = field_isomorphism(CRootOf(star, 0), CRootOf(cyclo, 0))
            assert embeds[mp] is not None, mp
        assert {mp.degree for mp in embeds} == {2, 8} | ({4} if m == 16 else set())

    def test_zeta7_dimension_three(self):
        # sextic cyclotomic, g = 3: two Galois-coset types reflex to
        # Q(sqrt-7), the six primitive ones to the field itself
        z7 = NumberField(UniPoly([1, 1, 1, 1, 1, 1, 1]))
        cmf = cm_check(z7)
        assert isinstance(cmf, CMField)
        assert maximal_order(cmf.real_subfield).disc() == 49
        types = enumerate_cm_types(cmf)
        assert len(types) == 8
        degrees = sorted(reflex_field(t).reflex_field.degree for t in types)
        assert degrees == [2, 2, 6, 6, 6, 6, 6, 6]
        small = next(t for t in types if reflex_field(t).reflex_field.degree == 2)
        assert maximal_order(reflex_field(small).reflex_field).disc() == -7
        rep = verify_reflex_identities(small, z7, 8, seed=3, norm_bound=40)
        assert rep["ok"], rep
        big = next(t for t in types if reflex_field(t).reflex_field.degree == 6)
        rep = verify_reflex_identities(big, z7, 8, seed=3, norm_bound=40)
        assert rep["ok"], rep


class TestIdentitySuite:
    def test_gauss_full(self, gauss, gauss_cm):
        t = enumerate_cm_types(gauss_cm)[0]
        rep = verify_reflex_identities(t, gauss, 40, seed=7, norm_bound=80)
        assert rep["ok"], rep
        assert rep["identities"]["conjugate_product_elements"]["fail"] == 0

    def test_sqrt5_full(self, sqrt5, sqrt5_cm):
        t = enumerate_cm_types(sqrt5_cm)[0]
        rep = verify_reflex_identities(t, sqrt5, 40, seed=7, norm_bound=80)
        assert rep["ok"], rep

    def test_zeta5_full(self, zeta5, zeta5_cm):
        t = enumerate_cm_types(zeta5_cm)[1]
        rep = verify_reflex_identities(t, zeta5, 25, seed=7, norm_bound=60)
        assert rep["ok"], rep

    def test_quartic_one_type(self, quartic, quartic_cm):
        t = enumerate_cm_types(quartic_cm)[0]
        L = splitting_data(quartic).closure
        rep = verify_reflex_identities(t, L, 8, seed=7, norm_bound=40)
        assert rep["ok"], rep
        # the primes above the index primes 2, 3 and 23 are among those checked
        assert (rep["prime_count"], rep["reflex_prime_count"]) == (14, 14)

    def test_primes_split_only_where_the_suite_uses_them(self):
        # a fresh process, so no split is in the memo: the suite on
        # x^4+6x^2+3 at bound 200 splits 57 primes (102 when every p < 200
        # was split in O_L and in O_E*), and its report does not change
        code = textwrap.dedent("""
            from cmfields import ideals
            from cmfields.closure import splitting_data
            from cmfields.cmreflex import cm_check, enumerate_cm_types, verify_reflex_identities
            from cmfields.numfield import NumberField
            from cmfields.unipoly import UniPoly

            calls = []
            split = ideals._prime_split
            ideals._prime_split = lambda p, order: calls.append(p) or split(p, order)
            K = NumberField(UniPoly([3, 0, 6, 0, 1]))
            t = enumerate_cm_types(cm_check(K))[0]
            rep = verify_reflex_identities(t, splitting_data(K).closure, 0, 1, norm_bound=200)
            print(len(calls), rep["ok"], rep["prime_count"], rep["reflex_prime_count"])
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=300)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["57", "True", "46", "46"]


class TestPrimeBelow:
    # the closure of x^4+6x^2+3 (degree 8) and Q(zeta5) (its own closure)
    POLYS = ((3, 0, 6, 0, 1), (1, 1, 1, 1, 1))

    @staticmethod
    def _inclusions(cmf):
        """(L, [every embedding of E into L, then every type's reflex inclusion])."""
        sd = splitting_data(cmf.field)
        reflex = [reflex_field(t).reflex_inclusion for t in enumerate_cm_types(cmf)]
        return sd.closure, list(sd.embeddings) + reflex

    @pytest.mark.parametrize("coeffs", POLYS)
    def test_the_prime_below_lies_below_and_the_degrees_add_up(self, coeffs):
        # for each inclusion F -> L and each p < 50, index primes included:
        # incl(q) O_L <= P for the returned q, f(P/q) = f(P)/f(q), every
        # prime of F above p is hit, and sum e(P/q) f(P/q) = [L:F] per q
        L, incls = self._inclusions(cm_check(NumberField(UniPoly(list(coeffs)))))
        OL = maximal_order(L)
        checked = 0
        for incl in incls:
            OF = maximal_order(incl.source)
            for p in primes_up_to(49):
                degree_sums = {}
                for P in prime_split(p, OL):
                    q, f = cmreflex._prime_below(P, incl, OF)
                    ext = FracIdeal.from_generators(OL, [incl(b) for b in q.basis_elements()])
                    assert P.contains_ideal(ext), (incl, P, q)
                    assert q.f * f == P.f and P.e % q.e == 0
                    degree_sums[q] = degree_sums.get(q, 0) + P.e // q.e * f
                    checked += 1
                assert set(degree_sums) == set(prime_split(p, OF))
                assert set(degree_sums.values()) == {L.degree // incl.source.degree}
        assert checked > 100

    @pytest.mark.parametrize("name", ["gauss", "zeta5"])
    def test_an_automorphism_transports_the_prime(self, name, request):
        # along an automorphism sigma of P's field the prime below is
        # sigma^-1(P), transported with its generators and anti-uniformizer:
        # it is the searched prime, its generators lie in it, (p) has
        # valuation e there and random ideals have the searched prime's
        # valuations, at every p < 60, the ramified ones included
        K = request.getfixturevalue(name)
        O = maximal_order(K)
        rng = random.Random(33)
        checked = 0
        for sigma in splitting_data(K).embeddings:
            assert sigma.source == sigma.target == K
            for p in primes_up_to(59):
                pO = FracIdeal.unit_ideal(O).scaled(p)
                for P in prime_split(p, O):
                    q, f = cmreflex._prime_below(P, sigma, O)
                    oq, of = prime_below_by_search(P, sigma, O)
                    assert (q, q.e, q.f, f) == (oq, oq.e, oq.f, of), (sigma, P)
                    assert all(q.contains(g) for g in q.gens)
                    assert pO.valuation(q) == q.e
                    a = random_ideal(O, rng)
                    assert a.valuation(q) == a.valuation(oq), (sigma, P, a)
                    checked += 1
        assert checked > 40

    @pytest.mark.parametrize("coeffs", POLYS)
    def test_norm_down_of_an_extended_reflex_prime_is_its_power(self, coeffs):
        # Nm_{L/E*}(q O_L) = q^[L:E*] for the reflex primes of the identity
        # suite: every type, norm < 200, away from the index primes
        cmf = cm_check(NumberField(UniPoly(list(coeffs))))
        checked = 0
        for t in enumerate_cm_types(cmf):
            rd = reflex_field(t)
            OL, OS = maximal_order(rd.closure), maximal_order(rd.reflex_field)
            orders = (OL, maximal_order(cmf.field), OS)
            for p in primes_up_to(199):
                if any(o.equation_index % p == 0 for o in orders):
                    continue
                for q in primes_of_norm_below(p, OS, 200):
                    ext = FracIdeal.from_generators(
                        OL, [rd.reflex_inclusion(g) for g in q.two_element_like_generators()])
                    down = cmreflex._norm_down(ext, [rd.reflex_inclusion], OS)
                    assert down == q ** (OL.degree // OS.degree), (t, q)
                    checked += 1
        assert checked > 0


# the eight fields of perfbench's cm_survey workload
SURVEY_POLYS = (
    (1, 0, 1), (1, 1, 1), (5, 0, 1), (1, 1, 1, 1, 1), (1, 0, 5, 0, 1), (3, 0, 6, 0, 1),
    (1, 1, 1, 1, 1, 1, 1), (1, -1, 0, 1, -1, 1, 0, -1, 1),
)


def _survey_types():
    out = []
    for coeffs in SURVEY_POLYS:
        out += enumerate_cm_types(cm_check(NumberField(UniPoly(list(coeffs)))))
    return out


class TestComplexConjugation:
    def test_matches_the_automorphism_search(self):
        reflex = [reflex_field(t).reflex_field for t in _survey_types()]
        fields = [NumberField(UniPoly(list(c))) for c in SURVEY_POLYS] + reflex
        fields += [NumberField(UniPoly(c)) for c in (
            [1, 0, 0, 0, 0, 0, 0, 0, 1], [1, 0, 0, 0, -1, 0, 0, 0, 1])]
        for K in fields:
            expected = complex_conjugation_by_search(K)
            assert expected is not None and not expected.is_identity(), K
            # the memo (seeded from the closure for reflex fields) and the
            # preimage path both agree with the search
            assert complex_conjugation(K) == expected, K
            assert closure._complex_conjugation(K) == expected, K
        for coeffs in ([-5, 0, 1], [1, -3, 0, 1]):  # Q(sqrt 5), totally real cubic
            K = NumberField(UniPoly(coeffs))
            assert complex_conjugation_by_search(K).is_identity()
            assert complex_conjugation(K).is_identity()
        for coeffs in ([-2, 0, 0, 1], [-2, 0, 0, 0, 1]):  # x^3 - 2, x^4 - 2
            K = NumberField(UniPoly(coeffs))
            assert complex_conjugation_by_search(K) is None
            assert complex_conjugation(K) is None

    def test_one_closure_per_cm_pair(self):
        # a fresh process, so no closure is in the memo: cm_check, the types
        # and every reflex field of the survey build exactly one closure per
        # field, none for a reflex field
        code = textwrap.dedent(f"""
            from cmfields import closure
            from cmfields.cmreflex import cm_check, enumerate_cm_types, reflex_field
            from cmfields.numfield import NumberField
            from cmfields.unipoly import UniPoly

            built = []
            init = closure.SplittingData.__init__

            def counting_init(self, field):
                built.append(field)
                init(self, field)

            closure.SplittingData.__init__ = counting_init
            for coeffs in {SURVEY_POLYS!r}:
                for t in enumerate_cm_types(cm_check(NumberField(UniPoly(list(coeffs))))):
                    reflex_field(t)
            print(len(built))
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=300)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == [str(len(SURVEY_POLYS))]
        for t in _survey_types():
            rd = reflex_field(t)
            assert rd.reflex_cmfield.conj == complex_conjugation_by_search(rd.reflex_field)
            sd = rd.sd
            c = sd.conjugation
            assert all(sd.mult[c][s] == sd.mult[s][c] for s in range(len(sd.autos)))
            assert c != sd.identity and sd.mult[c][c] == sd.identity


class TestFixedFieldPerStabilizer:
    ZETA8_ZETA12 = ((1, 0, 0, 0, 1), (1, 0, -1, 0, 1))

    def test_matches_the_per_type_construction(self):
        # E* = L^H is built once per stabilizer; every type still gets the
        # fixed field, inclusion, reflex type and coset representatives that
        # a construction for that type alone gives
        types = _survey_types()
        for coeffs in self.ZETA8_ZETA12:
            types += enumerate_cm_types(cm_check(NumberField(UniPoly(list(coeffs)))))
        assert len(types) == 50
        for t in types:
            rd = reflex_field(t)
            mp, image, psi, reps = reflex_per_type(t)
            assert rd.reflex_field.min_poly == mp, t
            assert rd.reflex_inclusion.image_of_generator == image, t
            assert rd.reflex_type.indices() == psi, t
            assert rd.psi_reps == reps, t

    @pytest.mark.parametrize("coeffs, n_types, n_stabilizers", [
        ((1, -1, 0, 1, -1, 1, 0, -1, 1), 16, 4),  # Q(zeta15)
        ((1, 1, 1, 1, 1, 1, 1), 8, 2),  # Q(zeta7)
        ((1, 1, 1, 1, 1), 4, 1),  # Q(zeta5)
        ((3, 0, 6, 0, 1), 4, 2),  # x^4 + 6x^2 + 3
    ])
    def test_types_with_one_stabilizer_share_one_field(self, coeffs, n_types, n_stabilizers):
        types = enumerate_cm_types(cm_check(NumberField(UniPoly(list(coeffs)))))
        assert len(types) == n_types
        by_stab = {}
        for t in types:
            rd = reflex_field(t)
            by_stab.setdefault(tuple(rd.stabilizer), set()).add(
                (id(rd.reflex_field), id(rd.reflex_inclusion), id(rd.reflex_cmfield)))
        assert len(by_stab) == n_stabilizers
        assert all(len(objs) == 1 for objs in by_stab.values())
        assert len({objs.pop() for objs in by_stab.values()}) == n_stabilizers


class TestReflexNormOnReflexIdeals:
    # Q(i), Q(sqrt-5), Q(zeta5), Q(zeta7), Q(zeta8), Q(zeta12), Q(zeta15),
    # x^4+5x^2+1 and x^4+6x^2+3
    POLYS = ((1, 0, 1), (5, 0, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1), (1, 0, 0, 0, 1),
             (1, 0, -1, 0, 1), (1, -1, 0, 1, -1, 1, 0, -1, 1), (1, 0, 5, 0, 1), (3, 0, 6, 0, 1))

    def test_matches_the_exact_root_route(self):
        # every CM type of the nine fields: a seeded sample of 8 primes of E*
        # of norm < 200 away from the index primes of O_L, O_E and O_E*, and
        # two products and two quotients of such primes
        checked = 0
        for coeffs in self.POLYS:
            cmf = cm_check(NumberField(UniPoly(list(coeffs))))
            for t in enumerate_cm_types(cmf):
                rd = reflex_field(t)
                OS = maximal_order(rd.reflex_field)
                orders = (maximal_order(rd.closure), maximal_order(cmf.field), OS)
                primes = [q for p in primes_up_to(199)
                          if all(o.equation_index % p for o in orders)
                          for q in primes_of_norm_below(p, OS, 200)]
                rng = random.Random(checked)
                ideals = rng.sample(primes, min(8, len(primes)))
                for _ in range(2):
                    a, b = rng.choice(primes), rng.choice(primes)
                    ideals += [a * b, a * b.inverse()]
                for b in ideals:
                    assert rd.reflex_norm_ideal(b) == reflex_norm_ideal_by_root(rd, b), (t, b)
                checked += len(ideals)
        assert checked == 48 * 12

    def test_a_wrong_reflex_norm_fails_the_power_identity(self, quartic, quartic_cm, monkeypatch):
        t = enumerate_cm_types(quartic_cm)[0]
        L = splitting_data(quartic).closure
        rep = verify_reflex_identities(t, L, 2, seed=1)
        assert rep["identities"]["reflex_ideal_root"] == {"pass": 46, "fail": 0}
        monkeypatch.setattr(ReflexData, "reflex_norm_ideal",
                            lambda self, b: FracIdeal.unit_ideal(maximal_order(quartic)))
        rep = verify_reflex_identities(t, L, 2, seed=1)
        assert rep["identities"]["reflex_ideal_root"]["pass"] == 0
        assert rep["identities"]["reflex_ideal_root"]["fail"] == 46

    def test_no_prime_of_the_closure_above_q_is_an_invariant_violation(self, quartic_cm, monkeypatch):
        rd = reflex_field(enumerate_cm_types(quartic_cm)[0])
        OL = maximal_order(rd.closure)
        q = prime_split(5, maximal_order(rd.reflex_field))[0]
        split = cmreflex.prime_split
        # the primes of O_L above 7 stand in for those above 5: none contains q
        monkeypatch.setattr(cmreflex, "prime_split",
                            lambda p, order: split(7 if order is OL else p, order))
        with pytest.raises(InvariantViolated):
            rd.reflex_norm_ideal(q)
