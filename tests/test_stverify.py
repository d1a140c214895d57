"""Point counts from the Frobenius trace, Frobenius identification, its
F_{p^2} arithmetic, and the ST identities."""

import json
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmfields import cmreflex, memo, stverify
from cmfields.closure import splitting_data
from cmfields.cmreflex import CMType, enumerate_cm_types
from cmfields.cli import main
from cmfields.errors import (
    BadCorpus,
    IdentificationFailed,
    InvariantViolated,
    RamifiedPrime,
    Supersingular,
)
from cmfields.ideals import FracIdeal, prime_sort_key, prime_split
from cmfields.intutil import primes_up_to
from cmfields.orders import maximal_order
from cmfields.stverify import (
    DEFAULT_CORPUS,
    CMCurveQ,
    _GF2,
    _ec_add,
    _ec_mul2,
    _ec_neg,
    _random_point,
    _reduction_data,
    frobenius_element,
    load_curve,
    st_check_ideal,
    st_check_valuations,
    st_rhs,
)

from oracles import _ec_mul, count_points_legendre, count_points_naive_pairs, frobenius_class_check


@pytest.fixture(scope="module")
def curve_i():
    return load_curve(DEFAULT_CORPUS[0])


@pytest.fixture(scope="module")
def curve_z3():
    return load_curve(DEFAULT_CORPUS[1])


class TestCounting:
    # #C(F_p) = p + 1 - a_p with a_p = Tr(pi) from the identification; a p is
    # refused as supersingular exactly when the count gives a_p = 0 mod p

    def test_worked_examples(self, curve_i, curve_z3):
        assert 5 + 1 - frobenius_element(curve_i, 5).trace == 8
        assert 13 + 1 - frobenius_element(curve_i, 13).trace == 8
        assert 7 + 1 - frobenius_element(curve_z3, 7).trace == 12
        assert 13 + 1 - frobenius_element(curve_z3, 13).trace == 12
        # 6 points over F_5 and 8 over F_7: a_p = 0
        with pytest.raises(Supersingular):
            frobenius_element(curve_z3, 5)
        with pytest.raises(Supersingular):
            frobenius_element(curve_i, 7)

    def test_against_pair_oracle(self, curve_i, curve_z3):
        for curve in (curve_i, curve_z3):
            a4, a6 = curve.a4, curve.a6
            ordinary = 0
            for p in primes_up_to(59)[2:]:
                if (4 * a4**3 + 27 * a6**2) % p == 0:
                    continue
                count = count_points_naive_pairs(p, a4 % p, a6 % p)
                if (p + 1 - count) % p == 0:
                    with pytest.raises(Supersingular):
                        frobenius_element(curve, p)
                    continue
                assert p + 1 - frobenius_element(curve, p).trace == count, (curve, p)
                ordinary += 1
            assert ordinary >= 6

    def test_against_legendre_oracle(self, curve_i, curve_z3):
        # every good p < 3000 and a seeded sample of the primes in [19000, 21000)
        window = [p for p in primes_up_to(20999) if p >= 19000]
        primes = primes_up_to(2999)[2:] + sorted(random.Random(5).sample(window, 12))
        for curve in (curve_i, curve_z3):
            a4, a6 = curve.a4, curve.a6
            ordinary = 0
            for p in primes:
                if (4 * a4**3 + 27 * a6**2) % p == 0:
                    continue
                count = count_points_legendre(p, a4, a6)
                if (p + 1 - count) % p == 0:
                    with pytest.raises(Supersingular):
                        frobenius_element(curve, p)
                    continue
                assert p + 1 - frobenius_element(curve, p).trace == count, (curve, p)
                ordinary += 1
            assert ordinary > 200

    def test_hasse_bound(self, curve_i, curve_z3):
        for curve in (curve_i, curve_z3):
            for p in primes_up_to(200)[2:]:
                try:
                    a_p = frobenius_element(curve, p).trace
                except Supersingular:
                    continue
                assert a_p * a_p <= 4 * p, (curve, p)

    def test_singular_rejected(self, curve_i, curve_z3):
        # y^2 = x^3 - 25 x and y^2 = x^3 + 5 both reduce to y^2 = x^3 at 5
        for (a4, a6), curve in (((-25, 0), curve_i), ((0, 5), curve_z3)):
            bad = CMCurveQ(a4, a6, curve.cmfield, curve.tangent)
            with pytest.raises(ValueError, match="bad reduction at 5"):
                frobenius_element(bad, 5)


class TestFieldArithmetic:
    @pytest.mark.parametrize("p", [7, 13, 17, 103, 107])
    def test_sqrt_in_gf_p2(self, p):
        # every s in F_{p^2}: a root exactly when the norm is a square in F_p
        F = _GF2(p)
        for a in range(p):
            for b in range(p):
                norm = (a * a - F.ns * b * b) % p
                r = F.sqrt((a, b))
                if norm == 0 or pow(norm, (p - 1) // 2, p) == 1:
                    assert r is not None and F.mul(r, r) == (a, b), (a, b, r)
                else:
                    assert r is None, (a, b, r)

    def test_tangent_root_is_the_least_root(self, curve_i, curve_z3):
        for curve in (curve_i, curve_z3):
            e, b = curve.tangent_poly
            disc = 4 * curve.a4**3 + 27 * curve.a6**2
            for p in primes_up_to(1999):
                if p < 5 or disc % p == 0:
                    continue
                roots = [r for r in range(p) if (r * r + b * r + e) % p == 0]
                if not roots:
                    with pytest.raises(Supersingular):
                        _reduction_data(curve, p)
                    continue
                _, red, c, (c2, c3) = _reduction_data(curve, p)
                assert c == min(roots), (curve, p)
                assert red == (curve.a4 % p, curve.a6 % p)
                assert c2 * c * c % p == 1 and c3 * c * c * c % p == 1


def _points_on_x3_minus_x(p=10007):
    """F_{p^2} points of y^2 = x^3 - x: the three of order 2, infinity, and
    seeded random points with their negatives and a sum, so that P = Q,
    P = -Q and P + Q = O all occur among the pairs."""
    F = _GF2(p)
    rng = random.Random(11)
    pts = [_random_point(F, (p - 1, 0), rng) for _ in range(3)]
    pts += [_ec_neg(F, pts[0]), _ec_add(F, p - 1, pts[0], pts[1])]
    return F, [(0, 0, 0, 0), (1, 0, 0, 0), (p - 1, 0, 0, 0), None] + pts


EC_FIELD, EC_POINTS = _points_on_x3_minus_x()


class TestJointMultiplication:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(k=st.integers(-10**6, 10**6), l=st.integers(-10**6, 10**6),
           i=st.integers(0, len(EC_POINTS) - 1), j=st.integers(0, len(EC_POINTS) - 1))
    @example(k=0, l=0, i=4, j=5)
    @example(k=0, l=-3, i=0, j=4)
    @example(k=-7, l=0, i=5, j=1)
    @example(k=-1, l=-1, i=4, j=7)
    @example(k=5, l=-5, i=4, j=4)
    @example(k=3, l=1, i=0, j=2)
    def test_straus_shamir_matches_two_multiplications(self, k, l, i, j):
        F, a4 = EC_FIELD, EC_FIELD.p - 1
        P, Q = EC_POINTS[i], EC_POINTS[j]
        assert _ec_mul2(F, a4, k, P, l, Q) == _ec_add(
            F, a4, _ec_mul(F, a4, k, P), _ec_mul(F, a4, l, Q))


class TestFrobenius:
    def test_curve_validation(self, curve_i, curve_z3):
        # the unit scaling (x, y) -> (u^-2 x, u^-3 y) is an automorphism of
        # y^2 = x^3 + a4 x + a6 exactly when u^4 a4 = a4 and u^6 a6 = a6
        for curve in (curve_i, curve_z3):
            E = curve.cmfield.field
            assert curve.tangent**4 * curve.a4 == E.element([curve.a4])
            assert curve.tangent**6 * curve.a6 == E.element([curve.a6])

    def test_p13_gauss(self, curve_i):
        f = frobenius_element(curve_i, 13)
        E = curve_i.cmfield.field
        assert f.trace == 6
        assert f.pi * curve_i.cmfield.conj(f.pi) == E.element([13])
        assert f.pi + curve_i.cmfield.conj(f.pi) == E.element([6])

    def test_p5_gauss(self, curve_i):
        f = frobenius_element(curve_i, 5)
        E = curve_i.cmfield.field
        assert f.pi * curve_i.cmfield.conj(f.pi) == E.element([5])

    def test_p7_eisenstein(self, curve_z3):
        f = frobenius_element(curve_z3, 7)
        assert abs(f.pi.norm()) == 7

    def test_supersingular_rejected(self, curve_i, curve_z3):
        with pytest.raises(Supersingular):
            frobenius_element(curve_i, 7)  # 7 = 3 mod 4
        with pytest.raises(Supersingular):
            frobenius_element(curve_z3, 5)  # 5 = 2 mod 3

    def test_determinism(self, curve_i):
        a = frobenius_element(curve_i, 29, seed=5)
        b = frobenius_element(curve_i, 29, seed=5)
        assert a.pi == b.pi and a.prime_above == b.prime_above

    def test_a_non_principal_tangent_prime_is_refused(self, sqrt5_cm):
        # Z[sqrt(-5)] has class number 2: 7 splits there but is not
        # x^2 + 5 y^2, so the prime above 7 containing u - c has no generator
        # and no element of norm 7 exists to be the Frobenius
        fake = CMCurveQ(-1, 0, sqrt5_cm, sqrt5_cm.field.gen())
        with pytest.raises(IdentificationFailed, match="not principal"):
            frobenius_element(fake, 7)


def _frobenius_by_powers(F, P):
    """(x^p, y^p) for a point P of C(F_{p^2}), by square-and-multiply."""
    def power(a):
        out, k = (1, 0), F.p
        while k:
            if k & 1:
                out = F.mul(out, a)
            a = F.mul(a, a)
            k >>= 1
        return out

    return power((P[0], P[1])) + power((P[2], P[3]))


class TestElementsOfNormP:
    def test_exactly_one_element_of_norm_p_is_the_frobenius(self, curve_i, curve_z3):
        # the premise of the identification, by brute force: the x + y u of
        # norm p are 2|mu_E| in number, and exactly one of them acts as the
        # p-power Frobenius on 20 seeded points of C(F_{p^2}), with the endo
        # (x, y) -> (c^-2 x, c^-3 y) at the least root c of u's polynomial
        for curve, roots_of_unity in ((curve_i, 4), (curve_z3, 6)):
            E = curve.cmfield.field
            e, b = curve.tangent_poly
            ordinary = 0
            for p in primes_up_to(299)[2:]:
                if (4 * curve.a4**3 + 27 * curve.a6**2) % p == 0:
                    continue
                r = math.isqrt(4 * p)
                # N(x + y u) = x^2 - b x y + e y^2 for u^2 + b u + e = 0
                elements = [(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)
                            if x * x - b * x * y + e * y * y == p]
                if not elements:
                    with pytest.raises(Supersingular):
                        frobenius_element(curve, p)
                    continue
                assert len(elements) == 2 * roots_of_unity, (curve, p)
                F, a4 = _GF2(p), curve.a4 % p
                c = min(t for t in range(p) if (t * t + b * t + e) % p == 0)
                c2, c3 = pow(c, -2, p), pow(c, -3, p)
                rng = random.Random(f"norm-p:{p}")
                points = [_random_point(F, (a4, curve.a6 % p), rng) for _ in range(20)]

                def acts_as_frobenius(x, y):
                    return all(
                        _frobenius_by_powers(F, P) == _ec_add(
                            F, a4, _ec_mul(F, a4, x, P),
                            _ec_mul(F, a4, y, (c2 * P[0] % p, c2 * P[1] % p,
                                               c3 * P[2] % p, c3 * P[3] % p)))
                        for P in points)

                hits = [(x, y) for x, y in elements if acts_as_frobenius(x, y)]
                assert len(hits) == 1, (curve, p, hits)
                x, y = hits[0]
                assert frobenius_element(curve, p).pi == E.element([x]) + curve.tangent * y
                ordinary += 1
            assert ordinary >= 25


class TestSTIdentities:
    def test_ideal_check_full_pipeline(self, curve_i, curve_z3):
        for curve, p in ((curve_i, 13), (curve_i, 17), (curve_z3, 13), (curve_z3, 7)):
            f = frobenius_element(curve, p)
            E = curve.cmfield.field
            assert st_check_ideal(f, f.cmtype, E, f.prime_above), (curve, p)

    def test_conjugate_sensitivity_xor(self, curve_i):
        # for split P exactly one of pi, conj(pi) satisfies the identity
        E = curve_i.cmfield.field
        O = maximal_order(E)
        for p in (13, 17, 29, 37):
            f = frobenius_element(curve_i, p)
            rhs = st_rhs(f.cmtype, E, f.prime_above)
            direct = FracIdeal.principal(O, f.pi) == rhs
            swapped = FracIdeal.principal(O, curve_i.cmfield.conj(f.pi)) == rhs
            assert direct != swapped
            assert direct

    def test_valuation_checks(self, curve_i, curve_z3):
        for curve, p in ((curve_i, 13), (curve_z3, 19)):
            f = frobenius_element(curve, p)
            rep = st_check_valuations(f, f.cmtype, curve.cmfield.field, f.prime_above)
            assert rep["ok"]
            assert len(rep["primes"]) == 2  # both primes above the split p
            total = sum(e["ord_v_pi"] for e in rep["primes"])
            assert total == 1  # split prime, g = 1

    def test_st_rhs_norm_sanity(self, zeta5, zeta5_cm):
        # symbolic higher dimension: q^g and conjugate-product identities
        t = enumerate_cm_types(zeta5_cm)[0]
        O = maximal_order(zeta5)
        P11 = prime_split(11, O)[0]
        out = st_rhs(t, zeta5, P11)
        assert out.norm() == 11**2
        P2 = prime_split(2, O)[0]
        out2 = st_rhs(t, zeta5, P2)
        assert out2.norm() == 16**2

    def test_st_rhs_sanity_checks_fire(self, zeta5, zeta5_cm, monkeypatch):
        # g = 2 on Q(zeta5) at 11: a reflex norm of P has norm 11, not 11^2, and
        # P^2 has the right norm but P^2 conj(P^2) != (11); in a quadratic
        # field a conj(a) = (N a), so only g >= 2 can reach the second check
        t = enumerate_cm_types(zeta5_cm)[0]
        P11 = prime_split(11, maximal_order(zeta5))[0]
        for wrong, message in ((P11, "norm sanity"), (P11**2, "conjugate sanity")):
            monkeypatch.setattr(stverify, "reflex_norm_ideal", lambda *args: wrong)
            with pytest.raises(InvariantViolated, match=f"{message} identity failed"):
                st_rhs(t, zeta5, P11)

    def test_ramified_prime_rejected(self, zeta5, zeta5_cm):
        t = enumerate_cm_types(zeta5_cm)[0]
        O = maximal_order(zeta5)
        P5 = prime_split(5, O)[0]
        with pytest.raises(RamifiedPrime):
            st_rhs(t, zeta5, P5)

    def test_symbolic_valuations_zeta5(self, zeta5, zeta5_cm):
        # sum-form/ratio-form equivalence in symbolic mode over 20 primes
        t = enumerate_cm_types(zeta5_cm)[1]
        O = maximal_order(zeta5)
        checked = 0
        for p in primes_up_to(199):
            if p == 5:
                continue
            P = prime_split(p, O)[0]
            rhs = st_rhs(t, zeta5, P)
            rep = st_check_valuations(rhs, t, zeta5, P)
            assert rep["ok"], (p, rep)
            assert len(rep["primes"]) == len(prime_split(p, O)), p
            checked += 1
            if checked >= 20:
                break
        assert checked == 20


class TestSymbolicQuartic:
    def test_dimension_two_valuation_identities(self, quartic, quartic_cm):
        # non-Galois quartic, g = 2, k = the octic closure: the ratio and
        # fixed-residue sum identities hold for the symbolic Frobenius ideal
        from cmfields.closure import splitting_data

        L = splitting_data(quartic).closure
        OL = maximal_order(L)
        OE = maximal_order(quartic)
        t = enumerate_cm_types(quartic_cm)[0]
        done = 0
        for p in (5, 7, 11, 13, 17, 19, 29, 31):
            if OL.equation_index % p == 0 or OE.equation_index % p == 0:
                continue
            P = prime_split(p, OL)[0]
            rhs = st_rhs(t, L, P)
            q = int(P.norm())
            assert rhs.norm() == q**2  # q^g with g = 2
            rep = st_check_valuations(rhs, t, L, P)
            assert rep["ok"], (p, rep)
            assert len(rep["primes"]) == len(prime_split(p, OE)), p
            done += 1
        assert done == 8


class TestTangentBasis:
    def test_a_sixth_root_of_unity_as_tangent(self, tmp_path, capsys):
        # u = 1 + zeta3 generates O_E but is not the field generator: each
        # Frobenius candidate is matched in the basis 1, u and the prime above
        # p is the one containing u - c
        corpus = [{"a4": 0, "a6": 1, "cm_disc": -3, "min_poly": [1, 1, 1],
                   "cm_endo": {"kind": "unit-scaling", "tangent": [1, 1]}}]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus))
        assert main(["st", str(path), "5", "60"]) == 0
        rows = [r for r in map(json.loads, capsys.readouterr().out.splitlines())
                if r["record"] == "st"]
        ordinary = [r for r in rows if r["status"] == "ordinary"]
        assert [r["p"] for r in ordinary] == [7, 13, 19, 31, 37, 43]
        for r in ordinary:
            assert r["ideal_match"] and r["valuation_match"]
            assert r["a_p"] == r["p"] + 1 - count_points_legendre(r["p"], 0, 1)

    def test_a_singular_curve_is_refused(self, tmp_path, capsys):
        # y^2 = x^3 passes the unit-scaling test (0 = 0 for any u) and its
        # discriminant 0 is divisible by every prime, so without the check
        # every row is skipped and the run reports PASS
        record = {"a4": 0, "a6": 0, "cm_disc": -4, "min_poly": [1, 0, 1],
                  "cm_endo": {"kind": "unit-scaling", "tangent": [0, 1]}}
        with pytest.raises(BadCorpus, match="singular"):
            load_curve(record)
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([record]))
        assert main(["st", str(path), "5", "60"]) == 2
        assert capsys.readouterr().out == ""

    def test_a_tangent_must_generate_the_maximal_order(self, gauss_cm):
        # 1 + 2i generates Q(i) but Z[1 + 2i] = Z[2i] has index 2 in Z[i]
        with pytest.raises(BadCorpus, match="generate O_E"):
            CMCurveQ(-1, 0, gauss_cm, gauss_cm.field.element([1, 2]))


class TestPrincipalIdealsOfARow:
    def test_built_once_equal_the_generated_ones(self, curve_i, curve_z3):
        # (pi) is built once per row in FrobeniusData, and (q) as q times the
        # unit ideal; both equal the ideals generated by pi and by q
        for curve in (curve_i, curve_z3):
            E = curve.cmfield.field
            O = maximal_order(E)
            rows = 0
            for p in primes_up_to(2000)[2:]:
                if (4 * curve.a4**3 + 27 * curve.a6**2) % p == 0:
                    continue
                try:
                    f = frobenius_element(curve, p)
                except Supersingular:
                    continue
                assert f.ideal == FracIdeal.from_generators(O, [f.pi]), p
                assert FracIdeal.unit_ideal(O).scaled(p) == \
                    FracIdeal.from_generators(O, [E.one() * p]), p
                rows += 1
                if rows == 50:
                    break
            assert rows == 50


def _ordinary_rows(curve, lo, hi):
    """(p, FrobeniusData) at every ordinary prime lo <= p < hi of good reduction."""
    for p in primes_up_to(hi - 1):
        if p < max(lo, 5) or (4 * curve.a4**3 + 27 * curve.a6**2) % p == 0:
            continue
        try:
            yield p, frobenius_element(curve, p)
        except Supersingular:
            continue


class TestTangentPrimes:
    # a row takes its primes from the tangent root c alone: P = (p, u - c),
    # and its pull-back along the involution, transported

    def test_the_tangent_primes_are_the_split_primes(self, curve_i, curve_z3):
        for curve in (curve_i, curve_z3):
            E = curve.cmfield.field
            O = maximal_order(E)
            conj, = (emb for emb in splitting_data(E).embeddings if not emb.is_identity())
            rows = 0
            for p, frob in _ordinary_rows(curve, 5, 2000):
                P = frob.prime_above
                Q, f = cmreflex._prime_below(P, conj, O)
                ours = sorted([P, Q], key=prime_sort_key)
                split = prime_split(p, O)
                assert f == 1 and ours == split, p  # FracIdeal equality is HNF equality
                pO = FracIdeal.unit_ideal(O).scaled(p)
                for mine, theirs in zip(ours, split):
                    assert (mine.e, mine.f) == (theirs.e, theirs.f) == (1, 1), p
                    assert frob.ideal.valuation(mine) == frob.ideal.valuation(theirs), p
                    assert pO.valuation(mine) == 1, p
                rows += 1
            assert rows > 100

    def test_a_double_root_gives_the_ramified_prime(self, curve_i, curve_z3):
        # u^2 + 1 = (u - 1)^2 mod 2 and u^2 + u + 1 = (u - 1)^2 mod 3
        for curve, p in ((curve_i, 2), (curve_z3, 3)):
            O = maximal_order(curve.cmfield.field)
            P = stverify._tangent_prime(curve, p, 1)
            Q, = prime_split(p, O)
            assert P == Q and (P.e, P.f) == (Q.e, Q.f) == (2, 1)
            assert FracIdeal.unit_ideal(O).scaled(p).valuation(P) == 2

    def test_a_root_that_is_no_root_is_refused(self, curve_i):
        # 2^2 + 1 = 5 is not 0 mod 13, so (13, u - 2) is the whole order
        with pytest.raises(InvariantViolated, match=r"\(13, u - 2\) has norm 1, not 13"):
            stverify._tangent_prime(curve_i, 13, 2)

    def test_rows_add_no_memo_entry_per_prime(self, curve_i, curve_z3):
        # the first sweep builds what a field needs once; a longer sweep over
        # new primes then leaves the same number of memo keys of every kind
        def sweep(lo, hi):
            for curve in (curve_i, curve_z3):
                E = curve.cmfield.field
                for _, frob in _ordinary_rows(curve, lo, hi):
                    assert st_check_ideal(frob, frob.cmtype, E, frob.prime_above)
                    assert st_check_valuations(frob, frob.cmtype, E, frob.prime_above)["ok"]
            return Counter(key[0] for key in memo._store)

        short = sweep(2000, 2100)
        assert sweep(2100, 2600) == short


class TestModelConsistency:
    def test_mismatched_endo_is_detected(self):
        # claim CM by Q(zeta3) for the curve whose CM field is Q(i): the
        # scaling map is not an endomorphism, so load_curve refuses the record
        # and point matching rejects a curve built past that check
        from cmfields.cmreflex import cm_check
        from cmfields.numfield import NumberField
        from cmfields.stverify import CMCurveQ
        from cmfields.unipoly import UniPoly

        E = NumberField(UniPoly([1, 1, 1]))
        cmf = cm_check(E)
        record = {"a4": -1, "a6": 0, "cm_disc": -3, "min_poly": (1, 1, 1),
                  "cm_endo": {"kind": "unit-scaling", "tangent": (0, 1)}}
        with pytest.raises(BadCorpus, match="is not an automorphism"):
            load_curve(record)
        fake = CMCurveQ(-1, 0, cmf, E.gen())
        with pytest.raises(IdentificationFailed):
            frobenius_element(fake, 13)

    def test_mistyped_phi_rejected(self, gauss_cm):
        from cmfields.cmreflex import CMType

        with pytest.raises(ValueError):
            CMType(gauss_cm, {0, 1})  # both members of one conjugate pair


class TestFrobeniusClass:
    def test_gauss_13(self, curve_i):
        assert frobenius_class_check(curve_i, 13)

    def test_eisenstein_7(self, curve_z3):
        assert frobenius_class_check(curve_z3, 7)

    def test_supersingular_error(self, curve_i):
        with pytest.raises(Supersingular):
            frobenius_class_check(curve_i, 7)
