"""Acceptance criteria.

Each test implements one numbered criterion at its stated tolerance (all are
exact identities or oracle equalities) and prints one pass/fail line. Run
with `pytest tests/test_acceptance.py -s` to see the lines as they complete.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from cmfields.closure import splitting_data
from cmfields.cmreflex import cm_check, enumerate_cm_types, verify_reflex_identities
from cmfields.errors import Supersingular
from cmfields.ideals import FracIdeal, coprime_scale, prime_split
from cmfields.intutil import primes_up_to
from cmfields.latticeav import amul, amul_degree, compose, factor_through, hom_ideal, isogeny_classes
from cmfields.numfield import NumberField
from cmfields.orders import maximal_order
from cmfields.polar import TypeQuadruple, find_riemann_element, quadruples_equivalent
from cmfields.rayclass import Modulus, ray_class_group, reflex_transport_check
from cmfields.stverify import (
    DEFAULT_CORPUS,
    frobenius_element,
    load_curve,
    st_check_ideal,
    st_check_valuations,
    st_rhs,
)
from cmfields.unipoly import UniPoly

from oracles import bqf_class_number, totient_of_modulus
from test_ideals import random_ideal


def _report(number, ok, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def _quadratic_field(d):
    if d % 4 == 1:
        return NumberField(UniPoly([Fraction(1 - d, 4), -1, 1]))
    return NumberField(UniPoly([-d // 4, 0, 1]))


def test_criterion_1_shimura_taniyama_dimension_one():
    t0 = time.time()
    checked = skipped = 0
    for rec in DEFAULT_CORPUS:
        curve = load_curve(rec)
        E = curve.cmfield.field
        disc = -16 * (4 * curve.a4**3 + 27 * curve.a6**2)
        for p in primes_up_to(999):
            if p < 5 or disc % p == 0:
                continue
            try:
                frob = frobenius_element(curve, p)
            except Supersingular:
                skipped += 1
                continue
            assert st_check_ideal(frob, frob.cmtype, E, frob.prime_above), (rec, p)
            checked += 1
    elapsed = time.time() - t0
    _report(
        1,
        checked >= 150 and elapsed < 60,
        f"(pi) = st_rhs exactly at {checked} ordinary primes p < 1000 "
        f"({skipped} supersingular skipped) in {elapsed:.1f}s",
    )


def test_criterion_2_valuation_identities():
    t0 = time.time()
    checked = 0
    for rec in DEFAULT_CORPUS:
        curve = load_curve(rec)
        E = curve.cmfield.field
        disc = -16 * (4 * curve.a4**3 + 27 * curve.a6**2)
        for p in primes_up_to(999):
            if p < 5 or disc % p == 0:
                continue
            try:
                frob = frobenius_element(curve, p)
            except Supersingular:
                continue
            rep = st_check_valuations(frob, frob.cmtype, E, frob.prime_above)
            assert rep["ok"], (rec, p)
            checked += 1
    # symbolic equivalence of the two valuation forms for Q(zeta5)
    zeta5 = NumberField(UniPoly([1, 1, 1, 1, 1]))
    cmf = cm_check(zeta5)
    t = enumerate_cm_types(cmf)[1]
    O = maximal_order(zeta5)
    symbolic = 0
    for p in primes_up_to(199):
        if p == 5:
            continue
        P = prime_split(p, O)[0]
        rhs = st_rhs(t, zeta5, P)
        rep = st_check_valuations(rhs, t, zeta5, P)
        assert rep["ok"], p
        symbolic += 1
        if symbolic >= 20:
            break
    _report(
        2,
        checked >= 150 and symbolic == 20,
        f"valuation identities exact at {checked} curve primes and "
        f"{symbolic} symbolic zeta5 primes ({time.time() - t0:.1f}s)",
    )


def test_criterion_3_reflex_identity_suite():
    t0 = time.time()
    cases = [
        ((1, 0, 1), None),
        ((5, 0, 1), None),
        ((1, 1, 1, 1, 1), None),
        ((3, 0, 6, 0, 1), "closure"),
    ]
    total_types = 0
    for coeffs, k_mode in cases:
        field = NumberField(UniPoly(list(coeffs)))
        cmf = cm_check(field)
        k = splitting_data(field).closure if k_mode == "closure" else field
        for t in enumerate_cm_types(cmf):
            rep = verify_reflex_identities(t, k, 100, seed=20260809, norm_bound=200)
            assert rep["ok"], (coeffs, t.indices(), rep)
            assert rep["identities"]["conjugate_product_elements"]["pass"] == 100
            total_types += 1
    elapsed = time.time() - t0
    _report(
        3,
        total_types == 12 and elapsed < 120,
        f"identity suite exact for {total_types} CM-pairs, 100 element samples "
        f"each, all split-able primes of norm < 200 ({elapsed:.1f}s)",
    )


def test_criterion_4_class_number_bijection():
    t0 = time.time()
    discs = []
    for d in range(-3, -100, -1):
        if d % 4 == 1 and _squarefree(-d):
            discs.append(d)
        elif d % 4 == 0 and (-d // 4) % 4 in (1, 2) and _squarefree(-d // 4):
            # m = -d/4 must be squarefree with m = 1, 2 mod 4 ... careful below
            pass
    # fundamental even discriminants: d = 4m, m squarefree, m = 2 or 3 mod 4
    for d in range(-4, -100, -4):
        m = d // 4
        if _squarefree(-m) and (-m) % 4 in (1, 2):
            discs.append(d)
    discs = sorted(set(discs), reverse=True)
    assert discs[0] == -3 and -4 in discs and -20 in discs
    for d in discs:
        field = _quadratic_field(d)
        order = maximal_order(field)
        assert order.disc() == d
        cmf = cm_check(field)
        t = enumerate_cm_types(cmf)[0]
        mine = len(isogeny_classes(cmf, t))
        oracle = bqf_class_number(d)
        assert mine == oracle, (d, mine, oracle)
    _report(
        4,
        len(discs) >= 30,
        f"|isogeny classes| = form class number for all {len(discs)} "
        f"fundamental discriminants -3 >= d > -100 ({time.time() - t0:.1f}s)",
    )


def _squarefree(n):
    for q in range(2, math.isqrt(n) + 1):
        if n % (q * q) == 0:
            return False
    return True


def test_criterion_5_amultiplication_calculus():
    t0 = time.time()
    from cmfields.latticeav import LatticeAV

    fields = [
        NumberField(UniPoly([1, 0, 1])),
        NumberField(UniPoly([5, 0, 1])),
        NumberField(UniPoly([1, 1, 1, 1, 1])),
    ]
    cmfs = [cm_check(f) for f in fields]
    models = [
        LatticeAV(enumerate_cm_types(c)[0], FracIdeal.unit_ideal(maximal_order(f)))
        for c, f in zip(cmfs, fields)
    ]
    rng = random.Random(808)
    counts = {"degree": 0, "compose": 0, "factor": 0, "hom": 0}
    while min(counts.values()) < 500:
        idx = rng.randrange(len(models))
        A = models[idx]
        O = A.lattice.order
        a = random_ideal(O, rng, prime_bound=30)
        b = random_ideal(O, rng, prime_bound=30)
        a, b = a.scaled(a.den), b.scaled(b.den)
        lam = amul(A, a)
        assert amul_degree(lam) == int(a.norm())
        counts["degree"] += 1
        mu = amul(lam.target, b)
        both = compose(lam, mu)
        assert amul_degree(both) == amul_degree(lam) * amul_degree(mu)
        counts["compose"] += 1
        nu = amul(A, b)
        assert factor_through(lam, nu) == a.contains_ideal(b)
        counts["factor"] += 1
        B = LatticeAV(A.cmtype, b.inverse())
        assert hom_ideal(A, B) == B.lattice * A.lattice.inverse()
        assert hom_ideal(A, B) == b.inverse()
        counts["hom"] += 1
    _report(
        5,
        all(v >= 500 for v in counts.values()),
        f"degree/composition/factor-through/Hom laws exact on "
        f">= 500 instances each ({time.time() - t0:.1f}s)",
    )


def test_criterion_6_riemann_layer():
    t0 = time.time()
    corpus = [
        NumberField(UniPoly([1, 0, 1])),
        NumberField(UniPoly([5, 0, 1])),
        NumberField(UniPoly([1, 1, 1, 1, 1])),
        NumberField(UniPoly([3, 0, 6, 0, 1])),
    ]
    pairs = 0
    for field in corpus:
        cmf = cm_check(field)
        for t in enumerate_cm_types(cmf):
            find_riemann_element(t)  # raises on failure
            pairs += 1
    # completeness + constructed round trips on imaginary quadratics
    rng = random.Random(606)
    rounds = 0
    for field in corpus[:2]:
        cmf = cm_check(field)
        t = enumerate_cm_types(cmf)[0]
        O = maximal_order(field)
        alpha = find_riemann_element(t).alpha
        q1 = TypeQuadruple(t, FracIdeal.unit_ideal(O), alpha)
        while rounds < 100 * (corpus.index(field) + 1):
            a = field.element([rng.randint(-6, 6), rng.randint(-6, 6)])
            if a.is_zero():
                continue
            q2 = TypeQuadruple(
                t, q1.ideal.mult_by_element(a), q1.t / (a * cmf.conj(a))
            )
            w = quadruples_equivalent(q1, q2)
            assert w is not None
            assert q2.ideal == q1.ideal.mult_by_element(w)
            assert q2.t == q1.t / (w * cmf.conj(w))
            rounds += 1
    _report(
        6,
        pairs == 12 and rounds == 200,
        f"Riemann elements for all {pairs} corpus pairs; equivalence complete "
        f"with {rounds} constructed round trips ({time.time() - t0:.1f}s)",
    )


def test_criterion_7_ray_class_and_transport():
    t0 = time.time()
    from cmfields.ideals import factor_ideal

    gauss = NumberField(UniPoly([1, 0, 1]))
    sqrt5 = NumberField(UniPoly([5, 0, 1]))
    zeta5 = NumberField(UniPoly([1, 1, 1, 1, 1]))
    gauss_cm, sqrt5_cm, zeta5_cm = map(cm_check, (gauss, sqrt5, zeta5))
    groups = 0
    for field, cmf, h in ((gauss, gauss_cm, 1), (sqrt5, sqrt5_cm, 2)):
        O = maximal_order(field)
        moduli = [FracIdeal.unit_ideal(O)]
        for val in (2, 3, 4, 5, 7, 9, 11, 13, 15, 21):
            cand = FracIdeal.principal(O, field.one() * val)
            if cand.norm() <= 500:
                moduli.append(cand)
        for m_ideal in moduli:
            G = ray_class_group(cmf, Modulus(m_ideal))
            phi = (
                totient_of_modulus(factor_ideal(m_ideal))
                if m_ideal.norm() > 1
                else 1
            )
            assert G.order_count * G._unit_image_size == phi * h, m_ideal
            groups += 1
    # transport: 50 samples each for Q(i) and Q(zeta5)
    O = maximal_order(gauss)
    rep1 = reflex_transport_check(
        enumerate_cm_types(gauss_cm)[0], 3,
        FracIdeal.principal(O, gauss.one() * 3), 50, seed=77,
    )
    assert rep1["ok"], rep1
    Oz = maximal_order(zeta5)
    rep2 = reflex_transport_check(
        enumerate_cm_types(zeta5_cm)[0], 2,
        FracIdeal.principal(Oz, zeta5.one() * 2), 50, seed=78,
    )
    assert rep2["ok"], rep2
    # coprime_scale on 500 seeded instances
    rng = random.Random(505)
    scaled = 0
    for field in (gauss, sqrt5):
        O = maximal_order(field)
        while scaled < 250 * ((field == sqrt5) + 1):
            a = random_ideal(O, rng, prime_bound=20)
            m = rng.choice([2, 3, 4, 5, 6, 10, 12])
            _, b = coprime_scale(a, m)
            assert b.is_integral() and math.gcd(int(b.norm()), m) == 1
            scaled += 1
    _report(
        7,
        groups >= 20 and scaled == 500,
        f"exact sequence verified for {groups} ray class groups; transport "
        f"passes with 50 samples on Q(i) and Q(zeta5); coprime_scale coprime "
        f"on {scaled} instances ({time.time() - t0:.1f}s)",
    )


def test_criterion_8_negative_controls():
    t0 = time.time()
    # conjugate-swapped pi must fail the ideal identity at split primes
    curve = load_curve(DEFAULT_CORPUS[0])
    E = curve.cmfield.field
    O = maximal_order(E)
    swaps_fail = 0
    for p in (13, 17, 29, 37, 41):
        frob = frobenius_element(curve, p)
        swapped = FracIdeal.principal(O, curve.cmfield.conj(frob.pi))
        assert swapped != st_rhs(frob.cmtype, E, frob.prime_above)
        swaps_fail += 1
    # dropping the ray congruence must produce nontrivial transport classes
    gauss_cm = cm_check(E)
    rep = reflex_transport_check(
        enumerate_cm_types(gauss_cm)[0], 3,
        FracIdeal.principal(O, E.one() * 3), 40, seed=90,
        negative_control=True,
    )
    assert rep["nontrivial_seen"], rep
    _report(
        8,
        swaps_fail == 5 and rep["nontrivial_seen"],
        f"conjugate swap fails the ideal identity at {swaps_fail} split primes; "
        f"coprime-only betas produce nontrivial classes ({time.time() - t0:.1f}s)",
    )
