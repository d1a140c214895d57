"""Tests for the exact number-field layer: factorization, automorphisms,
closures, certified embeddings, and their structural invariants."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, Poly, Rational, symbols

from cmfields import embeddings, modpoly, ratfactor
from cmfields.closure import splitting_data
from cmfields.cmreflex import cm_check, enumerate_cm_types, reflex_field
from cmfields.embeddings import Ball, _canonical_order, _root_up, certified_embeddings, locate_among
from cmfields.errors import BudgetExceeded, ClosureTooLarge
from cmfields.numfield import NumberField
from cmfields.ratfactor import factor_rational_poly
from cmfields.unipoly import UniPoly, sturm_real_root_count
from oracles import (
    canonical_order_by_union_find,
    contains_point,
    fraction_ball_eval,
    inverse_automorphism,
    nf_automorphisms,
)
from test_wire_cli import SURVEY_FIELDS


X = symbols("x")


def P(*coeffs):
    return UniPoly(coeffs)


def field(*coeffs):
    return NumberField(UniPoly(coeffs))


class TestFactorRationalPoly:
    def test_difference_of_squares(self):
        _, factors = factor_rational_poly(P(-1, 0, 1))
        assert factors == [(P(-1, 1), 1), (P(1, 1), 1)]

    def test_x2_plus_1_irreducible(self):
        assert factor_rational_poly(P(1, 0, 1)) == (1, [(P(1, 0, 1), 1)])

    def test_quartic_eisenstein_at_3(self):
        f = P(3, 0, 6, 0, 1)
        # independent Eisenstein check at 3: 3 | a0,a2, 9 does not divide a0
        assert all(int(c) % 3 == 0 for c in f.coeffs[:-1])
        assert int(f.coeffs[0]) % 9 != 0
        assert factor_rational_poly(f) == (1, [(f, 1)])

    def test_roundtrip_random_products(self):
        rng = random.Random(424242)
        for _ in range(1000):
            f = UniPoly([Fraction(rng.randint(1, 4))])
            for _ in range(rng.randint(1, 3)):
                deg = rng.randint(1, 4)
                mult = rng.randint(1, 2)
                if f.degree + deg * mult > 16:
                    continue
                c = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(deg)]
                f = f * UniPoly(c + [Fraction(1)]) ** mult
            unit, factors = factor_rational_poly(f)
            assert unit == f.lc()
            prod = UniPoly([unit])
            for g, m in factors:
                assert g.lc() == 1
                prod = prod * g**m
            assert prod == f

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            factor_rational_poly(UniPoly([1] + [0] * 16 + [1]))

    @staticmethod
    def sympy_factors(f):
        """sympy's irreducible factors of f over Q, made monic, with multiplicities."""
        poly = Poly([Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], X,
                    domain=QQ)
        out = []
        for g, m in poly.factor_list()[1]:
            g = g.monic()
            out.append((UniPoly([Fraction(int(c.p), int(c.q)) for c in reversed(g.all_coeffs())]),
                        m))
        return sorted(out, key=lambda kv: (kv[0].degree, kv[0].coeffs))

    def test_matches_sympy_factor_list(self):
        # seeded products of degree <= 16 with non-monic integer factors, powers
        # and a rational unit
        rng = random.Random(8080)
        degrees = set()
        for _ in range(60):
            f = UniPoly([Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))])
            for _ in range(rng.randint(1, 4)):
                deg, mult = rng.randint(1, 5), rng.randint(1, 3)
                if f.degree + deg * mult > 16:
                    continue
                c = [rng.randint(-6, 6) for _ in range(deg)] + [rng.choice([1, 1, 2, 3, -4])]
                f = f * UniPoly(c) ** mult
            unit, factors = factor_rational_poly(f)
            assert unit == f.lc()
            assert factors == self.sympy_factors(f), f
            degrees.add(f.degree)
        assert max(degrees) >= 14

    def test_recombination_when_f_splits_mod_every_prime(self):
        # x^4 - 10x^2 + 1 is irreducible but splits into factors of degree <= 2
        # mod every prime, so the lifted factors must be recombined
        f = P(1, 0, -10, 0, 1)
        g = P(4, 0, -16, 0, 1)
        for h in (f, f * g, f * g * P(-3, 0, 2)):
            assert factor_rational_poly(h)[1] == self.sympy_factors(h)
        assert factor_rational_poly(f) == (1, [(f, 1)])

    def test_lift_factors(self):
        # the lifted factors are monic, reduce to the factors mod p, and
        # multiply to f modulo the returned modulus
        rng = random.Random(77)
        polys = [[1, 0, -10, 0, 1]]
        for _ in range(4):
            f = [1]
            for _ in range(3):
                f = modpoly.mul(f, [rng.randint(-9, 9) for _ in range(rng.randint(1, 3))] + [1],
                                1 << 64)
            polys.append([c - (1 << 64) if c > 1 << 63 else c for c in f])
        for f in polys:
            for p in (3, 5, 7, 11, 13):
                fp = modpoly.trim([c % p for c in f])
                facs = modpoly.factor(fp, p)
                if len(fp) != len(f) or any(m > 1 for _, m in facs):
                    continue
                modular = [list(g) for g, _ in facs]
                modulus, lifted = ratfactor._lift_factors(f, modular, p, 10**40)
                k = 0
                while p**k < modulus:
                    k += 1
                assert p**k == modulus and modulus >= 10**40
                prod = [1]
                for g, g0 in zip(lifted, modular):
                    assert g[-1] == 1 and len(g) == len(g0)
                    assert modpoly.trim([c % p for c in g]) == g0
                    prod = modpoly.mul(prod, g, modulus)
                assert prod == [c % modulus for c in f]

    def test_a_repeated_modular_factor_raises_under_optimize(self):
        # a factorization mod p that repeats a factor of a polynomial found
        # squarefree mod p raises InvariantViolated, also under python -O
        code = textwrap.dedent("""
            from cmfields import modpoly
            from cmfields.errors import InvariantViolated
            from cmfields.ratfactor import factor_rational_poly
            from cmfields.unipoly import UniPoly

            factor = modpoly.factor

            def doubled(g, p):
                (f, m), *rest = factor(g, p)
                return [(f, 2 * m)] + rest

            modpoly.factor = doubled
            print("debug", __debug__)
            try:
                factor_rational_poly(UniPoly([1, 0, 1]))
            except InvariantViolated as exc:
                print("raised", exc)
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, env=env, timeout=300)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == [
            "debug False", "raised repeated factor mod 3 after a squarefree test"]


class TestAutomorphisms:
    def test_gaussian_field(self):
        K = field(1, 0, 1)
        autos = nf_automorphisms(K)
        assert len(autos) == 2
        images = sorted(a.image_of_generator.coords for a in autos)
        assert images == [(0, -1), (0, 1)]

    def test_cubic_nonnormal(self):
        K = field(-2, 0, 0, 1)
        autos = nf_automorphisms(K)
        assert len(autos) == 1
        assert autos[0].is_identity()

    def test_cyclotomic_quintic(self):
        K = field(1, 1, 1, 1, 1)
        assert len(nf_automorphisms(K)) == 4

    def test_closure_under_composition_and_inverse(self):
        for coeffs in [(1, 0, 1), (1, 1, 1, 1, 1), (3, 0, 6, 0, 1)]:
            K = field(*coeffs)
            autos = nf_automorphisms(K)
            keys = {a.image_of_generator.coords for a in autos}
            for a in autos:
                for b in autos:
                    assert a.compose(b).image_of_generator.coords in keys
                assert inverse_automorphism(a).image_of_generator.coords in keys


def _cycle_type(p):
    seen, out = set(), []
    for i in range(len(p)):
        if i in seen:
            continue
        c, j = 0, i
        while j not in seen:
            seen.add(j)
            j = p[j]
            c += 1
        out.append(c)
    return tuple(sorted(out))


class TestGaloisClosure:
    def test_quadratic_is_its_own_closure(self):
        K = field(1, 0, 1)
        sd = splitting_data(K)
        L, embeds, group = sd.closure, sd.embeddings, sd.perm
        assert L.degree == 2 and len(embeds) == 2 and len(group) == 2

    def test_cyclotomic_c4(self):
        K = field(1, 1, 1, 1, 1)
        sd = splitting_data(K)
        L, embeds, group = sd.closure, sd.embeddings, sd.perm
        assert L.degree == 4
        assert sorted(_cycle_type(p) for p in group) == [
            (1, 1, 1, 1),
            (2, 2),
            (4,),
            (4,),
        ]

    def test_quartic_d4(self):
        K = field(3, 0, 6, 0, 1)
        sd = splitting_data(K)
        L, embeds, group = sd.closure, sd.embeddings, sd.perm
        assert L.degree == 8
        assert len(group) == 8
        types = [_cycle_type(p) for p in group]
        # D4 acting on the four roots: identity, two 4-cycles, three double
        # transpositions, two transpositions fixing two roots
        assert types.count((4,)) == 2
        assert types.count((2, 2)) == 3
        assert types.count((1, 1, 2)) == 2
        assert types.count((1, 1, 1, 1)) == 1

    def test_group_transitive_on_embeddings(self):
        K = field(3, 0, 6, 0, 1)
        sd = splitting_data(K)
        embeds, group = sd.embeddings, sd.perm
        orbit = {p[0] for p in group}
        assert orbit == set(range(len(embeds)))

    def test_closure_cap(self):
        with pytest.raises(ClosureTooLarge):
            # x^8 - x - 1 has S8 closure, far beyond the cap
            splitting_data(field(-1, -1, 0, 0, 0, 0, 0, 0, 1))


class TestCertifiedEmbeddings:
    def test_gaussian_roots(self):
        K = field(1, 0, 1)
        embs = certified_embeddings(K, 64)
        assert len(embs) == 2
        for e in embs:
            assert e.ball.rad < Fraction(1, 2**60)
            assert abs(e.ball.re) <= e.ball.rad
            assert e.conj_index() == 1 - e.root_index

    def test_real_quadratic(self):
        K = field(-2, 0, 1)
        embs = certified_embeddings(K)
        vals = sorted(float(e.ball.re) for e in embs)
        assert abs(vals[0] + 1.41421356237) < 1e-8 and abs(vals[1] - 1.41421356237) < 1e-8
        assert all(e.conj_index() == e.root_index for e in embs)

    def test_quartic_purely_imaginary(self):
        K = field(3, 0, 6, 0, 1)
        assert sturm_real_root_count(K.min_poly) == 0
        assert K.min_poly.is_even_poly()
        embs = certified_embeddings(K, 128)
        # purely imaginary roots: the even-structure oracle says x^2 is a real
        # negative number for every root; certified intervals must agree
        g = K.gen()
        for e in embs:
            sq = e.eval(g * g)
            assert abs(sq.im) <= sq.rad
            assert sq.re + sq.rad < 0
        pairs = {(e.root_index, e.conj_index()) for e in embs}
        assert all((b, a) in pairs for a, b in pairs)
        assert all(a != b for a, b in pairs)

    def test_disjoint_intervals(self):
        for coeffs in [(1, 0, 1), (1, 1, 1, 1, 1), (3, 0, 6, 0, 1)]:
            embs = certified_embeddings(field(*coeffs), 64)
            for i, a in enumerate(embs):
                for b in embs[i + 1 :]:
                    assert a.ball.is_disjoint(b.ball)

    def test_precision_monotonicity(self):
        K = field(3, 0, 6, 0, 1)
        base = certified_embeddings(K, 64)
        fine = certified_embeddings(K, 1024)
        for e0, e1 in zip(base, fine):
            assert e1.root_index == e0.root_index
            assert e1.ball.rad < e0.ball.rad
            assert contains_point(e0.ball, e1.ball.re, e1.ball.im)

    def test_embedding_composed_with_automorphism(self):
        # for every automorphism s and embedding phi, phi.s is an embedding
        K = field(1, 1, 1, 1, 1)
        embs = certified_embeddings(K, 128)
        for sigma in nf_automorphisms(K):
            img = sigma.image_of_generator
            for e in embs:
                ball = e.eval(img)
                hits = [f for f in embs if not ball.is_disjoint(f.ball)]
                assert len(hits) == 1


def _ball_test_fields():
    """The survey fields, their Galois closures and every reflex field, once each."""
    out = {}
    for coeffs in SURVEY_FIELDS:
        K = field(*coeffs)
        out.setdefault(K.min_poly, K)
        L = splitting_data(K).closure
        out.setdefault(L.min_poly, L)
        for t in enumerate_cm_types(cm_check(K)):
            R = reflex_field(t).reflex_field
            out.setdefault(R.min_poly, R)
    return list(out.values())


def _mp(q):
    return mpmath.mpf(q.numerator) / q.denominator


def _mpf_fraction(x):
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _root_finder_fields():
    """The survey closures, x^16 + 1, Phi_17, an Eisenstein quartic with a
    1102-bit coefficient (its roots reach 2^367, so a float start at 1024
    bits would overflow) and the pair of roots 2^-139.5 apart."""
    return [splitting_data(field(*coeffs)).closure for coeffs in SURVEY_FIELDS] + [
        field(1, *[0] * 15, 1),
        field(*[1] * 17),
        NumberField(UniPoly([3, 3 * (2**1100 + 1), 0, 0, 1]), check=False),
        field(1 - Fraction(1, 2**279), -2, 1),
    ]


def _oracle_root_indices(levels):
    """For each certified disk of each level, the index of the one mpmath root in it.

    mpmath runs 48 bits beyond the smallest nonzero radius (or the ball
    exponent, if every disk is a point) plus the size of the largest
    coefficient; a root counts as inside when it lies within the radius plus
    2^-16 of that smallest radius.
    """
    F = levels[0][0].field
    balls = [e.ball for embs in levels for e in embs]
    fine = max((b.k - b.r.bit_length() for b in balls if b.r), default=balls[-1].k)
    prec = fine + max(abs(c).bit_length() for c in F.min_poly.int_coeffs()[0]) + 48
    with mpmath.workprec(prec):
        roots = mpmath.polyroots([_mp(c) for c in reversed(F.min_poly.coeffs)],
                                 maxsteps=500, extraprec=prec)
        roots = [mpmath.mpc(r) for r in roots]
    roots = [(_mpf_fraction(r.real), _mpf_fraction(r.imag)) for r in roots]
    tol = Fraction(1, 2 ** (fine + 16))
    out = []
    for embs in levels:
        out.append([])
        for e in embs:
            inside = [i for i, (x, y) in enumerate(roots)
                      if (x - e.ball.re) ** 2 + (y - e.ball.im) ** 2 <= (e.ball.rad + tol) ** 2]
            assert len(inside) == 1, (F, e)
            out[-1].extend(inside)
    return out


class TestRootFinder:
    def test_every_disk_holds_one_root_at_every_level(self):
        # each certified disk holds exactly one root, at the base level and
        # at 1024 and 4096 bits, and a refined disk lies wholly inside the
        # base disk with its index, so it holds that disk's root
        for F in _root_finder_fields():
            levels = [certified_embeddings(F, bits) for bits in (64, 1024, 4096)]
            assert [embs[0].bits for embs in levels[1:]] == [1024, 4096]
            base, *found = _oracle_root_indices(levels)
            assert sorted(base) == list(range(F.degree))
            assert all(f == base for f in found)
            for embs in levels[1:]:
                for e, b in zip(embs, levels[0]):
                    assert e.ball.within(b.ball)

    def test_sweep_order_matches_union_find_oracle(self):
        # 100,000 seeded sets of up to six disks on a small grid, so touching
        # re- and im-intervals, tied centres and point disks are common: the
        # sweep returns the oracle's order, or its None
        rng = random.Random(24)
        undecided = 0
        for _ in range(100_000):
            disks = [Ball(rng.randint(-8, 8), rng.randint(-8, 8), rng.randint(0, 3), 7)
                     for _ in range(rng.randint(1, 6))]
            order = _canonical_order(disks)
            assert order == canonical_order_by_union_find(disks), disks
            undecided += order is None
        assert 30_000 < undecided < 70_000

    def test_close_roots_escalate_and_large_roots_do_not(self):
        # the pair 2^-139.5 apart is only separated above 64 bits; the
        # Eisenstein quartic with roots up to 2^367 certifies at the base
        fields = _root_finder_fields()
        assert certified_embeddings(fields[-1])[0].bits > 64
        assert certified_embeddings(fields[-2])[0].bits == 64


class TestBallLayer:
    def test_eval_against_fraction_oracle_and_mpmath(self):
        # every embedded value lies in its ball (checked on mpmath's value at
        # 4x the precision), meets the Fraction-ball oracle's disk and is at
        # most twice as wide
        rng = random.Random(13)
        fields = _ball_test_fields()
        assert len(fields) > len(SURVEY_FIELDS)
        for F in fields:
            elems = [F.element([Fraction(rng.randint(-50, 50), rng.randint(1, 30))
                                for _ in range(F.degree)]) for _ in range(3)]
            for bits in (64, 256):
                embs = certified_embeddings(F, bits)
                with mpmath.workprec(4 * embs[0].bits):
                    roots = mpmath.polyroots([_mp(c) for c in reversed(F.min_poly.coeffs)],
                                             maxsteps=300, extraprec=4 * embs[0].bits)
                for e in embs:
                    c = complex(float(e.ball.re), float(e.ball.im))
                    with mpmath.workprec(4 * e.bits):
                        z = min(roots, key=lambda r: abs(complex(r) - c))
                        vals = [mpmath.mpc(mpmath.polyval([_mp(q) for q in reversed(x.coords)], z))
                                for x in elems]
                    for x, v in zip(elems, vals):
                        ball = e.eval(x)
                        assert contains_point(ball, _mpf_fraction(v.real), _mpf_fraction(v.imag))
                        ore, oim, orad = fraction_ball_eval(
                            (e.ball.re, e.ball.im, e.ball.rad), x.coords, e.bits)
                        assert (ball.re - ore) ** 2 + (ball.im - oim) ** 2 <= (ball.rad + orad) ** 2
                        assert ball.rad <= 2 * orad

    def test_within_is_exact_containment(self):
        # a disk inside another, touching it from inside, and poking out by
        # one ulp at a finer exponent
        outer = Ball(0, 0, 5, 0)
        assert Ball(6, 8, 0, 1).within(outer)
        assert Ball(6, 8, 0, 1).within(Ball(6, 8, 0, 1))
        assert Ball(3, 0, 2, 0).within(outer)
        assert not Ball(7, 0, 3, 1).within(Ball(0, 0, 2, 0))
        assert not Ball(3, 0, 3, 0).within(outer)
        assert not outer.within(Ball(0, 0, 1, 0))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 16), st.integers(1, 1 << 3000), st.integers(1, 1 << 3000))
    def test_rounded_up_root(self, n, num, den):
        u, t = _root_up(num, den, n)
        x = Fraction(num, den)
        un = Fraction(u**n) / Fraction(2) ** (n * t)
        assert x <= un <= x * (1 + Fraction(1, 1 << 50))

    def test_locate_among_escalates_between_close_roots(self):
        # T = Q(1 + sqrt2/2^140): its two roots are 2^-139.5 apart, so the
        # 64-bit image of 1 + sqrt2/2^140 meets both root disks and the
        # location must refine; it lands on the root of the same sign
        K = field(-2, 0, 1)
        T = field(1 - Fraction(1, 2**279), -2, 1)
        x = 1 + K.gen() * Fraction(1, 2**140)
        targets = certified_embeddings(T)
        for j, e in enumerate(certified_embeddings(K)):
            ball = e.eval(x)
            assert sum(1 for f in targets if ball.intersects(f.ball)) == 2
            assert locate_among(e, x, T) == j

    def test_locate_among_out_of_budget_is_a_typed_failure(self, monkeypatch):
        # the 64-bit image meets both roots (see above), so with _MAX_BITS
        # lowered to 64 once T's base is certified, the one refinement budget
        # runs out with BudgetExceeded (exit 4 from the CLI), not a bare
        # RuntimeError
        K = field(-2, 0, 1)
        T = field(1 - Fraction(1, 2**279), -2, 1)
        x = 1 + K.gen() * Fraction(1, 2**140)
        certified_embeddings(T)
        monkeypatch.setattr(embeddings, "_MAX_BITS", 64)
        for e in certified_embeddings(K):
            with pytest.raises(BudgetExceeded, match="embedding refinement budget exceeded"):
                locate_among(e, x, T)


class TestPerFieldMemo:
    def test_equal_fields_share_results(self):
        # distinct but equal field objects get the very results built for
        # the first one: per-field work is keyed by the minimal polynomial
        K1, K2 = field(7, 0, 5, 0, 1), field(7, 0, 5, 0, 1)
        assert K1 is not K2 and K1 == K2
        assert splitting_data(K1) is splitting_data(K2)
        assert certified_embeddings(K1, 256) is certified_embeddings(K2, 256)
        assert certified_embeddings(K1) is certified_embeddings(K2)
        assert splitting_data(K2).closure.degree == 8
        assert certified_embeddings(K1) is not certified_embeddings(K1, 256)
        assert splitting_data(K1) is not splitting_data(field(7, 0, 6, 0, 1))
