"""Tests for the exact number-field layer: factorization, automorphisms,
closures, certified embeddings, and their structural invariants."""

import random
from fractions import Fraction

import pytest

from cmfields.closure import galois_closure, nf_automorphisms, splitting_data
from cmfields.embeddings import certified_embeddings
from cmfields.errors import ClosureTooLarge
from cmfields.numfield import NumberField
from cmfields.ratfactor import factor_rational_poly
from cmfields.unipoly import UniPoly, sturm_real_root_count


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
                assert a.inverse_automorphism().image_of_generator.coords in keys


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
        L, embeds, group = galois_closure(K)
        assert L.degree == 2 and len(embeds) == 2 and len(group) == 2

    def test_cyclotomic_c4(self):
        K = field(1, 1, 1, 1, 1)
        L, embeds, group = galois_closure(K)
        assert L.degree == 4
        assert sorted(_cycle_type(p) for p in group) == [
            (1, 1, 1, 1),
            (2, 2),
            (4,),
            (4,),
        ]

    def test_quartic_d4(self):
        K = field(3, 0, 6, 0, 1)
        L, embeds, group = galois_closure(K)
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
        _, embeds, group = galois_closure(K)
        orbit = {p[0] for p in group}
        assert orbit == set(range(len(embeds)))

    def test_closure_cap(self):
        with pytest.raises(ClosureTooLarge):
            # x^8 - x - 1 has S8 closure, far beyond the cap
            galois_closure(field(-1, -1, 0, 0, 0, 0, 0, 0, 1))


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
            assert e0.ball.contains_point(e1.ball.re, e1.ball.im)

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
