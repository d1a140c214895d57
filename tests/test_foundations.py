"""Integer utilities, mod-p polynomial factorization, and polynomial basics."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import Matrix, Poly, Symbol, factorint, nextprime

from cmfields import modpoly
from cmfields.intutil import (
    factorize,
    iroot,
    is_prime,
    isqrt_exact,
    primes_up_to,
    quadratic_roots_mod,
    root_upper,
    sqrt_mod,
    xgcd,
)
from cmfields.principal import fincke_pohst, lll_gram
from cmfields.unipoly import UniPoly, poly_gcd, sturm_real_root_count
from oracles import poly_discriminant, poly_gcd_by_euclid, poly_xgcd, sylvester_resultant


class TestIntUtil:
    def test_primes(self):
        assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert is_prime(10**9 + 7) and not is_prime(10**9 + 8)

    def test_factorize_roundtrip(self):
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randint(2, 10**12)
            fac = factorize(n)
            prod = 1
            for p, e in fac.items():
                assert is_prime(p)
                prod *= p**e
            assert prod == n

    # Pollard rho against sympy on products of 2-3 primes of 16-40 bits and on
    # prime powers; every prime is below 2^40 + 2^16
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.one_of(
        st.lists(st.integers(1 << 15, 1 << 40), min_size=2, max_size=3),
        st.tuples(st.integers(1 << 15, 1 << 40), st.integers(2, 4)).map(
            lambda t: [t[0]] * t[1]),
    ))
    def test_factorize_matches_sympy(self, starts):
        n = math.prod(nextprime(s) for s in starts)
        fac = factorize(n)
        assert list(fac) == sorted(fac)
        assert fac == factorint(n)

    def test_roots(self):
        assert isqrt_exact(144) == 12 and isqrt_exact(145) is None
        assert iroot(1000, 3) == 10 and iroot(999, 3) == 9

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 16), st.integers(0, 1 << 20000))
    def test_iroot_is_the_floor(self, k, n):
        r = iroot(n, k)
        assert r**k <= n < (r + 1) ** k

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 16), st.integers(0, 1 << (20000 // 16)))
    def test_iroot_near_exact_powers(self, k, r):
        assert iroot(r**k, k) == r
        for n in (r**k - 1, r**k + 1):
            if n >= 0:
                s = iroot(n, k)
                assert s**k <= n < (s + 1) ** k

    def test_iroot_rejects_negative(self):
        with pytest.raises(ValueError):
            iroot(-1, 3)

    def test_root_upper_bounds_the_root(self):
        rng = random.Random(5)
        for _ in range(200):
            k = rng.randint(1, 8)
            x = Fraction(rng.randint(0, 10**40), rng.randint(1, 10**20))
            u = root_upper(x, k)
            assert u >= 0 and u**k >= x

    def test_xgcd(self):
        g, x, y = xgcd(240, 46)
        assert g == 2 and 240 * x + 46 * y == 2

    def test_sqrt_mod(self):
        for p in (5, 13, 10007):
            for a in (1, 2, 3, 4):
                r = sqrt_mod(a, p)
                if r is not None:
                    assert r * r % p == a % p

    def test_quadratic_roots_mod_against_brute_force(self):
        for p in primes_up_to(59)[1:]:
            for c in range(p):
                for b in range(p):
                    roots = [x for x in range(p) if (x * x + b * x + c) % p == 0]
                    assert quadratic_roots_mod(c, b, p) == roots, (c, b, p)


class TestModPoly:
    def test_factor_roundtrip(self):
        rng = random.Random(9)
        for _ in range(150):
            p = rng.choice([2, 3, 5, 13, 101])
            deg = rng.randint(1, 8)
            f = [rng.randrange(p) for _ in range(deg)] + [1]
            f = modpoly.trim(list(f))
            if len(f) < 2:
                continue
            fac = modpoly.factor(f, p)
            prod = [1]
            for g, m in fac:
                for _ in range(m):
                    prod = modpoly.mul(prod, list(g), p)
            assert prod == modpoly.monic(f, p)
            for g, _ in fac:
                # sympy's GF(p) irreducibility test, coefficients leading first
                assert Poly(list(g[::-1]), Symbol("x"), modulus=p).is_irreducible, (g, p)

    def test_known_splittings(self):
        assert len(modpoly.factor([1, 0, 1], 5)) == 2   # x^2+1 = (x-2)(x+2) mod 5
        assert len(modpoly.factor([1, 0, 1], 7)) == 1   # irreducible mod 7
        f2 = modpoly.factor([1, 0, 1], 2)               # (x+1)^2 mod 2
        assert f2 == [((1, 1), 2)]

    def test_low_degree_factor_test_against_factor(self):
        # has_factor_of_degree_at_most(f, d, p) is "some irreducible factor of
        # f has degree <= d", read off modpoly.factor; f runs over random
        # polynomials, squares and p-th powers f(x^p), which are not squarefree
        rng = random.Random(14)
        for _ in range(150):
            p = rng.choice([2, 3, 5, 7, 101])
            deg = rng.randint(1, 8 if p < 101 else 5)
            f = modpoly.trim([rng.randrange(p) for _ in range(deg)] + [1])
            kind = rng.randrange(3)
            if kind == 1:
                f = modpoly.mul(f, f, p)
            elif kind == 2 and deg * p <= 24:
                h = [0] * (p * (len(f) - 1) + 1)
                h[::p] = f
                f = h
            degrees = [len(g) - 1 for g, _ in modpoly.factor(f, p)]
            for d in range(len(f) + 1):
                assert modpoly.has_factor_of_degree_at_most(f, d, p) == (
                    any(e <= d for e in degrees)
                ), (f, p, d)

    def test_factor_against_sympy(self):
        # the monic irreducible factors with their multiplicities, and the
        # low-degree test read off them, against sympy's factor_list over
        # GF(p): seeded f of degree up to 16 at p from 2 to about 1000, half of
        # them at p < 15, with squares and p-th powers f(x^p) mixed in
        rng = random.Random(29)
        x = Symbol("x")
        primes = primes_up_to(1000)
        for trial in range(300):
            p = rng.choice(primes[:6] if trial % 2 else primes)
            deg = rng.randint(1, 16)
            f = modpoly.trim([rng.randrange(p) for _ in range(deg)] + [1])
            if trial % 3 == 1:
                f = modpoly.mul(f, f, p)
            elif trial % 3 == 2 and deg * p <= 40:
                h = [0] * (p * (len(f) - 1) + 1)
                h[::p] = f
                f = h
            _, factors = Poly(list(reversed(f)), x, modulus=p).factor_list()
            expected = sorted(
                (tuple(modpoly.monic([int(c) % p for c in reversed(g.all_coeffs())], p)), m)
                for g, m in factors
            )
            assert modpoly.factor(f, p) == expected, (f, p)
            degrees = [len(g) - 1 for g, _ in expected]
            for d in range(1, 6):
                assert modpoly.has_factor_of_degree_at_most(f, d, p) == (min(degrees) <= d), (
                    f, p, d)


class TestFinckePohst:
    def test_against_naive_box(self):
        # random positive definite Gram matrices: the enumerator must return
        # exactly the vectors a brute-force box search finds
        from cmfields.principal import fincke_pohst

        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 4)
            while True:
                B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                G = [[sum(B[k][i] * B[k][j] for k in range(n)) for j in range(n)]
                     for i in range(n)]
                from cmfields.linalg import det_fraction

                if det_fraction(G) != 0:
                    break
            bound = rng.randint(1, 30)
            mine = {tuple(v) for v in fincke_pohst(G, bound)}
            # rigorous per-coordinate box: |v_i| <= sqrt(bound * (G^-1)_ii)
            import math as _math

            from sympy import Matrix

            Ginv = Matrix(G).inv()
            boxes = []
            for i in range(n):
                cap = bound * Ginv[i, i]
                boxes.append(_math.isqrt(int(cap.p) // int(cap.q)) + 1)
            assert mine == _naive_box(G, bound, boxes), (G, bound)


def _naive_box(G, bound, boxes):
    """Every nonzero v in the box with v^T G v <= bound, by exact int64 numpy.

    The box is swept one value of the first coordinate at a time, so memory
    stays at one slice of the remaining coordinates.
    """
    import numpy as np

    # |v^T G v| stays far below 2^63, so the int64 sums are exact
    assert sum(abs(g) for row in G for g in row) * max(boxes) ** 2 < 2**62
    Gm = np.array(G, dtype=np.int64)
    rest = np.zeros((1, 0), dtype=np.int64)  # the other coordinates, one row each
    for b in boxes[1:]:
        axis = np.arange(-b, b + 1, dtype=np.int64)
        rest = np.hstack([np.repeat(rest, len(axis), axis=0), np.tile(axis, len(rest))[:, None]])
    found = set()
    for v0 in range(-boxes[0], boxes[0] + 1):
        V = np.hstack([np.full((len(rest), 1), v0, dtype=np.int64), rest])
        q = ((V @ Gm) * V).sum(axis=1)
        hits = V[(q <= bound) & V.any(axis=1)]
        found.update(tuple(int(x) for x in v) for v in hits)
    return found


def _square_integer_matrices():
    return st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n))


class TestLLL:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_square_integer_matrices(), st.integers(0, 6))
    def test_gram_reduction(self, B, slack):
        from oracles import fincke_pohst_unreduced

        assume(Matrix(B).det() != 0)
        n = len(B)
        G = [[sum(B[k][i] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        R, U = lll_gram(G)
        assert abs(Matrix(U).det()) == 1
        assert R == (Matrix(U).T * Matrix(G) * Matrix(U)).tolist()
        # Gram-Schmidt of R over Q, from scratch
        mu = [[Fraction(0)] * n for _ in range(n)]
        norms = []
        for i in range(n):
            for j in range(i):
                mu[i][j] = (R[i][j] - sum(mu[j][k] * mu[i][k] * norms[k] for k in range(j))) / norms[j]
            norms.append(R[i][i] - sum(mu[i][k] ** 2 * norms[k] for k in range(i)))
        assert all(abs(mu[i][j]) <= Fraction(1, 2) for i in range(n) for j in range(i))
        assert all(norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]
                   for k in range(1, n))
        # the reduced search, mapped back through U, finds the vectors of the
        # search on G, and that one visits them as the rational LDL search does
        bound = R[0][0] + slack
        on_G = fincke_pohst(G, bound)
        assert on_G == fincke_pohst_unreduced(G, bound)
        mapped = {tuple(sum(U[i][j] * y[j] for j in range(n)) for i in range(n))
                  for y in fincke_pohst(R, bound)}
        assert mapped == {tuple(v) for v in on_G}


class TestUniPoly:
    def test_arith_and_gcd(self):
        f = UniPoly([-1, 0, 1])
        g = UniPoly([1, 2, 1])
        q, r = divmod(g, f)
        assert q == UniPoly([1]) and r == UniPoly([2, 2])
        assert poly_gcd(f, g) == UniPoly([1, 1])
        gg, s, t = poly_xgcd(f, UniPoly([1, 1]))
        assert (s * f + t * UniPoly([1, 1])) == gg

    # the integer remainder sequence against the Euclidean chain on
    # Fractions: a = c*h^j*u and b = d*h^k*v share h (a factor of degree up
    # to 6, raised to up to 3) and whatever u and v share; either side can
    # be zero, and the degrees reach 26
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6), max_size=7),
        st.integers(0, 3),
        st.integers(0, 3),
        st.lists(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=6),
                          min_size=1, max_size=9), min_size=2, max_size=2),
        st.sampled_from(["both", "a zero", "b zero"]),
    )
    def test_gcd_against_euclid(self, h, j, k, uv, zero):
        h, u, v = UniPoly(h), UniPoly(uv[0]), UniPoly(uv[1])
        a = UniPoly() if zero == "a zero" else h ** j * u
        b = UniPoly() if zero == "b zero" else h ** k * v
        g = poly_gcd(a, b)
        assert g == poly_gcd_by_euclid(a, b)
        assert g == poly_gcd(b, a)
        assert g.is_zero() or g.lc() == 1

    def test_eval(self):
        f = UniPoly([1, 2, 3])
        assert f(Fraction(2)) == 1 + 4 + 12

    def test_sturm(self):
        assert sturm_real_root_count(UniPoly([1, 0, 1])) == 0
        assert sturm_real_root_count(UniPoly([-2, 0, 0, 1])) == 1
        assert sturm_real_root_count(UniPoly([3, 6, 1])) == 2
        assert sturm_real_root_count(UniPoly([3, 0, 6, 0, 1])) == 0

    # the integer chain against the Fraction chain of the squarefree part and
    # sympy's count_roots: rational coefficients, many of them zero so that
    # remainders skip degrees and negative leading coefficients meet odd
    # powers of |lc|, and roots of multiplicity up to 3 so that the chain
    # ends at a nontrivial gcd(f, f')
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(st.one_of(st.just(Fraction(0)),
                           st.fractions(min_value=-20, max_value=20, max_denominator=12)),
                 min_size=1, max_size=8),
        st.lists(st.tuples(st.fractions(min_value=-6, max_value=6, max_denominator=4),
                           st.integers(1, 3)), max_size=3),
    )
    def test_sturm_against_fractions_and_sympy(self, coeffs, roots):
        from sympy import Poly, Rational, symbols

        from oracles import sturm_real_root_count_by_fractions

        f = UniPoly(coeffs)
        assume(not f.is_zero())
        for r, m in roots:
            f = f * UniPoly([-r, 1]) ** m
        count = sturm_real_root_count(f)
        assert count == sturm_real_root_count_by_fractions(f)
        if f.degree > 0:
            x = symbols("x")
            expr = sum(Rational(c.numerator, c.denominator) * x**i
                       for i, c in enumerate(f.coeffs))
            assert count == Poly(expr, x).count_roots()

    def test_resultant_and_discriminant(self):
        f = UniPoly([-1, 0, 1])
        g = UniPoly([1, 0, 1])
        # Res(x^2-1, x^2+1) = product of g at roots of f = 2*2
        assert sylvester_resultant(f, g) == 4
        assert poly_discriminant(UniPoly([1, 0, 1])) == -4
        assert poly_discriminant(UniPoly([1, 1, 1])) == -3

    def test_squarefree_part(self):
        from oracles import squarefree_part

        f = UniPoly([1, 1]) ** 3 * UniPoly([1, 0, 1])
        sf = squarefree_part(f)
        assert sf == (UniPoly([1, 1]) * UniPoly([1, 0, 1])).monic()
