"""Factorization of rational polynomials by the classical modular method.

Squarefree reduction, factorization modulo a good prime, quadratic Hensel
lifting past the Mignotte bound, then subset recombination. This module holds
only the algorithm: arithmetic modulo p and p^k is `modpoly`'s, and exact
division over Q is `UniPoly`'s. The package-wide degree cap (16) keeps the
exponential recombination step trivial.
"""

import itertools
import math
from fractions import Fraction

from . import modpoly
from .errors import InvariantViolated
from .intutil import is_prime
from .unipoly import UniPoly, poly_gcd

DEGREE_CAP = 16


def _mignotte_bound(ints):
    """Bound on the absolute value of coefficients of any monic-ish factor."""
    n = len(ints) - 1
    norm2 = math.isqrt(sum(c * c for c in ints)) + 1
    return (1 << n) * norm2 * abs(ints[-1])


def _bezout(g, h, p):
    """s, t with s*g + t*h = 1 mod p (g, h coprime mod p)."""
    r0, r1 = [c % p for c in g], [c % p for c in h]
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = modpoly.divmod_(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, modpoly.sub(s0, modpoly.mul(q, s1, p), p)
        t0, t1 = t1, modpoly.sub(t0, modpoly.mul(q, t1, p), p)
    if len(r0) != 1:
        raise InvariantViolated(f"Hensel factors share a factor mod {p}")
    inv = pow(r0[0], -1, p)
    return modpoly.scal(s0, inv, p), modpoly.scal(t0, inv, p)


def _lift_factors(f_ints, fac_modp, p, target):
    """Lift the pairwise-coprime monic factorization of f mod p to mod p^(2^J) >= target.

    Balanced product tree with a quadratic Hensel step on each split. All
    polynomials here are monic. Returns (modulus, lifted factor lists).
    """
    modulus = p
    while modulus < target:
        modulus *= modulus

    def lift_tree(f_cur, facs):
        if len(facs) == 1:
            return [f_cur]
        half = len(facs) // 2
        g0, h0 = [1], [1]
        for fac in facs[:half]:
            g0 = modpoly.mul(g0, fac, p)
        for fac in facs[half:]:
            h0 = modpoly.mul(h0, fac, p)
        g, h = _hensel_pair(f_cur, g0, h0, p, modulus)
        return lift_tree(g, facs[:half]) + lift_tree(h, facs[half:])

    return modulus, lift_tree(list(f_ints), fac_modp)


def _hensel_pair(f, g, h, p, modulus):
    """Quadratic Hensel lift of monic f = g*h (mod p) to the given p^(2^J) modulus.

    f must be exact (integral) or known mod the target modulus; g and h are
    monic and reduced mod p. Each step squares m and works in Z/m through
    `modpoly`, whose division needs only the divisor h to be monic.
    """
    s, t = _bezout(g, h, p)
    m = p
    while m < modulus:
        m = m * m
        e = modpoly.sub([c % m for c in f], modpoly.mul(g, h, m), m)
        # dh = (s*e mod h); dg = t*e + q*g where s*e = q*h + dh
        q, dh = modpoly.divmod_(modpoly.mul(s, e, m), h, m)
        dg = modpoly.add(modpoly.mul(t, e, m), modpoly.mul(q, g, m), m)
        if len(dg) > len(g) - 1:
            raise InvariantViolated("Hensel degree invariant broken")
        g = modpoly.add(g, dg, m)
        h = modpoly.add(h, dh, m)
        if m >= modulus:
            break
        # lift the Bezout cofactors: s*g + t*h = 1 (mod m)
        b = modpoly.sub(modpoly.add(modpoly.mul(s, g, m), modpoly.mul(t, h, m), m), [1], m)
        c_, d_ = modpoly.divmod_(modpoly.mul(s, b, m), h, m)
        s = modpoly.sub(s, d_, m)
        t = modpoly.sub(t, modpoly.add(modpoly.mul(t, b, m), modpoly.mul(c_, g, m), m), m)
    return g, h


def _centered(c, m):
    c %= m
    return c - m if c > m // 2 else c


def _primitive_part(ints):
    g = 0
    for c in ints:
        g = math.gcd(g, abs(c))
    if g == 0:
        return list(ints)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def _zassenhaus_irreducible_factors(ints):
    """Irreducible factors of a primitive squarefree integer polynomial, lc > 0."""
    n = len(ints) - 1
    if n == 1:
        return [list(ints)]
    b = ints[-1]
    if b != 1:
        # monicize: F(x) = b^(n-1) f(x/b), factor F, pull factors back
        F = [c * b ** (n - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
        out = []
        for G in _zassenhaus_irreducible_factors(F):
            g = _primitive_part([c * b**i for i, c in enumerate(G)])
            out.append(g)
        return out

    # choose a prime keeping f squarefree; prefer the one with fewest factors
    p = 3
    best = None
    tried = 0
    while True:
        if is_prime(p):
            fp = modpoly.trim([c % p for c in ints])
            if len(fp) - 1 == n:
                d = modpoly.gcd(fp, modpoly.derivative(fp, p), p)
                if len(d) == 1:
                    fac = modpoly.factor(fp, p)
                    if any(m != 1 for _, m in fac):
                        raise InvariantViolated(f"repeated factor mod {p} after a squarefree test")
                    cand = sorted(list(f) for f, _ in fac)
                    if best is None or len(cand) < len(best[1]):
                        best = (p, cand)
                    tried += 1
                    if len(cand) == 1:
                        return [list(ints)]
                    if tried >= 3:
                        break
        p += 2
    p, modular = best
    bound = 2 * _mignotte_bound(ints) + 1
    modulus, lifted = _lift_factors(ints, modular, p, bound)

    # subset recombination over the lifted factors; a candidate is monic, so
    # it divides over Z exactly when it divides over Q
    remaining = list(range(len(lifted)))
    current = UniPoly(ints)
    out = []
    r = 1
    while 2 * r <= len(remaining):
        found = False
        for combo in itertools.combinations(remaining, r):
            prod = [1]
            for idx in combo:
                prod = modpoly.mul(prod, lifted[idx], modulus)
            cand = [_centered(c, modulus) for c in prod]
            q, rem = divmod(current, UniPoly(cand))
            if not rem:
                out.append(cand)
                current = q
                remaining = [i for i in remaining if i not in combo]
                found = True
                break
        if not found:
            r += 1
    if current.degree > 0:
        out.append([c.numerator for c in current.coeffs])
    return out


def factor_rational_poly(f):
    """Factor a nonzero UniPoly over Q into monic irreducibles.

    Returns (unit, [(UniPoly irreducible monic, multiplicity), ...]) where
    unit * prod(factor^mult) == f exactly.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.degree > DEGREE_CAP:
        raise ValueError(f"degree {f.degree} exceeds factorization cap {DEGREE_CAP}")
    if f.degree == 0:
        return f.coeffs[0], []
    unit = f.lc()
    work = f.monic()
    # squarefree (Yun-style via repeated gcd) decomposition over Q
    out = {}
    g = poly_gcd(work, work.derivative())
    w = work // g
    mult = 1
    while w.degree > 0:
        y = poly_gcd(w, g)
        z = w // y
        if z.degree > 0:
            for fac in _zassenhaus_irreducible_factors(_primitive_part(z.int_coeffs()[0])):
                poly = UniPoly([Fraction(c, fac[-1]) for c in fac])
                out[poly] = out.get(poly, 0) + mult
        w = y
        g = g // y
        mult += 1
    factors = sorted(out.items(), key=lambda kv: (kv[0].degree, kv[0].coeffs))
    return unit, factors


def is_irreducible_over_q(f):
    if f.degree <= 0:
        return False
    _, factors = factor_rational_poly(f)
    return len(factors) == 1 and factors[0][1] == 1 and factors[0][0].degree == f.degree
