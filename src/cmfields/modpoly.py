"""Polynomial arithmetic over Z/m, and factorization over F_p.

Polynomials are lists of ints in [0, m), lowest degree first, normalized so
the last entry is nonzero ([] is the zero polynomial). The arithmetic (add,
sub, mul, scal, divmod_) works modulo any m > 1; divmod_ needs only the
divisor's leading coefficient to be a unit mod m, so Hensel lifting runs on
it modulo p^k. Everything from gcd on needs m prime. Factorization is
squarefree + distinct-degree + Cantor-Zassenhaus equal-degree splitting, and
every p-th power in both passes is one product by the Frobenius matrix of
the squarefree part (von zur Gathen & Shoup 1992), not a powering. The
output is sorted, so it does not depend on the seeded elements drawn. Whether
f has an irreducible factor of degree <= d is the distinct-degree pass alone,
with no factor built.
"""

import random

from .intutil import binary_power


def trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def add(a, b, m):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % m
    return trim(out)


def sub(a, b, m):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % m
    return trim(out)


def mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return trim([c % m for c in out])


def scal(a, s, m):
    s %= m
    return trim([c * s % m for c in a])


def divmod_(a, b, m):
    if not b:
        raise ZeroDivisionError
    a = list(a)
    db, lcb = len(b) - 1, b[-1]
    inv = pow(lcb, -1, m)
    if len(a) - 1 < db:
        return [], a
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = a[k + db] % m
        if c:
            f = c * inv % m
            q[k] = f
            for i, bc in enumerate(b):
                a[k + i] = (a[k + i] - f * bc) % m
    return trim(q), trim(a[:db])


def mod(a, b, p):
    return divmod_(a, b, p)[1]


def gcd(a, b, p):
    while b:
        a, b = b, mod(a, b, p)
    return monic(a, p)


def monic(a, p):
    return scal(a, pow(a[-1], -1, p), p) if a else a


def powmod(a, e, f, p):
    return binary_power(mod(a, f, p), e, [1], lambda x, y: mod(mul(x, y, p), f, p))


def derivative(a, p):
    return trim([i * c % p for i, c in enumerate(a)][1:])


def squarefree_decomposition(f, p):
    """Yield (g, multiplicity) with g monic squarefree, product g^m = f/lc."""
    f = monic(f, p)
    out = []
    e = 1
    while len(f) > 1:
        d = derivative(f, p)
        if not d:
            # f is a p-th power: f(x) = h(x^p)
            h = f[::p]
            for g, m in squarefree_decomposition(list(h), p):
                out.append((g, m * p))
            return out
        c = gcd(f, d, p)
        w = divmod_(f, c, p)[0]
        i = 1
        while len(w) > 1:
            y = gcd(w, c, p)
            z = divmod_(w, y, p)[0]
            if len(z) > 1:
                out.append((z, e * i))
            w = y
            c = divmod_(c, y, p)[0]
            i += 1
        f = c
        e *= p
    return out


class _Frobenius:
    """The map a -> a^p on F_p[x]/(f), f squarefree or not.

    a(x)^p = a(x^p) over F_p, so a^p mod f is Q a for the matrix Q whose
    columns are x^(i p) mod f (von zur Gathen & Shoup 1992; Cohen 1993,
    §3.4.10): one matrix-vector product in place of a powering. x^p mod f is
    found by powering once; Q is built from it on the first product asked
    for, so a pass that needs only x^p builds no matrix.
    """

    def __init__(self, f, p):
        self.f = f
        self.p = p
        self.xp = powmod([0, 1], p, f, p)
        self._cols = None

    def __call__(self, a):
        f, p = self.f, self.p
        if self._cols is None:
            cols = [[1], self.xp]
            for _ in range(len(f) - 3):
                cols.append(mod(mul(cols[-1], self.xp, p), f, p))
            self._cols = cols
        out = [0] * (len(f) - 1)
        for c, col in zip(a, self._cols):
            if c:
                for k, q in enumerate(col):
                    out[k] += c * q
        return trim([x % p for x in out])


def distinct_degree(f, p, frob):
    """Split squarefree monic f into [(product of irreducibles of degree d, d)].

    h runs through x^(p^d) mod f, each one frob(h) of the last; the gcd with
    what is left of f needs it only modulo that divisor of f.
    """
    out = []
    x = [0, 1]
    h = x
    g = list(f)
    d = 0
    while len(g) - 1 >= 2 * (d + 1):
        d += 1
        h = frob.xp if d == 1 else frob(h)
        gd = gcd(sub(h, x, p), g, p)
        if len(gd) > 1:
            out.append((gd, d))
            g = divmod_(g, gd, p)[0]
    if len(g) > 1:
        out.append((g, len(g) - 1))
    return out


def has_factor_of_degree_at_most(f, d, p):
    """True when f mod p has an irreducible factor of degree <= d.

    x^(p^k) - x is the product of the monic irreducibles of degree dividing
    k, so its gcd with f is 1 for every k <= d exactly when f has no such
    factor (Cohen 1993, §3.4.3). f need not be squarefree; x^(p^k) mod f is
    the Frobenius map applied k times to x.
    """
    frob = _Frobenius(f, p)
    x = [0, 1]
    h = x
    for k in range(d):
        h = frob.xp if k == 0 else frob(h)
        if len(gcd(sub(h, x, p), f, p)) > 1:
            return True
    return False


def _equal_degree_split(f, d, p, rng, frob):
    """The monic irreducible factors of f, a product of distinct ones of degree d.

    frob is the Frobenius map modulo a multiple of f. A random a splits f by
    gcd(a^((p^d - 1)/2) - 1, f) at odd p, and the exponent is
    (1 + p + ... + p^(d-1)) (p - 1)/2, so a^((p^d - 1)/2) is the product of
    the conjugates a^(p^i), taken through frob, raised to (p - 1)/2. At
    p = 2 the trace a + a^2 + ... + a^(2^(d-1)) takes its place.
    """
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = trim([rng.randrange(p) for _ in range(n)])
        if len(a) <= 1:
            continue
        g = gcd(a, f, p)
        if len(g) == 1:
            conj = a
            if p == 2:
                t = a
                for _ in range(d - 1):
                    conj = mod(frob(conj), f, p)
                    t = add(t, conj, p)
                g = gcd(t, f, p)
            else:
                b = a
                for _ in range(d - 1):
                    conj = mod(frob(conj), f, p)
                    b = mod(mul(b, conj, p), f, p)
                b = powmod(b, (p - 1) // 2, f, p)
                g = gcd(sub(b, [1], p), f, p)
            if not 1 < len(g) < len(f):
                continue
        out = []
        for piece in (g, divmod_(f, g, p)[0]):
            out.extend(_equal_degree_split(monic(piece, p), d, p, rng, frob))
        return out


def factor(f, p):
    """Full factorization over F_p: the sorted list of (monic irreducible, multiplicity).

    The list is sorted, so it is the same whatever the random elements drawn.
    """
    rng = random.Random(0x5EED)
    out = []
    for g, m in squarefree_decomposition(f, p):
        frob = _Frobenius(g, p)
        for h, d in distinct_degree(g, p, frob):
            for irr in _equal_degree_split(h, d, p, rng, frob):
                out.append((tuple(irr), m))
    return sorted(out)
