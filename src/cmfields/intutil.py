"""Small integer number theory helpers, and the one powering loop, shared across the package."""

import math
import operator
from fractions import Fraction


def isqrt_exact(n):
    """Return the integer square root of n if n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def iroot(n, k):
    """Floor of the k-th root of n >= 0, by integer Newton iteration.

    The start 2^ceil(bitlen/k) is at least the root; from above the iterates
    decrease strictly until they reach the floor (Cohen 1993, §1.7). Square
    roots are math.isqrt.
    """
    if n < 0:
        raise ValueError("negative radicand")
    if n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def root_upper(x, k):
    """Rational upper bound for x^(1/k), x a nonnegative Fraction."""
    if x == 0:
        return Fraction(0)
    num, den = x.numerator, x.denominator
    r = iroot(num * den ** (k - 1), k)
    return Fraction(r + 1, den)


def is_prime(n):
    """Deterministic Miller-Rabin, valid for all n < 3.3 * 10^24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(bound):
    """All primes p <= bound, by sieve."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]


def _pollard_rho(n, seed=1):
    """A nontrivial factor of the odd composite n, or None for this seed.

    Brent's variant of Pollard rho (Brent 1980): the walk y -> y^2 + seed is
    compared with the saved point x at power-of-two distances, and the
    differences are multiplied together so that one gcd covers 100 steps.
    When a batch gcd is n, the batch is replayed one gcd per step.
    """
    if n % 2 == 0:
        return 2
    batch = 100
    c = seed
    y, r, q, g = 2, 1, 1, 1
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(batch, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            k += batch
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(x - ys, n)
    return g if g != n else None


def factorize(n):
    """Prime factorization of |n| as a sorted dict {p: e}. factorize(0) is an error."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = isqrt_exact(m)
        if r is not None:
            stack.extend([r, r])
            continue
        d = None
        seed = 1
        while d is None:
            d = _pollard_rho(m, seed)
            seed += 1
        stack.extend([d, m // d])
    return dict(sorted(out.items()))


def xgcd(a, b):
    """Extended gcd: returns (g, x, y) with a*x + b*y = g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def sqrt_mod(a, p):
    """A square root of a modulo an odd prime p, or None (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def quadratic_roots_mod(c, b, p):
    """The distinct roots of x^2 + b x + c modulo an odd prime p, ascending; [] if none.

    They are (-b +- s)/2 for s a square root of the discriminant b^2 - 4c.
    """
    s = sqrt_mod(b * b - 4 * c, p)
    if s is None:
        return []
    half = (p + 1) // 2
    return sorted({(-b + s) * half % p, (-b - s) * half % p})


def binary_power(base, k, one, mul=operator.mul):
    """base**k for k >= 0: no product with one, no squaring past the top bit."""
    out = None
    while k:
        if k & 1:
            out = base if out is None else mul(out, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return one if out is None else out
