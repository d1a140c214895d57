"""Certified complex embeddings of number fields.

Root approximations come from a Durand–Kerner (Weierstrass) iteration on
dyadic fixed-point integers (Kerner 1966): from the points R·(0.4 + 0.9i)^j,
R a power-of-two root bound, it iterates at an exponent of `bits` until the
corrections are a few ulps (or the residual is at the rounding level of its
Horner pass), then takes one step at each doubled exponent up to the
certificate's exponent. It only proposes: a proposal that is wrong, a
division by zero or a step cap makes the certificate fail or the finder
return None, and the caller doubles `bits` up to _MAX_BITS and then raises
BudgetExceeded. Every certificate is exact integer arithmetic. A disk of
radius |f(z)|^(1/n) around an approximation z contains at least one root of
the monic degree-n polynomial f, so n pairwise disjoint disks contain
exactly one root each. Refinement does not rerun the finder: it shifts the
centres of the certified base disks to the new exponent and takes the
doubling steps from there, and each new disk is certified by lying inside
the base disk of its index, whose one root it therefore holds, so an
embedding index never changes meaning.

A Ball is the disk with centre (a + b·i)/2^k and radius r/2^k, all four
integers, and every operation rounds outward, so a ball contains its value:
flooring a centre to k bits moves it by less than sqrt(2) ulps (2^-k each),
so the radius gains 2 ulps; a product of the balls (x, s) and (y, t) lies in
the disk about x·y of radius |x|·t + |y|·s + s·t, with |x| bounded above by
(isqrt(a² + b²) + 1)/2^k, rounded up; and root radii come from _root_up,
never below the exact root. Comparisons shift both balls to the larger
exponent and decide exactly, in integers.
"""

from fractions import Fraction
from math import isqrt

from .errors import BudgetExceeded
from .intutil import iroot
from .memo import per_field

_BASE_BITS = 64
_MAX_BITS = 1 << 22
_MAX_STEPS = 300


class Ball:
    """Complex disk with centre (a + b·i)/2^k and radius r/2^k, all integers."""

    __slots__ = ("a", "b", "r", "k")

    def __init__(self, a, b, r, k):
        self.a, self.b, self.r, self.k = a, b, r, k

    re = property(lambda self: Fraction(self.a, 1 << self.k))
    im = property(lambda self: Fraction(self.b, 1 << self.k))
    rad = property(lambda self: Fraction(self.r, 1 << self.k))

    def __repr__(self):
        return f"Ball({float(self.re):.6g} + {float(self.im):.6g}i, r<{float(self.rad):.3g})"

    def conj(self):
        return Ball(self.a, -self.b, self.r, self.k)

    def is_disjoint(self, other):
        p, q = max(other.k - self.k, 0), max(self.k - other.k, 0)
        x, y = (self.a << p) - (other.a << q), (self.b << p) - (other.b << q)
        t = (self.r << p) + (other.r << q)
        return x * x + y * y > t * t

    def intersects(self, other):
        return not self.is_disjoint(other)

    def within(self, other):
        """Whether this closed disk lies inside the closed disk other."""
        p, q = max(other.k - self.k, 0), max(self.k - other.k, 0)
        x, y = (self.a << p) - (other.a << q), (self.b << p) - (other.b << q)
        t = (other.r << q) - (self.r << p)
        return t >= 0 and x * x + y * y <= t * t

    def im_sign(self):
        """+1 / -1 if the sign of Im is certified, else None."""
        if self.b > self.r:
            return 1
        if self.b < -self.r:
            return -1
        return None


def _root_up(num, den, n):
    """(u, t) with (num/den)^(1/n) <= u/2^t < (num/den)^(1/n)·(1 + 2^-62), num > 0.

    M = ceil(num/den · 2^(n·t)) >= 2^(64n), so v = iroot(M, n) >= 2^64, and
    u = v + 1 has M < u^n <= M·(1 + 2^-64)^n.
    """
    t = (64 * n - num.bit_length() + den.bit_length()) // n + 1
    s = n * t
    m = -((-num << s) // den) if s >= 0 else -(-num // (den << -s))
    return iroot(m, n) + 1, t


class Embedding:
    """One certified complex root of the field's min_poly (a map field -> C)."""

    __slots__ = ("field", "root_index", "ball", "bits", "_root")

    def __init__(self, field, root_index, ball, bits):
        self.field = field
        self.root_index = root_index
        self.ball = ball
        self.bits = bits
        # the root at the working exponent k of eval, and a bound for |root|·2^k
        k = 2 * max(bits, 64)
        s = ball.k - k
        if s > 0:
            a, b, r = ball.a >> s, ball.b >> s, -(-ball.r >> s) + 2
        else:
            a, b, r = ball.a << -s, ball.b << -s, ball.r << -s
        self._root = (k, a, b, r, isqrt(a * a + b * b) + 1)

    def __repr__(self):
        return f"Embedding(#{self.root_index} ~ {self.ball!r})"

    def conj_index(self):
        return _pairing(self.field)[self.root_index]

    def eval(self, elem):
        """Certified ball containing the image of elem under this embedding.

        Integer Horner on the numerators w of elem = w/d at exponent k: a
        step multiplies by the root ball (radius rounded up, centre floored:
        +3 ulps) and adds the next w exactly; dividing by d at the end floors
        the centre (+2 ulps) and rounds the radius up.
        """
        if elem.field != self.field:
            raise ValueError("element of a different field")
        k, ra, rb, rr, mr = self._root
        d, w = elem.den, elem.num
        a, b, r = w[-1] << k, 0, 0
        for c in reversed(w[:-1]):
            mo = isqrt(a * a + b * b) + 1
            r = ((mo * rr + mr * r + r * rr) >> k) + 3
            a, b = ((a * ra - b * rb) >> k) + (c << k), (a * rb + b * ra) >> k
        if d == 1:
            return Ball(a, b, r, k)
        return Ball(a // d, b // d, -(-r // d) + 2, k)

    def eval_refining(self, elem, predicate):
        """Evaluate elem, refining this embedding until predicate(ball) is not None."""
        emb = self
        while (val := predicate(emb.eval(elem))) is None:
            if emb.bits * 2 > _MAX_BITS:
                raise BudgetExceeded("embedding refinement budget exceeded")
            emb = certified_embeddings(self.field, emb.bits * 2)[self.root_index]
        return val


def _find_disks(field, bits, base=None):
    """Certified disks at the given precision, or None to escalate.

    Without base, the finder runs from its circle start and the disks must
    be pairwise disjoint. With base, the certified base disks, the doubling
    steps continue from their centres and each new disk must lie inside the
    base disk of its index. With f = sum c_j x^j/den and a proposed root
    z = (a + b·i)/2^e, Horner on Q = Q·(a + b·i) + c_j·2^(e(n-j)) gives
    f(z) = Q/(den·2^(e·n)) exactly, so the radius |f(z)|^(1/n) is
    (|Q|²/den²)^(1/(2n)) ulps.
    """
    n = field.degree
    ints, den = field.min_poly.int_coeffs()
    e = bits + 32 + 2 * n + max(abs(c).bit_length() for c in ints)
    if base is None:
        roots = _weierstrass_roots(ints, bits, e)
    else:
        roots = _doubling_steps(ints, [(d.a, d.b) for d in base], base[0].k, e)
    if roots is None:
        return None
    disks = []
    for a, b in roots:
        qa, qb = ints[n], 0
        for j in range(n - 1, -1, -1):
            qa, qb = qa * a - qb * b + (ints[j] << e * (n - j)), qa * b + qb * a
        u, t = _root_up(qa * qa + qb * qb, den * den, 2 * n) if qa or qb else (0, 0)
        disks.append(Ball(a, b, -(-u >> t) if t >= 0 else u << -t, e))
    if base is None:
        ok = all(d.is_disjoint(c) for i, d in enumerate(disks) for c in disks[i + 1:])
    else:
        ok = all(d.within(c) for d, c in zip(disks, base))
    return disks if ok else None


def _weierstrass_roots(ints, k, e):
    """Root proposals (a, b), meaning (a + b·i)/2^e, of sum ints[j]·x^j; or None.

    Durand–Kerner on fixed-point numbers at exponent k from the start
    R·(0.4 + 0.9i)^j, with R = 2^rho at least Fujiwara's root bound
    2·max |c_j/c_n|^(1/(n-j)), until a step has converged (_weierstrass_step);
    then one step at each doubled exponent up to e, which near simple roots
    doubles the correct bits (_doubling_steps). None after _MAX_STEPS steps
    or on a zero product of differences.
    """
    n = len(ints) - 1
    top = ints[n].bit_length() - 1
    rho = 1 + max([0] + [-((top - abs(c).bit_length()) // (n - j)) for j, c in enumerate(ints[:n]) if c])
    zs, wa, wb = [], 1, 0
    for j in range(n):
        # (0.4 + 0.9i)^j = (4 + 9i)^j / 10^j, floored at exponent k
        zs.append(((wa << k + rho) // 10**j, (wb << k + rho) // 10**j))
        wa, wb = 4 * wa - 9 * wb, 9 * wa + 4 * wb
    for _ in range(_MAX_STEPS):
        done = _weierstrass_step(ints, zs, k)
        if done is None:
            return None
        if done:
            break
    else:
        return None
    return _doubling_steps(ints, zs, k, e)


def _doubling_steps(ints, zs, k, e):
    """Proposals zs at exponent k taken to e, one step per doubling; None on a zero product."""
    while k < e:
        s, k = min(k, e - k), min(2 * k, e)
        zs = [(a << s, b << s) for a, b in zs]
        if _weierstrass_step(ints, zs, k) is None:
            return None
    return zs


def _weierstrass_step(ints, zs, k):
    """One Gauss–Seidel Weierstrass step z_i -= p(z_i)/(c_n·prod_(j!=i)(z_i - z_j)).

    In place on zs at exponent k. Returns None on a zero product, else
    whether the step has converged: every correction is at most 4 ulps, or
    p(z_i) is within a small multiple of the Horner rounding bound (each
    floored product is off by < 2 ulps, so p(z) by < 2·sum_(m<n) |z|^m ulps),
    where no further step can do better.
    """
    n = len(ints) - 1
    cs = [c << k for c in ints]
    done = True
    for i, (a, b) in enumerate(zs):
        pa, pb = cs[n], 0
        for c in reversed(cs[:n]):
            pa, pb = ((pa * a - pb * b) >> k) + c, (pa * b + pb * a) >> k
        da, db = cs[n], 0
        for j, (x, y) in enumerate(zs):
            if j != i:
                x, y = a - x, b - y
                da, db = (da * x - db * y) >> k, (da * y + db * x) >> k
        m = da * da + db * db
        if not m:
            return None
        # p/d = p·conj(d)/|d|², rounded to nearest so that an exactly
        # representable root is a fixed point
        ta = (((pa * da + pb * db) << k + 1) + m) // (2 * m)
        tb = (((pb * da - pa * db) << k + 1) + m) // (2 * m)
        zs[i] = (a - ta, b - tb)
        if done and ta * ta + tb * tb > 16:
            mag = max(0, max(abs(a), abs(b)).bit_length() - k + 1)
            done = max(abs(pa), abs(pb)).bit_length() <= (n - 1) * mag + n.bit_length() + 2
    return done


def _conjugate_pairing(disks):
    """pair[i] = j with conj(root_i) = root_j, certified; None to escalate."""
    n = len(disks)
    pair = [None] * n
    for i, d in enumerate(disks):
        cd = d.conj()
        hits = [j for j in range(n) if cd.intersects(disks[j])]
        if len(hits) != 1:
            return None
        pair[i] = hits[0]
    if any(pair[pair[i]] != i for i in range(n)):
        return None
    return pair


def _canonical_order(disks):
    """Certified (re, then im) order, or None if some comparison is undecided.

    A sweep over the re-intervals sorted by left end groups them into the
    components of their overlap graph, which are separated by construction;
    within a component the im-intervals must be pairwise disjoint, which
    holds when the neighbours in im order are. The disks come from one
    _find_disks call, so they share one exponent and their integer a, b, r
    compare directly.
    """
    clusters, hi = [], None
    for i in sorted(range(len(disks)), key=lambda i: disks[i].a - disks[i].r):
        lo, top = disks[i].a - disks[i].r, disks[i].a + disks[i].r
        if hi is None or hi < lo:
            clusters.append([])
            hi = top
        clusters[-1].append(i)
        hi = max(hi, top)
    order = []
    for g in clusters:
        g.sort(key=lambda i: disks[i].b)
        for i, j in zip(g, g[1:]):
            if not disks[i].b + disks[i].r < disks[j].b - disks[j].r:
                return None
        order.extend(g)
    return order


def _base_certification(field):
    return per_field("certified_base", field, lambda: _certify_base(field))


def _certify_base(field):
    bits = _BASE_BITS
    while True:
        disks = _find_disks(field, bits)
        if disks is not None:
            order = _canonical_order(disks)
            if order is not None:
                disks = [disks[i] for i in order]
                pair = _conjugate_pairing(disks)
                if pair is not None:
                    break
        bits *= 2
        if bits > _MAX_BITS:
            raise BudgetExceeded("root certification budget exceeded")
    return bits, disks, pair


def _pairing(field):
    return _base_certification(field)[2]


def certified_embeddings(field, bits=_BASE_BITS):
    """Certified embeddings in the canonical order, at >= the requested precision.

    Conjugate pairs are identified (see Embedding.conj_index) and results are
    memoized per field value and precision level.
    """
    base_bits, base_disks, _ = _base_certification(field)
    level = base_bits
    while level < bits:
        level *= 2
    return per_field(
        "embeddings", field, lambda: _embeddings_at(field, level, base_bits, base_disks), level
    )


def _embeddings_at(field, level, base_bits, base_disks):
    disks, b = base_disks, level
    if level > base_bits:
        while (disks := _find_disks(field, b, base_disks)) is None:
            b *= 2
            if b > _MAX_BITS:
                raise BudgetExceeded("root refinement budget exceeded")
    return [Embedding(field, i, d, level) for i, d in enumerate(disks)]


def locate_among(emb, elem, target_field):
    """Canonical embedding index of target_field whose root equals emb(elem).

    The caller guarantees emb(elem) IS a root of target_field.min_poly; the
    index is certified once exactly one target disk, at the precision of the
    evaluating embedding (its balls have exponent 2·bits), meets the ball.
    """
    def one_hit(ball):
        targets = certified_embeddings(target_field, ball.k // 2)
        hits = [f.root_index for f in targets if f.ball.intersects(ball)]
        return hits[0] if len(hits) == 1 else None

    return emb.eval_refining(elem, one_hit)
