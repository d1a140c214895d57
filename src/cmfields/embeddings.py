"""Certified complex embeddings of number fields.

mpmath supplies root approximations only; every certificate is exact rational
arithmetic. A disk of radius |f(z)|^(1/n) around an approximation z contains
at least one root of the monic degree-n polynomial f, so n pairwise disjoint
disks contain exactly one root each. The disk radius uses the exact floor
k-th root of an integer (intutil.iroot), rounded up. Refinement re-runs the
finder at higher precision and matches disks by intersection with the
canonical base disks, so an embedding index never changes meaning.
"""

from fractions import Fraction

import mpmath

from .intutil import root_upper
from .memo import per_field

_BASE_BITS = 64
_MAX_BITS = 1 << 22

# mpmath >= 1.4 deprecates descending coefficient order in polyroots
import inspect as _inspect

_POLYROOTS_ASCENDING = "asc" in _inspect.signature(mpmath.polyroots).parameters


class Ball:
    """Complex disk with exact rational center and radius (no rounding errors)."""

    __slots__ = ("re", "im", "rad")

    def __init__(self, re, im, rad=Fraction(0)):
        self.re = Fraction(re)
        self.im = Fraction(im)
        self.rad = Fraction(rad)

    def __repr__(self):
        return f"Ball({float(self.re):.6g} + {float(self.im):.6g}i, r<{float(self.rad):.3g})"

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return Ball(self.re + other, self.im, self.rad)
        return Ball(self.re + other.re, self.im + other.im, self.rad + other.rad)

    __radd__ = __add__

    def __neg__(self):
        return Ball(-self.re, -self.im, self.rad)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Ball) else -Fraction(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return Ball(self.re * q, self.im * q, self.rad * abs(q))
        re = self.re * other.re - self.im * other.im
        im = self.re * other.im + self.im * other.re
        rad = (
            _abs_upper(self.re, self.im) * other.rad
            + _abs_upper(other.re, other.im) * self.rad
            + self.rad * other.rad
        )
        return Ball(re, im, rad)

    __rmul__ = __mul__

    def conj(self):
        return Ball(self.re, -self.im, self.rad)

    def round(self, bits):
        """Outward dyadic rounding: shrink denominators, inflate the radius."""
        scale = 1 << bits
        re = Fraction(round(self.re * scale), scale)
        im = Fraction(round(self.im * scale), scale)
        rad_num = self.rad * scale
        rad = Fraction(int(rad_num) + 1, scale) + Fraction(2, scale)
        return Ball(re, im, rad)

    def contains_point(self, re, im):
        return (self.re - re) ** 2 + (self.im - im) ** 2 <= self.rad**2

    def is_disjoint(self, other):
        d2 = (self.re - other.re) ** 2 + (self.im - other.im) ** 2
        return d2 > (self.rad + other.rad) ** 2

    def intersects(self, other):
        return not self.is_disjoint(other)

    def im_sign(self):
        """+1 / -1 if the sign of Im is certified, else None."""
        if self.im - self.rad > 0:
            return 1
        if self.im + self.rad < 0:
            return -1
        return None

    def re_sign(self):
        if self.re - self.rad > 0:
            return 1
        if self.re + self.rad < 0:
            return -1
        return None


def _abs_upper(re, im):
    """Rational upper bound for sqrt(re^2 + im^2)."""
    return root_upper(re * re + im * im, 2)


def _eval_exact(poly, re, im):
    """Exact complex Horner evaluation of a rational UniPoly at re + i*im."""
    cre, cim = Fraction(0), Fraction(0)
    for c in reversed(poly.coeffs):
        cre, cim = cre * re - cim * im + c, cre * im + cim * re
    return cre, cim


def _mpf_to_fraction(x):
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    val = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -val if sign else val


class Embedding:
    """One certified complex root of the field's min_poly (a map field -> C)."""

    __slots__ = ("field", "root_index", "ball", "bits")

    def __init__(self, field, root_index, ball, bits):
        self.field = field
        self.root_index = root_index
        self.ball = ball
        self.bits = bits

    def __repr__(self):
        return f"Embedding(#{self.root_index} ~ {self.ball!r})"

    def __eq__(self, other):
        return (
            isinstance(other, Embedding)
            and self.field == other.field
            and self.root_index == other.root_index
        )

    def __hash__(self):
        return hash((self.field.min_poly, self.root_index))

    def conj_index(self):
        return _pairing(self.field)[self.root_index]

    def refined(self, bits):
        return certified_embeddings(self.field, bits)[self.root_index]

    def eval(self, elem):
        """Certified ball containing the image of elem under this embedding."""
        if elem.field != self.field:
            raise ValueError("element of a different field")
        root = self.ball
        out = Ball(0, 0)
        work = max(self.bits, 64)
        for c in reversed(elem.coords):
            out = (out * root + c).round(2 * work)
        return out

    def eval_refining(self, elem, predicate, max_bits=_MAX_BITS):
        """Evaluate elem, refining this embedding until predicate(ball) is not None."""
        emb = self
        while True:
            val = predicate(emb.eval(elem))
            if val is not None:
                return val
            if emb.bits * 2 > max_bits:
                raise RuntimeError("embedding refinement budget exceeded")
            emb = emb.refined(emb.bits * 2)


def _find_disks(field, bits):
    """Raw certified disjoint disks at the given precision, or None to escalate."""
    f = field.min_poly
    n = field.degree
    ints, den = f.int_coeffs()
    slack = 32 + 2 * n + max(abs(c).bit_length() for c in ints)
    with mpmath.workprec(bits + slack):
        try:
            if _POLYROOTS_ASCENDING:
                roots = mpmath.polyroots(ints, maxsteps=300, extraprec=bits, asc=True)
            else:
                roots = mpmath.polyroots(list(reversed(ints)), maxsteps=300, extraprec=bits)
        except mpmath.mp.NoConvergence:
            return None
        roots = [mpmath.mpc(r) for r in roots]
    disks = []
    for r in roots:
        re = _mpf_to_fraction(r.real)
        im = _mpf_to_fraction(r.imag)
        scale = 1 << (bits + slack)
        re = Fraction(round(re * scale), scale)
        im = Fraction(round(im * scale), scale)
        vre, vim = _eval_exact(f, re, im)
        rad = root_upper(_abs_upper(vre, vim), n)
        disks.append(Ball(re, im, rad))
    for i in range(n):
        for j in range(i + 1, n):
            if not disks[i].is_disjoint(disks[j]):
                return None
    return disks


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

    Roots are grouped into clusters by transitive overlap of re-intervals;
    cluster re-ranges must be pairwise separated and im-intervals disjoint
    within a cluster.
    """
    n = len(disks)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            re_overlap = not (
                disks[i].re + disks[i].rad < disks[j].re - disks[j].rad
                or disks[j].re + disks[j].rad < disks[i].re - disks[i].rad
            )
            if re_overlap:
                parent[find(i)] = find(j)
    clusters = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    groups = list(clusters.values())
    # cluster re-ranges must be separated
    ranges = []
    for g in groups:
        lo = min(disks[i].re - disks[i].rad for i in g)
        hi = max(disks[i].re + disks[i].rad for i in g)
        ranges.append((lo, hi, g))
    ranges.sort(key=lambda t: t[0])
    for (_, hi1, _), (lo2, _, _) in zip(ranges, ranges[1:]):
        if not hi1 < lo2:
            return None
    order = []
    for _, _, g in ranges:
        for i in g:
            for j in g:
                if i < j:
                    a, b = disks[i], disks[j]
                    if not (a.im + a.rad < b.im - b.rad or b.im + b.rad < a.im - a.rad):
                        return None
        order.extend(sorted(g, key=lambda i: disks[i].im))
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
            raise RuntimeError("root certification budget exceeded")
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
    if level == base_bits:
        disks = base_disks
    else:
        b = level
        while True:
            raw = _find_disks(field, b)
            if raw is not None:
                matched = _match_disks(raw, base_disks)
                if matched is not None:
                    disks = matched
                    break
            b *= 2
            if b > _MAX_BITS:
                raise RuntimeError("root refinement budget exceeded")
    return [Embedding(field, i, d, level) for i, d in enumerate(disks)]


def _match_disks(raw, base):
    out = [None] * len(base)
    for d in raw:
        hits = [j for j, bd in enumerate(base) if d.intersects(bd)]
        if len(hits) != 1 or out[hits[0]] is not None:
            return None
        out[hits[0]] = d
    return out


def locate_among(emb, elem, target_field, max_bits=_MAX_BITS):
    """Canonical embedding index of target_field whose root equals emb(elem).

    The caller guarantees emb(elem) IS a root of target_field.min_poly; the
    index is certified by interval refinement.
    """
    bits = emb.bits
    while True:
        ball = emb.eval(elem)
        hits = [f for f in certified_embeddings(target_field, bits) if not ball.is_disjoint(f.ball)]
        if len(hits) == 1:
            return hits[0].root_index
        bits *= 2
        if bits > max_bits:
            raise RuntimeError("embedding location budget exceeded")
        emb = emb.refined(bits)
