"""Shimura-Taniyama verification on CM elliptic curves over prime fields.

The Frobenius element pi in O_E is identified with no point count: it is
the one element of norm p, among the unit multiples of a generator of the
tangent prime and of its conjugate, that matches the p-power Frobenius on
seeded points over F_{p^2} (`frobenius_element` gives the proof), and
a_p = Tr(pi). The CM embedding into F_p is fixed by the tangent (invariant
differential) action; the tangent root and every square root in F_p and
F_{p^2} come from Tonelli-Shanks, so no step scans F_p. Each candidate
s0 + s1 * u, in the basis 1, u of O_E = Z[u] with u the tangent multiplier,
acts as [s0]P + [s1]endo(P) on one shared doubling chain (Straus-Shamir,
`_ec_mul2`). The ideal identity, the valuation identities, and the
reflex-norm form of the Frobenius class are then exact ideal computations.
"""

import random
from fractions import Fraction

from .closure import splitting_data
from .cmreflex import (
    CMField,
    CMType,
    _prime_below,
    cm_check,
    conjugate_ideal,
    reflex_norm_ideal,
)
from .errors import (
    BadCorpus,
    BadInput,
    IdentificationFailed,
    InvariantViolated,
    RamifiedPrime,
    Supersingular,
)
from .ideals import FracIdeal, prime_split
from .intutil import quadratic_roots_mod, sqrt_mod
from .orders import maximal_order
from .principal import is_principal, torsion_units
from .wire import parse_field

MATCH_POINTS = 20


class CMCurveQ:
    """A rational model with CM by the maximal order of an imaginary quadratic E.

    The CM endomorphism is the unit scaling (x, y) -> (u^-2 x, u^-3 y) whose
    tangent multiplier is u (a root of unity generating O_E); its reduction
    uses the chosen root of u's minimal polynomial mod p.
    """

    def __init__(self, a4, a6, cmfield, tangent):
        self.a4 = a4
        self.a6 = a6
        self.cmfield = cmfield
        self.tangent = tangent
        mp = tangent.min_poly_over_q()
        # Z[u] = O_E exactly when disc(min poly of u) = disc(O_E); then every
        # Frobenius candidate is s0 + s1 u with integers s0, s1
        disc = maximal_order(cmfield.field).disc()
        if mp.degree != 2 or mp.coeffs[1] ** 2 - 4 * mp.coeffs[0] != disc:
            raise BadCorpus("tangent multiplier must generate O_E")
        self.tangent_min_poly = mp
        # the roots of unity of O_E, each as its coordinates in 1, u
        self.units = [self.tangent_coords(z) for z in torsion_units(maximal_order(cmfield.field))]

    def __repr__(self):
        return f"CMCurveQ(a4={self.a4}, a6={self.a6}, disc={maximal_order(self.cmfield.field).disc()})"

    def tangent_coords(self, x):
        """The integers (s0, s1) with x = s0 + s1 u, for x in O_E = Z[u]."""
        u0, u1 = self.tangent.coords
        r0, r1 = x.coords
        s1 = r1 / u1
        s0 = r0 - s1 * u0
        if s0.denominator != 1 or s1.denominator != 1:
            raise InvariantViolated(f"{x} is not in Z[u]")
        return int(s0), int(s1)

    def identity_type(self):
        """The CM-type {phi} whose embedding realizes the identity E -> E."""
        sd = splitting_data(self.cmfield.field)
        gen = self.cmfield.field.gen()
        idx = next(i for i, e in enumerate(sd.embeddings) if e.image_of_generator == gen)
        return CMType(self.cmfield, {idx})


class FrobeniusData:
    """pi in O_E with pi * conj(pi) = q, the ideal (pi), and the reduction bookkeeping."""

    def __init__(self, pi, q, trace, prime_above, cmtype):
        self.pi = pi
        self.ideal = FracIdeal.principal(prime_above.order, pi)
        self.q = q
        self.trace = trace
        self.prime_above = prime_above
        self.cmtype = cmtype

    def __repr__(self):
        return f"FrobeniusData(pi={list(self.pi.coords)}, q={self.q}, a_p={self.trace})"


class _GF2:
    """F_{p^2} = F_p[t]/(t^2 - ns), elements as (a, b) pairs.

    A point of a curve with a4, a6 in F_p is the flat tuple (x0, x1, y0, y1)
    of x = x0 + x1 t and y = y0 + y1 t, or None at infinity; F_p points are
    the ones with x1 = y1 = 0.
    """

    def __init__(self, p):
        self.p = p
        ns = 2
        while pow(ns, (p - 1) // 2, p) != p - 1:
            ns += 1
        self.ns = ns

    def mul(self, x, y):
        a, b = x
        c, d = y
        return ((a * c + b * d * self.ns) % self.p, (a * d + b * c) % self.p)

    def sqrt(self, s):
        """A square root of s, or None, with square roots in F_p only.

        s is a square exactly when its norm n^2 = a^2 - ns b^2 is one in F_p.
        For b != 0, exactly one of (a + n)/2 and (a - n)/2 is a square c^2
        (their product ns b^2/4 is not), and (c + (b/2c) t)^2 = a + b t.
        """
        p = self.p
        a, b = s
        if b == 0:
            r = sqrt_mod(a, p)
            if r is not None:
                return (r, 0)
            return (0, sqrt_mod(a * pow(self.ns, -1, p), p))
        n = sqrt_mod((a * a - self.ns * b * b) % p, p)
        if n is None:
            return None
        half = (p + 1) // 2
        c = sqrt_mod((a + n) * half, p)
        if c is None:
            c = sqrt_mod((a - n) * half, p)
        return (c, b * pow(2 * c, -1, p) % p)


def _ec_add(F, a4, P, Q):
    """P + Q on y^2 = x^3 + a4 x + a6 (a4 in F_p), points as flat tuples.

    The slope is num * conj(den) / N(den), one inverse in F_p per addition.
    """
    if P is None:
        return Q
    if Q is None:
        return P
    p, ns = F.p, F.ns
    x0, x1, y0, y1 = P
    u0, u1, v0, v1 = Q
    if x0 == u0 and x1 == u1:
        if (y0 + v0) % p == 0 and (y1 + v1) % p == 0:
            return None
        n0, n1 = 3 * (x0 * x0 + ns * x1 * x1) + a4, 6 * x0 * x1
        d0, d1 = 2 * y0, 2 * y1
    else:
        n0, n1 = v0 - y0, v1 - y1
        d0, d1 = u0 - x0, u1 - x1
    inv = pow((d0 * d0 - ns * d1 * d1) % p, -1, p)
    l0 = (n0 * d0 - ns * n1 * d1) * inv % p
    l1 = (n1 * d0 - n0 * d1) * inv % p
    s0 = (l0 * l0 + ns * l1 * l1 - x0 - u0) % p
    s1 = (2 * l0 * l1 - x1 - u1) % p
    e0, e1 = x0 - s0, x1 - s1
    return (s0, s1, (l0 * e0 + ns * l1 * e1 - y0) % p, (l0 * e1 + l1 * e0 - y1) % p)


def _ec_neg(F, P):
    if P is None:
        return None
    return (P[0], P[1], -P[2] % F.p, -P[3] % F.p)


def _ec_mul2(F, a4, k, P, l, Q):
    """[k]P + [l]Q on one shared doubling chain (Straus-Shamir).

    From the top bit down the sum is doubled, then P, Q or P + Q is added
    as the bits of k and l ask: max(bit lengths) doublings in all, where two
    separate multiplications would double along both scalars.
    """
    if k < 0:
        k, P = -k, _ec_neg(F, P)
    if l < 0:
        l, Q = -l, _ec_neg(F, Q)
    # P + Q is picked only when both scalars are nonzero
    table = (None, P, Q, _ec_add(F, a4, P, Q) if k and l else None)
    out = None
    for bit in range(max(k.bit_length(), l.bit_length()) - 1, -1, -1):
        out = _ec_add(F, a4, out, out)
        pick = table[(k >> bit & 1) | (l >> bit & 1) << 1]
        if pick is not None:
            out = _ec_add(F, a4, out, pick)
    return out


def _endo(F, scale, P):
    """(x, y) -> (c^-2 x, c^-3 y), scale = (c^-2, c^-3) in F_p."""
    if P is None:
        return None
    c2, c3 = scale
    p = F.p
    return (c2 * P[0] % p, c2 * P[1] % p, c3 * P[2] % p, c3 * P[3] % p)


def _frob_point(F, P):
    # (a + bt)^p = a - bt since t^(p-1) = ns^((p-1)/2) = -1
    if P is None:
        return None
    return (P[0], -P[1] % F.p, P[2], -P[3] % F.p)


def _curve_rhs(F, curve, x):
    """x^3 + a4 x + a6 for x in F_{p^2}."""
    a4, a6 = curve
    x3 = F.mul(F.mul(x, x), x)
    return ((x3[0] + a4 * x[0] + a6) % F.p, (x3[1] + a4 * x[1]) % F.p)


def _random_point(F, curve, rng):
    while True:
        x = (rng.randrange(F.p), rng.randrange(F.p))
        y = F.sqrt(_curve_rhs(F, curve, x))
        if y is not None:
            return x + y


def _reduction_data(curve, p):
    """(F_{p^2}, (a4, a6) mod p, the tangent root c mod p, (c^-2, c^-3) mod p).

    c is the smaller root of the monic tangent minimal polynomial
    x^2 + b x + e mod p.
    """
    if p <= 3:
        raise ValueError("p too small")
    disc = -16 * (4 * curve.a4**3 + 27 * curve.a6**2)
    if disc % p == 0:
        raise ValueError(f"bad reduction at {p}")
    e, b = (int(x) for x in curve.tangent_min_poly.coeffs[:2])
    roots = quadratic_roots_mod(e, b, p)
    if not roots:
        raise Supersingular(f"tangent field is inert at {p}")
    c = roots[0]
    ci = pow(c, -1, p)
    return _GF2(p), (curve.a4 % p, curve.a6 % p), c, (ci * ci % p, ci * ci * ci % p)


def frobenius_element(curve, p, seed=1729):
    """The Frobenius element pi in O_E at a prime p of good ordinary reduction.

    pi is identified among the elements of norm p, with no point count. The
    p-power Frobenius is an endomorphism of degree p, so pi = s0 + s1 u in
    O_E = Z[u] acts as [s0] + [s1] endo and has norm p. p splits in E (an
    inert p raises Supersingular in `_reduction_data`), so the ideals of norm
    p are P and conj(P), with P the prime containing u - c. If P = (pi0),
    every element of norm p is z pi0 or z conj(pi0) for a root of unity z,
    since the units of an imaginary quadratic field are its roots of unity.
    pi is one of these 2|mu_E| candidates, and it matches the Frobenius on
    every point of C(F_{p^2}). So when exactly one candidate matches on the
    seeded points, that one is pi, and a_p = Tr(pi). The candidates are
    distinct: z pi0 = z' conj(pi0) would make P = conj(P), but `load_curve`
    admits only E = Q(i) or Q(zeta3) (Z[u] = O_E for a root of unity u),
    where every p >= 5 is unramified, so a p that is not inert splits.

    The candidates are integer pairs in the basis 1, u, so integral, and each
    must have norm p. z pi0 acts as [z] after [pi0], so each point takes one
    multiplication by pi0 or conj(pi0) and one by the tiny scalars of each
    unit still live; a candidate is dropped at its first mismatch. A
    non-principal P, or a number of survivors other than one, raises
    IdentificationFailed. As a cross-check, #C(F_{p^2}) = (p + 1)^2 - a_p^2
    must kill the first sampled point; that and a candidate of another norm
    raise InvariantViolated.
    """
    F, red, c, scale = _reduction_data(curve, p)
    cmf = curve.cmfield
    E = cmf.field
    order = maximal_order(E)
    # the prime of E above p fixed by the tangent embedding: u = c mod P
    above = [P for P in prime_split(p, order) if P.contains(curve.tangent - E.element([c]))]
    if len(above) != 1:
        raise InvariantViolated(f"{len(above)} primes above {p} contain u - {c}")
    pi0 = is_principal(above[0])
    if pi0 is None:
        raise IdentificationFailed(f"the prime above {p} that contains u - {c} is not principal")
    # candidates as integer pairs (s0, s1) in the basis 1, u of O_E = Z[u],
    # with N(s0 + s1 u) = s0^2 - b s0 s1 + e s1^2
    e, b = (int(x) for x in curve.tangent_min_poly.coeffs[:2])
    classes = []  # per base pi0, conj(pi0): its pair and its live (unit, candidate)
    for base in (pi0, cmf.conj(pi0)):
        x0, x1 = curve.tangent_coords(base)
        live = []
        for z0, z1 in curve.units:
            # (z0 + z1 u)(x0 + x1 u) with u^2 = -b u - e
            cand = (z0 * x0 - e * z1 * x1, z0 * x1 + z1 * x0 - b * z1 * x1)
            if cand[0] ** 2 - b * cand[0] * cand[1] + e * cand[1] ** 2 != p:
                raise InvariantViolated(f"Frobenius candidate {cand} in 1, u has norm != {p}")
            live.append(((z0, z1), cand))
        classes.append(((x0, x1), live))
    rng = random.Random(f"{seed}:{p}")
    points = [_random_point(F, red, rng) for _ in range(MATCH_POINTS)]
    a4 = red[0]
    for P in points:
        frob = _frob_point(F, P)
        for (s0, s1), live in classes:
            if live:
                g = _ec_mul2(F, a4, s0, P, s1, _endo(F, scale, P))
                eg = _endo(F, scale, g)
                live[:] = [(z, cand) for z, cand in live
                           if _ec_mul2(F, a4, z[0], g, z[1], eg) == frob]
    hits = [cand for _, live in classes for _, cand in live]
    if len(hits) != 1:
        raise IdentificationFailed(f"{len(hits)} candidates match the Frobenius at {p}")
    s0, s1 = hits[0]
    pi = curve.tangent * s1 + s0
    a_p = 2 * s0 - b * s1  # Tr(s0 + s1 u), Tr(u) = -b
    if a_p % p == 0:
        raise Supersingular(f"a_p = 0 at {p}")
    if _ec_mul2(F, a4, (p + 1 - a_p) * (p + 1 + a_p), points[0], 0, None) is not None:
        raise InvariantViolated(f"(p + 1)^2 - a_p^2 does not kill a point of C(F_p^2) at {p}")
    return FrobeniusData(pi, p, a_p, above[0], curve.identity_type())


def st_rhs(cmtype, k, prime):
    """The ideal product over the type of the pulled-back relative norms.

    Requires p unramified in E. Enforces the two sanity identities:
    Nm_{E/Q}(result) = q^g and result * conj(result) = (q).
    """
    E = cmtype.cmfield
    order_E = maximal_order(E.field)
    for P in prime_split(prime.p, order_E):
        if P.e != 1:
            raise RamifiedPrime(f"{prime.p} ramifies in E")
    out = reflex_norm_ideal(cmtype, k, prime)
    q = int(prime.norm())
    g = E.g
    if out.norm() != Fraction(q) ** g:
        raise InvariantViolated("norm sanity identity failed")
    if out * conjugate_ideal(E, out) != FracIdeal.unit_ideal(order_E).scaled(q):
        raise InvariantViolated("conjugate sanity identity failed")
    return out


def st_check_ideal(frob, cmtype, k, prime):
    """Exact ideal equality (pi) = st_rhs(Phi, k, P)."""
    return frob.ideal == st_rhs(cmtype, k, prime)


def st_check_valuations(pi_ideal, cmtype, k, prime):
    """Per-prime valuation identities; returns a report dict.

    Checks, for every prime v of E above p: the fixed-residue sum formula for
    ord_v(pi), which needs p unramified in E, and the ratio identity
    ord_v(pi)/ord_v(q) = |Phi . H_v| / |H_v| (which holds even at ramified p).
    pi_ideal may be a FrobeniusData, the principal ideal (pi), or the st_rhs
    output (symbolic mode).
    """
    E = cmtype.cmfield
    order_E = maximal_order(E.field)
    if isinstance(pi_ideal, FrobeniusData):
        pi_ideal = pi_ideal.ideal
    sd = splitting_data(E.field)
    p = prime.p
    q_ord_factor = prime.f  # f(P/p): ord_v(q) = e_v * f(P/p)
    report = {"p": p, "primes": [], "ok": True}
    # the prime of E below the row's prime along each embedding, with f(P / phi_i q)
    pulled = [_prime_below(prime, emb, order_E) for emb in sd.embeddings]
    for v in prime_split(p, order_E):
        ord_v_pi = pi_ideal.valuation(v)
        # H_v: embeddings of E into k pulling P back to v
        H_v = [i for i, (q, _) in enumerate(pulled) if q == v]
        phi_cap = [i for i in H_v if i in cmtype.phi]
        ord_v_q = v.e * q_ord_factor
        entry = {
            "v": repr(v),
            "ord_v_pi": ord_v_pi,
            "ord_v_q": ord_v_q,
            "H_v": len(H_v),
            "phi_cap_H_v": len(phi_cap),
        }
        ratio_ok = ord_v_pi * len(H_v) == len(phi_cap) * ord_v_q
        entry["ratio_identity"] = ratio_ok
        # fixed-residue sum: ord_v(pi) = sum of f(P / phi v) over the type
        total = sum(pulled[i][1] for i in phi_cap)
        entry["sum_identity"] = total == ord_v_pi
        report["primes"].append(entry)
        if not ratio_ok or not entry["sum_identity"]:
            report["ok"] = False
    return report


DEFAULT_CORPUS = (
    {"a4": -1, "a6": 0, "cm_disc": -4, "min_poly": (1, 0, 1),
     "cm_endo": {"kind": "unit-scaling", "tangent": (0, 1)}},
    {"a4": 0, "a6": 1, "cm_disc": -3, "min_poly": (1, 1, 1),
     "cm_endo": {"kind": "unit-scaling", "tangent": (0, 1)}},
)


def load_curve(record):
    """Build a CMCurveQ from a corpus record (see DEFAULT_CORPUS); BadCorpus refuses any other."""
    endo = record.get("cm_endo") if isinstance(record, dict) else None
    if not isinstance(endo, dict):
        raise BadCorpus("a corpus record is an object with a cm_endo object")
    for key in ("a4", "a6", "cm_disc"):
        if type(record.get(key)) is not int:
            raise BadCorpus(f"{key} is missing or not an integer: {record.get(key)!r}")
    coords = endo.get("tangent")
    if not isinstance(coords, (list, tuple)) or any(type(c) is not int for c in coords):
        raise BadCorpus(f"cm_endo tangent is missing or not a list of integers: {coords!r}")
    a4, a6 = record["a4"], record["a6"]
    if 4 * a4**3 + 27 * a6**2 == 0:
        raise BadCorpus(f"y^2 = x^3 + {a4} x + {a6} is singular: 4 a4^3 + 27 a6^2 = 0")
    try:
        E = parse_field(record)
        tangent = E.element(list(coords))
    except (BadInput, ValueError) as exc:
        raise BadCorpus(f"min_poly or tangent: {exc}") from None
    # refused before cm_check, which would build the closure of a larger field
    if E.degree != 2:
        raise BadCorpus(f"curve field {list(record['min_poly'])} is not quadratic")
    cmf = cm_check(E)
    if not isinstance(cmf, CMField):
        raise BadCorpus(f"curve field {list(record['min_poly'])} is not CM: {cmf.reason}")
    disc = maximal_order(E).disc()
    if disc != record["cm_disc"]:
        raise BadCorpus(f"cm_disc {record['cm_disc']} does not match the field's {disc}")
    if endo.get("kind") != "unit-scaling":
        raise BadCorpus(f"unknown cm_endo kind {endo.get('kind')!r}")
    # (x, y) -> (u^-2 x, u^-3 y) maps the curve to itself exactly when
    # u^4 a4 = a4 and u^6 a6 = a6
    if tangent**4 * a4 != E.element([a4]) or tangent**6 * a6 != E.element([a6]):
        raise BadCorpus(
            f"the unit scaling by {list(coords)} is not an "
            f"automorphism of y^2 = x^3 + {a4} x + {a6}"
        )
    return CMCurveQ(a4, a6, cmf, tangent)
