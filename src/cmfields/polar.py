"""Riemann-form elements and type quadruples (E, Phi; a, t).

An element alpha with conj(alpha) = -alpha and Im(phi(alpha)) > 0 on the type
classifies a rational Riemann form; a quadruple adds the period ideal and the
polarization element t with the same sign conditions. Equivalence of
quadruples is decided by one finite search for the units of a given
relative norm, so it needs no unit group.
"""

from fractions import Fraction

from .embeddings import certified_embeddings, locate_among
from .errors import InvariantViolated, PairMismatch
from .principal import is_principal, units_of_relative_norm


def _imaginary_sign_pattern(cmtype, alpha):
    """signs[i] = certified sign of Im(phi_i(alpha)) for i in the type (alpha nonzero)."""
    embs = certified_embeddings(cmtype.cmfield.field)
    return {i: embs[i].eval_refining(alpha, lambda b: b.im_sign()) for i in cmtype.indices()}


def is_totally_imaginary_element(cmfield, alpha):
    """conj(alpha) == -alpha, exactly."""
    return cmfield.conj(alpha) == -alpha


class RiemannElement:
    """alpha with conj(alpha) = -alpha and Im(phi(alpha)) > 0 for phi in the type."""

    def __init__(self, cmtype, alpha):
        if not is_totally_imaginary_element(cmtype.cmfield, alpha):
            raise ValueError("conj(alpha) != -alpha")
        if alpha.is_zero():
            raise ValueError("alpha must be nonzero")
        signs = _imaginary_sign_pattern(cmtype, alpha)
        if any(s != 1 for s in signs.values()):
            raise ValueError(f"Im(phi(alpha)) not positive on the type: {signs}")
        self.cmtype = cmtype
        self.alpha = alpha

    def __repr__(self):
        return f"RiemannElement({list(self.alpha.coords)})"


def _restriction_place(cmtype, i):
    """Real-embedding index of F under the restriction of the i-th embedding."""
    E = cmtype.cmfield
    emb_i = certified_embeddings(E.field)[i]
    return locate_among(emb_i, E.real_embedding.image_of_generator, E.real_subfield)


def _sign_multiplier(F, target):
    """An element of the totally real field F with sign target[k] at real place k.

    F's certified root disks have disjoint real intervals that increase with
    the index (embeddings._canonical_order: two real roots in one cluster would
    need disjoint imaginary intervals, and both contain 0). With r_k a dyadic
    point in the gap after interval k, gen - r_k is negative at places <= k
    and positive above, so target[-1] times the product of gen - r_k over the
    k where target changes sign has sign target[j] at every place j.
    """
    balls = [e.ball for e in certified_embeddings(F)]
    a = F.one() * target[-1]
    for k, (lo, hi) in enumerate(zip(balls, balls[1:])):
        if target[k] != target[k + 1]:
            # r_k = n/2^s of least s strictly inside the gap (x, y)/2^e, which
            # keeps a small; s = e + 1 (n = 2x + 1, the midpoint) always is
            x, y, e, s = lo.a + lo.r, hi.a - hi.r, lo.k, 0
            while ((n := ((x << s) >> e) + 1) << e) >= y << s:
                s += 1
            a = a * (F.gen() - Fraction(n, 1 << s))
    return a


def find_riemann_element(cmtype):
    """A deterministic Riemann-form element for the CM-pair.

    Starts from a nonzero solution alpha0 of conj(x) = -x (the field
    generator when the minimal polynomial is even), then multiplies it by a
    totally real element with the sign of Im(phi(alpha0)) at the real place
    below each phi of the type, built by _sign_multiplier, not searched for.
    """
    E = cmtype.cmfield
    K = E.field
    gen = K.gen()
    if K.min_poly.is_even_poly() and E.conj(gen) == -gen:
        alpha0 = gen
    else:
        alpha0 = gen - E.conj(gen)
        if alpha0.is_zero():
            raise InvariantViolated("complex conjugation fixes the field generator")
    wanted = {}
    for i, s in _imaginary_sign_pattern(cmtype, alpha0).items():
        place = _restriction_place(cmtype, i)
        if place in wanted:
            raise InvariantViolated("two embeddings of the type restrict to one real place")
        wanted[place] = s
    a = _sign_multiplier(E.real_subfield, [s for _, s in sorted(wanted.items())])
    return RiemannElement(cmtype, E.real_embedding(a) * alpha0)


class TypeQuadruple:
    """(E, Phi; a, t): period ideal and polarization element."""

    def __init__(self, cmtype, ideal, t):
        self.cmtype = cmtype
        self.ideal = ideal
        self.t = t

    def __repr__(self):
        return f"TypeQuadruple(phi={self.cmtype.indices()}, t={list(self.t.coords)})"


def validate_quadruple(q):
    """(valid, diagnostics): exact involution check, certified positivity."""
    diagnostics = {}
    E = q.cmtype.cmfield
    diagnostics["t_nonzero"] = not q.t.is_zero()
    diagnostics["conj_t_is_minus_t"] = (
        diagnostics["t_nonzero"] and is_totally_imaginary_element(E, q.t)
    )
    if diagnostics["conj_t_is_minus_t"]:
        signs = _imaginary_sign_pattern(q.cmtype, q.t)
        diagnostics["im_positive_on_type"] = all(s == 1 for s in signs.values())
        diagnostics["signs"] = signs
    else:
        diagnostics["im_positive_on_type"] = False
    diagnostics["ideal_nonzero"] = q.ideal.norm() != 0
    ok = (
        diagnostics["t_nonzero"]
        and diagnostics["conj_t_is_minus_t"]
        and diagnostics["im_positive_on_type"]
        and diagnostics["ideal_nonzero"]
    )
    return ok, diagnostics


def quadruples_equivalent(q1, q2):
    """A witness a with (a2, t2) = (a*a1, t1/(a*conj(a))), or None.

    The witnesses are the generators g*u of a2/a1 with u a unit and
    u*conj(u) = e = t1/(t2*g*conj(g)), for g the generator that
    `is_principal` finds. When e is not a unit there is none; otherwise
    `units_of_relative_norm` lists every such u, so None is a proof.
    """
    if q1.cmtype != q2.cmtype:
        raise PairMismatch("quadruples live on different CM-pairs")
    E = q1.cmtype.cmfield
    quotient = q2.ideal * q1.ideal.inverse()
    g = is_principal(quotient)
    if g is None:
        return None
    if q1.t / (g * E.conj(g)) == q2.t:
        return g
    e = q1.t / (q2.t * g * E.conj(g))
    order = quotient.order
    if not order.contains(e) or abs(e.norm()) != 1:
        return None
    units = units_of_relative_norm(order, e)
    return g * units[0] if units else None
