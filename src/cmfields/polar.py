"""Riemann-form elements and type quadruples (E, Phi; a, t).

An element alpha with conj(alpha) = -alpha and Im(phi(alpha)) > 0 on the type
classifies a rational Riemann form; a quadruple adds the period ideal and the
polarization element t with the same sign conditions. Equivalence of
quadruples is decided completely for imaginary quadratic fields (finite unit
groups) and reported honestly as inconclusive otherwise.
"""

import itertools

from .embeddings import certified_embeddings, locate_among
from .errors import InvariantViolated, PairMismatch, SearchExhausted, UnitSearchInconclusive
from .principal import is_principal

SIGN_SEARCH_CAP = 60


def _certified_im_sign(emb, elem):
    """Certified sign of Im under an embedding (the value must be nonzero)."""
    return emb.eval_refining(elem, lambda ball: ball.im_sign())


def _imaginary_sign_pattern(cmtype, alpha):
    """signs[i] = certified sign of Im(phi_i(alpha)) for i in the type."""
    E = cmtype.cmfield.field
    embs = certified_embeddings(E)
    return {i: _certified_im_sign(embs[i], alpha) for i in cmtype.indices()}


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


def _f_sign_vector(cmtype, a_in_F):
    """Certified signs of a totally real element at the real places of F."""
    F = cmtype.cmfield.real_subfield
    embs = certified_embeddings(F)
    return [
        e.eval_refining(a_in_F, lambda ball: ball.re_sign()) for e in embs
    ]


def find_riemann_element(cmtype):
    """A deterministic Riemann-form element for the CM-pair.

    Starts from a nonzero solution of conj(x) = -x (the field generator when
    the minimal polynomial is even), then corrects signs place by place with a
    totally real multiplier found by expanding-box search in F.
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
    signs = _imaginary_sign_pattern(cmtype, alpha0)
    if all(s == 1 for s in signs.values()):
        return RiemannElement(cmtype, alpha0)
    # need a in F with sign(a at place of phi_i) = signs[i]
    wanted = {}
    for i, s in signs.items():
        place = _restriction_place(cmtype, i)
        if place in wanted:
            raise InvariantViolated("two embeddings of the type restrict to one real place")
        wanted[place] = s
    F = E.real_subfield
    degF = F.degree
    target = [wanted[r] for r in range(degF)]
    for radius in range(1, SIGN_SEARCH_CAP + 1):
        box = range(-radius, radius + 1)
        for coords in itertools.product(box, repeat=degF):
            if max((abs(c) for c in coords), default=0) != radius:
                continue
            a = F.element(list(coords))
            if a.is_zero():
                continue
            if _f_sign_vector(cmtype, a) == target:
                alpha = E.real_embedding(a) * alpha0
                return RiemannElement(cmtype, alpha)
    raise SearchExhausted(f"no sign-correcting multiplier within box radius {SIGN_SEARCH_CAP}")


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

    Complete for imaginary quadratic fields: every unit u there satisfies
    u*conj(u) = 1, so the witness is determined by the ideal quotient up to
    units and a single exact comparison decides. Past degree 2 the unit group
    is infinite and no unit is searched, so a failed comparison raises
    UnitSearchInconclusive.
    """
    if q1.cmtype != q2.cmtype:
        raise PairMismatch("quadruples live on different CM-pairs")
    E = q1.cmtype.cmfield
    K = E.field
    quotient = q2.ideal * q1.ideal.inverse()
    g = is_principal(quotient)
    if g is None:
        return None
    # candidate witnesses: g times a unit; u*conj(u) == 1 for every root of
    # unity u, so g stands for all of its torsion multiples
    if q1.t / (g * E.conj(g)) == q2.t:
        return g
    if K.degree == 2:
        return None
    raise UnitSearchInconclusive(
        "no torsion-unit multiple of the generator is a witness; the unit group is infinite"
    )
