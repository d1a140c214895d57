"""CM-fields, CM-types, reflex fields and reflex norms.

A CM-type is stored as a set of canonical embedding indices of E (one per
conjugate pair). All Galois-theoretic work happens inside the closure L of E,
whose tracked roots are aligned with the canonical complex embeddings, so the
group action on embeddings is pure permutation arithmetic. The reflex field
is the fixed field L^H of the stabilizer H of the type, so it depends on H
alone and is built once per (field, H); the reflex type, the per-type
permutation work, comes from the coset decomposition of the inverted lift of
the type, and the reflex norm on elements of the reflex field is the product
over the reflex type, pulled back along the reference embedding of E. On
ideals of the reflex field it is read off the prime pull-backs of one prime
of L above each prime.
"""

import itertools
import random

from .closure import complex_conjugation, restricted_conjugation, splitting_data
from .embeddings import certified_embeddings, locate_among
from .errors import ConjugatesMissing, InvariantViolated
from .ideals import FracIdeal, PrimeIdeal, factor_ideal, prime_split, primes_of_norm_below
from .intutil import primes_up_to
from .linalg import lattice_hnf, mat_vec, right_kernel_fraction, transpose
from .memo import per_field
from .numfield import FieldMorphism, NumberField, primitive_element
from .orders import maximal_order
from .principal import torsion_units
from .unipoly import sturm_real_root_count


class NotCM:
    """Value returned by cm_check for fields that are not CM."""

    def __init__(self, reason):
        self.reason = reason

    def __repr__(self):
        return f"NotCM({self.reason!r})"

    def __bool__(self):
        return False


class CMField:
    """A CM-field with its canonical involution and totally real subfield."""

    def __init__(self, field, conj, real_subfield, real_embedding):
        self.field = field
        self.conj = conj
        self.real_subfield = real_subfield
        self.real_embedding = real_embedding

    def __repr__(self):
        return f"CMField({self.field!r})"

    def __eq__(self, other):
        return isinstance(other, CMField) and self.field == other.field

    @property
    def g(self):
        return self.field.degree // 2

    def conjugate_pairs(self):
        """Sorted list of (i, conj(i)) index pairs with i < conj(i)."""
        embs = certified_embeddings(self.field)
        out = []
        for e in embs:
            c = e.conj_index()
            if e.root_index < c:
                out.append((e.root_index, c))
        return sorted(out)


def _fixed_subfield(field, sigma):
    """(subfield F, embedding F -> field) for the fixed field of an automorphism.

    F is the kernel of sigma - 1 on the power basis; its primitive element is
    the one numfield.primitive_element finds in the kernel basis (each basis
    vector alone first, so the first one of full degree when there is one).
    """
    basis = [field.gen() ** j for j in range(field.degree)]
    kernel = right_kernel_fraction(transpose([(sigma(b) - b).coords for b in basis]))
    w, mp, _ = primitive_element([field.element(v) for v in kernel], len(kernel))
    F = NumberField(mp, check=False)
    return F, FieldMorphism(F, field, w, check=True)


def cm_check(K):
    """Decide whether K is a CM-field; returns CMField or a NotCM value."""
    if K.degree % 2 != 0 or K.degree < 2:
        return NotCM("degree is odd or too small")
    if sturm_real_root_count(K.min_poly) != 0:
        return NotCM("field has a real embedding")
    conj = complex_conjugation(K)
    if conj is None:
        return NotCM("no automorphism commutes with complex conjugation")
    if conj.is_identity():
        return NotCM("complex conjugation acts trivially")
    comp = conj.compose(conj)
    if not comp.is_identity():
        return NotCM("conjugation is not an involution")
    F, emb = _fixed_subfield(K, conj)
    if sturm_real_root_count(F.min_poly) != F.degree:
        return NotCM("fixed field of the involution is not totally real")
    if 2 * F.degree != K.degree:
        return NotCM("fixed field has the wrong degree")
    return CMField(K, conj, F, emb)


class CMType:
    """A CM-type: one canonical embedding index from each conjugate pair."""

    def __init__(self, cmfield, phi):
        self.cmfield = cmfield
        self.phi = frozenset(phi)
        pairs = cmfield.conjugate_pairs()
        chosen = set(self.phi)
        if len(chosen) != len(pairs):
            raise ValueError("CM-type has the wrong size")
        for a, b in pairs:
            if (a in chosen) == (b in chosen):
                raise ValueError("CM-type must pick one per pair")

    def __repr__(self):
        return f"CMType({sorted(self.phi)})"

    def __eq__(self, other):
        return (
            isinstance(other, CMType)
            and self.cmfield == other.cmfield
            and self.phi == other.phi
        )

    def indices(self):
        return sorted(self.phi)


def enumerate_cm_types(E):
    """All 2^g CM-types on E in canonical (binary counter over pairs) order."""
    pairs = E.conjugate_pairs()
    out = []
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        out.append(CMType(E, {p[b] for p, b in zip(pairs, bits)}))
    return out


def _fixed_cm_field(sd, stab):
    """(w, E*, inclusion E* -> L, CMField of E*) for E* = L^H, H = stab.

    w is the first candidate of numfield.primitive_element over the span
    Tr_H(gen), ..., Tr_H(gen^[L:Q]) of L^H (the gen^j are a basis of L and
    Tr_H maps L onto L^H). The complex conjugation of E* is L's, restricted
    through the inclusion (closure.restricted_conjugation), so the closure of
    E* is never built; cm_check still runs its exact tests on it.
    """
    L = sd.closure
    powers = [L.gen() ** j for j in range(1, L.degree + 1)]
    span = [sum((sd.autos[s](u) for s in stab), L.zero()) for u in powers]
    w, mp, _ = primitive_element(span, len(sd.autos) // len(stab))
    E_star = NumberField(mp, check=False)
    inclusion = FieldMorphism(E_star, L, w, check=True)
    per_field("complex_conjugation", E_star, lambda: restricted_conjugation(sd, inclusion))
    rc = cm_check(E_star)
    if not isinstance(rc, CMField):
        raise InvariantViolated(f"reflex field is not CM: {rc.reason}")
    return w, E_star, inclusion, rc


class ReflexData:
    """Reflex field and reflex type of a CM-pair, realized in the closure L.

    E* is the fixed field of the stabilizer H of Phi in Gal(L/Q). It depends
    on H alone, so _fixed_cm_field builds it once per (field, H) and every
    type with that stabilizer shares the objects; the reflex type Psi and
    psi_reps are the per-type permutation work.

    Attributes:
      cmtype:            the input CM-type (E, Phi)
      closure:           L (Galois over Q), containing all conjugates of E
      reflex_field:      E* as an abstract NumberField
      reflex_cmfield:    CMField structure on E*
      reflex_inclusion:  FieldMorphism E* -> L
      reflex_type:       CMType on E* (the type Psi)
      psi_reps:          automorphism indices of L restricting to Psi
    """

    def __init__(self, cmtype):
        E = cmtype.cmfield
        sd = splitting_data(E.field)
        self.cmtype = cmtype
        self.sd = sd
        self.closure = sd.closure
        phi = set(cmtype.phi)
        size = len(sd.autos)

        stab = [s for s in range(size) if {sd.perm[s][i] for i in phi} == phi]
        self.stabilizer = stab

        w, self.reflex_field, self.reflex_inclusion, self.reflex_cmfield = per_field(
            "reflex_fixed_field", E.field, lambda: _fixed_cm_field(sd, stab), tuple(stab))

        # Psi: decompose {s : s maps the reference root into Phi}^(-1) into
        # left cosets of the stabilizer; each coset restricts to one embedding
        j0 = 0
        lift = [s for s in range(size) if sd.perm[s][j0] in phi]
        inverted = [sd.inv[s] for s in lift]
        self.j0 = j0
        reps = []
        covered = set()
        for s in sorted(inverted):
            if s in covered:
                continue
            reps.append(s)
            coset = {sd.mult[s][t] for t in stab}
            covered |= coset
        if len(covered) != len(inverted) or set(inverted) != covered:
            raise InvariantViolated("the inverted lift is not a union of stabilizer cosets")
        self.psi_reps = reps

        psi_indices = set()
        for s in reps:
            v = sd.autos[s](w)
            idx = locate_among(certified_embeddings(self.closure)[0], v, self.reflex_field)
            psi_indices.add(idx)
        if len(psi_indices) != len(reps):
            raise InvariantViolated("coset representatives collide")
        self.reflex_type = CMType(self.reflex_cmfield, psi_indices)

    def reflex_norm_element(self, b):
        """N_Phi(b) in E, for b in the reflex field E*."""
        sd = self.sd
        if b.field != self.reflex_field:
            raise ValueError("element not in the reflex field")
        bL = self.reflex_inclusion(b)
        prod = sd.closure.one()
        for s in self.psi_reps:
            prod = prod * sd.autos[s](bL)
        out = sd.embeddings[self.j0].preimage(prod)
        if out is None:
            raise InvariantViolated("reflex norm did not land in E")
        return out

    def reflex_norm_ideal(self, b_ideal):
        """N_Phi on a fractional ideal of O_{E*}, prime by prime.

        For a prime P of L above a prime q of E*, Nm_{L/E*} P = q^f with
        f = f(P/q), so N_{L,Phi}(P) = N_Phi(q)^f. N_{L,Phi}(P) is the product
        of P's pull-backs along Phi, so N_Phi(q) is that product with each
        exponent divided by f; no ideal of L is factored and no root taken.
        """
        sd = self.sd
        OL = maximal_order(self.closure)
        order_E = maximal_order(sd.field)
        out = FracIdeal.unit_ideal(order_E)
        for q, v in factor_ideal(b_ideal).items():
            for P in prime_split(q.p, OL):
                below, f = _prime_below(P, self.reflex_inclusion, q.order)
                if below == q:
                    break
            else:
                raise InvariantViolated(f"no prime of the closure above {q!r}")
            exps = {}
            for i in sorted(self.cmtype.phi):
                Q, f_rel = _prime_below(P, sd.embeddings[i], order_E)
                exps[Q] = exps.get(Q, 0) + f_rel
            for Q, e in exps.items():
                if e % f:
                    raise InvariantViolated(f"exponent {e} of N_Phi(P) not divisible by f = {f}")
                out = out * Q ** (v * e // f)
        return out


def reflex_field(cmtype):
    """ReflexData for a CM-pair (memoized per field value and type)."""
    return per_field("reflex", cmtype.cmfield.field, lambda: ReflexData(cmtype), cmtype.phi)


def _require_closure(cmtype, k):
    """k must be realized inside the closure; returns the splitting data."""
    sd = splitting_data(cmtype.cmfield.field)
    if k != sd.closure:
        raise ConjugatesMissing(
            "k must contain all conjugates of E; pass E itself (when Galois) "
            "or the Galois closure"
        )
    return sd


def reflex_norm_elem(cmtype, k, a):
    """N_{k,Phi}(a) for a in k: the product over Phi of phi^{-1}(Nm_{k/phi E} a)."""
    sd = _require_closure(cmtype, k)
    if a.field != sd.closure:
        raise ValueError("element not in k")
    if a.is_zero():
        raise ValueError("reflex norm of zero")
    E = cmtype.cmfield.field
    out = E.one()
    for i in sorted(cmtype.phi):
        # Gal(L / phi_i(E)): automorphisms fixing the i-th root
        rel_norm = sd.closure.one()
        for s in sd.stabilizer_of_point(i):
            rel_norm = rel_norm * sd.autos[s](a)
        pre = sd.embeddings[i].preimage(rel_norm)
        if pre is None:
            raise InvariantViolated("relative norm not in phi(E)")
        out = out * pre
    return out


def _prime_below(P, incl, order_down):
    """(q, f(P / q)) for the prime q of order_down with incl(q) O_L <= P.

    When incl is an automorphism sigma of P's field and order_down is P's
    order, q is sigma^-1(P) and f(P / q) = 1: the identity returns P, and
    any other sigma transports P (`_pull_back_prime`), with no search and no
    memo entry per prime. Otherwise incl(q) O_L lies in P exactly when p and
    every generator of q.gens map into P, and p is in P always, so a
    candidate of `prime_split` costs one membership test per generator and
    no HNF. That search is memoized per L, keyed by P, the source field and
    the generator image.
    """
    if incl.source == incl.target == P.order.field and order_down == P.order:
        return (P if incl.is_identity() else _pull_back_prime(P, incl)), 1

    def find():
        for q in prime_split(P.p, order_down):
            if all(P.contains(incl(g)) for g in q.gens):
                if P.f % q.f:
                    raise InvariantViolated(f"residue degree {q.f} does not divide {P.f}")
                return q, P.f // q.f
        raise InvariantViolated(f"no prime below {P!r} found")

    return per_field("prime_below", P.order.field, find,
                     P, incl.source.min_poly, _morphism_key(incl))


def _morphism_key(sigma):
    """The generator image of a morphism as a hashable (den, numerators) pair."""
    image = sigma.image_of_generator
    return image.den, tuple(image.num)


def _pullback_matrix(order, sigma):
    """The integer matrix of sigma^-1 on the order basis, sigma an automorphism of its field.

    sigma maps the maximal order onto itself, so column j holds the integer
    coordinates of sigma^-1(w_j) (`FieldMorphism.preimage`), and the
    pull-back sigma^-1(a) of an ideal is this matrix times a's basis columns.
    Memoized per order and automorphism.
    """
    def build():
        return transpose([order.integral_coords(sigma.preimage(w)) for w in order.elements])

    return per_field("pullback_matrix", order.field, build, order, _morphism_key(sigma))


def _pull_back(a, M):
    """sigma^-1(a) for a fractional ideal a, M = `_pullback_matrix` of sigma."""
    return FracIdeal(a.order, *lattice_hnf([mat_vec(M, col) for col in a.basis_columns()], a.den))


def _pull_back_prime(P, sigma):
    """sigma^-1(P) as a PrimeIdeal, transported with its generators and anti-uniformizer.

    sigma^-1 is a ring automorphism of O, so it keeps p, e and f, takes the
    generators g to sigma^-1(g), and beta*P <= pO with beta not in pO to the
    same for beta' = sigma^-1(beta).
    """
    order = P.order
    M = _pullback_matrix(order, sigma)
    Q = _pull_back(P, M)
    gens = [order.element_from_coords(mat_vec(M, order.integral_coords(g))) for g in P.gens]
    beta = mat_vec(M, mat_vec(P.beta_matrix, order.one_coords))
    return PrimeIdeal(order, Q.den, Q.hnf, P.p, P.e, P.f, gens, beta)


def _norm_down(a, incls, order_down):
    """The product over the inclusions F -> L of Nm_{L/F} a; a is factored once."""
    out = FracIdeal.unit_ideal(order_down)
    for P, v in factor_ideal(a).items():
        for incl in incls:
            q, f_rel = _prime_below(P, incl, order_down)
            out = out * q ** (v * f_rel)
    return out


def reflex_norm_ideal(cmtype, k, a):
    """N_{k,Phi} of a fractional ideal of O_k, by prime decomposition.

    Multiplicative and compatible with reflex_norm_elem on principal ideals.
    """
    sd = _require_closure(cmtype, k)
    if a.order != maximal_order(sd.closure):
        raise ValueError("ideal not over O_k")
    phi = [sd.embeddings[i] for i in sorted(cmtype.phi)]
    return _norm_down(a, phi, maximal_order(cmtype.cmfield.field))


def conjugate_ideal(cmfield, a):
    """The image of an ideal of O_E under the canonical involution.

    The involution is its own inverse, so the image is the pull-back of a
    along it (`_pull_back`), on the involution's memoized integer matrix.
    """
    return _pull_back(a, _pullback_matrix(a.order, cmfield.conj))


def _random_element(field, rng, height=8):
    while True:
        e = field.element([rng.randint(-height, height) for _ in range(field.degree)])
        if not e.is_zero():
            return e


def verify_reflex_identities(cmtype, k, n_samples, seed, norm_bound=200):
    """Exact checks of the reflex-norm identity suite; returns a report dict.

    Identities: the unit-norm consequence of the product formula, the
    conjugate-product identity on elements and ideals, compatibility through
    the reflex field (elements and ideals), ideal multiplicativity, the
    power identity N_Phi(q)^[L:E*] = N_{k,Phi}(q O_L) for primes q of the
    reflex field, and element/ideal consistency on principal ideals, at
    every prime of norm below norm_bound. Any failure is recorded with a
    witness.
    """
    sd = _require_closure(cmtype, k)
    E = cmtype.cmfield
    L = sd.closure
    OL = maximal_order(L)
    OE = maximal_order(E.field)
    rd = reflex_field(cmtype)
    OStar = maximal_order(rd.reflex_field)
    deg_over_reflex = L.degree // rd.reflex_field.degree
    rng = random.Random(seed)
    report = {"field": [int(c) for c in E.field.min_poly.int_coeffs()[0]],
              "phi": cmtype.indices(), "samples": n_samples, "seed": seed,
              "identities": {}}

    def record(name, ok, witness=None):
        entry = report["identities"].setdefault(name, {"pass": 0, "fail": 0})
        if ok:
            entry["pass"] += 1
        else:
            entry["fail"] += 1
            entry.setdefault("witness", witness)

    # elements
    for _ in range(n_samples):
        a = _random_element(L, rng)
        na = reflex_norm_elem(cmtype, k, a)
        lhs = na * E.conj(na)
        rhs = a.norm()
        record("conjugate_product_elements", lhs == E.field.element([rhs]), [str(c) for c in a.coords])
        # compatibility through the reflex field: N_{k,Phi} = N_Phi . Nm_{k/E*}
        rel = L.one()
        for s in rd.stabilizer:
            rel = rel * sd.autos[s](a)
        b = rd.reflex_inclusion.preimage(rel)
        ok = b is not None
        if ok:
            ok = rd.reflex_norm_element(b) == na
        record("reflex_compatibility_elements", ok, [str(c) for c in a.coords])

    # unit preservation: torsion units of O_k map to units of O_E
    for u in torsion_units(OL):
        n_u = reflex_norm_elem(cmtype, k, u)
        record("unit_preservation", abs(n_u.norm()) == 1, [str(c) for c in u.coords])

    # ideals: the primes of O_L of norm < norm_bound. A p with no prime of
    # norm < norm_bound above it is decided from g mod p, with no prime
    # split or built (primes_of_norm_below)
    primes = [P for p in primes_up_to(norm_bound - 1)
              for P in primes_of_norm_below(p, OL, norm_bound)]
    report["prime_count"] = len(primes)

    for P in primes:
        nP = reflex_norm_ideal(cmtype, k, P)
        conj_nP = conjugate_ideal(E, nP)
        rhs = FracIdeal.principal(OE, E.field.one() * 1).scaled(P.norm())
        record("conjugate_product_ideals", nP * conj_nP == rhs, repr(P))

    for _ in range(min(n_samples, 60)):
        if len(primes) < 2:
            break
        P1, P2 = rng.choice(primes), rng.choice(primes)
        lhs = reflex_norm_ideal(cmtype, k, P1 * P2)
        rhs = reflex_norm_ideal(cmtype, k, P1) * reflex_norm_ideal(cmtype, k, P2)
        record("ideal_multiplicativity", lhs == rhs, (repr(P1), repr(P2)))

    # principal consistency: N_{k,Phi}((a)) = (N_{k,Phi}(a))
    for _ in range(min(n_samples, 12)):
        a = _random_element(L, rng, height=3)
        lhs = reflex_norm_ideal(cmtype, k, FracIdeal.principal(OL, a))
        rhs = FracIdeal.principal(OE, reflex_norm_elem(cmtype, k, a))
        record("principal_consistency", lhs == rhs, [str(c) for c in a.coords])

    # power and compatibility identities on ideals extended from the reflex
    # field: N_Phi(q) by pull-backs of one prime above q against the
    # factored norm of the extension, which is computed once
    star_primes = [q for p in primes_up_to(norm_bound - 1)
                   for q in primes_of_norm_below(p, OStar, norm_bound)]
    report["reflex_prime_count"] = len(star_primes)
    for q in star_primes:
        ext = FracIdeal.from_generators(
            OL, [rd.reflex_inclusion(g) for g in q.two_element_like_generators()]
        )
        big = reflex_norm_ideal(cmtype, k, ext)
        record("reflex_ideal_root", rd.reflex_norm_ideal(q) ** deg_over_reflex == big, repr(q))
        # compatibility: N_{k,Phi}(ext) = N_Phi(Nm_{k/E*} ext); the right
        # side sends the extension's relative norm back through N_Phi
        rhs = rd.reflex_norm_ideal(_norm_down(ext, [rd.reflex_inclusion], OStar))
        record("reflex_compatibility_ideals", big == rhs, repr(q))

    report["ok"] = all(v["fail"] == 0 for v in report["identities"].values())
    return report

