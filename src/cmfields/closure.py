"""Galois closures by iterated root adjunction, with full root tracking.

The closure of K = Q[x]/(f) is built by repeatedly adjoining a root of the
unsplit part R of f. Each round forms the etale algebra A = L[y]/(R), takes
the primitive element g = y + c*theta that numfield.primitive_element finds
among the combinations of y and theta (the minimal polynomial of each
candidate is the first dependency among its powers; no resultants), factors
the degree-(dim A) minimal polynomial of g over Q, and reads off one
component per factor: degree-[L:Q] components yield roots already in
L, a larger component becomes the new L. Because only roots of f are ever
adjoined, the final primitive element is a known integer combination of
tracked roots, which makes the automorphism group a finite search.

The tracked roots are matched to the canonical complex embeddings of K, so
complex conjugation is read off the group exactly: it is the automorphism
that permutes the roots as conjugation permutes the embeddings. The
conjugation of K, or of any subfield of L, is its restriction (one exact
preimage, restricted_conjugation); no automorphism of K is searched for.
"""

from itertools import zip_longest

from .embeddings import certified_embeddings, locate_among
from .errors import ClosureTooLarge, InvariantViolated
from .linalg import first_dependency, linear_solver, transpose
from .memo import per_field
from .numfield import FieldMorphism, NumberField, primitive_element
from .ratfactor import factor_rational_poly
from .unipoly import UniPoly

CLOSURE_DEGREE_CAP = 16


def _lpoly_trim(p):
    while p and p[-1].is_zero():
        p.pop()
    return p


def _lpoly_mul(a, b):
    if not a or not b:
        return []
    field = a[0].field
    out = [field.zero() for _ in range(len(a) + len(b) - 1)]
    for i, ca in enumerate(a):
        if not ca.is_zero():
            for j, cb in enumerate(b):
                if not cb.is_zero():
                    out[i + j] = out[i + j] + ca * cb
    return _lpoly_trim(out)


def _lpoly_divmod_monic(a, b):
    """Divide by a monic polynomial over the field."""
    a = list(a)
    d = len(b) - 1
    if len(a) - 1 < d:
        return [], _lpoly_trim(a)
    field = b[-1].field
    q = [field.zero() for _ in range(len(a) - d)]
    for k in range(len(q) - 1, -1, -1):
        c = a[k + d]
        if not c.is_zero():
            q[k] = c
            for i, bc in enumerate(b):
                a[k + i] = a[k + i] - c * bc
    return _lpoly_trim(q), _lpoly_trim(a[:d])


def _lpoly_eval(p, x):
    field = x.field
    acc = field.zero()
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _lpoly_from_rational(field, poly):
    return _lpoly_trim([field.element([c]) for c in poly.coeffs])


class _Algebra:
    """L[y]/(R) with R monic squarefree over L, a Q-algebra of dimension dim."""

    def __init__(self, field, rel):
        self.field = field
        self.rel = rel
        self.deg = len(rel) - 1
        self.dim = field.degree * self.deg

    def theta(self):
        return _AlgebraElement(self, [self.field.gen()])

    def y(self):
        return _AlgebraElement(self, [self.field.zero(), self.field.one()])

    def power_vectors(self, w, count):
        """Coordinate vectors of w^0, ..., w^(count - 1)."""
        cur = _AlgebraElement(self, [self.field.one()])
        out = [cur.vector()]
        while len(out) < count:
            cur = cur * w
            out.append(cur.vector())
        return out

    def min_poly(self, w):
        """The minimal polynomial of w; its power vectors are kept as self.powers."""
        self.powers = self.power_vectors(w, self.dim + 1)
        coeffs = first_dependency(self.powers)
        return UniPoly([-c for c in coeffs] + [1])


class _AlgebraElement:
    """An element of L[y]/(R), as its list of y-coefficients."""

    __slots__ = ("alg", "coeffs")

    def __init__(self, alg, coeffs):
        self.alg = alg
        self.coeffs = coeffs

    def __add__(self, other):
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=self.alg.field.zero())
        return _AlgebraElement(self.alg, _lpoly_trim([a + b for a, b in pairs]))

    def __mul__(self, other):
        if isinstance(other, _AlgebraElement):
            prod = _lpoly_mul(self.coeffs, other.coeffs)
            return _AlgebraElement(self.alg, _lpoly_divmod_monic(prod, self.alg.rel)[1])
        return _AlgebraElement(self.alg, _lpoly_trim([c * other for c in self.coeffs]))

    def vector(self):
        pad = [self.alg.field.zero()] * (self.alg.deg - len(self.coeffs))
        return [x for c in self.coeffs + pad for x in c.coords]


def _round_adjoin(field, roots, rel, gen_combo):
    """One adjunction round. Returns updated (field, roots, rel, gen_combo)."""
    alg = _Algebra(field, rel)
    if alg.dim > CLOSURE_DEGREE_CAP:
        raise ClosureTooLarge(
            f"splitting algebra dimension {alg.dim} exceeds cap {CLOSURE_DEGREE_CAP}"
        )
    # gamma = a*y + shift*theta = y + c*theta. Neither y nor theta alone can
    # generate: they take at most deg R and [L:Q] values, both < dim.
    gamma, h, (a, shift) = primitive_element(
        [alg.y(), alg.theta()], alg.dim, alg.min_poly, singles=False
    )
    _, factors = factor_rational_poly(h)
    if any(m != 1 for _, m in factors):
        raise InvariantViolated("splitting algebra is not etale")

    # gamma was the last element asked for, so alg.powers are its powers
    solve = linear_solver(transpose(alg.powers[: alg.dim]))
    w_theta = solve(alg.theta().vector())
    w_y = solve(alg.y().vector())

    comps = []
    for h_t, _ in factors:
        L_t = NumberField(h_t, check=False)
        theta_img = L_t.from_poly(UniPoly(w_theta))
        y_img = L_t.from_poly(UniPoly(w_y))
        if not field.min_poly(theta_img).is_zero():
            raise InvariantViolated("theta does not map to a root of its minimal polynomial")
        comps.append((h_t.degree, L_t, theta_img, y_img))

    n = field.degree
    in_field = [c for c in comps if c[0] == n]
    growing = [c for c in comps if c[0] > n]

    peeled = []
    for _, L_t, theta_img, y_img in in_field:
        iota_t = FieldMorphism(field, L_t, theta_img, check=False)
        r = iota_t.preimage(y_img)
        if r is None:
            raise InvariantViolated("a degree-[L:Q] component gives no root in L")
        peeled.append(r)

    if not growing:
        for r in peeled:
            rel = _lpoly_divmod_monic(rel, [-r, field.one()])[0]
            roots.append(r)
        return field, roots, rel, gen_combo

    growing.sort(key=lambda c: c[0])
    _, L_new, theta_img, y_img = growing[-1]
    if L_new.degree > CLOSURE_DEGREE_CAP:
        raise ClosureTooLarge(f"closure degree {L_new.degree} exceeds cap")
    iota = FieldMorphism(field, L_new, theta_img, check=False)
    roots = [iota(r) for r in roots]
    rel = [iota(c) for c in rel]
    new_combo = [(len(roots), a)] + [(i, shift * w) for i, w in gen_combo]
    roots.append(y_img)
    rel = _lpoly_divmod_monic(rel, [-y_img, L_new.one()])[0]
    for r in peeled:
        rm = iota(r)
        rel = _lpoly_divmod_monic(rel, [-rm, L_new.one()])[0]
        roots.append(rm)
    return L_new, roots, rel, new_combo


class SplittingData:
    """Galois closure of a field with tracked roots and the full automorphism group.

    Attributes:
      field:       the input field K
      closure:     L, a splitting field of K.min_poly (Galois over Q)
      roots:       roots of K.min_poly in L; roots[i] realizes the i-th canonical
                   complex embedding of K (composed with closure_embedding_zero)
      embeddings:  FieldMorphisms K -> L, one per root, same order
      autos:       FieldMorphisms L -> L; autos[0] is the identity
      perm:        perm[s][i] = j iff autos[s](roots[i]) == roots[j]
      mult:        mult[s][t] = index of autos[s] . autos[t] (s after t)
      inv:         inverse index per group element
      conjugation: index of complex conjugation (the restriction to L, through
                   canonical embedding #0 of L, of conjugation on C)
      central:     whether it is central, i.e. whether L has a complex conjugation
    """

    def __init__(self, field):
        f = field.min_poly
        if field.degree > 8:
            raise ClosureTooLarge("closure is only computed for fields of degree <= 8")
        L = field
        roots = [field.gen()]
        gen_combo = [(0, 1)]
        rel = _lpoly_divmod_monic(
            _lpoly_from_rational(field, f), [-roots[0], field.one()]
        )[0]

        # rel is the monic cofactor of the known roots: peel, then a round,
        # while its degree len(rel) - 1 is at least 2, and read off a last linear root
        while len(rel) > 2:
            # cheap peels before any algebra round: negatives (even polynomials)
            # and powers of known roots (cyclotomic-type fields)
            progress = True
            while progress and len(rel) > 2:
                progress = False
                candidates = []
                for r in roots:
                    candidates.append(-r)
                    power = r
                    for _ in range(field.degree - 1):
                        power = power * r
                        candidates.append(power)
                for cand in candidates:
                    if len(rel) <= 2:
                        break
                    if any(cand == r for r in roots):
                        continue
                    if _lpoly_eval(rel, cand).is_zero():
                        rel = _lpoly_divmod_monic(rel, [-cand, L.one()])[0]
                        roots.append(cand)
                        progress = True
            if len(rel) > 2:
                L, roots, rel, gen_combo = _round_adjoin(L, roots, rel, gen_combo)
        if len(rel) == 2:
            roots.append(-rel[0])

        if len(roots) != field.degree:
            raise InvariantViolated(f"{len(roots)} roots tracked for degree {field.degree}")
        check = _lpoly_from_rational(L, f)
        prod = [L.one()]
        for r in roots:
            prod = _lpoly_mul(prod, [-r, L.one()])
        if any(not (a - b).is_zero() for a, b in zip(prod, check)):
            raise InvariantViolated("closure does not split f")

        # canonical root order: roots[i] corresponds to K's canonical embedding i
        order = _match_to_canonical(L, roots, field)
        roots = [roots[order.index(i)] for i in range(len(roots))]
        gen_combo = [(order[i], w) for i, w in gen_combo]

        self.field = field
        self.closure = L
        self.roots = roots
        self.embeddings = [FieldMorphism(field, L, r, check=False) for r in roots]
        self._build_group(gen_combo)
        # the roots in gen_combo generate an order far closer to O_L than
        # Z[gen]; record them (never over an earlier entry) for maximal_order
        # to start from, but build no order: most closures never need one
        per_field("closure_roots", L, lambda: (field, tuple(roots[i] for i, _ in gen_combo)))

    def _build_group(self, gen_combo):
        L = self.closure
        roots = self.roots
        h = L.min_poly
        m = len(gen_combo)
        n = len(roots)
        images = []
        seen = set()

        def rec(chosen, used):
            if len(chosen) == m:
                v = L.zero()
                for (idx, w), u in zip(gen_combo, chosen):
                    v = v + roots[u] * w
                if v.coords not in seen and h(v).is_zero():
                    seen.add(v.coords)
                    images.append(v)
                return
            for u in range(n):
                if u not in used:
                    rec(chosen + [u], used | {u})

        rec([], frozenset())
        if len(images) != L.degree:
            raise InvariantViolated(f"found {len(images)} automorphisms, expected {L.degree}")

        # the roots generate L, so an automorphism is fixed by its permutation
        # of them and a product composes permutations; sorted by permutation,
        # the identity comes first
        autos = [FieldMorphism(L, L, v, check=False) for v in images]
        perms = [tuple(roots.index(sigma(r)) for r in roots) for sigma in autos]
        order = sorted(range(len(autos)), key=perms.__getitem__)
        self.autos = [autos[s] for s in order]
        self.perm = [perms[s] for s in order]
        if self.perm[0] != tuple(range(n)):
            raise InvariantViolated("identity automorphism missing")
        idx_of = {p: s for s, p in enumerate(self.perm)}
        self.mult = [[idx_of[tuple(ps[i] for i in pt)] for pt in self.perm] for ps in self.perm]
        self.inv = [row.index(0) for row in self.mult]
        self.identity = 0
        # psi_0(L) is normal, so conjugation on C restricts to L; psi_0 maps
        # roots[i] to K's canonical root i, so it sends roots[i] to roots[conj(i)]
        conj = tuple(e.conj_index() for e in certified_embeddings(self.field))
        if conj not in idx_of:
            raise InvariantViolated("complex conjugation is not in the closure's group")
        c = self.conjugation = idx_of[conj]
        # L's embeddings are psi_0 . t, and (psi_0 . t) . s = conj . psi_0 . t for
        # every t forces s = t^-1 c t: L has a complex conjugation exactly when
        # c is central. Seed the memo (never over an earlier entry) rather than
        # build the closure of L itself
        self.central = all(self.mult[c][t] == self.mult[t][c] for t in range(len(self.autos)))
        per_field("complex_conjugation", L, lambda: self.autos[c] if self.central else None)

    def stabilizer_of_point(self, root_index):
        """Indices of automorphisms fixing the given root (i.e. Gal(L/that copy of K))."""
        return [s for s, p in enumerate(self.perm) if p[root_index] == root_index]


def _match_to_canonical(L, roots, K):
    """order[i] = canonical complex-embedding index of K realized by roots[i].

    Each tracked root is located, under the canonical embedding #0 of L,
    among the certified root disks of K.
    """
    psi0 = certified_embeddings(L)[0]
    order = [locate_among(psi0, r, K) for r in roots]
    if len(set(order)) != len(roots):
        raise InvariantViolated("two tracked roots meet one root of K")
    return order


def splitting_data(field):
    """Memoized Galois closure with tracked roots and automorphism group."""
    return per_field("splitting_data", field, lambda: SplittingData(field))


def complex_conjugation(K):
    """The automorphism commuting with every complex conjugation, or None.

    Returns the identity for totally real fields, the canonical involution for
    CM fields, and None when no automorphism satisfies phi.sigma = conj(phi)
    for every certified embedding phi.
    """
    return per_field("complex_conjugation", K, lambda: _complex_conjugation(K))


def _complex_conjugation(K):
    """K's complex conjugation, restricted from its closure along embedding #0."""
    sd = splitting_data(K)
    return restricted_conjugation(sd, sd.embeddings[0])


def restricted_conjugation(sd, incl):
    """The sigma of F with incl . sigma = iota . incl, for incl: F -> sd.closure; or None.

    iota = sd.autos[sd.conjugation] is conjugation on C restricted through
    psi_0, canonical embedding #0 of L. Every embedding of F is psi_0 . t . incl
    for an automorphism t, so when iota is central, psi_0 . t . incl . sigma =
    psi_0 . t . iota . incl = conj . psi_0 . t . incl for every t. A central iota
    maps each subfield L^H to itself (iota H iota^-1 = H). When iota is not
    central L is neither CM nor totally real, nor is a field whose closure L is.
    """
    if not sd.central:
        return None
    pre = incl.preimage(sd.autos[sd.conjugation](incl.image_of_generator))
    return None if pre is None else FieldMorphism(incl.source, incl.source, pre, check=False)
