"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own code paths: class numbers come
from reduced binary quadratic forms, lattice indexes from coset enumeration,
point counts from a double loop and from a Legendre sum, the primes above an index
prime from Dedekind's criterion on another generator of the maximal order, integral
ideals of a given norm and the ideal classes from every candidate HNF of that
determinant, principality from naive box
search and from Fincke-Pohst on the unreduced HNF basis, and complex conjugation from a
search of every automorphism with numeric embedding tests, and embedded element values
from a Horner pass over Fraction balls, ideal products from every pair of basis columns,
real-root counts from a Sturm chain over Fractions, ray class group invariants
of Z[i] and Z[zeta3] from k-th powers in (Z[u]/m)^x, prime factorizations from a
valuation at every prime above the support, trace forms from n^4 Fraction
products, and determinants, solutions, kernels and first dependencies from a
Gauss-Jordan over Fractions, field products from Fraction polynomial
remainders, element inverses from the extended Euclidean algorithm over Q,
polynomial gcds from the Euclidean algorithm on Fractions, discriminants
from the determinant of the Sylvester matrix,
multiplication matrices from products by unit vectors, curve scalar
multiples from right-to-left double-and-add, ideal inverses
from the adjugate of the order's own HNF, coprime scaling from field
elements and membership tests on them, reflex data from a fixed field
built afresh for each CM-type, reflex norms on reflex-field ideals from
an exact ideal root in E, conjugate ideals from the conjugates of
generators, and the canonical embedding order from a union-find over
overlapping real intervals. They exist so the main
implementations are checked against something that cannot share their bugs.

The last section holds helpers that only the tests call, moved out of the
library: `inverse_automorphism` (was FieldMorphism.inverse_automorphism),
`contains_point` (Ball.contains_point), `re_sign` (Ball.re_sign),
`ideal_sum` (FracIdeal.__add__), `conjugate_type` (CMType.conjugate_type),
`fixing_subgroup_of` (SplittingData.fixing_subgroup_of) and
`frobenius_class_check` (from stverify).
"""

import math
from fractions import Fraction


def bqf_class_number(d):
    """Class number of the imaginary quadratic order of discriminant d < 0.

    Counts reduced forms (a, b, c): b^2 - 4ac = d, |b| <= a <= c, and b >= 0
    whenever |b| = a or a = c.
    """
    assert d < 0 and d % 4 in (0, 1)
    count = 0
    a = 1
    while a * a <= -d // 3:
        for b in range(-a, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            count += 1
        a += 1
    return count


def lattice_index_by_cosets(hnf):
    """Index of the sublattice spanned by the HNF columns, by coset counting."""
    n = len(hnf)
    det = 1
    for i in range(n):
        det *= abs(hnf[i][i])

    def reduce(v):
        v = list(v)
        for i in range(n - 1, -1, -1):
            q = v[i] // hnf[i][i]
            for k in range(i + 1):
                v[k] -= q * hnf[k][i]
        return tuple(v)

    seen = set()
    # enumerate a crude bounding box of representatives
    import itertools

    for v in itertools.product(*[range(abs(hnf[i][i])) for i in range(n)]):
        seen.add(reduce(v))
    return len(seen), det


def count_points_naive_pairs(p, a4, a6):
    """Second point count: direct (x, y) double loop, no residue table."""
    total = 1
    for x in range(p):
        rhs = (x * x * x + a4 * x + a6) % p
        for y in range(p):
            if y * y % p == rhs:
                total += 1
    return total


def principal_by_box_search(ideal, conj=None):
    """Naive generator search for an integral ideal of an imaginary quadratic field.

    Enumerates the exact solution box of the power-basis norm form
    u^2 + b uv + c v^2 = N(a) and tests membership; complete by positive
    definiteness.
    """
    field = ideal.order.field
    assert field.degree == 2
    b = Fraction(field.min_poly.coeffs[1])
    c = Fraction(field.min_poly.coeffs[0])
    target = ideal.norm()
    assert target.denominator == 1
    target = int(target)
    disc = c - b * b / 4
    assert disc > 0, "field is not imaginary quadratic"
    vmax = int(math.isqrt(int(target / disc))) + 1
    gen = field.gen()
    for v in range(-vmax, vmax + 1):
        # u^2 + b v u + (c v^2 - N) = 0 : u in the real root interval
        inner = Fraction(target) - disc * v * v
        if inner < 0:
            continue
        half = Fraction(
            math.isqrt(inner.numerator * inner.denominator) + 1, inner.denominator
        )
        lo = math.floor(-b * v / 2 - half)
        hi = math.ceil(-b * v / 2 + half)
        for u in range(lo, hi + 1):
            if u == 0 and v == 0:
                continue
            x = field.element([u]) + gen * v
            if abs(x.norm()) == target and ideal.contains(x):
                return x
    return None


def fincke_pohst_unreduced(G, bound):
    """Every nonzero v with v^T G v <= bound, by rational LDL^T.

    Depth first, the last coordinate outermost and every level ascending, so
    the vectors come sorted by (v_{n-1}, ..., v_0).
    """
    n = len(G)
    A = [[Fraction(x) for x in row] for row in G]
    d = [Fraction(0)] * n
    L = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = A[i][i]
        assert d[i] > 0, "form is not positive definite"
        for j in range(i + 1, n):
            L[i][j] = A[i][j] / d[i]
        for k in range(i + 1, n):
            for l in range(i + 1, n):
                A[k][l] -= A[k][i] * A[i][l] / A[i][i]
    out = []
    v = [0] * n

    def rec(i, remaining):
        if i < 0:
            if any(v):
                out.append(list(v))
            return
        s = sum(L[i][j] * v[j] for j in range(i + 1, n))
        t = remaining / d[i]
        r = Fraction(math.isqrt(t.numerator * t.denominator) + 1, t.denominator)
        for vi in range(math.ceil(-s - r), math.floor(-s + r) + 1):
            term = d[i] * (vi + s) ** 2
            if term <= remaining:
                v[i] = vi
                rec(i - 1, remaining - term)
        v[i] = 0

    rec(n - 1, Fraction(bound))
    return out


def trace_gram(elements, conj):
    """Gram matrix Tr(b_i * conj(b_j)) from products of field elements."""
    conj_elems = [conj(b) for b in elements]
    return [[(bi * cj).trace() for cj in conj_elems] for bi in elements]


def principal_by_unreduced_search(ideal, conj, budget_doublings=10):
    """The generator that Fincke-Pohst on the ideal's HNF basis finds first, or None.

    The search of `principal.is_principal` before it reduced its basis: the
    Gram matrix of the basis of den * a from element products, the sphere
    2 N(a) for an imaginary quadratic field, otherwise the AM-GM floor
    2g * N^(2/n) (the library's `root_upper`, so the bounds agree) plus one,
    doubled until a vector of norm N(a) turns up.
    """
    from cmfields.intutil import root_upper

    field = ideal.order.field
    num = ideal.scaled(ideal.den)
    target = int(num.norm())
    basis = num.basis_elements()
    G = trace_gram(basis, conj)
    n = field.degree

    def first_generator(bound):
        for v in fincke_pohst_unreduced(G, bound):
            x = field.zero()
            for c, b in zip(v, basis):
                x = x + b * c
            if abs(x.norm()) == target:
                return x / ideal.den
        return None

    if n == 2 and field.min_poly.coeffs[1] ** 2 < 4 * field.min_poly.coeffs[0]:
        return first_generator(2 * target)
    bound = 2 * (n // 2) * root_upper(Fraction(target) ** 2, n) + 1
    for _ in range(budget_doublings):
        g = first_generator(bound)
        if g is not None:
            return g
        bound *= 2
    raise AssertionError(f"no generator within trace-form bound {bound}")


def torsion_units_by_unreduced_search(order, conj):
    """The roots of unity, Tr(x conj x) = n, enumerated on the order basis itself."""
    n = order.degree
    basis = order.elements
    G = trace_gram(basis, conj)
    out = []
    for v in fincke_pohst_unreduced(G, n):
        if sum(G[i][j] * v[i] * v[j] for i in range(n) for j in range(n)) == n:
            x = order.field.zero()
            for c, b in zip(v, basis):
                x = x + b * c
            out.append(x)
    return out


def totient_of_modulus(factored):
    """Phi(m) from the prime factorization {P: e} of an integral ideal."""
    out = 1
    for P, e in factored.items():
        np = int(P.norm())
        out *= np ** (e - 1) * (np - 1)
    return out


def quadratic_ray_class_counts(t, n, m):
    """(|C|, {k: #{x in C : x^k = 1}}) for C = (Z[u]/m)^x / (roots of unity), u^2 = t u - n.

    When Z[u] is the maximal order of an imaginary quadratic field with class
    number 1, C is the ray class group mod m. The units of Z[u]/m are the
    a + b u whose norm a^2 + t a b + n b^2 is prime to m, the roots of unity
    are the elements of norm 1 (|a|, |b| <= 2 for the forms with n = 1 and
    |t| <= 1), and x^k = 1 in C when x^k is the image of a root of unity;
    each count runs over every k dividing |C|.
    """
    def mul(x, y):
        (a, b), (c, d) = x, y
        return (a * c - n * b * d) % m, (a * d + b * c + t * b * d) % m

    def power(x, k):
        out = (1 % m, 0)
        for _ in range(k):
            out = mul(out, x)
        return out

    units = [(a, b) for a in range(m) for b in range(m)
             if math.gcd(a * a + t * a * b + n * b * b, m) == 1]
    roots = {(a % m, b % m) for a in range(-2, 3) for b in range(-2, 3)
             if a * a + t * a * b + n * b * b == 1}
    order = len(units) // len(roots)
    counts = {k: sum(power(x, k) in roots for x in units) // len(roots)
              for k in range(1, order + 1) if order % k == 0}
    return order, counts


def reduce_form(a, b, c):
    """Reduced representative of a positive definite binary quadratic form."""
    assert b * b - 4 * a * c < 0 and a > 0
    while True:
        if c < a:
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            # normalize b into (-a, a]
            r = (a - b) // (2 * a)
            b2 = b + 2 * r * a
            c = a * r * r + b * r + c
            b = b2
            continue
        if a == c and b < 0:
            b = -b
            continue
        return (a, b, c)


def principal_form(d):
    """The reduced principal form of discriminant d < 0."""
    if d % 4 == 0:
        return reduce_form(1, 0, -d // 4)
    return reduce_form(1, 1, (1 - d) // 4)


def ideal_form_is_principal(ideal, conj):
    """Form-class test: the norm form of the ideal reduces to the principal form.

    For an integral ideal a of an imaginary quadratic maximal order with
    Z-basis (alpha, beta), the form N(x alpha + y beta)/N(a) is an integral
    positive definite form of the field discriminant whose class is trivial
    exactly when a is principal.
    """
    alpha, beta = ideal.basis_elements()
    n = ideal.norm()
    fa = (alpha.norm()) / n
    fc = (beta.norm()) / n
    fb = ((alpha + beta).norm() - alpha.norm() - beta.norm()) / n
    assert fa.denominator == fb.denominator == fc.denominator == 1
    fa, fb, fc = int(fa), int(fb), int(fc)
    disc = fb * fb - 4 * fa * fc
    return reduce_form(fa, fb, fc) == principal_form(disc)


def count_points_legendre(p, a4, a6):
    """Third point count: p + 1 + sum over x of the Legendre symbol of the cubic."""
    squares = {y * y % p for y in range(1, p)}
    total = p + 1
    for x in range(p):
        rhs = (x * x * x + a4 * x + a6) % p
        if rhs:
            total += 1 if rhs in squares else -1
    return total


def prime_split_by_generators(p, order):
    """The primes above p as `ideals.prime_split` built them before its closed form.

    Every factor g_i^e of g mod p from `modpoly.factor` gives the HNF of the
    ideal generated by p and g_i(theta), with the anti-uniformizer taken as
    the first vector of the kernel mod p of multiplication by g_i(theta), and
    the split is checked by multiplying the P^e out to pO. Returns a list
    sorted like prime_split's.
    """
    from cmfields import modpoly
    from cmfields.ideals import FracIdeal, PrimeIdeal
    from cmfields.linalg import kernel_mod_p
    from cmfields.unipoly import UniPoly

    field = order.field
    gp = modpoly.trim([int(c) % p for c in order.equation_poly.coeffs])
    out = []
    for gi, e in modpoly.factor(gp, p):
        gi_elem = UniPoly(gi)(order.equation_gen)
        ideal = FracIdeal.from_generators(order, [field.one() * p, gi_elem])
        beta = kernel_mod_p(order.mult_matrix_coords(order.integral_coords(gi_elem)), p)[0]
        out.append(PrimeIdeal(order, ideal.den, ideal.hnf, p, e, len(gi) - 1, [gi_elem], beta))
    assert sum(P.e * P.f for P in out) == order.degree
    prod = FracIdeal.unit_ideal(order)
    for P in out:
        assert P.norm() == Fraction(p) ** P.f
        prod = prod * P**P.e
    assert prod == FracIdeal.principal(order, field.one() * p)
    out.sort(key=lambda P: (P.f, P.hnf[0][0], tuple(tuple(r) for r in P.hnf)))
    return out


def prime_split_by_dedekind_at(p, order, seed=0):
    """The primes above p as sorted (hnf, e, f), by Dedekind's criterion on another generator.

    A seeded search draws alpha in O with small coordinates until its
    characteristic polynomial f (sympy, from the matrix of multiplication by
    alpha) is separable and p does not divide [O : Z[alpha]], that is,
    ord_p disc(f) = ord_p disc(O), since disc(f) = [O : Z[alpha]]^2 disc(O).
    Then a factor h^e of f mod p (sympy's factor_list over GF(p)) gives the
    prime pO + h(alpha)O with e(P) = e and f(P) = deg h, whose HNF is that
    of its two generators. Nothing of the equation order or of the library's
    splitting is used, so an index prime of the equation order is split like
    any other. None when 200 draws find no such alpha: p may divide the index
    of every generator (a common index divisor, p < n).
    """
    import random

    from sympy import Matrix, Poly, discriminant, multiplicity, symbols

    from cmfields.ideals import FracIdeal

    x = symbols("x")
    rng = random.Random(seed)
    field = order.field
    disc_order = multiplicity(p, order.disc())
    for _ in range(200):
        coords = [rng.randint(-3, 3) for _ in range(order.degree)]
        f = Matrix(order.mult_matrix_coords(coords)).charpoly(x)
        d = discriminant(f.as_expr(), x)
        if d != 0 and multiplicity(p, d) == disc_order:
            break
    else:
        return None
    alpha = order.element_from_coords(coords)
    out = []
    for h, e in Poly(f.as_expr(), x, modulus=p).factor_list()[1]:
        value = field.zero()
        for c in h.all_coeffs():  # highest first, Horner
            value = value * alpha + field.one() * int(c)
        ideal = FracIdeal.from_generators(order, [field.one() * p, value])
        out.append((ideal.hnf, e, h.degree()))
    return sorted(out)


def integral_ideals_of_norm(order, norm):
    """Every integral ideal of the given norm, sorted by HNF rows.

    The candidates are the upper-triangular column HNFs of determinant norm:
    a diagonal d_0, ..., d_{n-1} with that product and the entries right of
    each pivot in [0, d_i), so prod d_i^(n-1-i) matrices per diagonal. A
    candidate is an ideal exactly when its lattice is closed under
    multiplication by every order basis element. No prime is split.
    """
    import itertools

    from cmfields.ideals import FracIdeal
    from cmfields.linalg import mat_vec

    n = order.degree
    mults = [order.mult_matrix_coords([int(i == t) for i in range(n)]) for t in range(n)]
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    divisors = [d for d in range(1, norm + 1) if norm % d == 0]
    for diag in itertools.product(divisors, repeat=n):
        if math.prod(diag) != norm:
            continue
        for entries in itertools.product(*(range(diag[i]) for i, _ in slots)):
            H = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
            for (i, j), x in zip(slots, entries):
                H[i][j] = x
            a = FracIdeal(order, 1, H)
            if all(a.lattice_coords(mat_vec(M, col)) is not None
                   for M in mults for col in a.basis_columns()):
                out.append(a)
    out.sort(key=lambda a: a.hnf)
    return out


def class_representatives_by_hnf_enumeration(order, cap):
    """One integral ideal per class, from every integral ideal of norm <= cap in (norm, HNF) order.

    A candidate from `integral_ideals_of_norm` opens a new class when no
    earlier representative r makes a * r^-1 principal.
    """
    from cmfields.principal import is_principal

    reps = []
    for norm in range(1, cap + 1):
        for a in integral_ideals_of_norm(order, norm):
            if all(is_principal(a * r.inverse()) is None for r in reps):
                reps.append(a)
    return reps


def ideal_product_by_bases(a, b):
    """a*b as `FracIdeal.__mul__` built it before products by generators: the
    HNF of the n^2 products of a basis column of a with one of b."""
    from cmfields.ideals import FracIdeal
    from cmfields.linalg import lattice_hnf

    order = a.order
    cols = [order.mult_coords(x, y) for x in a.basis_columns() for y in b.basis_columns()]
    return FracIdeal(order, *lattice_hnf(cols, a.den * b.den))


def factor_ideal_by_all_valuations(a):
    """{P: v_P(a)} as `ideals.factor_ideal` built it before it stopped at the
    norm: a valuation at every prime above every prime of the support."""
    from cmfields.ideals import prime_split
    from cmfields.intutil import factorize

    num = a.scaled(a.den)
    support = set(factorize(int(num.norm()))) if num.norm() != 1 else set()
    support |= set(factorize(a.den))
    out = {}
    for p in sorted(support):
        for P in prime_split(p, a.order):
            v = a.valuation(P)
            if v:
                out[P] = v
    return out


def trace_form_by_fractions(order, conj):
    """T[i][j] = Tr(w_i * conj(w_j)) on the order basis w, as
    `principal._build_trace_form` built it before its integer product: the
    power sums s_m of the generator by Newton's identities, then
    T[i][j] = sum_k sum_l x_k y_l s_(k+l), n^4 Fraction products."""
    field = order.field
    n = field.degree
    c = field.min_poly.coeffs
    s = [Fraction(n)]
    for k in range(1, 2 * n - 1):
        t = -k * c[n - k] if k <= n else 0
        s.append(t - sum(c[n - i] * s[k - i] for i in range(1, min(k, n + 1))))
    W = [w.coords for w in order.elements]
    C = [conj(w).coords for w in order.elements]
    return [[sum(x[k] * y[l] * s[k + l] for k in range(n) for l in range(n)) for y in C]
            for x in W]


def squarefree_part(f):
    """f / gcd(f, f'), monic, by the Euclidean gcd over Q."""
    if f.degree <= 1:
        return f.monic()
    g = poly_gcd_by_euclid(f, f.derivative())
    return (f // g).monic()


def sturm_real_root_count_by_fractions(f):
    """Distinct real roots of f by the Sturm chain over Fractions of its
    squarefree part, as `unipoly.sturm_real_root_count` counted them before
    its integer chain."""
    f = squarefree_part(f)
    if f.degree <= 0:
        return 0
    chain = [f, f.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()

    def variations(signs):
        signs = [s for s in signs if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)

    neg = [p.lc() * (-1) ** p.degree for p in chain]
    pos = [p.lc() for p in chain]
    return variations(neg) - variations(pos)


def morphism_by_fractions(morphism, elem):
    """The image of elem as a sum of Fraction multiples of the generator's powers."""
    powers = [morphism.target.one()]
    for _ in range(morphism.source.degree - 1):
        powers.append(powers[-1] * morphism.image_of_generator)
    out = morphism.target.zero()
    for c, pw in zip(elem.coords, powers):
        if c:
            out = out + pw * c
    return out


def nf_automorphisms(K):
    """All automorphisms of K, as FieldMorphisms K -> K (identity included).

    The embeddings K -> L of the closure whose image lies in the reference
    copy of K descend to automorphisms.
    """
    from cmfields.closure import splitting_data
    from cmfields.numfield import FieldMorphism

    sd = splitting_data(K)
    j0 = sd.embeddings[0]
    out = []
    for j in sd.embeddings:
        pre = j0.preimage(j.image_of_generator)
        if pre is not None:
            out.append(FieldMorphism(K, K, pre, check=False))
    assert any(sigma.is_identity() for sigma in out)
    return out


def complex_conjugation_by_search(K):
    """The automorphism sigma with phi . sigma = conj . phi for every certified
    embedding phi, or None: every automorphism of K is tried, and phi(sigma(gen))
    is located among the roots by interval refinement."""
    from cmfields.embeddings import certified_embeddings, locate_among

    embs = certified_embeddings(K)
    for sigma in nf_automorphisms(K):
        if all(locate_among(e, sigma.image_of_generator, K) == e.conj_index() for e in embs):
            return sigma
    return None


def fraction_ball_eval(root, coords, bits):
    """(re, im, rad) Fractions of a disk containing sum coords[i] root^i.

    root is the disk (re, im, rad) of an embedded generator. Horner over exact
    rational balls: a product's radius is |x|·t + |y|·s + s·t with |x| bounded
    by an integer square root, and every step rounds the centre to nearest and
    the radius up at 2·max(bits, 64) bits, adding 3 ulps.
    """

    def abs_upper(re, im):
        x = re * re + im * im
        if x == 0:
            return x
        return Fraction(math.isqrt(x.numerator * x.denominator) + 1, x.denominator)

    rre, rim, rrad = root
    scale = 1 << (2 * max(bits, 64))
    cre = cim = crad = Fraction(0)
    for c in reversed(coords):
        re = cre * rre - cim * rim + c
        im = cre * rim + cim * rre
        rad = abs_upper(cre, cim) * rrad + abs_upper(rre, rim) * crad + crad * rrad
        cre = Fraction(round(re * scale), scale)
        cim = Fraction(round(im * scale), scale)
        crad = Fraction(int(rad * scale) + 3, scale)
    return cre, cim, crad


def canonical_order_by_union_find(disks):
    """Certified (re, then im) order, or None if some comparison is undecided.

    Roots are grouped into clusters by transitive overlap of re-intervals;
    cluster re-ranges must be pairwise separated and im-intervals disjoint
    within a cluster. The disks come from one _find_disks call, so they share
    one exponent and their integer a, b, r compare directly.
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
                disks[i].a + disks[i].r < disks[j].a - disks[j].r
                or disks[j].a + disks[j].r < disks[i].a - disks[i].r
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
        lo = min(disks[i].a - disks[i].r for i in g)
        hi = max(disks[i].a + disks[i].r for i in g)
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
                    if not (a.b + a.r < b.b - b.r or b.b + b.r < a.b - a.r):
                        return None
        order.extend(sorted(g, key=lambda i: disks[i].b))
    return order


def fraction_gauss_jordan(M, ncols):
    """Reduce the Fraction rows M in place to reduced row echelon form.

    Pivots are sought in the first ncols columns only (later columns are an
    augmented right-hand side); returns the pivot columns, row r having its
    pivot 1 in column pivots[r].
    """
    n = len(M)
    pivots = []
    for c in range(ncols):
        row = len(pivots)
        if row == n:
            break
        piv = next((r for r in range(row, n) if M[r][c] != 0), None)
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        inv = 1 / M[row][c]
        M[row] = [x * inv for x in M[row]]
        for r in range(n):
            if r != row and M[r][c] != 0:
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[row])]
        pivots.append(c)
    return pivots


def fraction_det(A):
    """Determinant by Fraction Gaussian elimination."""
    n = len(A)
    M = [list(map(Fraction, row)) for row in A]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det *= M[c][c]
        inv = 1 / M[c][c]
        for r in range(c + 1, n):
            if M[r][c] != 0:
                f = M[r][c] * inv
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return det


def fraction_solve(A, b):
    """Some x with A x = b (free variables 0), or None, from the RREF of [A | b]."""
    m = len(A[0])
    M = [list(map(Fraction, row)) + [Fraction(y)] for row, y in zip(A, b)]
    pivots = fraction_gauss_jordan(M, m)
    if any(row[m] for row in M[len(pivots):]):
        return None
    x = [Fraction(0)] * m
    for row, c in zip(M, pivots):
        x[c] = row[m]
    return x


def fraction_kernel(A):
    """Basis of {x : A x = 0}, one vector per non-pivot column of the RREF."""
    m = len(A[0])
    M = [list(map(Fraction, row)) for row in A]
    pivots = fraction_gauss_jordan(M, m)
    basis = []
    for fc in range(m):
        if fc in pivots:
            continue
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for row, pc in zip(M, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def fraction_first_dependency(vectors):
    """[a_0, ..., a_{j-1}] with v_j = sum a_i v_i for the least such j, or None."""
    M = [list(map(Fraction, row)) for row in zip(*vectors)]
    pivots = fraction_gauss_jordan(M, len(vectors))
    j = next((j for j, c in enumerate(pivots) if j != c), len(pivots))
    if j == len(vectors):
        return None
    return [M[r][j] for r in range(j)]


def fraction_field_mul(f, a, b):
    """The product of the Fraction coordinate vectors a and b in Q[x]/(f).

    f is the monic modulus, low-to-high coefficients; the schoolbook product
    is reduced from the top by subtracting shifted multiples of f.
    """
    n = len(f) - 1
    prod = [Fraction(0)] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):
        c = prod[k]
        for i, fi in enumerate(f):
            prod[k - n + i] -= c * fi
    return tuple(prod[:n])


def poly_xgcd(a, b):
    """Extended gcd over Q: (g, s, t) with s*a + t*b = g, g monic (or zero)."""
    from cmfields.unipoly import UniPoly

    r0, r1 = a, b
    s0, s1 = UniPoly([1]), UniPoly()
    t0, t1 = UniPoly(), UniPoly([1])
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lc = r0.lc()
    inv = 1 / lc
    return r0 * inv, s0 * inv, t0 * inv


def poly_gcd_by_euclid(a, b):
    """Monic gcd over Q, by the Euclidean remainder sequence on Fractions."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def sylvester_resultant(f, g):
    """Resultant of f and g over Q via the Sylvester matrix."""
    from cmfields.linalg import det_fraction

    m, n = f.degree, g.degree
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    size = m + n
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        rows.append([Fraction(0)] * i + fc + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + gc + [Fraction(0)] * (size - n - 1 - i))
    return det_fraction(rows)


def poly_discriminant(f):
    """disc(f) = (-1)^(m(m-1)/2) Res(f, f') / lc(f)."""
    m = f.degree
    if m < 1:
        raise ValueError("discriminant needs degree >= 1")
    res = sylvester_resultant(f, f.derivative())
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    return sign * res / f.lc()


def inverse_by_xgcd(elem):
    """The inverse of a nonzero field element: s with s*a + t*f = 1 in Q[x]."""
    from cmfields.unipoly import UniPoly

    g, s, _ = poly_xgcd(UniPoly(elem.coords), elem.field.min_poly)
    assert g.degree == 0, "element and min_poly share a factor"
    return elem.field.from_poly(s)


def coordinate_matrix(elem):
    """The Fraction matrix of multiplication by elem (columns = elem * x^j)."""
    f = [Fraction(c) for c in elem.field.min_poly.coeffs]
    n = len(f) - 1
    cols = []
    for j in range(n):
        unit = [Fraction(int(i == j)) for i in range(n)]
        cols.append(fraction_field_mul(f, list(elem.coords), unit))
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def mult_matrix_by_units(order, a):
    """Multiplication by the order-coordinate vector a: column j is a * e_j."""
    n = order.degree
    cols = [order.mult_coords(a, [int(i == j) for i in range(n)]) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def colon_ideal_by_adjugate(b, a):
    """(b : a) as the dual of the sum of the lattices with basis columns the
    rows of b^{-1} M_v, v over a's basis, with b^{-1} the adjugate of b's HNF
    over its determinant even when b is the order itself."""
    from cmfields.ideals import FracIdeal
    from cmfields.linalg import lattice_hnf, mat_mul, triangular_adjugate

    order = a.order
    det_b, adj_b = triangular_adjugate(b.hnf)
    adj_b = [[b.den * x for x in row] for row in adj_b]
    cols = []
    for col in a.basis_columns():
        cols.extend(mat_mul(adj_b, mult_matrix_by_units(order, col)))
    den, h = lattice_hnf(cols, det_b * a.den)
    det_h, adj_h = triangular_adjugate(h)
    dual = [[den * x for x in row] for row in adj_h]
    return FracIdeal(order, *lattice_hnf(dual, det_h))


def coprime_scale_by_elements(a, m):
    """(scalar, b) of the coprime-scaling lemma with every candidate, CRT
    element and membership test taken on field elements: c is the last basis
    element of a, x_v the first basis element of P_v^e_v outside
    P_v^(e_v+1), and t the CRT element of I + J = O tested by contains."""
    from cmfields.errors import InvariantViolated
    from cmfields.ideals import FracIdeal, prime_split
    from cmfields.intutil import factorize
    from cmfields.linalg import hnf_with_transform, mat_vec

    def split_one(I, J):
        n = I.order.degree
        H, U = hnf_with_transform([I.hnf[i] + J.hnf[i] for i in range(n)])
        if H != [[int(i == j) for j in range(n)] for i in range(n)]:
            raise InvariantViolated("1 not in I + J: ideals not coprime")
        x = mat_vec([row[n:] for row in U[n:]], I.order.one_coords)
        t = I.order.element_from_coords(mat_vec(J.hnf, x))
        if not J.contains(t) or not I.contains(I.order.field.one() - t):
            raise InvariantViolated("the CRT element is not in J and 1 mod I")
        return t

    order = a.order
    field = order.field
    c = a.basis_elements()[-1]
    cofactor = FracIdeal.principal(order, c) * a.inverse()
    support = set() if cofactor.norm() == 1 else set(factorize(int(cofactor.norm())))
    if m > 1:
        support |= set(factorize(m))
    primes = [P for p in sorted(support) for P in prime_split(p, order)]
    exponents = [cofactor.valuation(P) for P in primes]
    if not primes:
        scalar = field.one() / c
        return scalar, a.mult_by_element(scalar)
    xs = []
    for P, e_v in zip(primes, exponents):
        Pe = P**e_v
        Pe1 = Pe * P
        xs.append(next(el for el in Pe.basis_elements() if not Pe1.contains(el)))
    moduli = [P ** (e_v + 1) for P, e_v in zip(primes, exponents)]
    a_star = field.zero()
    for i, x in enumerate(xs):
        others = FracIdeal.unit_ideal(order)
        for j, M in enumerate(moduli):
            if j != i:
                others = others * M
        a_star = a_star + x * split_one(moduli[i], others)
    scalar = a_star / c
    return scalar, a.mult_by_element(scalar)


def reflex_per_type(cmtype):
    """(min_poly, image of the generator in L, reflex type indices, psi_reps)
    of a CM-type with the fixed field of its stabilizer built afresh for the
    type alone: the Tr_H span, its primitive element, the checked inclusion,
    the conjugation pulled back from L and cm_check, then the cosets."""
    from cmfields.closure import complex_conjugation, splitting_data
    from cmfields.cmreflex import CMField, cm_check
    from cmfields.embeddings import certified_embeddings, locate_among
    from cmfields.memo import per_field
    from cmfields.numfield import FieldMorphism, NumberField, primitive_element

    sd = splitting_data(cmtype.cmfield.field)
    L = sd.closure
    phi = set(cmtype.phi)
    size = len(sd.autos)
    stab = [s for s in range(size) if {sd.perm[s][i] for i in phi} == phi]
    powers = [L.gen() ** j for j in range(1, L.degree + 1)]
    span = [sum((sd.autos[s](u) for s in stab), L.zero()) for u in powers]
    w, mp, _ = primitive_element(span, size // len(stab))
    E_star = NumberField(mp, check=False)
    incl = FieldMorphism(E_star, L, w, check=True)
    pre = incl.preimage(complex_conjugation(L)(w))
    assert pre is not None
    per_field("complex_conjugation", E_star, lambda: FieldMorphism(E_star, E_star, pre))
    assert isinstance(cm_check(E_star), CMField)
    inverted = sorted(sd.inv[s] for s in range(size) if sd.perm[s][0] in phi)
    reps, covered = [], set()
    for s in inverted:
        if s not in covered:
            reps.append(s)
            covered |= {sd.mult[s][t] for t in stab}
    assert covered == set(inverted)
    psi = {locate_among(certified_embeddings(L)[0], sd.autos[s](w), E_star) for s in reps}
    assert len(psi) == len(reps)
    return mp, incl.image_of_generator, sorted(psi), reps


def _ec_mul(F, a4, k, P):
    """[k]P by right-to-left double-and-add, the reference for Straus-Shamir."""
    from cmfields.stverify import _ec_add, _ec_neg

    if k < 0:
        return _ec_mul(F, a4, -k, _ec_neg(F, P))
    out = None
    while k:
        if k & 1:
            out = _ec_add(F, a4, out, P)
        P = _ec_add(F, a4, P, P)
        k >>= 1
    return out


def reflex_norm_ideal_by_root(rd, b):
    """N_Phi of an ideal b of O_{E*} as the exact [L:E*]-th root of
    N_{L,Phi}(b O_L): extend b to the closure, take its reflex norm there
    (which factors b O_L in L), then factor that in E and divide every
    exponent by [L:E*]."""
    from cmfields.cmreflex import reflex_norm_ideal
    from cmfields.ideals import FracIdeal, factor_ideal
    from cmfields.orders import maximal_order

    OL = maximal_order(rd.closure)
    gens = b.basis_elements()
    extended = FracIdeal.from_generators(OL, [rd.reflex_inclusion(g) for g in gens])
    big = reflex_norm_ideal(rd.cmtype, rd.closure, extended)
    d = rd.closure.degree // rd.reflex_field.degree
    root = FracIdeal.unit_ideal(big.order)
    for P, v in factor_ideal(big).items():
        assert v % d == 0, f"valuation {v} not divisible by {d}"
        root = root * P ** (v // d)
    return root


def conjugate_ideal_by_generators(cmfield, a):
    """conj(a) as the O-ideal generated by the conjugates of generators of a:
    p and its gens for a prime, every basis element otherwise."""
    from cmfields.ideals import FracIdeal, PrimeIdeal

    gens = a.two_element_like_generators() if isinstance(a, PrimeIdeal) else a.basis_elements()
    return FracIdeal.from_generators(a.order, [cmfield.conj(g) for g in gens])


# Helpers that only the tests call, kept here rather than in the library.


def inverse_automorphism(sigma):
    """Inverse of an automorphism (source == target, bijective)."""
    from cmfields.numfield import FieldMorphism

    if sigma.source != sigma.target:
        raise ValueError("not an automorphism")
    pre = sigma.preimage(sigma.source.gen())
    if pre is None:
        raise ValueError("morphism is not surjective")
    return FieldMorphism(sigma.source, sigma.source, pre, check=False)


def contains_point(ball, re, im):
    """Whether the rational point re + im·i lies in the closed disk of a Ball."""
    q = re.denominator * im.denominator
    x = ball.a * q - (re.numerator * im.denominator << ball.k)
    y = ball.b * q - (im.numerator * re.denominator << ball.k)
    return x * x + y * y <= (ball.r * q) ** 2


def re_sign(ball):
    """+1 / -1 if the sign of the real part of a Ball is certified, else None."""
    if ball.a > ball.r:
        return 1
    if ball.a < -ball.r:
        return -1
    return None


def ideal_sum(a, b):
    """The fractional ideal a + b, from the HNF of both bases over a common denominator."""
    from cmfields.ideals import FracIdeal
    from cmfields.linalg import lattice_hnf

    common = math.lcm(a.den, b.den)
    fa, fb = common // a.den, common // b.den
    cols = ([[x * fa for x in col] for col in a.basis_columns()]
            + [[x * fb for x in col] for col in b.basis_columns()])
    return FracIdeal(a.order, *lattice_hnf(cols, common))


def conjugate_type(cmtype):
    """The CM-type conj . Phi."""
    from cmfields.cmreflex import CMType
    from cmfields.embeddings import certified_embeddings

    embs = certified_embeddings(cmtype.cmfield.field)
    return CMType(cmtype.cmfield, {embs[i].conj_index() for i in cmtype.phi})


def fixing_subgroup_of(sd, elem):
    """Indices of the automorphisms of the closure sd.closure fixing elem."""
    return [s for s in range(len(sd.autos)) if sd.autos[s](elem) == elem]


def frobenius_class_check(curve, p):
    """The Frobenius ideal equals the reflex norm of the reflex-field prime.

    g = 1 instance: E* = E and the a-multiplication ideal realized by the
    Frobenius is N_Phi(P . O_{E*}) computed through the reflex machinery.
    """
    from cmfields.cmreflex import reflex_field
    from cmfields.errors import IdentificationFailed, InvariantViolated
    from cmfields.ideals import FracIdeal
    from cmfields.numfield import FieldMorphism
    from cmfields.orders import maximal_order
    from cmfields.stverify import frobenius_element

    frob = frobenius_element(curve, p)
    cmtype = frob.cmtype
    rd = reflex_field(cmtype)
    if rd.reflex_field.degree != 2:
        raise InvariantViolated("the reflex field of a g = 1 type is not quadratic")
    # realize P inside the reflex field: E* = E here, via the inclusion map
    OStar = maximal_order(rd.reflex_field)
    # transport the prime through the isomorphism E -> E* (preimage of inclusion)
    sd = rd.sd
    iso_gen = rd.reflex_inclusion.preimage(sd.embeddings[rd.j0].image_of_generator)
    if iso_gen is None:
        raise IdentificationFailed("reflex field does not coincide with E")
    iso = FieldMorphism(cmtype.cmfield.field, rd.reflex_field, iso_gen)
    p_star = FracIdeal.from_generators(
        OStar, [iso(g) for g in frob.prime_above.two_element_like_generators()]
    )
    return frob.ideal == rd.reflex_norm_ideal(p_star)
