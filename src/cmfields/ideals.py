"""Exact fractional-ideal arithmetic in orders.

A FracIdeal is (1/den) times the lattice spanned by the columns of an integer
matrix in column Hermite normal form, coordinates taken in the order basis.
The HNF with minimal denominator is a canonical representative, so equality
is matrix equality. Products, sums, colon ideals, prime splitting in the
maximal order, valuations, and the coprime-scaling lemma live here.

Both hot paths run on integers only. A colon ideal is a lattice dual taken
with integer adjugates of triangular HNFs (the multiplier ring of `orders`
is one), and the inverse of the order is the order, with no colon. A
valuation at a prime P uses the anti-uniformizer that `prime_split` stores
with P, an integral beta with v_P(beta/p) = -1 (Cohen 1993, Alg. 4.8.17),
so no prime inverse is ever built.

A product a*b is spanned by a's basis columns times b's generators over O
(Cohen 1993, §4.7): the n basis columns for a FracIdeal, p and its `gens`
for a PrimeIdeal. The factor with fewer generators goes on the right, so a
product by a Dedekind prime takes the HNF of 2n columns instead of n^2; the
HNF is canonical, so the result does not depend on the generators used.

Every p splits (Cohen 1993, §6.2). For p prime to the index [O : Z[theta]]
Dedekind-Kummer reads every prime off its factor g_i of g mod p alone: P is
the kernel of O -> F_p[x]/(g_i), theta -> x, whose HNF is written down, and
its anti-uniformizer is the cofactor h(theta), h = g / g_i mod p. For p
dividing the index the primes are the maximal ideals over the p-radical,
split by elements alpha with alpha^p = alpha (Buchmann-Lenstra). Both routes
give the same HNFs where both apply, and Dedekind's is the faster there.
The split is checked at a cost that does not grow with p: distinct primes,
sum e f = n, N(P) = p^f and, on Dedekind's route, v_P(pO) = e; by the
fundamental identity these prove that the P^e multiply to pO.
`primes_of_norm_below` skips, by one distinct-degree pass over g mod p, the
p prime to the index that have no prime of norm below a bound.
"""

import math
from fractions import Fraction
from operator import mul

from . import modpoly
from .errors import InvariantViolated, OrderMismatch, ZeroIdeal
from .intutil import binary_power, factorize, quadratic_roots_mod
from .linalg import (
    hnf_with_transform,
    identity_matrix,
    kernel_mod_p,
    lattice_hnf,
    mat_mul,
    mat_vec,
    reduce_mod_hnf,
    reduced_pair,
    transpose,
    triangular_adjugate,
)
from .memo import per_field
from .unipoly import UniPoly


class FracIdeal:
    """A nonzero fractional ideal of an order; (den, hnf) is a canonical pair
    (`linalg.lattice_hnf`, `linalg.reduced_pair`)."""

    __slots__ = ("order", "den", "hnf", "_norm")

    def __init__(self, order, den, hnf):
        self.order = order
        self.den = den
        self.hnf = hnf
        self._norm = None

    @staticmethod
    def from_generators(order, elems):
        """The fractional O-ideal generated by the given field elements."""
        elems = [e for e in elems if not e.is_zero()]
        if not elems:
            raise ZeroIdeal("no nonzero generators")
        coords = [order._coords_num(e) for e in elems]
        den = math.lcm(*(d for _, d in coords))
        cols = []
        for v, d in coords:
            cols.extend(transpose(order.mult_matrix_coords([x * (den // d) for x in v])))
        den, h = lattice_hnf(cols, den)
        if len(h[0]) != order.degree:
            raise ZeroIdeal("generators do not span a full lattice")
        return FracIdeal(order, den, h)

    @staticmethod
    def principal(order, elem):
        return FracIdeal.from_generators(order, [elem])

    @staticmethod
    def unit_ideal(order):
        """The order itself: the identity lattice in its own coordinates."""
        return FracIdeal(order, 1, identity_matrix(order.degree))

    def __repr__(self):
        return f"FracIdeal(den={self.den}, hnf={self.hnf})"

    def __eq__(self, other):
        return (
            isinstance(other, FracIdeal)
            and self.order == other.order
            and self.den == other.den
            and self.hnf == other.hnf
        )

    def __hash__(self):
        return hash((self.den, tuple(tuple(r) for r in self.hnf)))

    def is_integral(self):
        return self.den == 1

    def norm(self):
        """Numerical norm: (O : a) for integral a, extended multiplicatively."""
        if self._norm is None:
            n = self.order.degree
            det = 1
            for i in range(n):
                det *= self.hnf[i][i]
            self._norm = Fraction(abs(det), self.den**n)
        return self._norm

    def basis_columns(self):
        """Integer coordinate columns (the lattice is these over den)."""
        n = self.order.degree
        return [[self.hnf[i][j] for i in range(n)] for j in range(n)]

    def generator_columns(self):
        """Integer coordinate columns over den that generate the ideal over O."""
        return self.basis_columns()

    def basis_elements(self):
        return [self.order.element_from_coords(col) / self.den for col in self.basis_columns()]

    def lattice_coords(self, v, d=1):
        """Integer coordinates of the order-coordinate vector v/d (v integer, d > 0)
        in the basis columns over den, or None when v/d is not in the ideal."""
        v = [x * self.den for x in v]
        n = self.order.degree
        z = [0] * n
        # back-substitute d*H*z = den*v against the upper-triangular columns
        for i in range(n - 1, -1, -1):
            q, r = divmod(v[i], d * self.hnf[i][i])
            if r:
                return None
            z[i] = q
            for k in range(i + 1):
                v[k] -= q * d * self.hnf[k][i]
        return z

    def contains(self, elem):
        """Exact membership test for a field element."""
        return self.lattice_coords(*self.order._coords_num(elem)) is not None

    def contains_ideal(self, other):
        """other <= self, tested on other's basis columns: no HNF is built."""
        self._check(other)
        return all(self.lattice_coords(col, other.den) is not None
                   for col in other.basis_columns())

    def is_unit(self):
        """True for the order itself: an integral HNF of determinant 1 is the identity."""
        return self.den == 1 and all(self.hnf[i][i] == 1 for i in range(len(self.hnf)))

    def __mul__(self, other):
        self._check(other)
        if self.is_unit():
            return other
        if other.is_unit():
            return self
        # a*b is spanned by a's basis times b's generators; the factor with
        # fewer generators goes on the right, so a*P takes 2n columns, not n^2
        ga, gb = self.generator_columns(), other.generator_columns()
        a, gens = (other, ga) if len(ga) < len(gb) else (self, gb)
        cols = [self.order.mult_coords(x, g) for x in a.basis_columns() for g in gens]
        return FracIdeal(self.order, *lattice_hnf(cols, self.den * other.den))

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return binary_power(self, k, FracIdeal.unit_ideal(self.order))

    def inverse(self):
        """(O : a); the inverse of the order is the order, with no colon."""
        if self.is_unit():
            return self
        return colon_ideal(FracIdeal.unit_ideal(self.order), self)

    def scaled(self, q):
        """The ideal q * a for a nonzero rational q."""
        q = Fraction(q)
        if q == 0:
            raise ZeroIdeal("scaling by zero")
        num, den = abs(q.numerator), q.denominator
        hnf = [[x * num for x in row] for row in self.hnf]
        return FracIdeal(self.order, *reduced_pair(self.den * den, hnf))

    def mult_by_element(self, elem):
        """The ideal elem * a."""
        return self * FracIdeal.principal(self.order, elem)

    def valuation(self, prime):
        """Exact valuation of this fractional ideal at a prime of the maximal order.

        With beta the prime's anti-uniformizer, an integral x lies in P exactly
        when beta*x/p is integral, and beta*x/p is again integral with v_P one
        less (Cohen 1993, Alg. 4.8.17). So v_P of the integer lattice is the
        number of times every HNF column c stays integral under c -> B c / p,
        B the matrix of beta; v_P(den) is e * ord_p(den). Since N(P)^v divides
        the lattice's index, the count stops at cap + 1 = ord_p(index) // f + 1,
        a value no valuation reaches: only a beta in pO gets that far, and
        `prime_split` refuses such a beta when it checks v_P(pO) = e.
        """
        if prime.order != self.order:
            raise OrderMismatch("prime of a different order")
        p, B = prime.p, prime.beta_matrix
        cols = self.basis_columns()
        cap = _ord_p(math.prod(self.hnf[i][i] for i in range(len(cols))), p) // prime.f
        v = 0
        while v <= cap:
            nxt = []
            for c in cols:
                y = mat_vec(B, c)
                if any(x % p for x in y):
                    return v - prime.e * _ord_p(self.den, p)
                nxt.append([x // p for x in y])
            cols = nxt
            v += 1
        return v - prime.e * _ord_p(self.den, p)

    def _check(self, other):
        if not isinstance(other, FracIdeal) or other.order != self.order:
            raise OrderMismatch("ideals of different orders")


def _ord_p(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def colon_ideal(b, a):
    """The colon ideal (b : a) = {x in E : x*a <= b}, via lattice duality.

    (b : a) is the intersection of the lattices M_v^{-1} b over a basis v of
    a: the dual of the sum of their duals, whose basis columns are the rows of
    b^{-1} M_v (Cohen 1993, §4.8.3). Every inverse is of a triangular HNF,
    H^{-1} = adj(H) / det(H), so the work is on integer matrices throughout.
    """
    if a.order != b.order:
        raise OrderMismatch("ideals of different orders")
    order = a.order
    # b^{-1} = b.den adj(H_b) / det(H_b) and v = col / a.den, so the rows of
    # b^{-1} M_v are the integer rows of (b.den adj(H_b)) M_col over det(H_b) a.den;
    # for b = O (an inverse) b^{-1} is the identity and the rows are those of M_col
    mats = [order.mult_matrix_coords(col) for col in a.basis_columns()]
    det_b = 1
    if not b.is_unit():
        det_b, adj_b = triangular_adjugate(b.hnf)
        adj_b = [[b.den * x for x in row] for row in adj_b]
        mats = [mat_mul(adj_b, m) for m in mats]
    den, h = lattice_hnf([row for m in mats for row in m], det_b * a.den)
    # the sum is h/den; its dual has the rows of den h^{-1} = den adj(h) / det(h)
    # as columns
    det_h, adj_h = triangular_adjugate(h)
    dual = [[den * x for x in row] for row in adj_h]
    return FracIdeal(order, *lattice_hnf(dual, det_h))


class PrimeIdeal(FracIdeal):
    """A prime P = pO + sum of g*O over the field elements g in gens, with its anti-uniformizer.

    A Dedekind prime has one generator, g_i(theta). beta (order coordinates)
    is any integral element with beta*P <= pO and beta not in pO: then
    beta/p lies in P^{-1} but not in O, so v_P(beta/p) = -1 and beta/p is
    integral at every other prime, which is all the valuation needs (Cohen
    1993, Alg. 4.8.17). beta_matrix is the integer matrix of multiplication
    by beta.
    """

    __slots__ = ("p", "e", "f", "gens", "beta_matrix", "_gen_cols")

    def __init__(self, order, den, hnf, p, e, f, gens, beta):
        super().__init__(order, den, hnf)
        self.p = p
        self.e = e
        self.f = f
        self.gens = gens
        self.beta_matrix = order.mult_matrix_coords(beta)
        self._gen_cols = [[p * x for x in order.one_coords], *map(order.integral_coords, gens)]

    def __repr__(self):
        return f"PrimeIdeal(p={self.p}, e={self.e}, f={self.f})"

    def generator_columns(self):
        return self._gen_cols

    def two_element_like_generators(self):
        """Field elements that generate P over O: p and gens."""
        return [self.order.field.one() * self.p] + self.gens


def prime_split(p, order):
    """Primes of the maximal order above p, memoized per field (one maximal order each) and p."""
    if order.index_in_maximal != 1:
        raise OrderMismatch("prime_split needs the maximal order")
    return per_field("prime_split", order.field, lambda: _prime_split(p, order), p)


def primes_of_norm_below(p, order, bound):
    """The primes of prime_split(p, order) with norm < bound, in its order.

    With d the largest f such that p^f < bound, a prime above p has norm
    below the bound exactly when its residue degree is at most d. For p prime
    to the index and d < n, the residue degrees are the degrees of the
    irreducible factors of g mod p (Dedekind), so when g mod p has none of
    degree <= d (`modpoly.has_factor_of_degree_at_most`, Cohen 1993, §3.4.3)
    no prime is split or built.
    """
    d = 0
    while p ** (d + 1) < bound:
        d += 1
    if d < order.degree and order.index_in_maximal == 1 and order.equation_index % p:
        if not modpoly.has_factor_of_degree_at_most(_g_mod_p(order, p), d, p):
            return []
    return [P for P in prime_split(p, order) if P.norm() < bound]


def _prime_split(p, order):
    """The primes above p, by Dedekind's route for p prime to the index, else the radical's."""
    n = order.degree
    pO = FracIdeal(order, 1, [[p * int(i == j) for j in range(n)] for i in range(n)])
    out = (_dedekind_primes if order.equation_index % p else _radical_primes)(p, order, pO)
    if len(set(out)) != len(out):
        raise InvariantViolated(f"a prime above {p} is listed twice")
    if sum(P.e * P.f for P in out) != n:
        raise InvariantViolated(f"Dedekind splitting of {p} incomplete")
    for P in out:
        if P.norm() != Fraction(p) ** P.f:
            raise InvariantViolated(f"a prime above {p} has norm {P.norm()}, not {p}^{P.f}")
    out.sort(key=prime_sort_key)
    return out


def prime_sort_key(P):
    """The order of `prime_split`'s list: by residue degree, then by HNF."""
    return P.f, P.hnf[0][0], tuple(tuple(r) for r in P.hnf)


def _dedekind_primes(p, order, pO):
    """Dedekind: a factor g_i^e of g mod p gives P = (p, g_i(theta)) with e(P) = e.

    P is the kernel of O -> F_p[x]/(g_i), theta -> x, whose column HNF
    `_kernel_hnf` writes down, and beta = h(theta), h = g / g_i mod p:
    h g_i = g = 0 at theta modulo p, so beta*P <= pO, and beta is not in pO
    because O/pO = F_p[x]/(g) for p prime to the index and deg h < deg g.
    v_P(pO) = e is checked with that beta.
    """
    theta = order.equation_gen
    gp = _g_mod_p(order, p)
    out = []
    for gi, e in _factor_mod_p(gp, p):
        gi_elem = theta + gi[0] if len(gi) == 2 else UniPoly(gi)(theta)
        beta = _theta_coords(order, modpoly.divmod_(gp, gi, p)[0])
        P = PrimeIdeal(order, 1, _kernel_hnf(order, gi, p), p, e, len(gi) - 1, [gi_elem], beta)
        v = pO.valuation(P)
        if v != e:
            raise InvariantViolated(f"v_P({p}) is {v}, not e = {e}")
        out.append(P)
    return out


def _radical_primes(p, order, pO):
    """The maximal ideals over the p-radical R, split recursively (Buchmann-Lenstra).

    O/R is a product of finite fields; while O/J, J >= R, has more than one,
    `_splitting_element` splits J into the J + (alpha - r)O. A prime's
    generators over pO are R's and the alpha - r on its path, and beta is a
    kernel vector mod p of multiplication by them: beta*P <= pO, beta not in
    pO. e = v_P(pO), and f is the number of p's on the HNF diagonal.
    """
    one = list(order.one_coords)
    R, rad_gens, frob = p_radical(order, p)
    out, todo = [], [(R.hnf, rad_gens)]
    while todo:
        J, gens = todo.pop()
        split = _splitting_element(order, J, p, frob)
        if split is None:
            rows = [row for g in gens for row in order.mult_matrix_coords(g)]
            beta = kernel_mod_p(rows, p)[0] if rows else one
            P = PrimeIdeal(order, 1, J, p, 0, [row[i] for i, row in enumerate(J)].count(p),
                           [order.element_from_coords(g) for g in gens], beta)
            P.e = pO.valuation(P)  # the valuation reads P's beta and f, not its e
            out.append(P)
            continue
        alpha, roots = split
        for r in roots:
            g = [a - r * u for a, u in zip(alpha, one)]
            todo.append((lattice_hnf(transpose(J) + transpose(order.mult_matrix_coords(g)))[1],
                         gens + [g]))
    return out


def _splitting_element(order, J, p, frob):
    """(alpha, roots) splitting an ideal pO <= J < O, or None when J is maximal.

    J's HNF has p or 1 on its diagonal, so a residue mod J is 0 where it has
    1 and its coordinates at the p's are coordinates on O/J. There the
    kernel of x -> x^p - x (frob: x -> x^p on O/pO) is F_p^s, s the number
    of maximal ideals over J. It holds 1, so at s > 1 one of two independent
    kernel vectors, alpha, is no multiple of 1: its minimal polynomial mod J
    has degree >= 2 and divides x^p - x, and alpha - r, r one of its roots,
    lies in some of those maximal ideals but not all.
    """
    n = order.degree
    free = [i for i in range(n) if J[i][i] != 1]

    def residue(v):
        r = reduce_mod_hnf(J, v)
        return [r[i] for i in free]

    images = [residue([frob[k][i] - (k == i) for k in range(n)]) for i in free]
    kernel = kernel_mod_p(transpose(images), p)
    if len(kernel) == 1:
        return None
    powers = [residue(order.one_coords)]
    v = kernel[1] if kernel_mod_p(transpose(powers + kernel[:1]), p) else kernel[0]
    lift = dict(zip(free, v))
    alpha = power = [lift.get(i, 0) for i in range(n)]
    while True:
        powers.append(residue(power))
        dependency = kernel_mod_p(transpose(powers), p)
        if dependency:
            return alpha, [-g[0] % p for g, _ in modpoly.factor(dependency[0], p)]
        power = reduce_mod_hnf(J, order.mult_coords(power, alpha))


def p_radical(order, p):
    """(R, gens, frob): the p-radical R of an order, its generators over pO, and frob.

    frob is the matrix of the F_p-linear map x -> x^p on O/pO (column i is
    w_i^p mod p). R/pO is the nilradical of O/pO, the kernel of frob^k for
    p^k >= n, and gens is an F_p-basis of it in integer order coordinates.
    """
    n = order.degree

    def mult(x, y):
        return [c % p for c in order.mult_coords(x, y)]

    frob = transpose([binary_power([int(i == j) for j in range(n)], p, None, mult)
                      for i in range(n)])
    power, q = frob, p
    while q < n:
        power, q = mat_mul(power, frob), q * p
    gens = kernel_mod_p(power, p)
    cols = [[p * int(i == j) for j in range(n)] for i in range(n)] + gens
    return FracIdeal(order, *lattice_hnf(cols)), gens, frob


def _g_mod_p(order, p):
    """The equation polynomial g reduced mod p, coefficients lowest first."""
    return modpoly.trim([int(c) % p for c in order.equation_poly.coeffs])


def _factor_mod_p(gp, p):
    """(monic factor of gp, multiplicity) pairs, coefficients lowest first.

    A quadratic at odd p is split by its roots (`intutil.quadratic_roots_mod`);
    anything else goes to `modpoly.factor`.
    """
    if len(gp) != 3 or p == 2:
        return modpoly.factor(gp, p)
    roots = quadratic_roots_mod(gp[0], gp[1], p)
    if not roots:
        return [(tuple(gp), 1)]
    return [((-r % p, 1), 3 - len(roots)) for r in roots]


def _theta_coords(order, u):
    """Integer order coordinates of u(theta), u an integer polynomial of degree < n.

    With w_j = sum_i T[i][j] theta^i / t (`orders.maximal_order`) the
    coordinates c solve T c = t u, back-substituted against the upper
    triangular T; every division is exact because Z[theta] <= O.
    """
    t, T = order.equation_basis
    n = order.degree
    c = [0] * n
    for j in range(len(u) - 1, -1, -1):
        c[j] = (t * u[j] - sum(T[j][k] * c[k] for k in range(j + 1, len(u)))) // T[j][j]
    return c


def _kernel_hnf(order, gi, p):
    """Column HNF of the kernel of O -> F_p[x]/(g_i), theta -> x, for p prime to the index.

    With w_j = sum_i T[i][j] theta^i / t (`orders.maximal_order`), the map
    sends w_j to lambda_j = sum_i T[i][j] x^i mod (g_i, p), up to the unit t;
    x^i mod g_i comes from x^(i-1) mod g_i by one multiplication by x. The
    echelon form of `linalg.kernel_mod_p` has its pivots leftmost, so the
    kernel vector of a free column j is 1 at j and nonzero only at pivot
    columns left of j, in [0, p). The HNF is then written down: p e_j at
    each of the f pivot columns j and that kernel vector at every other
    column, which is reduced because the pivot rows take entries in [0, p)
    and the other rows none.
    """
    _, T = order.equation_basis
    n = order.degree
    f = len(gi) - 1
    power = [1] + [0] * (f - 1)  # x^0 mod g_i
    powers = [power]
    for _ in range(n - 1):
        top = power[-1]
        power = [(-top * gi[0]) % p] + [(power[k - 1] - top * gi[k]) % p for k in range(1, f)]
        powers.append(power)
    lam = [[sum(map(mul, row, col)) for col in zip(*T)] for row in zip(*powers)]
    hnf = [[p * (i == j) for j in range(n)] for i in range(n)]
    for v in kernel_mod_p(lam, p):
        j = n - 1
        while not v[j]:
            j -= 1
        for i in range(j + 1):
            hnf[i][j] = v[i]
    return hnf


def factor_ideal(a):
    """Factor a fractional ideal into primes: dict {PrimeIdeal: exponent}.

    Support primes are found from the numerator and denominator norms. With
    num = den·a integral, sum v_P(num)·f_P over the primes above p is
    ord_p(N(num)), so once that is reached the other primes above p have
    v_P(num) = 0 and take no valuation; v_P(a) is v_P(num) - e_P·ord_p(den).
    """
    if isinstance(a, PrimeIdeal):
        return {a: 1}
    order = a.order
    num = a.scaled(a.den)
    norm = int(num.norm())
    support = set(factorize(norm).keys()) if norm != 1 else set()
    support |= set(factorize(a.den).keys())
    out = {}
    for p in sorted(support):
        left, d = _ord_p(norm, p), _ord_p(a.den, p)
        for P in prime_split(p, order):
            v = 0
            if left:
                v = num.valuation(P)
                left -= v * P.f
            v -= P.e * d
            if v:
                out[P] = v
    return out


def coprime_scale(a, m):
    """Scale a to an integral ideal of norm coprime to m (Lemma-style CRT fix).

    Returns (scalar, b) with b = scalar * a integral and gcd(N(b), m) = 1.
    """
    if m < 1:
        raise ValueError("m must be positive")
    order = a.order
    # c in a: the last basis element (any nonzero element of a works)
    c = order.element_from_coords(a.basis_columns()[-1]) / a.den
    cofactor = FracIdeal.principal(order, c) * a.inverse()
    if not cofactor.is_integral():
        raise InvariantViolated("c/a is not integral for c in a")
    support = set() if cofactor.norm() == 1 else set(factorize(int(cofactor.norm())).keys())
    if m > 1:
        support |= set(factorize(m).keys())
    primes = [P for p in sorted(support) for P in prime_split(p, order)]
    exponents = [cofactor.valuation(P) for P in primes]
    if not primes:
        scalar = c.inverse()
        return scalar, a.mult_by_element(scalar)
    # x_v with exact valuation e_v at P_v, then CRT mod P_v^(e_v+1), all on
    # integer order coordinates (e_v >= 0, so every P_v^e_v is integral)
    xs, moduli = [], []
    for P, e_v in zip(primes, exponents):
        Pe = P**e_v
        Pe1 = Pe * P
        xs.append(next(col for col in Pe.basis_columns() if Pe1.lattice_coords(col) is None))
        moduli.append(Pe1)
    a_star = [0] * order.degree
    for i, x in enumerate(xs):
        others = math.prod((M for j, M in enumerate(moduli) if j != i),
                           start=FracIdeal.unit_ideal(order))
        t = _split_one(moduli[i], others)
        a_star = [s + y for s, y in zip(a_star, order.mult_coords(x, t))]
    scalar = order.element_from_coords(a_star) / c
    b = a.mult_by_element(scalar)
    if not b.is_integral():
        raise InvariantViolated("the scaled ideal is not integral")
    if m > 1 and math.gcd(int(b.norm()), m) != 1:
        raise InvariantViolated(f"coprime scaling failed: norm {b.norm()} meets {m}")
    return scalar, b


def _split_one(I, J):
    """For coprime integral ideals I + J = O, the coordinates of a t in J with t = 1 mod I."""
    order = I.order
    n = order.degree
    H, U = hnf_with_transform([I.hnf[i] + J.hnf[i] for i in range(n)])
    # I + J = O exactly when the HNF of [I | J] is the identity; then the last
    # n columns of U combine the generators of I and J into the order basis
    if H != [[int(i == j) for j in range(n)] for i in range(n)]:
        raise InvariantViolated("1 not in I + J: ideals not coprime")
    t = mat_vec(J.hnf, mat_vec([row[n:] for row in U[n:]], order.one_coords))
    if J.lattice_coords(t) is None:
        raise InvariantViolated("the CRT element is not in J")
    if I.lattice_coords([u - v for u, v in zip(order.one_coords, t)]) is None:
        raise InvariantViolated("the CRT element is not 1 mod I")
    return t
