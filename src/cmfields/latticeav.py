"""Lattice models of CM abelian varieties and the a-multiplication calculus.

A LatticeAV is the pair (CM-type, fractional ideal): the variety C^Phi / Phi(a)
with its O_E-action. Morphisms between models with the same CM-pair are
multiplier elements of E; an a-multiplication is the distinguished isogeny
whose target has lattice a^{-1} * source lattice. Degrees, composition,
Hom-modules, torsion modules, and the ideal-class / isogeny-class bijection
all reduce to exact ideal arithmetic.
"""

import math
from fractions import Fraction

from .errors import (
    CompositionMismatch,
    NonIntegralIdeal,
    OrderMismatch,
    PairMismatch,
    SourceMismatch,
    ZeroElement,
)
from .ideals import FracIdeal, colon_ideal, prime_split
from .linalg import solve_fraction
from .principal import is_principal


class LatticeAV:
    """C^Phi / Phi(lattice) with complex multiplication by the maximal order."""

    def __init__(self, cmtype, lattice):
        if lattice.order.index_in_maximal != 1:
            raise OrderMismatch("lattice models require the maximal order")
        self.cmtype = cmtype
        self.lattice = lattice

    def __repr__(self):
        return f"LatticeAV(phi={self.cmtype.indices()}, lattice={self.lattice!r})"

    def __eq__(self, other):
        return (
            isinstance(other, LatticeAV)
            and self.cmtype == other.cmtype
            and self.lattice == other.lattice
        )

    def __hash__(self):
        return hash((self.cmtype, self.lattice))

    @property
    def dim(self):
        return self.cmtype.cmfield.g


class AMult:
    """The a-multiplication source -> target with target lattice a^{-1}*source."""

    def __init__(self, source, target, ideal):
        self.source = source
        self.target = target
        self.ideal = ideal

    def __repr__(self):
        return f"AMult(ideal={self.ideal!r})"

    def degree(self):
        n = self.ideal.norm()
        assert n.denominator == 1
        return int(n)


def amul(av, ideal):
    """The a-multiplication out of av for an integral nonzero ideal."""
    if ideal.order != av.lattice.order:
        raise OrderMismatch("ideal over a different order")
    if not ideal.is_integral():
        raise NonIntegralIdeal("a-multiplication needs an integral ideal")
    target = LatticeAV(av.cmtype, ideal.inverse() * av.lattice)
    return AMult(av, target, ideal)


def amul_degree(lam):
    """deg = numerical norm of the ideal; cross-checked against the lattice index."""
    deg = lam.degree()
    index = lam.source.lattice.norm() / lam.target.lattice.norm()
    assert index == deg, "degree does not match the lattice index"
    return deg


def elem_degree(av, alpha):
    """Degree of the isogeny given by a nonzero integral element.

    Consistent with amul_degree on the principal ideal (alpha).
    """
    if alpha.is_zero():
        raise ZeroElement("zero element is not an isogeny")
    n = abs(alpha.norm())
    assert n.denominator == 1
    return int(n)


def compose(lam, mu):
    """mu after lam; the composite is a (mu.ideal * lam.ideal)-multiplication."""
    if lam.target != mu.source:
        raise CompositionMismatch("target/source mismatch")
    return AMult(lam.source, mu.target, mu.ideal * lam.ideal)


def hom_ideal(av_a, av_b):
    """Hom_{O_E}(A, B) as the fractional ideal {x in E : x*lattice_A <= lattice_B}.

    Computed as a colon ideal and cross-checked against lattice_B * lattice_A^{-1}.
    """
    if av_a.cmtype != av_b.cmtype:
        raise PairMismatch("different CM-pairs")
    out = colon_ideal(av_b.lattice, av_a.lattice)
    assert out == av_b.lattice * av_a.lattice.inverse(), "colon and quotient disagree"
    return out


def factor_through(lam, mu):
    """Whether an E-isogeny target(lam) -> target(mu) over the common source exists.

    True exactly when lam.ideal contains mu.ideal.
    """
    if lam.source != mu.source:
        raise SourceMismatch("different sources")
    return lam.ideal.contains_ideal(mu.ideal)


def _minkowski_norm_cap(disc):
    """An integer >= (2/pi)^s * sqrt(|disc|) for an imaginary quadratic field."""
    return math.isqrt(abs(disc) * 4053 // 10000) + 1


def _integral_ideals_up_to(order, bound):
    """All integral ideals of norm <= bound (including the unit ideal)."""
    from .errors import IndexDivisible

    primes = []
    for p in range(2, bound + 1):
        if all(p % q for q in range(2, int(math.isqrt(p)) + 1)):
            try:
                primes.extend(P for P in prime_split(p, order) if P.norm() <= bound)
            except IndexDivisible:
                continue
    out = [FracIdeal.unit_ideal(order)]
    for P in primes:
        new = []
        for a in out:
            power = a
            while True:
                power = power * P
                if power.norm() > bound:
                    break
                new.append(power)
        out.extend(new)
    return [a for a in out if a.norm() <= bound]


def isogeny_classes(cmfield, cmtype):
    """One LatticeAV per ideal class; the unit-ideal model comes first.

    Representatives are pairwise non-isomorphic; the count is the class
    number. Requires principality testing to be decisive at the norms that
    occur (always true for imaginary quadratic fields).
    """
    order = _maximal(cmfield)
    disc = order.disc()
    bound = _minkowski_norm_cap(disc)
    candidates = _integral_ideals_up_to(order, bound)
    candidates.sort(key=lambda a: (a.norm(), a.den, tuple(tuple(r) for r in a.hnf)))
    reps = []
    for a in candidates:
        klass = None
        for r in reps:
            if is_principal(a * r.inverse()) is not None:
                klass = r
                break
        if klass is None:
            reps.append(a)
    return [LatticeAV(cmtype, r) for r in reps]


def _maximal(cmfield):
    from .orders import maximal_order

    return maximal_order(cmfield.field)


class TorsionModule:
    """The m-torsion (1/m)L / L with its O_E-action in the lattice basis.

    Elements are coordinate vectors in (Z/m)^n with respect to the lattice
    basis divided by m; action matrices give the order-basis generators.
    """

    def __init__(self, av, m):
        if m < 1:
            raise ValueError("m must be positive")
        self.av = av
        self.m = m
        order = av.lattice.order
        n = order.degree
        lat_cols = [[Fraction(x, av.lattice.den) for x in col] for col in av.lattice.basis_columns()]
        lat_matrix = [[lat_cols[j][i] for j in range(n)] for i in range(n)]
        self.action = []
        for t in range(n):
            unit = [0] * n
            unit[t] = 1
            cols = []
            for j in range(n):
                prod = order.mult_coords(unit, [c for c in lat_cols[j]])
                sol = solve_fraction(lat_matrix, prod)
                assert all(c.denominator == 1 for c in sol), "lattice is not an O-module"
                cols.append([int(c) % m if m > 1 else 0 for c in sol])
            self.action.append([[cols[j][i] for j in range(n)] for i in range(n)])
        self.generator = self._find_generator() if m > 1 else [0] * n

    def cardinality(self):
        return self.m ** self.av.lattice.order.degree

    def _matrix_of(self, v):
        """(Z/m)-matrix of r -> r*v, columns over the order basis."""
        n = len(v)
        cols = [self._act(t, v) for t in range(n)]
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    def _act(self, t, v):
        A = self.action[t]
        n = len(v)
        return [sum(A[i][j] * v[j] for j in range(n)) % self.m for i in range(n)]

    def is_generator(self, v):
        M = self._matrix_of(v)
        return math.gcd(_det_mod(M, self.m), self.m) == 1

    def _find_generator(self):
        n = self.av.lattice.order.degree
        import itertools

        for radius in (1, 2, 3):
            for coords in itertools.product(range(radius + 1), repeat=n):
                if all(c == 0 for c in coords):
                    continue
                if self.is_generator(list(coords)):
                    return list(coords)
        raise AssertionError("no cyclic generator found (non-invertible module?)")


def _det_mod(M, m):
    n = len(M)
    from .linalg import det_fraction

    d = det_fraction(M)
    assert d.denominator == 1
    return int(d) % m


def torsion(av, m):
    return TorsionModule(av, m)


def induced_torsion_matrix(lam, m):
    """The matrix of the map on m-torsion induced by an a-multiplication.

    Columns express the source lattice basis in the target basis, mod m.
    The map is bijective exactly when det is a unit mod m.
    """
    n = lam.source.lattice.order.degree
    src = lam.source.lattice
    tgt = lam.target.lattice
    tgt_cols = [[Fraction(x, tgt.den) for x in col] for col in tgt.basis_columns()]
    tgt_matrix = [[tgt_cols[j][i] for j in range(n)] for i in range(n)]
    out_cols = []
    for col in src.basis_columns():
        vec = [Fraction(x, src.den) for x in col]
        sol = solve_fraction(tgt_matrix, vec)
        assert all(c.denominator == 1 for c in sol), "source not inside target"
        out_cols.append([int(c) % m for c in sol])
    M = [[out_cols[j][i] for j in range(n)] for i in range(n)]
    bijective = math.gcd(_det_mod(M, m), m) == 1
    return M, bijective
