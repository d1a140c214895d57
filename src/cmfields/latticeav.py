"""Lattice models of CM abelian varieties and the a-multiplication calculus.

A LatticeAV is the pair (CM-type, fractional ideal): the variety C^Phi / Phi(a)
with its O_E-action. Morphisms between models with the same CM-pair are
multiplier elements of E; an a-multiplication is the distinguished isogeny
whose target has lattice a^{-1} * source lattice. Degrees, composition,
Hom-modules, torsion modules, and the ideal-class / isogeny-class bijection
all reduce to exact ideal arithmetic: the isogeny classes are the ideal
classes of `principal.class_representatives`, and torsion and induced maps
read integer lattice coordinates off `FracIdeal.lattice_coords`.
"""

import itertools
import math

from .errors import (
    CompositionMismatch,
    InvariantViolated,
    NonIntegralIdeal,
    OrderMismatch,
    PairMismatch,
    SourceMismatch,
    ZeroElement,
)
from .ideals import colon_ideal
from .linalg import det_fraction, mat_vec
from .orders import maximal_order
from .principal import class_representatives


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
        if n.denominator != 1:
            raise InvariantViolated(f"an a-multiplication ideal has norm {n}")
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
    if index != deg:
        raise InvariantViolated("degree does not match the lattice index")
    return deg


def elem_degree(av, alpha):
    """Degree of the isogeny given by a nonzero integral element.

    Consistent with amul_degree on the principal ideal (alpha).
    """
    if alpha.is_zero():
        raise ZeroElement("zero element is not an isogeny")
    n = abs(alpha.norm())
    if n.denominator != 1:
        raise NonIntegralIdeal(f"an isogeny needs an integral element, not norm {n}")
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
    if out != av_b.lattice * av_a.lattice.inverse():
        raise InvariantViolated("colon and quotient disagree")
    return out


def factor_through(lam, mu):
    """Whether an E-isogeny target(lam) -> target(mu) over the common source exists.

    True exactly when lam.ideal contains mu.ideal.
    """
    if lam.source != mu.source:
        raise SourceMismatch("different sources")
    return lam.ideal.contains_ideal(mu.ideal)


def isogeny_classes(cmfield, cmtype):
    """One LatticeAV per ideal class; the unit-ideal model comes first.

    The lattices are `principal.class_representatives`: pairwise
    non-isomorphic, and as many as the class number. Requires principality
    testing to be decisive at the norms that occur (always true for imaginary
    quadratic fields).
    """
    return [LatticeAV(cmtype, r) for r in class_representatives(maximal_order(cmfield.field))]


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
        lattice = av.lattice
        order = lattice.order
        n = order.degree
        self.action = []
        for t in range(n):
            M = order.mult_matrix_coords([int(i == t) for i in range(n)])
            cols = []
            for col in lattice.basis_columns():
                z = lattice.lattice_coords(mat_vec(M, col), lattice.den)
                if z is None:
                    raise InvariantViolated("lattice is not an O-module")
                cols.append([c % m for c in z])
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
        return math.gcd(int(det_fraction(M)), self.m) == 1

    def _find_generator(self):
        """The first generator in boxes [0, radius]^n of radius 1, 2, ..., m - 1.

        The search ends: a lattice of the maximal order is invertible, so
        L/mL is isomorphic to O/mO as an O-module and has a generator in
        (Z/m)^n, which the box of radius m - 1 covers. Each box tests only
        the points it adds to the one before.
        """
        n = self.av.lattice.order.degree
        for radius in range(1, self.m):
            for coords in itertools.product(range(radius + 1), repeat=n):
                if max(coords) == radius and self.is_generator(list(coords)):
                    return list(coords)
        raise InvariantViolated(f"L/{self.m}L has no generator: the lattice is not invertible")


def induced_torsion_matrix(lam, m):
    """The matrix of the map on m-torsion induced by an a-multiplication.

    Columns express the source lattice basis in the target basis, mod m.
    The map is bijective exactly when det is a unit mod m.
    """
    n = lam.source.lattice.order.degree
    src = lam.source.lattice
    tgt = lam.target.lattice
    out_cols = []
    for col in src.basis_columns():
        z = tgt.lattice_coords(col, src.den)
        if z is None:
            raise InvariantViolated("source not inside target")
        out_cols.append([c % m for c in z])
    M = [[out_cols[j][i] for j in range(n)] for i in range(n)]
    bijective = math.gcd(int(det_fraction(M)), m) == 1
    return M, bijective
