"""Ray class groups C_m for CM fields with computable unit images.

The group is assembled from the exact sequence
units -> (O/m)x -> C_m -> Cl -> 1: the residue group is enumerated with a
full discrete-log table (the norm cap keeps it small), the unit image is the
subgroup generated by the torsion units and any supplied fundamental units,
and the class part is `principal.class_representatives`: the first
representative of class order h generates a cyclic class group, and
`ideals.coprime_scale` moves it within its class to norm coprime to m; a
class group with no such representative is not cyclic and is refused. A
class is its exponent vector reduced modulo the HNF of the combined relation
rows, which also gives the group order (the product of the pivots) and the
elementary divisors.
The reflex-transport check realizes the ideal-norm side of the main theorem:
principal reflex-field ideals with ray-congruent generators must transport to
the trivial class. With m | m', beta = 1 (mod m') gives N_Phi(beta) = 1
(mod m O_E), so one pass decides it.
"""

import itertools
import math
import random
from .cmreflex import _random_element, reflex_field
from .errors import (
    InvariantViolated,
    ModulusTooLarge,
    NonCyclicClassGroup,
    NotCoprime,
    UnitsUnavailable,
)
from .ideals import FracIdeal, coprime_scale, factor_ideal, prime_split
from .intutil import primes_up_to
from .linalg import elementary_divisors, lattice_hnf, reduce_mod_hnf
from .orders import maximal_order
from .principal import class_representatives, is_principal, torsion_units
from .unipoly import UniPoly

MODULUS_NORM_CAP = 10**4


class Modulus:
    """An integral nonzero modulus ideal (the field is totally imaginary)."""

    def __init__(self, ideal):
        if not ideal.is_integral():
            raise ValueError("modulus must be integral")
        self.ideal = ideal

    def __repr__(self):
        return f"Modulus(norm={self.ideal.norm()})"


def supplied_fundamental_units(field):
    """Verified fundamental units for corpus fields beyond the quadratic range.

    Z[zeta5]: zeta5 and 1 + zeta5 (norms +-1, verified here). Other fields
    with infinite unit groups are not supplied.
    """
    zeta5 = UniPoly([1, 1, 1, 1, 1])
    if field.min_poly == zeta5:
        g = field.gen()
        units = [field.one() + g]
        for u in units:
            if abs(u.norm()) != 1:
                raise InvariantViolated("supplied unit fails the norm check")
        return units
    return None


class _ResidueGroup:
    """(O/m)x with a full dlog table; trivial for the unit modulus. A residue is
    a unit when its integer coordinates lie in no prime of m (no element built).
    """

    def __init__(self, order, modulus):
        self.order = order
        self.modulus = modulus
        n = order.degree
        self.hnf = modulus.hnf
        self.diag = [self.hnf[i][i] for i in range(n)]
        self.ring_size = math.prod(self.diag)
        self.prime_divisors = list(factor_ideal(modulus).keys()) if self.ring_size > 1 else []
        self.gens = []
        self.rel_rows = []
        self.table = {}
        self._build()

    def reduce(self, coords):
        """Canonical residue vector of integer order-coordinates mod the modulus."""
        return reduce_mod_hnf(self.hnf, coords)

    def _elements(self):
        """Every residue vector, the first coordinate running fastest."""
        for idx in itertools.product(*(range(d) for d in reversed(self.diag))):
            yield idx[::-1]

    def _is_unit(self, vec):
        return all(P.lattice_coords(list(vec)) is None for P in self.prime_divisors)

    def _mul(self, a, b):
        return reduce_mod_hnf(self.hnf, self.order.mult_coords(a, b))

    def _build(self):
        one = self.reduce(self.order.one_coords)
        self.one = one
        self.table = {one: ()}
        self.unit_count = 1
        if self.ring_size == 1:
            return
        for cand in self._elements():
            if cand in self.table or not self._is_unit(cand):
                continue
            # adjoin cand as a new generator; a unit's order divides
            # |(O/m)x| < ring_size, so d never reaches ring_size
            power, d = cand, 1
            while power not in self.table:
                if d == self.ring_size - 1:
                    raise InvariantViolated("a residue taken for a unit has no order below the ring size")
                power, d = self._mul(power, cand), d + 1
            base_dlog = self.table[power]
            gen_index = len(self.gens)
            self.gens.append(cand)
            self.rel_rows.append((gen_index, d, base_dlog))
            new_table = {}
            for key, dl in self.table.items():
                acc = key
                for j in range(d):
                    vec = dl + (0,) * (gen_index - len(dl)) + (j,)
                    new_table[acc] = vec
                    if j < d - 1:
                        acc = self._mul(acc, cand)
            self.table = new_table
        # normalize dlog lengths
        r = len(self.gens)
        self.table = {k: tuple(v) + (0,) * (r - len(v)) for k, v in self.table.items()}
        self.unit_count = len(self.table)

    def dlog(self, vec):
        if vec not in self.table:
            raise NotCoprime("residue is not a unit modulo the modulus")
        return self.table[vec]

    def relation_rows(self):
        """Integer relation rows over the residue generators."""
        r = len(self.gens)
        rows = []
        for gen_index, d, base in self.rel_rows:
            row = [0] * r
            row[gen_index] = d
            for j, e in enumerate(base):
                row[j] -= e
            rows.append(row)
        return rows


def _class_group_cyclic_data(order, modulus_ideal):
    """(h, an integral ideal g coprime to the modulus whose class generates, tau).

    g^h = (tau); g and tau are None when h = 1. A cyclic class group has a
    representative of class order h among `class_representatives`, so a
    group with none is refused at once with NonCyclicClassGroup; a class
    order divides h, so each power search ends. The first such
    representative r is g, unless its norm meets the modulus's: then
    `ideals.coprime_scale` gives g = c r in the same class with norm coprime
    to it, and tau becomes c^h tau.
    """
    reps = class_representatives(order)
    h = len(reps)
    if h == 1:
        return 1, None, None
    for g in reps:
        k, power = 1, g
        while (tau := is_principal(power)) is None:
            k, power = k + 1, power * g
        if k == h:
            break
    else:
        raise NonCyclicClassGroup(f"class number {h}, but no class has order {h}")
    m_norm = int(modulus_ideal.norm())
    if math.gcd(int(g.norm()), m_norm) != 1:
        c, g = coprime_scale(g, m_norm)
        tau = tau * c**h
    return h, g, tau


class RayClassGroup:
    """C_m = I^S(m) / principal-ray, with discrete logarithms."""

    def __init__(self, cmfield, modulus):
        field = cmfield.field
        order = maximal_order(field)
        m_ideal = modulus.ideal
        norm = m_ideal.norm()
        if norm > MODULUS_NORM_CAP:
            raise ModulusTooLarge(f"modulus norm {norm} exceeds {MODULUS_NORM_CAP}")
        units = list(torsion_units(order))
        if field.degree > 2:
            extra = supplied_fundamental_units(field)
            if extra is None:
                raise UnitsUnavailable(
                    "no verified fundamental units supplied for this field"
                )
            units.extend(extra)
        self.cmfield = cmfield
        self.field = field
        self.order = order
        self.modulus = modulus
        self.residues = _ResidueGroup(order, m_ideal)
        h, class_gen, tau = _class_group_cyclic_data(order, m_ideal)
        self.class_number = h
        self.class_gen = class_gen

        offset = 1 if class_gen is not None else 0
        rows = []
        if class_gen is not None:
            # class relation: class_gen^h = (tau)
            rows.append([h] + [-e for e in self._residue_dlog_of_alpha(tau)])
        for res_row in self.residues.relation_rows():
            rows.append([0] * offset + res_row)
        # unit relations: (u) is the trivial ideal, so its residue class dies
        for u in units:
            dl = self._residue_dlog_of_alpha(u)
            rows.append([0] * offset + list(dl))
        # the torsion units give a row, so rows is never empty
        H = lattice_hnf(rows)[1]
        if any(len(row) != len(H) for row in H):
            raise InvariantViolated("ray class group is not finite (missing relations)")
        self._relations = H
        self.elementary_divisors = elementary_divisors(H)
        self.order_count = math.prod(H[i][i] for i in range(len(H)))
        # exact-sequence invariant
        unit_vecs = {self.residues.reduce(order.integral_coords(u)) for u in units}
        img = _subgroup_size(unit_vecs, self.residues)
        if self.order_count * img != self.residues.unit_count * h:
            raise InvariantViolated("exact sequence |C_m| * |im(units)| = |(O/m)x| * h violated")
        self._unit_image_size = img

    def identity(self):
        return reduce_mod_hnf(self._relations, [0] * len(self._relations))

    def add(self, c1, c2):
        """Sum of two classes, reduced modulo the relations."""
        return reduce_mod_hnf(self._relations, [a + b for a, b in zip(c1, c2)])

    def ray_class(self, a):
        """Class of a fractional ideal coprime to m: its exponent vector reduced
        modulo the relations."""
        m_norm = int(self.modulus.ideal.norm())
        if not _coprime_to(a, m_norm):
            raise NotCoprime("ideal is not coprime to the modulus")
        # the first k with a * class_gen^-k = (alpha), so a = class_gen^k * (alpha)
        work = a
        for k in range(self.class_number):
            alpha = is_principal(work)
            if alpha is not None:
                break
            if k + 1 == self.class_number:
                raise InvariantViolated("class decomposition failed")
            work = work * self.class_gen.inverse()
        if not _coprime_to(FracIdeal.principal(self.order, alpha), m_norm):
            raise InvariantViolated("decomposition produced a non-coprime generator")
        return self._class_of(k, alpha)

    def ray_class_of_element(self, alpha):
        """Class of the principal ideal (alpha) without a principality search."""
        n = abs(alpha.norm())
        m_norm = int(self.modulus.ideal.norm())
        if math.gcd(n.numerator, m_norm) != 1 or math.gcd(n.denominator, m_norm) != 1:
            raise NotCoprime("element norm is not coprime to the modulus")
        return self._class_of(0, alpha)

    def _class_of(self, k, alpha):
        """Class of class_gen^k * (alpha), for alpha coprime to m."""
        exps = [k] if self.class_gen is not None else []
        return reduce_mod_hnf(self._relations, exps + list(self._residue_dlog_of_alpha(alpha)))

    def _residue_dlog_of_alpha(self, alpha):
        """dlog(num) - dlog(den) for alpha = num/den coprime to m, num integral.

        It differs from the table dlog of num * den^-1 by a residue relation,
        which the reduction modulo the relations in every caller sends to zero.
        """
        res = self.residues
        v, den = self.order._coords_num(alpha)
        dl_num = res.dlog(res.reduce(v))
        if den == 1:
            return dl_num
        dl_den = res.dlog(res.reduce([den * c for c in self.order.one_coords]))
        return tuple(a - b for a, b in zip(dl_num, dl_den))

    def __repr__(self):
        return (
            f"RayClassGroup(order={self.order_count}, "
            f"divisors={self.elementary_divisors}, modulus_norm={self.modulus.ideal.norm()})"
        )


def _coprime_to(a, m_norm):
    """True when the numerator and denominator ideals of a have norms prime to m_norm."""
    return (math.gcd(int(a.scaled(a.den).norm()), m_norm) == 1
            and math.gcd(a.den, m_norm) == 1)


def _subgroup_size(gen_vecs, residues):
    """Size of the subgroup of (O/m)x generated by the given residue vectors."""
    elems = {residues.one}
    frontier = [residues.one]
    while frontier:
        cur = frontier.pop()
        for g in gen_vecs:
            nxt = residues._mul(cur, g)
            if nxt not in elems:
                elems.add(nxt)
                frontier.append(nxt)
    return len(elems)


def ray_class_group(cmfield, modulus):
    return RayClassGroup(cmfield, modulus)


def _random_ray_element(reflex_order, m_prime, rng):
    """beta = 1 + rho with rho a small random element of the modulus ideal."""
    basis = m_prime.basis_elements()
    field = reflex_order.field
    while True:
        rho = field.zero()
        for b in basis:
            rho = rho + b * rng.randint(-4, 4)
        beta = field.one() + rho
        if not beta.is_zero() and abs(beta.norm()) != 0:
            return beta


def reflex_transport_check(cmtype, m, m_prime_ideal, samples, seed, negative_control=False):
    """Transport well-definedness: ray-congruent principal reflex ideals die in C_m.

    For `samples` random beta = 1 (mod m'), the class of N_Phi((beta)) in
    C_m(E) must be trivial. m' is first made divisible by m, so beta - 1 lies
    in m O_{E*}. Then sigma(beta) = 1 (mod m O_L) for every automorphism
    sigma of the closure L, so their product N_Phi(beta) is 1 mod
    m O_L meet E = m O_E, and its class is trivial. No modulus is too small:
    one pass, and a nontrivial class is a fault (ok False; `escalations` is
    always [], `final_modulus_norm` is N(m')). Multiplicativity of the
    transported classes is checked on prime pairs. With negative_control=True,
    betas are sampled merely coprime to the modulus and the report records
    whether nontrivial classes appear (they should).
    """
    E = cmtype.cmfield
    rd = reflex_field(cmtype)
    OStar = maximal_order(rd.reflex_field)
    order_E = maximal_order(E.field)
    group = ray_class_group(E, Modulus(FracIdeal.principal(order_E, E.field.one() * m)))
    rng = random.Random(seed)

    m_prime = m_prime_ideal
    # the modulus must be divisible by m
    m_in_star = FracIdeal.principal(OStar, rd.reflex_field.one() * m)
    if not m_in_star.contains_ideal(m_prime):
        m_prime = m_prime * m_in_star

    classes = []
    for _ in range(samples):
        if negative_control:
            beta = _random_coprime_element(OStar, m_prime, m, rng)
        else:
            beta = _random_ray_element(OStar, m_prime, rng)
        classes.append(group.ray_class_of_element(rd.reflex_norm_element(beta)))
    nontrivial = any(c != group.identity() for c in classes)
    # ray-congruent samples must all be trivial; coprime-only ones must not
    report = {"m": m, "samples": samples, "seed": seed, "escalations": [],
              "classes": [list(c) for c in classes], "ok": nontrivial == negative_control,
              "negative_control": negative_control, "final_modulus_norm": int(m_prime.norm())}
    if negative_control:
        report["nontrivial_seen"] = nontrivial

    # multiplicativity of the transported ideal classes
    mult_ok = True
    star_primes = []
    for p in primes_up_to(60):
        if m % p == 0:
            continue
        star_primes.append(prime_split(p, OStar)[0])
        if len(star_primes) >= 5:
            break
    for i in range(min(3, len(star_primes))):
        for j in range(i, min(3, len(star_primes))):
            b1, b2 = star_primes[i], star_primes[j]
            c12 = group.ray_class(rd.reflex_norm_ideal(b1 * b2))
            c1 = group.ray_class(rd.reflex_norm_ideal(b1))
            c2 = group.ray_class(rd.reflex_norm_ideal(b2))
            if c12 != group.add(c1, c2):
                mult_ok = False
    report["multiplicativity"] = mult_ok
    report["ok"] = report["ok"] and mult_ok
    return report


def _random_coprime_element(order, m_prime, m, rng):
    m_norm = int(m_prime.norm()) * m
    while True:
        e = _random_element(order.field, rng, 5)
        if math.gcd(int(abs(e.norm())), m_norm) == 1:
            return e
