"""The four benchmark workloads: seeded inputs, set-up and timed ops.

Each workload is a pair of functions. ``setup_<name>(seed)`` imports the
library, builds the fields, closures, orders and curves, and draws the
seeded inputs with the benchmark's own random generator; it returns a state
dict. ``ops_<name>(state)`` yields ``(op_id, thunk)`` pairs; a thunk runs one
op through the public ``cmfields`` API and returns a JSON-able record; a
record that stands for several checked ops says how many under "ops". A
thunk that raises is one failed op. The records are checked afterwards, in the parent
process, by ``checks.py``, which does not import the library.
"""

import random
from fractions import Fraction

# Fields are minimal polynomials, coefficients lowest degree first.
QUARTIC = (3, 0, 6, 0, 1)  # x^4 + 6x^2 + 3, degree-8 Galois closure
SURVEY_FIELDS = (
    ("Q(i)", (1, 0, 1)),
    ("Q(zeta3)", (1, 1, 1)),
    ("Q(sqrt-5)", (5, 0, 1)),
    ("Q(zeta5)", (1, 1, 1, 1, 1)),
    ("x^4+5x^2+1", (1, 0, 5, 0, 1)),
    ("x^4+6x^2+3", QUARTIC),
    ("Q(zeta7)", (1, 1, 1, 1, 1, 1, 1)),
    ("Q(zeta15)", (1, -1, 0, 1, -1, 1, 0, -1, 1)),
)
# CM fields on which reflex_field fails at the time the benchmark was
# written ("no primitive element"). They are left out of cm_survey, whose ops
# must not fail; once reflex_field handles them they move into SURVEY_FIELDS.
SURVEY_KNOWN_FAILURES = (
    ("Q(zeta16)", (1, 0, 0, 0, 0, 0, 0, 0, 1)),
    ("Q(zeta24)", (1, 0, 0, 0, -1, 0, 0, 0, 1)),
)

ST_CURVES = ((-1, 0), (0, 1))  # (a4, a6) of the built-in corpus, in order
ST_SMALL_BOUND = 2000
ST_WINDOW = (19000, 21000)
ST_WINDOW_PER_CLASS = 12  # primes per residue class 1, 5, 7, 11 mod 12

REFLEX_NORM_BOUND = 200
REFLEX_ELEMENTS = 8
REFLEX_IDEAL_PAIRS = 8

LATTICE_AMULT = 120
LATTICE_ROUND_TRIPS = 40
LATTICE_TRANSPORT_SAMPLES = 20
LATTICE_COPRIME = 100
RAY_MODULI = (1, 2, 3, 4, 5, 7, 9, 11, 13, 15, 21)


def small_primes(bound):
    """Primes below bound, by a sieve of the benchmark's own."""
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for i in range(2, int(bound**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(bound) if sieve[i]]


def fundamental_discriminants(lo):
    """Fundamental discriminants d with lo < d <= -3."""
    def squarefree(n):
        return all(n % (q * q) for q in range(2, int(n**0.5) + 1))

    out = [d for d in range(-3, lo, -1) if d % 4 == 1 and squarefree(-d)]
    out += [d for d in range(-4, lo, -4) if (-d // 4) % 4 in (1, 2) and squarefree(-d // 4)]
    return sorted(out, reverse=True)


def _strs(coords):
    return [str(c) for c in coords]


def _field(coeffs):
    from cmfields.numfield import NumberField
    from cmfields.unipoly import UniPoly

    return NumberField(UniPoly(list(coeffs)))


def _quadratic(d):
    """Q(sqrt d) for a fundamental discriminant d, by its integral generator."""
    if d % 4 == 1:
        return _field((Fraction(1 - d, 4), -1, 1))
    return _field((-d // 4, 0, 1))


# -- st_sweep ---------------------------------------------------------------


def st_sweep_primes(seed):
    """Every prime 5 <= p < ST_SMALL_BOUND, then a seeded sample of the window.

    The window sample takes as many primes from each class 1, 5, 7, 11 mod 12,
    so every seed has as many ordinary primes for each built-in curve.
    """
    rng = random.Random(seed)
    window = [p for p in small_primes(ST_WINDOW[1]) if p >= ST_WINDOW[0]]
    chosen = []
    for r in (1, 5, 7, 11):
        chosen += rng.sample([p for p in window if p % 12 == r], ST_WINDOW_PER_CLASS)
    return [p for p in small_primes(ST_SMALL_BOUND) if p >= 5] + sorted(chosen)


def setup_st_sweep(seed):
    from cmfields.stverify import DEFAULT_CORPUS, load_curve

    curves = [load_curve(rec) for rec in DEFAULT_CORPUS]
    if [(c.a4, c.a6) for c in curves] != list(ST_CURVES):
        raise ValueError("the built-in curve corpus changed")
    return {"seed": seed, "curves": curves, "primes": st_sweep_primes(seed)}


def ops_st_sweep(state):
    from cmfields.errors import Supersingular
    from cmfields.stverify import frobenius_element, st_check_ideal, st_check_valuations

    def row(ci, curve, p):
        rec = {"curve": ci, "p": p}
        try:
            frob = frobenius_element(curve, p, seed=state["seed"])
        except Supersingular:
            rec["status"] = "supersingular"
            return rec
        E = curve.cmfield.field
        rec.update(
            status="ordinary",
            a_p=frob.trace,
            pi=_strs(frob.pi.coords),
            min_poly=_strs(E.min_poly.coeffs),
            ideal_match=st_check_ideal(frob, frob.cmtype, E, frob.prime_above),
            valuation_match=st_check_valuations(frob, frob.cmtype, E, frob.prime_above)["ok"],
        )
        return rec

    for ci, curve in enumerate(state["curves"]):
        disc = -16 * (4 * curve.a4**3 + 27 * curve.a6**2)
        for p in state["primes"]:
            if disc % p:
                yield f"st:{ci}:{p}", lambda ci=ci, curve=curve, p=p: row(ci, curve, p)


# -- reflex_quartic ---------------------------------------------------------


def setup_reflex_quartic(seed):
    from cmfields.closure import splitting_data
    from cmfields.cmreflex import cm_check, enumerate_cm_types, reflex_field
    from cmfields.orders import maximal_order

    field = _field(QUARTIC)
    cmtype = enumerate_cm_types(cm_check(field))[0]
    closure = splitting_data(field).closure
    for f in (closure, field, reflex_field(cmtype).reflex_field):
        maximal_order(f)
    rng = random.Random(seed)
    elements = []
    while len(elements) < REFLEX_ELEMENTS:
        coords = [rng.randint(-8, 8) for _ in range(closure.degree)]
        if any(coords):
            elements.append(closure.element(coords))
    # ideals (p, a) of O_k for small p prime to the equation-order index
    index = maximal_order(closure).equation_index
    ps = [p for p in small_primes(30) if index % p]
    gens = []
    for _ in range(2 * REFLEX_IDEAL_PAIRS):
        coords = [rng.randint(-3, 3) for _ in range(closure.degree)]
        gens.append((rng.choice(ps), closure.element(coords)))
    return {"seed": seed, "cmtype": cmtype, "closure": closure,
            "elements": elements, "ideal_gens": gens}


def ops_reflex_quartic(state):
    from cmfields.cmreflex import reflex_norm_elem, reflex_norm_ideal, verify_reflex_identities
    from cmfields.ideals import FracIdeal
    from cmfields.orders import maximal_order

    t, k = state["cmtype"], state["closure"]
    E = t.cmfield

    def suite():
        # n_samples=0: the fixed prime-ideal part of the suite; the sampled
        # identities run below on the benchmark's own seeded inputs
        rep = verify_reflex_identities(t, k, 0, state["seed"], norm_bound=REFLEX_NORM_BOUND)
        checks = sum(v["pass"] + v["fail"] for v in rep["identities"].values())
        return {"ops": checks, "identities": rep["identities"], "ok": rep["ok"],
                "prime_count": rep["prime_count"],
                "reflex_prime_count": rep["reflex_prime_count"],
                "closure_degree": k.degree, "field_degree": E.field.degree}

    def element(a):
        na = reflex_norm_elem(t, k, a)
        return {"a": _strs(a.coords), "norm": _strs(na.coords),
                "ok": na * E.conj(na) == E.field.element([a.norm()])}

    def pair(g1, g2):
        order = maximal_order(k)
        I1 = FracIdeal.from_generators(order, [k.one() * g1[0], g1[1]])
        I2 = FracIdeal.from_generators(order, [k.one() * g2[0], g2[1]])
        lhs = reflex_norm_ideal(t, k, I1 * I2)
        rhs = reflex_norm_ideal(t, k, I1) * reflex_norm_ideal(t, k, I2)
        return {"p": [g1[0], g2[0]], "norm": str(lhs.norm()), "ok": lhs == rhs}

    yield "reflex:suite", suite
    for i, a in enumerate(state["elements"]):
        yield f"reflex:element:{i}", lambda a=a: element(a)
    gens = state["ideal_gens"]
    for i in range(0, len(gens), 2):
        yield f"reflex:pair:{i // 2}", lambda i=i: pair(gens[i], gens[i + 1])


# -- cm_survey --------------------------------------------------------------


def setup_cm_survey(seed):
    # every op builds its field afresh; set-up is the interpreter and imports
    return {"fields": SURVEY_FIELDS}


def ops_cm_survey(state):
    from cmfields.cmreflex import CMField, cm_check, enumerate_cm_types, reflex_field

    def survey(coeffs):
        field = _field(coeffs)  # a fresh object: nothing carries over
        cmf = cm_check(field)
        rec = {"min_poly": list(coeffs), "degree": field.degree,
               "cm": isinstance(cmf, CMField)}
        if not rec["cm"]:
            return rec
        types = enumerate_cm_types(cmf)
        reflex = [reflex_field(t) for t in types]
        rec.update(
            n_types=len(types),
            types=[t.indices() for t in types],
            closure_degree=reflex[0].closure.degree,
            reflex=[{"min_poly": _strs(r.reflex_field.min_poly.coeffs),
                     "degree": r.reflex_field.degree,
                     "closure_degree": r.closure.degree,
                     "type": r.reflex_type.indices()} for r in reflex],
        )
        return rec

    for name, coeffs in state["fields"]:
        yield f"cm:{name}", lambda coeffs=coeffs: survey(coeffs)


# -- lattice_rayclass -------------------------------------------------------


def _integral_ideal(order, rng, max_gen=12, height=6):
    """The seeded input (m, a): an integer and an element of the order."""
    coords = [rng.randint(-height, height) for _ in range(order.degree)]
    return rng.randint(2, max_gen), order.element_from_coords(coords)


def setup_lattice_rayclass(seed):
    from cmfields.cmreflex import cm_check, enumerate_cm_types
    from cmfields.ideals import FracIdeal
    from cmfields.latticeav import LatticeAV
    from cmfields.orders import maximal_order

    rng = random.Random(seed)
    names = ("Q(i)", "Q(sqrt-5)", "Q(zeta5)")
    fields = {n: _field(c) for n, c in SURVEY_FIELDS if n in names}
    cm = {n: cm_check(f) for n, f in fields.items()}
    types = {n: enumerate_cm_types(c) for n, c in cm.items()}
    orders = {n: maximal_order(f) for n, f in fields.items()}
    models = [LatticeAV(types[n][0], FracIdeal.unit_ideal(orders[n])) for n in names]
    # as many instances on each field, so every seed does the same mix
    amult = []
    for j in range(LATTICE_AMULT):
        i = j % len(models)
        amult.append((i, _integral_ideal(orders[names[i]], rng),
                      _integral_ideal(orders[names[i]], rng)))
    trips = []
    for n in names[:2]:
        while sum(1 for m, _ in trips if m == n) < LATTICE_ROUND_TRIPS:
            c = (rng.randint(-6, 6), rng.randint(-6, 6))
            if any(c):
                trips.append((n, fields[n].element(list(c))))
    coprime = []
    for j in range(LATTICE_COPRIME):
        n = names[j % 2]
        coprime.append((n, _integral_ideal(orders[n], rng, max_gen=20, height=8),
                        rng.choice([2, 3, 4, 5, 6, 10, 12])))
    return {"seed": seed, "names": names, "fields": fields, "cm": cm, "types": types,
            "orders": orders, "models": models, "amult": amult, "trips": trips,
            "coprime": coprime, "transport_seeds": (rng.randrange(1 << 30), rng.randrange(1 << 30)),
            "discriminants": fundamental_discriminants(-100)}


def ops_lattice_rayclass(state):
    from cmfields.cmreflex import cm_check, enumerate_cm_types
    from cmfields.ideals import FracIdeal, coprime_scale
    from cmfields.latticeav import (
        LatticeAV, amul, amul_degree, compose, factor_through, hom_ideal, isogeny_classes,
    )
    from cmfields.orders import maximal_order
    from cmfields.polar import TypeQuadruple, find_riemann_element, quadruples_equivalent
    from cmfields.rayclass import Modulus, ray_class_group, reflex_transport_check

    fields, orders, types = state["fields"], state["orders"], state["types"]

    def ideal(order, gens):
        m, a = gens
        return FracIdeal.from_generators(order, [order.field.one() * m, a])

    def class_number(d):
        field = _quadratic(d)
        order = maximal_order(field)
        cmf = cm_check(field)
        h = len(isogeny_classes(cmf, enumerate_cm_types(cmf)[0]))
        return {"d": d, "order_disc": int(order.disc()), "h": h}

    def amult(i, ga, gb):
        A = state["models"][i]
        O = A.lattice.order
        a, b = ideal(O, ga), ideal(O, gb)
        lam = amul(A, a)
        mu = amul(lam.target, b)
        B = LatticeAV(A.cmtype, b.inverse())
        hom = hom_ideal(A, B)
        return {"model": i, "norm_a": str(a.norm()), "degree": amul_degree(lam),
                "compose": amul_degree(compose(lam, mu)) == amul_degree(lam) * amul_degree(mu),
                "factor": factor_through(lam, amul(A, b)) == a.contains_ideal(b),
                "hom": hom == B.lattice * A.lattice.inverse() and hom == b.inverse()}

    def riemann(n, ti):
        r = find_riemann_element(types[n][ti])
        return {"field": n, "type": ti, "alpha": _strs(r.alpha.coords)}

    quad = {}

    def round_trip(n, a):
        if n not in quad:  # the base quadruple is part of the first op
            t = types[n][0]
            quad[n] = TypeQuadruple(t, FracIdeal.unit_ideal(orders[n]),
                                    find_riemann_element(t).alpha)
        q1, conj = quad[n], state["cm"][n].conj
        q2 = TypeQuadruple(q1.cmtype, q1.ideal.mult_by_element(a), q1.t / (a * conj(a)))
        w = quadruples_equivalent(q1, q2)
        ok = (w is not None and q2.ideal == q1.ideal.mult_by_element(w)
              and q2.t == q1.t / (w * conj(w)))
        return {"field": n, "a": _strs(a.coords), "ok": ok}

    def ray_group(n, m):
        O = orders[n]
        G = ray_class_group(state["cm"][n], Modulus(FracIdeal.principal(O, fields[n].one() * m)))
        return {"field": n, "m": m, "min_poly": _strs(fields[n].min_poly.coeffs),
                "order": G.order_count, "class_number": G.class_number,
                "residue_units": G.residues.unit_count}

    def transport(n, m, seed):
        O = orders[n]
        rep = reflex_transport_check(types[n][0], m, FracIdeal.principal(O, fields[n].one() * m),
                                     LATTICE_TRANSPORT_SAMPLES, seed=seed)
        return {"field": n, "m": m, "ok": rep["ok"], "escalations": rep["escalations"],
                "classes": rep["classes"]}

    def coprime(n, gens, m):
        _, b = coprime_scale(ideal(orders[n], gens), m)
        return {"field": n, "m": m, "integral": b.is_integral(), "norm": str(b.norm())}

    for d in state["discriminants"]:
        yield f"h:{d}", lambda d=d: class_number(d)
    for j, (i, ga, gb) in enumerate(state["amult"]):
        yield f"amult:{j}", lambda i=i, ga=ga, gb=gb: amult(i, ga, gb)
    for n in state["names"]:
        for ti in range(len(types[n])):
            yield f"riemann:{n}:{ti}", lambda n=n, ti=ti: riemann(n, ti)
    for j, (n, a) in enumerate(state["trips"]):
        yield f"trip:{j}", lambda n=n, a=a: round_trip(n, a)
    for n in state["names"][:2]:
        for m in RAY_MODULI:
            yield f"ray:{n}:{m}", lambda n=n, m=m: ray_group(n, m)
    for (n, m), seed in zip((("Q(i)", 3), ("Q(zeta5)", 2)), state["transport_seeds"]):
        yield f"transport:{n}", lambda n=n, m=m, seed=seed: transport(n, m, seed)
    for j, (n, gens, m) in enumerate(state["coprime"]):
        yield f"coprime:{j}", lambda n=n, gens=gens, m=m: coprime(n, gens, m)


WORKLOADS = {
    "st_sweep": (setup_st_sweep, ops_st_sweep),
    "reflex_quartic": (setup_reflex_quartic, ops_reflex_quartic),
    "cm_survey": (setup_cm_survey, ops_cm_survey),
    "lattice_rayclass": (setup_lattice_rayclass, ops_lattice_rayclass),
}
