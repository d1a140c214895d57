"""Checks of the workload records, independent of the code they time.

Nothing here imports ``cmfields``. Point counts come from a Legendre-symbol
sum, class numbers from counting reduced binary quadratic forms, unit-group
orders of O/(m) from the splitting of rational primes (Kronecker symbols),
CM surveys and Riemann elements are checked against structural facts. Each
``check_<name>`` returns a list of ``(op, message)`` problems, where ``op`` is
the id of the record at fault or None for a problem of the whole workload; an
empty list means every record passed.
"""

from fractions import Fraction
from math import gcd

from workloads import (
    RAY_MODULI, REFLEX_ELEMENTS, REFLEX_IDEAL_PAIRS, ST_CURVES, SURVEY_FIELDS,
    fundamental_discriminants, st_sweep_primes,
)


def legendre_trace(p, a4, a6):
    """a_p = -sum_x ((x^3 + a4 x + a6) / p) for y^2 = x^3 + a4 x + a6 over F_p."""
    square = bytearray(p)
    for y in range(1, (p + 1) // 2):
        square[y * y % p] = 1
    total = 0
    for x in range(p):
        t = (x * x * x + a4 * x + a6) % p
        if t:
            total += 1 if square[t] else -1
    return -total


def class_number(d):
    """Class number of discriminant d < 0, by counting reduced forms (a, b, c).

    A form is reduced when |b| <= a <= c, with b >= 0 if |b| = a or a = c.
    """
    count = 0
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            if (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            if c < a or (a == c and b < 0):
                continue
            count += 1
        a += 1
    return count


def _kronecker(d, q):
    """The splitting symbol (d/q) of a rational prime q in Q(sqrt d)."""
    if d % q == 0:
        return 0
    if q == 2:
        return 1 if d % 8 == 1 else -1
    return 1 if pow(d % q, (q - 1) // 2, q) == 1 else -1


def _factor(n):
    out, q = {}, 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def unit_group_order(d, m):
    """|(O/mO)^*| for the maximal order of the quadratic field of discriminant d."""
    out = 1
    for q, k in _factor(m).items():
        s = _kronecker(d, q)
        if s == 1:
            out *= (q**k - q ** (k - 1)) ** 2
        elif s == -1:
            out *= q ** (2 * k) - q ** (2 * k - 2)
        else:
            out *= q ** (2 * k) - q ** (2 * k - 1)
    return out


# The quadratic fields of lattice_rayclass: discriminant and the units in
# power-basis coordinates (1, theta) with theta^2 = -1 or -5.
QUADRATIC_UNITS = {
    "Q(i)": (-4, ((1, 0), (-1, 0), (0, 1), (0, -1))),
    "Q(sqrt-5)": (-20, ((1, 0), (-1, 0))),
}
# Complex conjugation on power-basis coordinates: theta -> -theta on the
# quadratic fields, zeta -> zeta^4 = -(1 + zeta + zeta^2 + zeta^3) on Q(zeta5).
CONJUGATIONS = {
    "Q(i)": lambda c0, c1: (c0, -c1),
    "Q(sqrt-5)": lambda c0, c1: (c0, -c1),
    "Q(zeta5)": lambda c0, c1, c2, c3: (c0 - c1, -c1, c3 - c1, c2 - c1),
}
RIEMANN_TYPES = {"Q(i)": 2, "Q(sqrt-5)": 2, "Q(zeta5)": 4}  # 2^g CM-types each


def _expect_ids(records, ids):
    got = [r["op"] for r in records]
    return [] if got == list(ids) else [(None, f"op list differs: {len(got)} records, "
                                               f"{len(ids)} expected")]


def check_st_sweep(records, seed):
    ids = []
    for ci, (a4, a6) in enumerate(ST_CURVES):
        disc = -16 * (4 * a4**3 + 27 * a6**2)
        ids += [f"st:{ci}:{p}" for p in st_sweep_primes(seed) if disc % p]
    problems = _expect_ids(records, ids)
    for r in records:
        if "error" in r:
            continue
        op, p, (a4, a6) = r["op"], r["p"], ST_CURVES[r["curve"]]
        a_p = legendre_trace(p, a4 % p, a6 % p)
        if r["status"] == "supersingular":
            if a_p % p:
                problems.append((op, f"reported supersingular but a_p = {a_p}"))
            continue
        c0, c1 = (int(c) for c in r["min_poly"][:2])  # x^2 + c1 x + c0
        r0, r1 = (int(c) for c in r["pi"])
        trace = 2 * r0 - c1 * r1
        norm = r0 * r0 - c1 * r0 * r1 + c0 * r1 * r1
        if r["a_p"] != a_p or trace != a_p or norm != p or a_p % p == 0:
            problems.append((op, f"a_p {r['a_p']}, pi {r['pi']}; Legendre a_p {a_p}"))
        if not (r["ideal_match"] and r["valuation_match"]):
            problems.append((op, "identity check failed"))
    return problems


def check_reflex_quartic(records, seed):
    problems = _expect_ids(records, ["reflex:suite"]
                           + [f"reflex:element:{i}" for i in range(REFLEX_ELEMENTS)]
                           + [f"reflex:pair:{i}" for i in range(REFLEX_IDEAL_PAIRS)])
    suite = records[0] if records else {"error": "no records"}
    if "error" in suite:
        return problems
    op, ids = suite["op"], suite["identities"]
    if not suite["ok"] or any(v["fail"] for v in ids.values()):
        problems.append((op, f"reflex suite failed: {ids}"))
    if (suite["closure_degree"], suite["field_degree"]) != (8, 4):
        problems.append((op, "the quartic's closure is not of degree 8"))
    if ids["conjugate_product_ideals"]["pass"] != suite["prime_count"]:
        problems.append((op, "not every prime of small norm was checked"))
    if ids["reflex_ideal_root"]["pass"] != suite["reflex_prime_count"]:
        problems.append((op, "not every reflex prime of small norm was checked"))
    for r in records[1:]:
        if "error" not in r and not r["ok"]:
            problems.append((r["op"], "identity failed"))
    return problems


def check_cm_survey(records, seed):
    problems = _expect_ids(records, [f"cm:{name}" for name, _ in SURVEY_FIELDS])
    for r in records:
        if "error" in r:
            continue
        op, n = r["op"], r["degree"]
        if not r["cm"]:
            problems.append((op, "not recognised as CM"))
            continue
        if r["n_types"] != 2 ** (n // 2) or len({tuple(t) for t in r["types"]}) != r["n_types"]:
            problems.append((op, f"{r['n_types']} CM-types, expected {2 ** (n // 2)}"))
        if any(len(t) != n // 2 for t in r["types"]):
            problems.append((op, "a CM-type without g embeddings"))
        if r["closure_degree"] % n:
            problems.append((op, "field degree does not divide the closure degree"))
        for x in r["reflex"]:
            if r["closure_degree"] % x["degree"] or len(x["type"]) * 2 != x["degree"]:
                problems.append((op, f"reflex degree {x['degree']} vs closure "
                                     f"{r['closure_degree']}, reflex type {x['type']}"))
    return problems


def check_lattice_rayclass(records, seed):
    problems = []
    discs = fundamental_discriminants(-100)
    for r in records:
        if "error" in r:
            continue
        op, kind = r["op"], r["op"].split(":")[0]
        if kind == "h":
            if r["order_disc"] != r["d"] or r["h"] != class_number(r["d"]):
                problems.append((op, f"h = {r['h']}, forms give {class_number(r['d'])}"))
        elif kind == "amult":
            if not (r["degree"] == int(r["norm_a"]) and r["compose"] and r["factor"] and r["hom"]):
                problems.append((op, "a-multiplication law failed"))
        elif kind == "riemann":
            # a Riemann element is a nonzero alpha with conj(alpha) = -alpha
            alpha = tuple(Fraction(c) for c in r["alpha"])
            if not any(alpha) or CONJUGATIONS[r["field"]](*alpha) != tuple(-c for c in alpha):
                problems.append((op, f"alpha = {r['alpha']} is zero or not totally imaginary"))
        elif kind in ("trip", "transport"):
            if not r["ok"]:
                problems.append((op, "check failed"))
        elif kind == "ray":
            d, units = QUADRATIC_UNITS[r["field"]]
            m, h = r["m"], class_number(d)
            phi = unit_group_order(d, m)
            image = len({(u0 % m, u1 % m) for u0, u1 in units})
            if (r["class_number"], r["residue_units"], r["order"] * image) != (h, phi, phi * h):
                problems.append((op, f"order {r['order']}, h {r['class_number']}, "
                                     f"units {r['residue_units']}; expected h {h}, phi {phi}, "
                                     f"unit image {image}"))
        elif kind == "coprime":
            if not r["integral"] or gcd(int(r["norm"]), r["m"]) != 1:
                problems.append((op, "coprime_scale result not coprime"))
    counts = {}
    for r in records:
        counts[r["op"].split(":")[0]] = counts.get(r["op"].split(":")[0], 0) + 1
    if (counts.get("h"), counts.get("ray"), counts.get("riemann")) != (
            len(discs), 2 * len(RAY_MODULI), sum(RIEMANN_TYPES.values())):
        problems.append((None, f"op counts {counts}"))
    return problems


CHECKS = {
    "st_sweep": check_st_sweep,
    "reflex_quartic": check_reflex_quartic,
    "cm_survey": check_cm_survey,
    "lattice_rayclass": check_lattice_rayclass,
}
