"""JSON wire formats for fields, ideals, CM-types, quadruples, and models."""

import json
from fractions import Fraction

from .cmreflex import CMType, cm_check
from .ideals import FracIdeal, PrimeIdeal
from .numfield import NumberField
from .orders import maximal_order
from .unipoly import UniPoly


def _coeff(value):
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, (int, float)):
        if isinstance(value, float) and not value.is_integer():
            raise ValueError("polynomial coefficients must be exact (int or 'p/q')")
        return Fraction(int(value))
    raise ValueError(f"bad coefficient {value!r}")


def _frac_out(q):
    q = Fraction(q)
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_field(record):
    """{"min_poly": [c0, c1, ..., cn]} with integer or "p/q" coefficients."""
    coeffs = [_coeff(c) for c in record["min_poly"]]
    return NumberField(UniPoly(coeffs))


def field_to_wire(field):
    return {"min_poly": [_frac_out(c) for c in field.min_poly.coeffs]}


def parse_element(field, coords):
    return field.element([_coeff(c) for c in coords])


def element_to_wire(elem):
    return [_frac_out(c) for c in elem.coords]


def ideal_to_wire(ideal):
    n = ideal.order.degree
    out = {
        "den": ideal.den,
        "hnf": [[ideal.hnf[i][j] for i in range(n)] for j in range(n)],
    }
    if isinstance(ideal, PrimeIdeal):
        out.update({"p": ideal.p, "e": ideal.e, "f": ideal.f})
    return out


def parse_ideal(order, record):
    cols = record["hnf"]
    n = order.degree
    hnf = [[int(cols[j][i]) for j in range(n)] for i in range(n)]
    return FracIdeal(order, int(record["den"]), hnf)


def cmtype_to_wire(cmtype):
    return {
        "field": field_to_wire(cmtype.cmfield.field),
        "phi": cmtype.indices(),
    }


def parse_cmtype(record):
    field = parse_field(record["field"])
    cmf = cm_check(field)
    from .cmreflex import CMField

    if not isinstance(cmf, CMField):
        raise ValueError(f"field is not CM: {cmf.reason}")
    return CMType(cmf, set(record["phi"]))


def quadruple_to_wire(q):
    return {
        "cmtype": cmtype_to_wire(q.cmtype),
        "ideal": ideal_to_wire(q.ideal),
        "t": element_to_wire(q.t),
    }


def parse_quadruple(record):
    from .polar import TypeQuadruple

    cmtype = parse_cmtype(record["cmtype"])
    order = maximal_order(cmtype.cmfield.field)
    ideal = parse_ideal(order, record["ideal"])
    t = parse_element(cmtype.cmfield.field, record["t"])
    return TypeQuadruple(cmtype, ideal, t)


def group_report(group):
    return {
        "order": group.order_count,
        "elementary_divisors": group.elementary_divisors,
        "modulus": ideal_to_wire(group.modulus.ideal),
    }


def dumps(record):
    """Canonical one-line JSON (sorted keys, no whitespace drift)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))
