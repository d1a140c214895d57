"""JSON wire format for number fields, and the canonical JSON of CLI records."""

import json
from fractions import Fraction

from .numfield import NumberField
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


def dumps(record):
    """Canonical one-line JSON (sorted keys, no whitespace drift)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))
