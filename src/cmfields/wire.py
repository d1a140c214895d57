"""JSON wire format for number fields, and the canonical JSON of CLI records."""

import json
from fractions import Fraction

from .errors import BadInput
from .numfield import NumberField
from .unipoly import UniPoly


def _coeff(value):
    if isinstance(value, bool):
        raise ValueError(f"bad coefficient {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("polynomial coefficients must be exact (int or 'p/q')")
    try:
        return Fraction(value)
    except (TypeError, ZeroDivisionError):
        raise ValueError(f"bad coefficient {value!r}") from None


def _frac_out(q):
    q = Fraction(q)
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_field(record):
    """{"min_poly": [c0, c1, ..., cn]} with integer or "p/q" coefficients; else BadInput,
    also for a polynomial NumberField refuses (constant, reducible, past the factoring cap)."""
    coeffs = record.get("min_poly") if isinstance(record, dict) else None
    if not isinstance(coeffs, (list, tuple)):
        raise BadInput('parse error: a field is {"min_poly": [c0, c1, ..., cn]}')
    try:
        return NumberField(UniPoly([_coeff(c) for c in coeffs]))
    except ValueError as exc:
        raise BadInput(f"parse error: {exc}") from None


def field_to_wire(field):
    return {"min_poly": [_frac_out(c) for c in field.min_poly.coeffs]}


def dumps(record):
    """Canonical one-line JSON (sorted keys, no whitespace drift)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))
