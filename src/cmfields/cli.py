"""Command-line surface: cm, reflex-verify, and st pipelines.

Machine-readable records (one JSON object per line, sorted keys) go to
stdout; the human summary goes to stderr. Output is byte-identical for
identical inputs, seed, and version. Exit codes: 0 success, 1 identity or
verification failure (an `st` row whose computation raised is a failure: it
is emitted with status "error" and a witness, and the sweep goes on), 2
usage/parse error or a refused curve corpus, 3 closure too large or a class
group that is not cyclic, 4 internal invariant failed (any other typed
cmfields error). Every refusal is a typed error that `main` maps through
REFUSALS to its exit code and one stderr line, written after whatever
records were already written.
"""

import argparse
import json
import sys

from . import __version__
from .closure import splitting_data
from .cmreflex import (
    CMField,
    cm_check,
    enumerate_cm_types,
    reflex_field,
    verify_reflex_identities,
)
from .errors import (
    BadCorpus,
    BadInput,
    ClosureTooLarge,
    CMFieldsError,
    NonCyclicClassGroup,
    Supersingular,
)
from .intutil import primes_up_to
from .stverify import (
    DEFAULT_CORPUS,
    frobenius_element,
    load_curve,
    st_check_ideal,
    st_check_valuations,
)
from .wire import dumps, field_to_wire, parse_field

DEFAULT_BUDGET = 10**6

# (error class, exit code, stderr line): the first class that matches decides
REFUSALS = (
    (BadCorpus, 2, "corpus refused: {}"),
    (BadInput, 2, "{}"),
    (ClosureTooLarge, 3, "closure too large: {}"),
    (NonCyclicClassGroup, 3, "class group not cyclic: {}"),
    (CMFieldsError, 4, "internal invariant failed: {name}: {}"),
)


def _config_header(args, command):
    return {
        "record": "config",
        "command": command,
        "seed": args.seed,
        "budget": args.budget,
        "format": args.format,
        "version": __version__,
    }


def _emit(args, record, human=None):
    if args.format == "records":
        print(dumps(record))
    if human:
        print(human, file=sys.stderr)


def _load_json(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise BadInput(f"cannot read {path}: {exc}") from None


def cmd_cm(args):
    field = parse_field(_load_json(args.field_file))
    _emit(args, _config_header(args, "cm"))
    result = cm_check(field)
    if not isinstance(result, CMField):
        _emit(
            args,
            {"record": "cm", "field": field_to_wire(field), "cm": False,
             "reason": result.reason},
            human=f"not CM: {result.reason}",
        )
        return 0
    types = enumerate_cm_types(result)
    out = {
        "record": "cm",
        "field": field_to_wire(field),
        "cm": True,
        "real_subfield": field_to_wire(result.real_subfield),
        "n_types": len(types),
    }
    _emit(args, out, human=f"CM field with {len(types)} CM-types")
    for idx, cmt in enumerate(types):
        rd = reflex_field(cmt)
        _emit(
            args,
            {
                "record": "cm_type",
                "index": idx,
                "phi": cmt.indices(),
                "reflex_field": field_to_wire(rd.reflex_field),
                "reflex_type": rd.reflex_type.indices(),
                "closure_degree": rd.closure.degree,
            },
        )
    return 0


def cmd_reflex_verify(args):
    if args.samples < 0:
        raise BadInput("samples must be >= 0")
    field = parse_field(_load_json(args.field_file))
    result = cm_check(field)
    if not isinstance(result, CMField):
        raise BadInput(f"not a CM field: {result.reason}")
    types = enumerate_cm_types(result)
    if not 0 <= args.type_index < len(types):
        raise BadInput(f"type index out of range (0..{len(types) - 1})")
    cmt = types[args.type_index]
    _emit(args, _config_header(args, "reflex-verify"))
    k = splitting_data(field).closure
    report = verify_reflex_identities(cmt, k, args.samples, args.seed)
    for name in sorted(report["identities"]):
        entry = report["identities"][name]
        rec = {"record": "identity", "name": name,
               "pass": entry["pass"], "fail": entry["fail"]}
        if entry.get("witness") is not None:
            rec["witness"] = str(entry["witness"])
        _emit(args, rec)
    _emit(
        args,
        {"record": "summary", "ok": report["ok"], "prime_count": report["prime_count"]},
        human=f"identity suite: {'PASS' if report['ok'] else 'FAIL'}",
    )
    return 0 if report["ok"] else 1


def cmd_st(args):
    if args.p_max < args.p_min:
        raise BadInput("p-max must be >= p-min")
    primes = [p for p in primes_up_to(args.p_max) if max(args.p_min, 5) <= p < args.budget]
    if not primes:
        raise BadInput(f"no prime p >= 5 with {args.p_min} <= p <= {args.p_max} and p < "
                       f"--budget {args.budget}")
    if args.corpus_file == "default":
        corpus = list(DEFAULT_CORPUS)
    else:
        corpus = _load_json(args.corpus_file)
    if not isinstance(corpus, list):
        raise BadCorpus("a curve corpus is a JSON list of records")
    curves = [load_curve(rec) for rec in corpus]
    _emit(args, _config_header(args, "st"))
    counts = {"ordinary": 0, "supersingular": 0, "error": 0}
    ok = True
    for ci, curve in enumerate(curves):
        E = curve.cmfield.field
        disc = -16 * (4 * curve.a4**3 + 27 * curve.a6**2)
        for p in primes:
            if disc % p == 0:
                continue
            row = {"record": "st", "curve": ci, "a4": curve.a4, "a6": curve.a6, "p": p}
            try:
                frob = frobenius_element(curve, p, seed=args.seed)
                ideal_ok = st_check_ideal(frob, frob.cmtype, E, frob.prime_above)
                val_rep = st_check_valuations(frob, frob.cmtype, E, frob.prime_above)
            except Supersingular:
                row["status"] = "supersingular"
            except CMFieldsError as exc:
                row.update({"status": "error", "witness": f"{type(exc).__name__}: {exc}"})
            else:
                row.update(
                    {
                        "status": "ordinary",
                        "a_p": frob.trace,
                        "pi": [str(c) for c in frob.pi.coords],
                        "ideal_match": ideal_ok,
                        "valuation_match": val_rep["ok"],
                    }
                )
                ok = ok and ideal_ok and val_rep["ok"]
            counts[row["status"]] += 1
            _emit(args, row)
    all_ok = ok and not counts["error"]
    _emit(
        args,
        {"record": "summary", "ok": all_ok, "ordinary_rows": counts["ordinary"],
         "skipped_rows": counts["supersingular"]},
        human=(
            f"st: {counts['ordinary']} ordinary rows, {counts['supersingular']} skipped, "
            f"{counts['error']} errors, {'PASS' if all_ok else 'FAIL'}"
        ),
    )
    return 0 if all_ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cmfields",
        description="Exact CM-field calculus: reflex norms, lattice models, "
        "and Shimura-Taniyama verification",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    parser.add_argument("--format", choices=("records", "summary"), default="records")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cm = sub.add_parser("cm", help="CM analysis of a number field")
    p_cm.add_argument("field_file")
    p_cm.set_defaults(func=cmd_cm)

    p_rv = sub.add_parser("reflex-verify", help="reflex-norm identity suite")
    p_rv.add_argument("field_file")
    p_rv.add_argument("--type-index", type=int, default=0)
    p_rv.add_argument("--samples", type=int, default=100)
    p_rv.set_defaults(func=cmd_reflex_verify)

    p_st = sub.add_parser("st", help="Shimura-Taniyama verification sweep")
    p_st.add_argument("corpus_file", help="JSON corpus or 'default'")
    p_st.add_argument("p_min", type=int)
    p_st.add_argument("p_max", type=int)
    p_st.set_defaults(func=cmd_st)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CMFieldsError as exc:
        code, line = next((c, f) for cls, c, f in REFUSALS if isinstance(exc, cls))
        print(line.format(exc, name=type(exc).__name__), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
