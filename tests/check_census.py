"""Check census: which checks in src/cmfields does tier-1 make fire?

Run from the repository root:

    PYTHONPATH=src python tests/check_census.py

It runs the tier-1 suite in this process under `sys.settrace` and
`threading.settrace`, recording every line of src/cmfields that executes.
Only frames of library code get a line tracer, but every Python call still
passes through the tracer, so the suite runs several times slower than
untraced. Tests that run the CLI in a subprocess are not traced, so the
census is a lower bound.

Per module it reports which `raise` sites ran, by exception type, and every
other statement that never ran. The sites of `InvariantViolated` that no
test reaches are compared, keyed by (module, message), against UNREACHED, a
list that may only shrink: the script exits 1 on an unreached site that is
not listed, and on a listed site that a test now reaches. It is not a test
module, so pytest does not collect it. The tracer is standard library only.
"""

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cmfields"

# (module, message) of every InvariantViolated site that tier-1 does not reach
UNREACHED = {
    ("closure", "a degree-[L:Q] component gives no root in L"),
    ("closure", "closure does not split f"),
    ("closure", "complex conjugation is not in the closure's group"),
    ("closure", "found {len(images)} automorphisms, expected {L.degree}"),
    ("closure", "identity automorphism missing"),
    ("closure", "splitting algebra is not etale"),
    ("closure", "theta does not map to a root of its minimal polynomial"),
    ("closure", "two tracked roots meet one root of K"),
    ("closure", "{len(roots)} roots tracked for degree {field.degree}"),
    ("cmreflex", "coset representatives collide"),
    ("cmreflex", "exponent {e} of N_Phi(P) not divisible by f = {f}"),
    ("cmreflex", "no prime below {P} found"),
    ("cmreflex", "reflex field is not CM: {rc.reason}"),
    ("cmreflex", "reflex norm did not land in E"),
    ("cmreflex", "relative norm not in phi(E)"),
    ("cmreflex", "residue degree {q.f} does not divide {P.f}"),
    ("cmreflex", "the inverted lift is not a union of stabilizer cosets"),
    ("ideals", "1 not in I + J: ideals not coprime"),
    ("ideals", "a prime above {p} has norm {P.norm()}, not {p}^{P.f}"),
    ("ideals", "c/a is not integral for c in a"),
    ("ideals", "coprime scaling failed: norm {b.norm()} meets {m}"),
    ("ideals", "the CRT element is not 1 mod I"),
    ("ideals", "the CRT element is not in J"),
    ("ideals", "the scaled ideal is not integral"),
    ("latticeav", "L/{self.m}L has no generator: the lattice is not invertible"),
    ("latticeav", "an a-multiplication ideal has norm {n}"),
    ("latticeav", "degree does not match the lattice index"),
    ("latticeav", "lattice is not an O-module"),
    ("latticeav", "source not inside target"),
    ("orders", "D^n f(x/D) is not integer monic for D = {D}"),
    ("orders", "disc of the integer polynomial {g} is {disc_eq}"),
    ("orders",
     "disc(O) [O : Z[D theta]]^2 = {order.disc() * index * index}, not disc(g) = {disc_eq}"),
    ("orders", "order discriminant {d} is not an integer"),
    ("orders", "theta-coordinate denominator {t // c} does not divide {index}"),
    ("polar", "complex conjugation fixes the field generator"),
    ("polar", "two embeddings of the type restrict to one real place"),
    ("principal", "1 is missing from the roots of unity"),
    ("principal", "form is not positive definite"),
    ("principal", "the trace form of an order is not integral"),
    ("ratfactor", "Hensel degree invariant broken"),
    ("ratfactor", "Hensel factors share a factor mod {p}"),
    ("ratfactor", "repeated factor mod {p} after a squarefree test"),
    ("rayclass", "class decomposition failed"),
    ("rayclass", "decomposition produced a non-coprime generator"),
    ("rayclass", "exact sequence |C_m| * |im(units)| = |(O/m)x| * h violated"),
    ("rayclass", "ray class group is not finite (missing relations)"),
    ("rayclass", "supplied unit fails the norm check"),
    ("stverify", "(p + 1)^2 - a_p^2 does not kill a point of C(F_p^2) at {p}"),
    ("stverify", "Frobenius candidate {cand} in 1, u has norm != {p}"),
    ("stverify", "conjugate sanity identity failed"),
    ("stverify", "norm sanity identity failed"),
    ("stverify", "{len(above)} primes above {p} contain u - {c}"),
    ("stverify", "{x} is not in Z[u]"),
}


def _exception_name(node):
    """The raised type's name: the callee of `raise E(...)`, E itself, or re-raise."""
    exc = node.exc
    if exc is None:
        return "re-raise"
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Attribute):
        return exc.attr
    if isinstance(exc, ast.Name):
        return exc.id
    return ast.unparse(exc)


def _message(node):
    """The first argument of the raise as a template: f-string fields stay as {expr}."""
    exc = node.exc
    if not isinstance(exc, ast.Call) or not exc.args:
        return ""
    arg = exc.args[0]
    if isinstance(arg, ast.Constant):
        return str(arg.value)
    if isinstance(arg, ast.JoinedStr):
        return "".join(str(part.value) if isinstance(part, ast.Constant)
                       else "{" + ast.unparse(part.value) + "}" for part in arg.values)
    return ast.unparse(arg)


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _statements(tree):
    """(node, own lines, child statements) for every statement but docstrings.

    A simple statement owns all of its lines; a compound one owns the lines
    of its header, from its first decorator to the line before its body.
    """
    out = []

    def walk(body):
        for node in body:
            if _is_docstring(node) or isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            bodies = [getattr(node, f) for f in ("body", "orelse", "finalbody")
                      if isinstance(getattr(node, f, None), list)]
            bodies += [h.body for h in getattr(node, "handlers", [])]
            bodies += [c.body for c in getattr(node, "cases", [])]
            children = [s for b in bodies for s in b]
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            last = node.end_lineno if not children else max(first, node.body[0].lineno - 1)
            out.append((node, range(first, last + 1), children))
            for b in bodies:
                walk(b)

    walk(tree.body)
    return out


def census(executed):
    """Per module: raise sites by type with reached flags, and unreached other statements."""
    report = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = executed.get(str(path), set())
        stmts = _statements(ast.parse(source, filename=str(path)))
        reached = {}
        # a compound statement ran when its header or any statement inside it ran
        for node, own, children in reversed(stmts):
            reached[id(node)] = (any(n in lines for n in own)
                                 or any(reached.get(id(c)) for c in children))
        raises = [(node, reached[id(node)]) for node, _, _ in stmts if isinstance(node, ast.Raise)]
        missed = [node for node, _, _ in stmts
                  if not isinstance(node, ast.Raise) and not reached[id(node)]]
        report[path.stem] = (raises, missed, source.splitlines())
    return report


def run_suite():
    """Run tier-1 in-process with a line tracer on library frames; (exit code, lines)."""
    executed = defaultdict(set)
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), executed


def main():
    code, executed = run_suite()
    report = census(executed)
    by_type = defaultdict(lambda: [0, 0])
    unreached = set()
    total_missed = 0
    for module, (raises, missed, lines) in report.items():
        counts = defaultdict(lambda: [0, 0])
        for node, ran in raises:
            name = _exception_name(node)
            counts[name][0] += ran
            counts[name][1] += 1
            by_type[name][0] += ran
            by_type[name][1] += 1
            if name == "InvariantViolated" and not ran:
                unreached.add((module, _message(node)))
        summary = ", ".join(f"{name} {r}/{n}" for name, (r, n) in sorted(counts.items()))
        print(f"{module}: raises reached {summary or 'none'}; "
              f"{len(missed)} other statements never ran")
        for node in missed:
            print(f"    {module}.py:{node.lineno}: {lines[node.lineno - 1].strip()}")
        total_missed += len(missed)
    print("raise sites reached, by type: " + ", ".join(
        f"{name} {r}/{n}" for name, (r, n) in sorted(by_type.items())))
    print(f"other statements never run: {total_missed}")
    status = 0
    for key in sorted(unreached - UNREACHED):
        print(f"unreached and not listed: {key}")
        status = 1
    for key in sorted(UNREACHED - unreached):
        print(f"listed but now reached (take it off UNREACHED): {key}")
        status = 1
    if code:
        print(f"the suite exited {code}")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
