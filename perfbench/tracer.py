"""Per-module self time from outside the program.

``Tracer.install()`` wraps every public module-level function and every
public method of a public class in the layer modules of ``cmfields``, and
rebinds each wrapped function in every ``cmfields.*`` namespace that
imported it (``from .ideals import prime_split`` binds at import time).
Element and F_{p^2} arithmetic is never wrapped: dunder methods (the
operators) and private names such as ``stverify._GF2`` are skipped.

A wrapped call is a span. Its self time is its duration minus the time of
the wrapped calls made inside it. Spans are aggregated in memory as they
close (counts and nanosecond sums, no I/O) and reported once, at the end.
"""

import importlib
import inspect
import re
import sys
import time

MODULES = (
    "unipoly", "modpoly", "ratfactor", "linalg", "intutil", "numfield", "closure",
    "embeddings", "orders", "ideals", "principal", "cmreflex", "polar", "latticeav",
    "stverify", "rayclass",
)

# Named roles: "<module>.<role>" -> pattern on the function's qualified name
# within that module. Patterns rather than names, so a role keeps its meaning
# when duplicate routines are merged or renamed.
ROLES = {
    "intutil.iroot": r"^i(root|sqrt)",
    "intutil.factorize": r"^factorize$",
    "linalg.solve": r"solve|inverse|kernel|^det_",
    "linalg.hnf": r"^[hs]nf_",
    "linalg.mat_mul": r"^mat_(mul|vec)$",
    "ideals.valuation": r"\bvaluation$",
    "ideals.colon_ideal": r"^colon_ideal$",
    "ideals.prime_split": r"^prime_split$",
    "closure.splitting_data": r"^splitting_data$",
    "orders.maximal_order": r"^maximal_order$",
    "embeddings.certified_embeddings": r"^certified_embeddings$",
    "cmreflex.reflex_field": r"^reflex_field$",
    "stverify.count_points": r"^count_points$",
    "stverify.frobenius_element": r"^frobenius_element$",
    "principal.fincke_pohst": r"^fincke_pohst$",
    "rayclass.ray_class_group": r"^ray_class_group$",
}

# Cached entry points whose repeated calls, by value, are timed apart.
REPEAT = ("closure.splitting_data", "embeddings.certified_embeddings",
          "orders.maximal_order", "ideals.prime_split")


def value_key(v):
    """A key equal for equal fields, orders and integers, whatever the object."""
    if hasattr(v, "min_poly"):
        return ("field",) + tuple(str(c) for c in v.min_poly.coeffs)
    if hasattr(v, "basis") and hasattr(v, "field"):
        return ("order", value_key(v.field))
    return v


class _Stat:
    __slots__ = ("calls", "self_ns", "depth", "incl_ns", "repeat_ns", "seen")

    def __init__(self):
        self.calls = self.self_ns = self.depth = self.incl_ns = self.repeat_ns = 0
        self.seen = set()


class Tracer:
    def __init__(self):
        self.stack = [0]  # child time of each open span; [0] is the top level
        self.stats = {}  # "module.qualname" -> _Stat
        self.roles = {name: _Stat() for name in ROLES}

    def install(self):
        mods = {name: importlib.import_module(f"cmfields.{name}") for name in MODULES}
        wrapped = {}  # id(original) -> wrapper
        for name, mod in mods.items():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(val):
                    wrapped[id(val)] = self._wrap(name, attr, val)
                elif inspect.isclass(val):
                    self._wrap_class(name, val)
        for modname, mod in list(sys.modules.items()):
            if modname == "cmfields" or modname.startswith("cmfields."):
                for attr, val in list(vars(mod).items()):
                    if id(val) in wrapped and inspect.isfunction(val):
                        setattr(mod, attr, wrapped[id(val)])

    def _wrap_class(self, module, cls):
        for attr, val in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            if attr.startswith("_"):
                continue
            if isinstance(val, (staticmethod, classmethod)):
                setattr(cls, attr, type(val)(self._wrap(module, qual, val.__func__)))
            elif inspect.isfunction(val):
                setattr(cls, attr, self._wrap(module, qual, val))

    def _wrap(self, module, qual, fn):
        key = f"{module}.{qual}"
        stat = self.stats[key] = _Stat()
        role = next((self.roles[r] for r, pat in ROLES.items()
                     if r.split(".")[0] == module and re.search(pat, qual)), None)
        stack = self.stack
        clock = time.perf_counter_ns
        keyed = key in REPEAT
        signature = inspect.signature(fn) if keyed else None

        def wrapper(*args, **kwargs):
            if keyed:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                vkey = tuple(value_key(v) for v in bound.arguments.values())
                repeated = vkey in stat.seen
                stat.seen.add(vkey)
            stack.append(0)
            stat.depth += 1
            if role is not None:
                role.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.calls += 1
                stat.self_ns += dt - stack.pop()
                stack[-1] += dt
                stat.depth -= 1
                if not stat.depth:
                    stat.incl_ns += dt
                    if keyed and repeated:
                        stat.repeat_ns += dt
                if role is not None:
                    role.depth -= 1
                    if not role.depth:
                        role.calls += 1
                        role.incl_ns += dt

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def report(self):
        """Per-function aggregates and the top-level span time, JSON-able."""
        return {
            "top_s": self.stack[0] / 1e9,
            "functions": {k: {"calls": s.calls, "self_s": s.self_ns / 1e9,
                              "incl_s": s.incl_ns / 1e9, "repeat_s": s.repeat_ns / 1e9}
                          for k, s in self.stats.items() if s.calls},
            "roles": {k: {"calls": s.calls, "s": s.incl_ns / 1e9} for k, s in self.roles.items()},
        }


def layer_metrics(report):
    """The per-layer metrics of BENCHMARK.json from one traced round."""
    out = {}
    for m in MODULES:
        fns = [v for k, v in report["functions"].items() if k.split(".")[0] == m]
        out[f"{m}.self_s"] = sum(v["self_s"] for v in fns)
        out[f"{m}.calls"] = sum(v["calls"] for v in fns)
    for name, v in report["roles"].items():
        out[f"{name}.s"] = v["s"]
        out[f"{name}.calls"] = v["calls"]
    for name in REPEAT:
        out[f"{name}.repeat_s"] = report["functions"].get(name, {}).get("repeat_s", 0.0)
    return out
