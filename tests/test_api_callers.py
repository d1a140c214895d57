"""Dead-API guards: every function in the library has a caller somewhere,
and every parameter default is overridden by some call.

A module-level function or a non-dunder method of a module-level class in
src/cmfields counts as used when its name is referenced (as a Name, as an
Attribute, or as a string in an __all__ list) somewhere in src/, tests/ or
perfbench/ outside its own definition. The match is by name only, so it errs
on the side of calling a function used; the parameter guard matches calls
the same way. A stricter guard then asks of each module-level function that
it be used as that function: loaded by its bare name, or read as an
attribute of its own module. A last guard keeps every import of the library
at module top, where the module graph shows it. The test-only guard asks
more of the public API: a function, class or method that only tests call
belongs in tests/oracles.py, not in the library.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cmfields"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]


def _definitions(tree):
    """(name, node) for module-level functions and non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, item


def _references(tree, skip):
    """Names referenced in the tree, ignoring the subtrees whose ids are in skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            for elt in ast.walk(node.value):
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    out.add(elt.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unreferenced_functions():
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for base in SEARCHED
        for path in sorted(base.rglob("*.py"))
    }
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _definitions(trees[path]):
            defined.append((path, name, node))
    # a reference inside a function's own body (recursion) does not count
    own_bodies = {id(node) for _, _, node in defined}
    used = set()
    for tree in trees.values():
        used |= _references(tree, own_bodies)
    # the skipped definitions still count as callers of every other name
    for _, name, node in defined:
        for child in ast.iter_child_nodes(node):
            used |= _references(child, own_bodies) - {name}
    return sorted(
        f"{path.stem}.{name}" for path, name, _ in defined if name not in used
    )


def test_every_library_function_has_a_caller():
    assert unreferenced_functions() == []


def _module_aliases(tree):
    """{local name: module stem} for the names an import binds to a cmfields module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.module == "cmfields" or (node.level and node.module is None)
        ):
            for alias in node.names:
                out[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("cmfields.") and alias.asname:
                    out[alias.asname] = alias.name.rsplit(".", 1)[1]
    return out


def _module_of(node, aliases):
    """The cmfields module stem an attribute's value names, or None."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def functions_used_only_by_name():
    """module.function for each module-level function never used as itself.

    A use is a bare-name load of the function, or an attribute read whose
    value names the function's own module (`modpoly.trim`,
    `cmfields.modpoly.trim`). A same-named method attribute (`group.f`) and
    an import that binds the name without loading it are not uses, and
    neither is a load inside the function's own body.
    """
    bare, qualified = set(), set()
    for base in SEARCHED:
        for path in sorted(base.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            aliases = _module_aliases(tree)
            own_module = path.stem if path.parent == PACKAGE else None
            for top in tree.body:
                own = top.name if own_module and isinstance(
                    top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
                for node in ast.walk(top):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        if node.id != own:
                            bare.add(node.id)
                    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                        module = _module_of(node.value, aliases)
                        if module and (module, node.attr) != (own_module, own):
                            qualified.add((module, node.attr))
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                node.name in bare or (path.stem, node.name) in qualified
            ):
                out.append(f"{path.stem}.{node.name}")
    return sorted(out)


def test_every_module_function_is_used_as_itself():
    assert functions_used_only_by_name() == []


def _parameters_with_defaults(node, is_method):
    """(position or None, name) of each defaulted parameter of a def node.

    The position counts from the first argument a call passes, so a method
    skips self (or cls) unless it is a staticmethod; keyword-only parameters
    have position None.
    """
    args = node.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
    skip = 1 if is_method and not static else 0
    first_default = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional):
        if i >= first_default:
            yield i - skip, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _callee_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def unpassed_parameters():
    """module.function(param) for each defaulted parameter no call passes.

    A call matches a function by the called name (an __init__ by its class
    name). It passes a parameter when it names it as a keyword, reaches its
    position with positional arguments, or unpacks *args or **kwargs.
    """
    calls = {}
    for base in SEARCHED:
        for path in sorted(base.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Call) and _callee_name(node):
                    calls.setdefault(_callee_name(node), []).append(node)
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defs = [(node.name, node, False) for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                defs.extend((cls.name if item.name == "__init__" else item.name, item, True)
                            for item in cls.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
        for name, node, is_method in defs:
            for pos, param in _parameters_with_defaults(node, is_method):
                if not any(
                    any(kw.arg in (param, None) for kw in call.keywords)
                    or any(isinstance(a, ast.Starred) for a in call.args)
                    or (pos is not None and len(call.args) > pos)
                    for call in calls.get(name, [])
                ):
                    out.append(f"{path.stem}.{name}({param})")
    return sorted(out)


def test_every_parameter_default_is_overridden_somewhere():
    assert unpassed_parameters() == []


def imports_inside_functions():
    """module:line of each import statement inside a function of src/cmfields."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.update(f"{path.stem}:{inner.lineno}" for inner in ast.walk(node)
                           if isinstance(inner, (ast.Import, ast.ImportFrom)))
    return sorted(out)


def test_no_import_inside_a_library_function():
    assert imports_inside_functions() == []


# Public API that only the tests call: the lattice and polar API of the
# paper's acceptance criteria. This set only shrinks.
ALLOWED = {
    "elem_degree",
    "TorsionModule",
    "TorsionModule.cardinality",
    "induced_torsion_matrix",
    "validate_quadruple",
}


def _name_counts(node):
    """How often each name is referenced in a subtree, as a Name or an Attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def api_called_only_by_tests():
    """Each public function, class or method (as Class.method) of src/cmfields
    that nothing in src/ or perfbench/ references outside its own definition.

    A method is public when its own name is, whatever its class's name; the
    match is by name, as in the guards above.
    """
    total = Counter()
    for base in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            total += _name_counts(ast.parse(path.read_text(), filename=str(path)))
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            api = [] if node.name.startswith("_") else [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                api += [(f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")]
            out.update(qualified for qualified, d in api
                       if total[d.name] == _name_counts(d)[d.name])
    return sorted(out)


def test_no_src_api_is_called_only_by_tests():
    # an entry of ALLOWED that gains a caller leaves the set
    assert api_called_only_by_tests() == sorted(ALLOWED)
