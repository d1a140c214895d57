"""Dead-API guard: every function in the library has a caller somewhere.

A module-level function or a non-dunder method of a module-level class in
src/cmfields counts as used when its name is referenced (as a Name, as an
Attribute, or as a string in an __all__ list) somewhere in src/, tests/ or
perfbench/ outside its own definition. The match is by name only, so it errs
on the side of calling a function used.
"""

import ast
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
