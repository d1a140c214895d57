"""Guard: identity checks in the library are typed raises, not assert statements.

`python -O` strips assert statements, so a check written as one vanishes in
an optimized run. The modules in ALLOWED still hold asserts. Any other module
under src/cmfields fails this test as soon as it gains one, so a module that
has been cleaned cannot regress. Take a module off the list once its last
assert is gone.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cmfields"
ALLOWED = {"latticeav", "principal", "rayclass", "polar"}


def assert_sites():
    """module:line for every assert statement in the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        out.extend(f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.Assert))
    return out


def test_no_assert_outside_the_allowlist():
    assert [site for site in assert_sites() if site.split(":")[0] not in ALLOWED] == []


def test_every_allowed_module_still_has_an_assert():
    # a cleaned module comes off the list, so the guard covers it
    assert {site.split(":")[0] for site in assert_sites()} == ALLOWED
