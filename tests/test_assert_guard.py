"""Guard: identity checks in the library are typed raises, not assert statements.

`python -O` strips assert statements, so a check written as one vanishes in
an optimized run; a bare `raise AssertionError` is an assert in all but
name and is refused as well. The modules in ALLOWED may still hold either.
Any other module under src/cmfields fails this test as soon as it gains
one, so a module that has been cleaned cannot regress. The list is empty:
every check in the package is a typed raise.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cmfields"
ALLOWED = set()


def _is_assertion_error(exc):
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def assert_sites():
    """module:line for every assert statement and raise AssertionError in the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        out.extend(f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.Assert)
                   or isinstance(node, ast.Raise) and _is_assertion_error(node.exc))
    return out


def test_no_assert_outside_the_allowlist():
    assert [site for site in assert_sites() if site.split(":")[0] not in ALLOWED] == []


def test_every_allowed_module_still_has_an_assert():
    # a cleaned module comes off the list, so the guard covers it
    assert {site.split(":")[0] for site in assert_sites()} == ALLOWED


def test_the_guard_sees_raise_assertion_error():
    tree = ast.parse("raise AssertionError('x')\nraise AssertionError\nraise ValueError")
    assert [_is_assertion_error(node.exc) for node in tree.body] == [True, True, False]


def test_a_converted_check_fires_under_optimization():
    # fincke_pohst refuses a form that is not positive definite, also under -O
    code = textwrap.dedent("""
        from cmfields.errors import InvariantViolated
        from cmfields.principal import fincke_pohst

        print("debug", __debug__)
        try:
            fincke_pohst([[1, 0], [0, -1]], 4)
        except InvariantViolated as exc:
            print("raised", exc)
    """)
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["debug False", "raised form is not positive definite"]
