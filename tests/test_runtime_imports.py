"""Dependency guard: the library imports nothing outside the standard library.

sympy, numpy, hypothesis and mpmath may serve the tests as oracles, but
never the library at run time: every import in src/cmfields is either a
standard-library module or cmfields itself, and the CLI runs with those four
packages made unimportable.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cmfields"


def third_party_imports():
    """(file, module) for every import in src/cmfields of a non-stdlib module."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "cmfields":
                    out.append((path.name, name))
    return out


def test_library_imports_only_the_standard_library():
    assert third_party_imports() == []


def test_cli_runs_with_test_oracles_unimportable(tmp_path):
    field_file = tmp_path / "field.json"
    field_file.write_text(json.dumps({"min_poly": [1, 0, 5, 0, 1]}))
    script = textwrap.dedent(
        f"""
        import sys
        for name in ("mpmath", "sympy", "numpy", "hypothesis"):
            sys.modules[name] = None
        import cmfields.cli
        sys.exit(cmfields.cli.main(["cm", {str(field_file)!r}]))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    cm = next(r for r in records if r["record"] == "cm")
    assert cm["cm"] is True and cm["n_types"] == 4
