"""Properties of the package as a whole rather than of one module."""

import ast
import pathlib
import subprocess
import sys

import bchcoeff

PACKAGE_DIR = pathlib.Path(bchcoeff.__file__).parent


def test_no_assert_statements():
    # invariants must hold under python -O, which strips assert statements
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found


def test_import_starts_no_process_machinery():
    # a fresh interpreter, so nothing the test runner loaded counts
    code = ("import sys, bchcoeff; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=PACKAGE_DIR.parent)
    assert out.stdout.strip() == "[]"
