"""Properties of the package as a whole rather than of one module."""

import ast
import json
import pathlib
import subprocess
import sys

import pytest

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


def test_root_exports_are_the_modules_exports():
    # one export list per module; the root re-exports exactly their union
    from bchcoeff import analysis, denominators, exactmath, goldberg, special, witness

    modules = (analysis, denominators, exactmath, goldberg, special, witness)
    assert sorted(bchcoeff.__all__) == sorted(set().union(*(m.__all__ for m in modules)))


def test_import_starts_no_process_machinery():
    # a fresh interpreter, so nothing the test runner loaded counts
    code = ("import sys, bchcoeff; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=PACKAGE_DIR.parent)
    assert out.stdout.strip() == "[]"


def test_import_leaves_out_verification_and_dataclasses():
    # the package root loads only the computing modules; the verify suites,
    # their reference data and the CLI load when asked for
    code = ("import sys, bchcoeff; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'bchcoeff.verify', "
            "'bchcoeff.refdata', 'bchcoeff.cli') if m in sys.modules)); "
            "import bchcoeff.verify; "
            "print(all(r.passed for r in bchcoeff.verify.run_suite('table1')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=PACKAGE_DIR.parent)
    assert out.stdout.split() == ["[]", "True"]


@pytest.mark.parametrize("suite_args", [
    ["--suite", "table1"],
    ["--suite", "oracle-agreement", "--max-n", "8"],
    # stirling2 divides the table's rows by j!, a check that must survive -O
    ["--suite", "stirling", "--max-n", "320"],
    # q_set tells its hits by residues of the walk's integers, with no assert
    ["--suite", "qset", "--max-n", "21"],
    # the Bernoulli numbers read the gamma rows' middle terms, and the
    # two-block suite runs the product route's gamma weights
    ["--suite", "bernoulli-vsc"],
    ["--suite", "two-block", "--max-n", "12"],
])
def test_verify_under_optimize(suite_args):
    # python -O strips asserts; every check must still run and pass
    out = subprocess.run([sys.executable, "-O", "-m", "bchcoeff", "--json", "verify", *suite_args],
                         capture_output=True, text=True, cwd=PACKAGE_DIR.parent, timeout=120)
    assert out.returncode == 0, out.stderr
    records = [json.loads(line) for line in out.stdout.splitlines()]
    assert records and all(record["pass"] for record in records)
