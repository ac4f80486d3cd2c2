"""Every script in demos/ runs to completion against the current package."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         cwd=ROOT, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
