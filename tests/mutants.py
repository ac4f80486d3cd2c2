"""A standing catalogue of mutants that the test suite must kill.

    python3 tests/mutants.py

Each mutant is one exact snippet of one file under ``src/bchcoeff``, which
must occur there exactly once, its replacement, and the test node IDs that
must fail on it.  The script copies ``src`` into a temporary directory; for
each mutant it applies the replacement there, runs ``pytest -x`` on those
node IDs with the copy first on PYTHONPATH, and restores the file.  It writes
nothing into the checkout.  A mutant is killed when pytest reports a failed
test, or when the run does not end within ``TIMEOUT_S`` (the mutant keeps a
loop from ending).  Any other outcome counts as a survivor: the tests pass, a
named test no longer exists, or the mutated copy does not import.  Each
mutant's tests first run once on the unmutated copy and must pass there
within the same limit, so that a broken run is not taken for a kill.

Exit status 1 if a mutant survives or if a snippet no longer occurs exactly
once (then the catalogue is stale, not the code wrong); 0 otherwise.  The
file name keeps pytest from collecting it.  Each change that plants a mutant
by hand adds it here instead of throwing it away.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

ROOT = pathlib.Path(__file__).resolve().parents[1]

Mutant = namedtuple("Mutant", "name path old new tests")

# a mutant that keeps a loop from ending is killed by this limit; every
# listed run takes a few seconds
TIMEOUT_S = 300

MUTANTS = (
    # goldberg: the alg2 step, its alternating sum, and the partition walk
    Mutant("alg2-same-block-range", "goldberg.py",
           "fact[i], \"same-block step\") for i in range(1, a_run + 1)]",
           "fact[i], \"same-block step\") for i in range(1, a_run)]",
           ["tests/test_goldberg.py::TestSmallValues::test_frozen"]),
    Mutant("alg2-boundary-range", "goldberg.py",
           "for j in range(1, b_run + 1)]",
           "for j in range(1, b_run)]",
           ["tests/test_goldberg.py::TestSmallValues::test_frozen"]),
    # on a B-led tail the prefix B^i A^j is not a factor of Y
    Mutant("alg2-b-led-tail-admits-b-then-a", "goldberg.py",
           "rest.lstrip(\"B\")",
           "rest.lstrip(\"B\" if a_run else \"AB\")",
           ["tests/test_goldberg.py::TestSmallValues::test_frozen"]),
    # the rests in descending length: AABA's first remainder is then BA's
    # entry 2 over 2!, a same-block step, not A's entry 1 at the boundary
    Mutant("alg2-rests-longest-first", "goldberg.py",
           "for c, f, step in reversed(terms):",
           "for c, f, step in terms:",
           ["tests/test_goldberg.py::test_step_guards_name_the_step"]),
    Mutant("alg2-column-keeps-last-rest", "goldberg.py",
           "col[k] += q",
           "col[k] = q",
           ["tests/test_goldberg.py::TestSmallValues::test_frozen"]),
    # a rest's column shifted by two powers of Y runs past the new column
    Mutant("alg2-shift-by-two", "goldberg.py",
           "enumerate(c, 1)",
           "enumerate(c, 2)",
           ["tests/test_goldberg.py::TestSmallValues::test_frozen"]),
    Mutant("alg2-empty-tail-without-d", "goldberg.py",
           "    cols = [[d]]\n    for i in range(n_total - 1, -1, -1):",
           "    cols = [[0]]\n    for i in range(n_total - 1, -1, -1):",
           ["tests/test_goldberg.py::TestSmallValues::test_frozen"]),
    Mutant("alg2-sum-without-remainder-check", "goldberg.py",
           "        if rem:\n            raise IntegerExactnessError(f\"alternating-sum term",
           "        if False:\n            raise IntegerExactnessError(f\"alternating-sum term",
           ["tests/test_goldberg.py::test_step_guards_name_the_step"]),
    Mutant("walk-gamma3-step", "goldberg.py",
           "[x + 2 * y for x, y in zip(v, v[1:])]",
           "[x + y for x, y in zip(v, v[1:])]",
           ["tests/test_goldberg.py::TestPartitionWalk::test_walk_equals_per_partition_route"]),
    # special: the gamma rows
    Mutant("gamma-recurrence-off-by-one", "special.py",
           "2 * (q - 2 * k) * b",
           "2 * (q - 2 * k + 1) * b",
           ["tests/test_special.py::TestBernoulli::test_known_values"]),
    Mutant("worpitzky-offset", "special.py",
           "row[k] * math.comb(k, q - j)",
           "row[k] * math.comb(k, q - j - 1)",
           ["tests/test_special.py::TestStirling::test_two_routes_agree"]),
    # exactmath: the strong probable-prime test
    Mutant("is-prime-without-base-37", "exactmath.py",
           "23, 29, 31, 37):",
           "23, 29, 31):",
           ["tests/test_exactmath.py::TestPrimes::test_strong_pseudoprimes"]),
    # exactmath: a float n is refused, not summed digit by float digit
    Mutant("digit-sum-takes-floats", "exactmath.py",
           "    n = _integer(n, \"n\")\n    if n < 0:\n        raise ValueError(f\"n must be nonnegative, got {n}\")\n    s = 0\n",
           "    if n < 0:\n        raise ValueError(f\"n must be nonnegative, got {n}\")\n    s = 0\n",
           ["tests/test_exactmath.py::test_non_integers_are_refused"]),
    # analysis: the q_set residue test and the predicted residues
    Mutant("qset-residue-one-depth-short", "analysis.py",
           "num % powers[e + 1]",
           "num % powers[e]",
           ["tests/test_analysis.py::TestQSet"]),
    Mutant("expected-a-p2-plus-one", "analysis.py",
           "            return 1 if l == 1 else 0",
           "            return 1",
           ["tests/test_analysis.py::TestExpectedA::test_power_m_plus_one_at_p_two"]),
    # denominators: l(n, p)
    Mutant("l-exponent-strict", "denominators.py",
           "    while power <= s:",
           "    while power < s:",
           ["tests/test_denominators.py::TestLExponent::test_examples"]),
    # witness: the branch for odd p and even n
    Mutant("witness-power-for-power-plus-one", "witness.py",
           "        m = p**l + 1\n",
           "        m = p**l\n",
           ["tests/test_witness.py::TestWitnessRuns::test_branches"]),
    # verify: the squarefree check of the Bernoulli denominators
    Mutant("square-factors-test-p", "verify.py",
           "m % (p * p) == 0",
           "m % p == 0",
           ["tests/test_verify.py::TestBernoulliSquarefree::test_square_prime_factors"]),
    # verify: a suite that drops a record, and a label naming a range it did not check
    Mutant("table2-drops-valuation-record", "verify.py",
           "        yield _eq(\"large-degree-valuation\", inputs,",
           "        _eq(\"large-degree-valuation\", inputs,",
           ["tests/test_acceptance.py::test_c3_large_degree_rows"]),
    Mutant("stirling-two-routes-fixed-label", "verify.py",
           "yield _ok(\"stirling-two-routes\", f\"q<={near}\",",
           "yield _ok(\"stirling-two-routes\", f\"q<=40\",",
           ["tests/test_cli.py::test_golden_output[verify --suite stirling --max-n 2]"]),
    # verify and cli: the lower side of --max-n, and options refused rather than ignored
    Mutant("verify-max-n-below-one-runs", "verify.py",
           "    if max_n is not None and max_n < 1:",
           "    if False:",
           ["tests/test_verify.py::TestGuards::test_below_one_raises_at_once"]),
    Mutant("cli-word-ignores-b-first", "cli.py",
           "        if args.b_first:\n",
           "        if False:\n",
           ["tests/test_cli.py::TestCoeff::test_word_with_b_first"]),
    Mutant("cli-lcm-lower-guard-dropped", "cli.py",
           "    if not 1 <= args.n <= SERIES_ORACLE_MAX:",
           "    if not args.n <= SERIES_ORACLE_MAX:",
           ["tests/test_cli.py::TestLcmCommand::test_guard_names_n_below_one"]),
    Mutant("cli-table-ignores-digits-only", "cli.py",
           "    if args.digits_only and args.name != \"t2\":\n",
           "    if False:\n",
           ["tests/test_cli.py::TestTableCommand::test_digits_only_goes_only_with_t2",
            "tests/test_cli.py::test_guard_rejects_before_any_work[table --name t1 --digits-only]"]),
    # cli: coeff announces alg2 work only below alg2's own guard
    Mutant("cli-alg2-announce-limit", "cli.py",
           "    \"alg2\": ALG2_DEGREE_MAX,",
           "    \"alg2\": COEFF_DEGREE_MAX,",
           ["tests/test_cli.py::TestCoeff::test_degree_guards"]),
    # refdata: a frozen reference value
    Mutant("refdata-d13", "refdata.py",
           "1, 1, 2, 1, 6, 2, 6, 3, 10, 2, 6, 2, 210,",
           "1, 1, 2, 1, 6, 2, 6, 3, 10, 2, 6, 2, 105,",
           ["tests/test_refdata.py::test_bfile_matches_reference"]),
    # the package root and the module entry point
    Mutant("root-without-special", "__init__.py",
           "from .special import *\n",
           "",
           ["tests/test_package.py::test_root_exports_are_the_modules_exports"]),
    Mutant("main-without-call", "__main__.py",
           "\nmain()\n",
           "\n",
           ["tests/test_package.py::test_verify_under_optimize"]),
)


def _pytest(src: pathlib.Path, tests: tuple[str, ...]) -> tuple[int | None, str]:
    """pytest's exit status and the last lines of its output; None on timeout."""
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"    no result after {TIMEOUT_S} s"
    tail = out.stdout.strip().splitlines()[-3:]
    return out.returncode, "\n".join("    " + line for line in tail)


def main() -> int:
    status = 0
    unmutated = {}  # test list -> pytest exit status on the unmutated copy
    with tempfile.TemporaryDirectory(prefix="bchcoeff-mutants-") as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        for m in MUTANTS:
            target = src / "bchcoeff" / m.path
            original = target.read_text(encoding="utf-8")
            count = original.count(m.old)
            if count != 1:
                print(f"STALE     {m.name}: the snippet occurs {count} times in {m.path}")
                status = 1
                continue
            tests = tuple(m.tests)
            if tests not in unmutated:
                code, tail = _pytest(src, tests)
                unmutated[tests] = code
                if code != 0:
                    how = "timed out" if code is None else f"pytest exit {code}"
                    print(f"unmutated run of {' '.join(tests)} failed ({how}):\n{tail}")
            if unmutated[tests] != 0:
                print(f"SURVIVED  {m.name}: its tests do not pass unmutated")
                status = 1
                continue
            target.write_text(original.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            try:
                code, tail = _pytest(src, tests)
            finally:
                target.write_text(original, encoding="utf-8")
            elapsed = time.perf_counter() - start
            if code == 1:
                print(f"killed    {m.name} ({elapsed:.1f} s)")
            elif code is None:
                print(f"killed    {m.name} (timed out after {TIMEOUT_S} s)")
            else:
                print(f"SURVIVED  {m.name} (pytest exit {code}, {elapsed:.1f} s):\n{tail}")
                status = 1
    print(f"{len(MUTANTS)} mutants, {'all killed' if status == 0 else 'see above'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
