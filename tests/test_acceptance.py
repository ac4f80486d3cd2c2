"""Acceptance gate: one test and one reported verdict line per criterion.

Each test recomputes its claim from scratch through the public API, appends a
PASS/FAIL line to the terminal summary (see conftest), and then asserts.  Every
test runs on its own; the reference rows are cached per process, so a full
run computes them once.
"""

import time
from collections import Counter
from fractions import Fraction

import pytest

from conftest import record

from bchcoeff.denominators import d_n
from bchcoeff.goldberg import IntegerExactnessError, WordSpec, coeff_alg2, coeff_tilde
from bchcoeff.analysis import extract_leading
from bchcoeff.refdata import DN_REFERENCE
from bchcoeff.verify import run_suite, table1_computed, table2_computed


def _suites_pass(names, max_n=None):
    """All records of the named suites, and the lines of what fails: each
    failing record, and each suite that returned no records."""
    records = []
    failing = []
    for name in names:
        found = run_suite(name, max_n)
        if not found:
            failing.append(f"suite {name} returned no records")
        records.extend(found)
    failing += [r.line() for r in records if not r.passed]
    return records, failing


def _claims(records):
    """How many records each claim has; a record lost from a suite shows."""
    return Counter(r.claim for r in records)


# one record per claim and reference row
TABLE1_CLAIMS = dict.fromkeys([
    "reference-coefficient", "reference-leading-part", "reference-l",
    "reference-construction", "reference-cross-route", "reference-predicted-residue",
], 7)
TABLE2_CLAIMS = dict.fromkeys([
    "large-degree-construction", "large-degree-digit-counts", "large-degree-leading-part",
    "large-degree-valuation", "large-degree-predicted-residue", "large-degree-cross-route",
], 3)
QSET_CLAIMS = {"extreme-partition-set": 14}


def test_c1_denominator_list():
    start = time.monotonic()
    computed = tuple(d_n(n) for n in range(1, 26))
    elapsed = time.monotonic() - start
    ok = computed == DN_REFERENCE and elapsed < 1.0
    record("C1", "d_n for n = 1..25 matches the reference list in under 1s", ok, elapsed)
    assert computed == DN_REFERENCE
    assert elapsed < 1.0


def test_c2_reference_coefficients():
    start = time.monotonic()
    records, failing = _suites_pass(["table1"])
    elapsed = time.monotonic() - start
    ok = not failing and _claims(records) == TABLE1_CLAIMS and elapsed < 10.0
    record("C2", "all seven worked p=7 coefficients reproduce exactly in under 10s",
           ok, elapsed)
    assert not failing, failing
    assert _claims(records) == TABLE1_CLAIMS
    assert elapsed < 10.0


def test_c3_large_degree_rows():
    start = time.monotonic()
    records, failing = _suites_pass(["table2"])
    elapsed = time.monotonic() - start
    ok = not failing and _claims(records) == TABLE2_CLAIMS
    record("C3", "large-degree rows (161, 242, 255) match digit counts and "
                 f"leading parts, target 300s", ok, elapsed)
    assert not failing, failing
    assert _claims(records) == TABLE2_CLAIMS


def test_c4_brute_force_lcm():
    start = time.monotonic()
    records, failing = _suites_pass(["lcm-brute"])
    elapsed = time.monotonic() - start
    ok = not failing and elapsed < 120.0
    record("C4", "brute-force lcm over all words equals n! * d_n for n = 1..12 "
                 "in under 120s", ok, elapsed)
    assert not failing, failing
    assert elapsed < 120.0


def test_c5_route_agreement():
    start = time.monotonic()
    records, failing = _suites_pass(["oracle-agreement", "two-block"])
    elapsed = time.monotonic() - start
    record("C5", "all computation routes agree (every word to degree 10, "
                 "two-block words to degree 20)", not failing, elapsed)
    assert not failing, failing


def test_c6_witness_sweep():
    start = time.monotonic()
    records, failing = _suites_pass(["witness"])
    elapsed = time.monotonic() - start
    ok = not failing and elapsed < 120.0
    record("C6", "constructed words attain v_p(n!) + l(n,p) for all "
                 "2 <= n <= 40, p < n, in under 120s", ok, elapsed)
    assert not failing, failing
    assert elapsed < 120.0


def test_c7_extreme_partition_scans():
    start = time.monotonic()
    records, failing = _suites_pass(["qset"])
    elapsed = time.monotonic() - start
    ok = not failing and _claims(records) == QSET_CLAIMS and elapsed < 300.0
    record("C7", "exhaustive partition scans reproduce the recorded extreme "
                 "sets (p = 2 through degree 39, and p = 3, 5, 7) in under 300s", ok, elapsed)
    assert not failing, failing
    assert _claims(records) == QSET_CLAIMS
    assert elapsed < 300.0


def test_c8_worked_leading_part():
    start = time.monotonic()
    runs = (14, 7, 1, 1, 1, 1, 1, 1)
    tilde = coeff_tilde(runs)
    lt = extract_leading(tilde, 7)
    elapsed = time.monotonic() - start
    ok = (
        tilde == Fraction(-2609686559, 116396280)
        and lt.e == 1
        and lt.a_hat == 5
        and lt.u_hat == Fraction(-384689537, 16628040)
    )
    record("C8", "the worked scaled coefficient splits as -5/7 plus a "
                 "7-integral tail", ok, elapsed)
    assert tilde == Fraction(-2609686559, 116396280)
    assert (lt.e, lt.a_hat) == (1, 5)
    assert lt.u_hat == Fraction(-384689537, 16628040)


def test_c9_integer_exactness():
    start = time.monotonic()
    # alg2 runs the worked and the large-degree rows; any remainder raises
    exact = True
    try:
        table1_computed()
        table2_computed()
    except IntegerExactnessError:
        exact = False
    # the guard must actually trip when the promised scaling is broken
    tripped = False
    try:
        coeff_alg2(WordSpec(True, (2, 1)), common_denominator=7)
    except IntegerExactnessError:
        tripped = True
    elapsed = time.monotonic() - start
    ok = exact and tripped
    record("C9", "integer-only arithmetic stayed exact through every worked and "
                 "large-degree row, and the exactness guard trips on a false scale", ok, elapsed)
    assert exact, "alg2 left a remainder on a reference row"
    assert tripped


def test_c10_congruence_bundle():
    start = time.monotonic()
    records, failing = _suites_pass(
        ["stirling", "bernoulli-vsc", "bernoulli-sum", "lemma-binomials", "min-degree"]
    )
    elapsed = time.monotonic() - start
    record("C10", "congruence bundle (Stirling, Bernoulli p-parts, leading "
                  "residues, binomial cuts, smallest degrees) all verified",
           not failing, elapsed)
    assert not failing, failing
