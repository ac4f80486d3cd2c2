"""Named verification suites over the whole library.

Each suite recomputes a family of claims and yields line-oriented
``CheckRecord`` results (one claim per record: claim id, inputs, expected,
actual, pass/fail); ``run_suite`` runs it to the end and returns the list.
The CLI exposes them through ``verify --suite``; the acceptance tests run the
same code.  Suites are deterministic: records come out in a fixed order.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache

from .analysis import (
    _denominators_by_degree,
    bernoulli_sum_residue,
    expected_a,
    extract_leading,
    lemma3_sides,
    Lemma3Class,
    q_set,
)
from .denominators import (
    PARTITION_LCM_MAX,
    capital_denominator,
    d_n,
    l_exponent,
    min_degree_with_l,
    partition_lcm,
    partitions,
)
from .exactmath import (
    digit_sum,
    legendre_vp_factorial,
    lucas_binomial_mod,
    padic_digits,
    primes_upto,
    rational_from_str,
    vp,
)
from .goldberg import (
    SERIES_ORACLE_MAX,
    WordSpec,
    _alg2_words,
    _tilde_scale,
    bernoulli_binomial_sum,
    coeff_alg2,
    coeff_bernoulli_m2,
    coeff_goldberg_sum,
    coeff_word,
    series_oracle,
)
from .refdata import (
    DN_REFERENCE,
    MIN_DEGREE_REFERENCE,
    QSET_REFERENCE,
    TABLE1,
    TABLE2,
)
from .special import _eulerian_rows, _worpitzky, bernoulli, stirling2
from .witness import lemma1_k, lemma2_k, power_branch_runs, witness_runs

__all__ = [
    "CheckRecord",
    "SUITES",
    "run_suite",
    "table1_computed",
    "table2_computed",
    "table2_rows",
]


class CheckRecord(namedtuple("CheckRecord", "claim inputs expected actual passed")):
    """One check of a suite: claim, inputs, expected, actual (str) and passed (bool)."""

    __slots__ = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.claim} | {self.inputs} | expected {self.expected} | actual {self.actual} | {status}"

    def as_dict(self) -> dict:
        return {
            "claim": self.claim,
            "inputs": self.inputs,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.passed,
        }


def _eq(claim: str, inputs: str, expected, actual) -> CheckRecord:
    return CheckRecord(claim, inputs, str(expected), str(actual), expected == actual)


def _ok(claim: str, inputs: str, ok: bool, expected: str, actual) -> CheckRecord:
    return CheckRecord(claim, inputs, expected, str(actual), bool(ok))


def _progress(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# denominator suites

def suite_dn_list(bound: int) -> Iterator[CheckRecord]:
    """The d_n reference list, plus the prime-range regression p <= n vs p < n."""
    for n, expected in enumerate(DN_REFERENCE, start=1):
        yield _eq("dn-value", f"n={n}", expected, d_n(n))
    for n in range(1, bound + 1):
        wide = 1
        for p in primes_upto(n):
            wide *= p ** l_exponent(n, p)
        yield _eq("dn-prime-range", f"n={n}", d_n(n), wide)


def suite_partition_lcm(bound: int) -> Iterator[CheckRecord]:
    """partition_lcm(n) == n! * d_n, by full enumeration."""
    for n in range(1, bound + 1):
        yield _eq("partition-lcm", f"n={n}", capital_denominator(n), partition_lcm(n))


def _digit_sums(limit: int, p: int) -> list[int]:
    """s_p(m) for every 0 <= m < limit, each from the one of m // p."""
    sums = [0] * limit
    for m in range(1, limit):
        sums[m] = sums[m // p] + m % p
    return sums


def suite_min_degree() -> Iterator[CheckRecord]:
    """Smallest degrees carrying p^l: reference values, and exhaustive minimality."""
    for (p, l), expected in sorted(MIN_DEGREE_REFERENCE.items()):
        got = min_degree_with_l(p, l)
        yield _eq("min-degree-value", f"p={p} l={l}", expected, got)
        yield _eq("min-degree-attains", f"p={p} l={l}", l, l_exponent(got, p))
    for p, l in ((2, 2), (2, 3), (2, 4), (3, 2), (5, 2)):
        target = min_degree_with_l(p, l)
        # l(m, p) >= l exactly when s_p(m) >= p**l
        power = p**l
        below = sum(1 for s in _digit_sums(target, p)[1:] if s >= power)
        yield _eq("min-degree-minimal", f"p={p} l={l} scanned {target - 1}", 0, below)
    for p, l in ((3, 3), (5, 3)):
        got = min_degree_with_l(p, l)
        yield _eq("min-degree-attains", f"p={p} l={l}", l, l_exponent(got, p))


# ---------------------------------------------------------------------------
# coefficient agreement suites

def _words_of_degree(n: int):
    for letters in itertools.product("AB", repeat=n):
        yield WordSpec.from_letters("".join(letters))


def suite_oracle_agreement(bound: int) -> Iterator[CheckRecord]:
    """All three word-level routes agree with the brute-force expansion,
    built once through the bound; alg2 runs once per degree over every word."""
    oracle = series_oracle(bound)
    for n in range(1, bound + 1):
        alg2 = _alg2_words(n, capital_denominator(n))
        bad = []
        for word in _words_of_degree(n):
            letters = word.letters()
            reference = oracle[letters]
            g = coeff_word(word, method="goldberg")
            if alg2[letters] != reference or g != reference:
                bad.append(letters)
        yield _ok("three-route-agreement", f"degree={n} words={1 << n}",
                  not bad, "0 mismatches", f"{len(bad)} mismatches {bad[:3]}")


def suite_two_block(bound: int) -> Iterator[CheckRecord]:
    """The Bernoulli closed form matches the integer recurrences on A^(n-k) B^k."""
    for n in range(2, bound + 1):
        d = capital_denominator(n)
        bad = 0
        for k in range(1, n):
            via_alg2 = coeff_alg2(WordSpec(True, (n - k, k)), common_denominator=d)
            if coeff_bernoulli_m2(n, k) != via_alg2:
                bad += 1
        yield _ok("two-block-agreement", f"n={n} k=1..{n - 1}",
                  bad == 0, "0 mismatches", f"{bad} mismatches")


def suite_goldberg_symmetry(bound: int) -> Iterator[CheckRecord]:
    """Run-permutation invariance, and the even-degree/odd-block vanishing rule."""
    for n in range(2, bound + 1):
        base = {parts: coeff_goldberg_sum(parts) for parts in partitions(n)}
        # the A-first words' runs are the compositions of n, i.e. the
        # distinct orderings of every partition, each visited once
        bad = sum(coeff_goldberg_sum(w.runs) != base[tuple(sorted(w.runs, reverse=True))]
                  for w in _words_of_degree(n) if w.a_first)
        yield _ok("run-permutation-invariance", f"n={n}",
                  bad == 0, "0 mismatches", f"{bad} mismatches")
    # on alg2: the product route returns 0 for these shapes by this rule
    for n in range(2, min(bound + 1, 11), 2):
        bad = []
        for parts in partitions(n):
            if len(parts) % 2 == 1 and coeff_alg2(WordSpec(True, parts)) != 0:
                bad.append(parts)
        yield _ok("even-degree-odd-blocks-vanish", f"n={n}",
                  not bad, "all zero", f"nonzero at {bad[:3]}" if bad else "all zero")


def suite_denominator_divides(bound: int) -> Iterator[CheckRecord]:
    """Every degree-n coefficient denominator divides n! * d_n; one oracle
    build serves every degree."""
    by_degree = _denominators_by_degree(bound)
    for n in range(1, bound + 1):
        cap = capital_denominator(n)
        bad = sum(1 for den in by_degree[n] if cap % den)
        yield _ok("denominator-divides", f"degree={n}",
                  bad == 0, "all divide n!*d_n", f"{bad} exceptions")


def suite_lcm_brute(bound: int) -> Iterator[CheckRecord]:
    """Per-degree lcm of denominators equals n! * d_n; per-prime maxima match.
    One oracle build serves every degree."""
    by_degree = _denominators_by_degree(bound)
    for n in range(1, bound + 1):
        brute = math.lcm(*by_degree[n])
        yield _eq("degree-lcm", f"n={n}", capital_denominator(n), brute)
        # the largest v_p over a set of denominators is v_p of their lcm
        for p in primes_upto(n - 1):
            yield _eq("degree-max-valuation", f"n={n} p={p}",
                      legendre_vp_factorial(n, p) + l_exponent(n, p), vp(brute, p))


# ---------------------------------------------------------------------------
# witness suites

def suite_witness(bound: int) -> Iterator[CheckRecord]:
    """The constructed word attains v_p(n!) + l(n, p) for every n, p < n."""
    for n in range(2, bound + 1):
        for p in primes_upto(n - 1):
            w = witness_runs(n, p)
            c = coeff_word(w.word)
            target = legendre_vp_factorial(n, p) + w.l
            yield _eq("witness-valuation",
                      f"n={n} p={p} runs={','.join(map(str, w.runs))} branch={w.branch.value}",
                      target, vp(c.denominator, p))


def suite_lemma_binomials(bound: int) -> Iterator[CheckRecord]:
    """The two binomial-valuation constructions behind the two-block words.

    One record per prime and construction that has a case at or below the
    bound; at the default bound every prime up to 13 has one.
    """
    for p in primes_upto(13):
        checked = bad = 0
        for n in range(p, bound + 1):
            digits = padic_digits(n, p)
            if len(digits) < 2 or digits[-2] >= p - 1:
                continue
            k = lemma1_k(n, p)
            checked += 1
            if not 1 <= k <= n - 1 or vp(math.comb(n, k), p) != 1:
                bad += 1
        if checked:
            yield _ok("top-digit-cut-valuation-1", f"p={p} n<={bound} ({checked} pairs)",
                      bad == 0, "v_p == 1 throughout", f"{bad} failures")
    for p in primes_upto(13):
        checked = bad = 0
        for n in range(1, bound + 1):
            if digit_sum(n, p) < p:
                continue
            k = lemma2_k(n, p)
            checked += 1
            if (
                not 1 <= k <= n - 1
                or k % (p - 1)
                or vp(math.comb(n, k), p) != 0
                or lucas_binomial_mod(n, k, p) == 0
            ):
                bad += 1
        if checked:
            yield _ok("greedy-digit-cut-valuation-0", f"p={p} n<={bound} ({checked} pairs)",
                      bad == 0, "v_p == 0, (p-1) | k throughout", f"{bad} failures")


def suite_lemma3() -> Iterator[CheckRecord]:
    """Factorial-valuation bound and its exact equality patterns, exhaustively."""
    for p, l in ((2, 1), (2, 2), (3, 1)):
        for m in (p**l, p**l + 1):
            total = (2 * p) ** m
            bound_bad = 0
            class_bad = 0
            for tup in itertools.product(range(1, 2 * p + 1), repeat=m):
                lhs, rhs, cls = lemma3_sides(tup, p, l)
                if lhs < rhs:
                    bound_bad += 1
                if (lhs == rhs) != (cls is not Lemma3Class.NONE):
                    class_bad += 1
            yield _ok("factorial-valuation-bound", f"p={p} l={l} m={m} tuples={total}",
                      bound_bad == 0, "lhs >= rhs throughout", f"{bound_bad} violations")
            yield _ok("equality-classification", f"p={p} l={l} m={m} tuples={total}",
                      class_bad == 0, "equality iff classified", f"{class_bad} mismatches")


# ---------------------------------------------------------------------------
# congruence suites

def suite_stirling(bound: int) -> Iterator[CheckRecord]:
    """Stirling-number congruences and the two-route cross-check."""
    for p, e_max in ((2, 4), (3, 3), (5, 2)):
        for e in range(1, e_max + 1):
            q = p**e
            fs = {p**f for f in range(e + 1)}
            bad = sum(
                1
                for j in range(1, q + 1)
                if stirling2(q, j) % p != (1 if j in fs else 0)
            )
            yield _ok("stirling-prime-power", f"p={p} q={q}",
                      bad == 0, "1 at powers of p, else 0 (mod p)", f"{bad} mismatches")
    # each swept claim has a record only when its range holds a q
    if bound >= 3:
        parity_bad = closed_bad = 0
        for q in range(3, bound + 1):
            s = stirling2(q, 3)
            if s % 2 != q % 2:
                parity_bad += 1
            if s != (3 ** (q - 1) - 1) // 2 + 1 - 2 ** (q - 1):
                closed_bad += 1
        yield _ok("stirling-three-blocks-parity", f"q=3..{bound}",
                  parity_bad == 0, "S(q,3) == q (mod 2)", f"{parity_bad} mismatches")
        yield _ok("stirling-three-blocks-closed-form", f"q=3..{bound}", closed_bad == 0,
                  "matches (3^(q-1)-1)/2 + 1 - 2^(q-1)", f"{closed_bad} mismatches")
    # Worpitzky's identity on every Eulerian row up to 40, then on 300, 301
    # and the bound's, sampled; the rows come from one ascending pass
    near = min(bound, 40)
    far = sorted({q for q in (300, 301, bound) if 40 < q <= bound}, reverse=True)
    rows = {q: row for q, row in zip(range(bound + 1), _eulerian_rows()) if q <= 40 or q in far}
    if near >= 1:
        cross_bad = sum(_worpitzky(rows[q], j) != stirling2(q, j)
                        for q in range(1, near + 1) for j in range(1, q + 1))
        yield _ok("stirling-two-routes", f"q<={near}",
                  cross_bad == 0, "Worpitzky's sum == alternating sum", f"{cross_bad} mismatches")
    if far:
        far_bad = sum(_worpitzky(rows[q], j) != stirling2(q, j)
                      for q in far for j in {1, 2, 3, q // 3, q // 2, q - 1, q})
        yield _ok("stirling-two-routes-sampled", f"q={','.join(map(str, far))}", far_bad == 0,
                  "Worpitzky's sum == alternating sum at j=1,2,3,q//3,q//2,q-1,q",
                  f"{far_bad} mismatches")


def _square_prime_factors(m: int) -> list[int]:
    """Ascending primes p with p*p | m (m >= 1)."""
    return [p for p in primes_upto(math.isqrt(m)) if m % (p * p) == 0]


def suite_bernoulli_vsc(bound: int) -> Iterator[CheckRecord]:
    """The p-part of Bernoulli numbers: -1/p exactly when (p-1) | n and the
    index is 1 or even; p-integral otherwise. The squarefree check sieves
    only to isqrt(den), since p*p | den forces p <= isqrt(den)."""
    if bound < 1:
        return  # no index to check, for either claim
    for p in primes_upto(13):
        bad = 0
        for n in range(1, bound + 1):
            b = bernoulli(n)
            if n % (p - 1) == 0 and (n == 1 or n % 2 == 0):
                ok = vp(b + Fraction(1, p), p) >= 0
            else:
                ok = vp(b, p) >= 0
            if not ok:
                bad += 1
        yield _ok("bernoulli-p-part", f"p={p} n<={bound}",
                  bad == 0, "0 exceptions", f"{bad} exceptions")
    if bound >= 2:
        square_bad = sum(len(_square_prime_factors(bernoulli(n).denominator))
                         for n in range(2, bound + 1, 2))
        yield _ok("bernoulli-denominator-squarefree", f"even n<={bound}",
                  square_bad == 0, "0 square factors", f"{square_bad} square factors")


def _case_table_residue(n: int, k: int, p: int) -> int:
    """Closed-form residue of the Bernoulli binomial sum, for p >= 3."""
    r = n % (p - 1)
    if r >= 1:
        kt = k % (p - 1) or (p - 1)
        return math.comb(kt, r) % p
    return 1 if k % (p - 1) == 0 else 0


def suite_bernoulli_sum(bound: int) -> Iterator[CheckRecord]:
    """Leading p-part of sum(C(k,j) B_(n-j)): extraction vs predicted residue,
    the closed-form case table for odd p, and the binomial congruences it
    rests on."""
    # the sums do not depend on p: one per (n, k), read by every prime
    sums = {n: [bernoulli_binomial_sum(n, k) for k in range(1, n)] for n in range(2, bound + 1)}
    for p in (2, 3, 5, 7):
        for n in range(2, bound + 1):
            bad = []
            for k, s in enumerate(sums[n], 1):
                a = bernoulli_sum_residue(n, k, p)
                lt = extract_leading(s, p)
                if a:
                    ok = lt.e == 1 and lt.a_hat == (-a) % p
                else:
                    ok = lt.e == 0
                if ok and p >= 3 and a != _case_table_residue(n, k, p):
                    ok = False
                if not ok:
                    bad.append(k)
            yield _ok("bernoulli-sum-leading-part", f"p={p} n={n} k=1..{n - 1}", not bad,
                      "all consistent", f"failures at k={bad}" if bad else "all consistent")
    for p in (3, 5, 7):
        bad = 0
        for k in range(1, 61):
            kt = k % (p - 1) or (p - 1)
            for r in range(1, p - 1):
                total = sum(math.comb(k, j) for j in range(1, k + 1) if j % (p - 1) == r)
                if total % p != math.comb(kt, r) % p:
                    bad += 1
        yield _ok("binomial-residue-class-sum", f"p={p} k<=60",
                  bad == 0, "0 mismatches", f"{bad} mismatches")
    for p in (2, 3, 5, 7):
        bad = 0
        for k in range(1, 61):
            total = sum(math.comb(k, j) for j in range(1, k) if j % (p - 1) == 0)
            if total % p:
                bad += 1
        yield _ok("binomial-full-period-sum", f"p={p} k<=60",
                  bad == 0, "all divisible by p", f"{bad} exceptions")


# ---------------------------------------------------------------------------
# reference-table suites

@lru_cache(maxsize=None)
def _reference_row(row):
    """(row, coeff, e, a_hat): one alg2 run, and the leading part of its
    tilde form at row.p; cached per process."""
    c = coeff_alg2(WordSpec(True, row.runs))
    lt = extract_leading(_tilde_scale(row.runs) * c, row.p)
    return row, c, lt.e, lt.a_hat


@lru_cache(maxsize=None)
def table1_computed():
    """The seven worked p=7 rows, recomputed: (row, coeff, e, a_hat)."""
    return tuple(_reference_row(row) for row in TABLE1)


@lru_cache(maxsize=None)
def table2_computed():
    """The three large-degree rows, recomputed: (row, coeff, e, a_hat).

    About 7-8 s of big-integer work on one core, nearly all of it alg2 on
    the degree-242 and degree-255 rows.
    """
    return tuple(map(_reference_row, TABLE2))


def table2_rows(bound: int | None = None):
    """The table2_computed rows of degree <= bound (all rows by default),
    one at a time, each announced on stderr whether cached or not."""
    for row in TABLE2:
        if bound is None or row.n <= bound:
            _progress(f"computing degree-{row.n} coefficient ({len(row.runs)} blocks) ...")
            yield _reference_row(row)


def suite_table1() -> Iterator[CheckRecord]:
    """Exact reference coefficients at p = 7, plus construction provenance."""
    for row, c, e, a_hat in table1_computed():
        inputs = f"n={row.n} m={row.m} runs={','.join(map(str, row.runs))}"
        yield _eq("reference-coefficient", inputs, rational_from_str(row.coeff), c)
        yield _eq("reference-leading-part", inputs, (row.e, row.a_hat), (e, a_hat))
        yield _eq("reference-l", inputs, row.l, l_exponent(row.n, row.p))
        if row.m == 2:
            got = witness_runs(row.n, row.p).runs
        else:
            got = power_branch_runs(row.n, row.p, 1, row.m)
        yield _eq("reference-construction", inputs, row.runs, got)
        goldberg = coeff_goldberg_sum(row.runs)
        yield _eq("reference-cross-route", inputs, c, goldberg)
        predicted = expected_a(row.n, row.p, row.m)
        if predicted is None:
            yield _eq("reference-predicted-residue", inputs, Fraction(0), c)
        else:
            yield _eq("reference-predicted-residue", inputs, predicted, a_hat)


def suite_table2(bound: int) -> Iterator[CheckRecord]:
    """Large-degree extreme words: size of the reduced coefficient and its
    leading p-part, and the alg2 value against the Goldberg product route."""
    for row, c, e, a_hat in table2_rows(bound):
        inputs = f"n={row.n} p={row.p} m={row.m}"
        w = witness_runs(row.n, row.p)
        yield _eq("large-degree-construction", inputs, row.runs, w.runs)
        yield _eq("large-degree-digit-counts", inputs,
                  (row.num_digits, row.den_digits),
                  (len(str(abs(c.numerator))), len(str(c.denominator))))
        yield _eq("large-degree-leading-part", inputs, (row.e, row.a_hat), (e, a_hat))
        yield _eq("large-degree-valuation", inputs,
                  legendre_vp_factorial(row.n, row.p) + row.l, vp(c.denominator, row.p))
        yield _eq("large-degree-predicted-residue", inputs,
                  expected_a(row.n, row.p, row.m), a_hat)
        yield _eq("large-degree-cross-route", inputs, c, coeff_goldberg_sum(row.runs))


def suite_qset(bound: int) -> Iterator[CheckRecord]:
    """Exhaustive partition scans against the recorded extreme sets; the
    default bound, 39, covers every row."""
    for (n, p), expected in sorted(QSET_REFERENCE.items()):
        if n > bound:
            continue
        _progress(f"scanning all partitions of {n} at p={p} ...")
        got = tuple(part.parts for part in q_set(n, p))
        yield _eq("extreme-partition-set", f"n={n} p={p}", expected, got)


# ---------------------------------------------------------------------------
# registry

# name -> (suite, default bound, limit).  A row suite checks its rows of
# degree <= bound; a fixed grid takes no bound.  A sweep's limit rests on the
# guard of what it calls, on the Bernoulli sieve, or on a measured cost: the
# comments give the CPU after import and the peak RSS of one fresh process at
# the limit (Python 3.11.7, one core).
SUITES = {
    "dn-list": (suite_dn_list, 200, 4000),  # measured: 4.6 s, 16 MiB
    "partition-lcm": (suite_partition_lcm, 30, PARTITION_LCM_MAX),  # its guard: 0.4 s, 14 MiB
    "min-degree": (suite_min_degree, None, None),
    "oracle-agreement": (suite_oracle_agreement, 10, 15),  # measured: 3.4 s, 40 MiB
    "two-block": (suite_two_block, 20, 54),  # measured: 4.0 s, 15 MiB
    "goldberg-symmetry": (suite_goldberg_symmetry, 9, 17),  # measured: 3.0 s, 17 MiB
    # the oracle's own guard: under 1 s and 65 MiB each
    "denominator-divides": (suite_denominator_divides, 12, SERIES_ORACLE_MAX),
    "lcm-brute": (suite_lcm_brute, 12, SERIES_ORACLE_MAX),
    "witness": (suite_witness, 40, 180),  # measured: 1.1 s, 16 MiB
    "lemma-binomials": (suite_lemma_binomials, 500, 5000),  # measured: 5.4 s, 14 MiB
    "lemma3": (suite_lemma3, None, None),
    "stirling": (suite_stirling, 60, 2500),  # measured: 4.6 s, 23 MiB
    # B_360 would sieve to 147M; every index below it, to 3.1M or less:
    # 0.4 s, 30 MiB
    "bernoulli-vsc": (suite_bernoulli_vsc, 60, 359),
    "bernoulli-sum": (suite_bernoulli_sum, 18, 200),  # measured: 2.8 s, 20 MiB
    "table1": (suite_table1, None, None),
    "table2": (suite_table2, 255, None),
    "qset": (suite_qset, 39, None),
}


def run_suite(name: str, max_n: int | None = None) -> list[CheckRecord]:
    """Run one named suite at bound max_n, or at its default bound, to the end."""
    try:
        func, default, limit = SUITES[name]
    except KeyError:
        known = ", ".join(SUITES)
        raise ValueError(f"unknown suite {name!r}; known suites: {known}") from None
    if max_n is not None and max_n < 1:
        raise ValueError(f"suite {name} guard: --max-n >= 1, got {max_n}")
    if default is None:
        return list(func())
    bound = default if max_n is None else max_n
    if limit is not None and bound > limit:
        raise ValueError(f"suite {name} guard: --max-n <= {limit}, got {bound}")
    return list(func(bound))
