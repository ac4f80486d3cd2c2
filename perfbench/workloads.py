"""The benchmark's workloads, as phases that call into the package.

A phase runs in a fresh interpreter (see ``child.py``) in three steps:
``prepare`` builds the inputs, ``work`` makes the timed calls through a
tracer, and ``check`` compares the outputs with reference data outside the
timed region, returning ``(items, [(claim, passed), ...])``.

An untraced pass runs the ``calls`` phase alone.  A traced pass runs every
phase; the replay phases call the stages that the package functions in
``calls`` go through, each in its own span, so that the per-layer times split
the end-to-end time.  Each phase starts in a fresh interpreter, so a replay
neither reads nor warms a cache that the measured calls use.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from fractions import Fraction

from bchcoeff import (
    analysis,
    cli,
    denominators,
    exactmath,
    goldberg,
    refdata,
    special,
    verify,
    witness,
)

from metrics import LIGHT_SUITES, WORKLOADS
from words import random_word_runs

# degrees the verify suites reach by default; --smoke lowers them to SMOKE_MAX_N
ORACLE_DEGREE = 12       # denominator-divides, lcm-brute
BERNOULLI_INDEX = 60     # bernoulli-vsc
STIRLING_Q = 60          # stirling
WITNESS_DEGREE = 40      # witness
SMOKE_MAX_N = 8
# lemma-binomials needs n >= 25 before every prime up to 13 has a case, and
# takes a twentieth of a second at its default bound
SMOKE_FULL_SIZE = ("lemma-binomials",)


def params(workload: str, seed: int, smoke: bool, pass_no: int) -> dict:
    """Inputs of one workload's pass; --smoke gives tiny ones.  Only
    random_words draws from the seed, and it draws a new set for each pass."""
    if workload == "heavy_rows":
        return {"rows": (0,) if smoke else (0, 1, 2)}
    if workload == "qset_scan":
        return {"degrees": (15,) if smoke else (27,)}
    if workload == "verify_sweep":
        return {"max_n": SMOKE_MAX_N if smoke else None}
    if workload == "random_words":
        if smoke:
            return {"seed": seed, "pass_no": pass_no, "count": 6, "lo": 10, "hi": 20}
        return {"seed": seed, "pass_no": pass_no}
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def caches_cold() -> bool:
    """True when no memo of the package holds an entry yet."""
    lru = (goldberg.series_oracle, verify.table1_computed, verify.table2_computed)
    tables = (getattr(special, "_bernoulli", ()), getattr(special, "_stirling_rows", ()))
    return all(f.cache_info().currsize == 0 for f in lru) and all(len(t) <= 1 for t in tables)


def _alg2_stages(word, d: int, tr):
    """coeff_alg2 on one word with a shared denominator, with a span around
    the alg2_table call inside it: the rest of coeff_alg2 is the alternating
    sum."""
    tables = []
    with tr.wrap(goldberg, "alg2_table", "goldberg.alg2_table", tables):
        with tr.span("goldberg.coeff_alg2"):
            c = goldberg.coeff_alg2(word, common_denominator=d)
    (table, _), = tables
    tr.add("goldberg.alg2_table.cells", sum(1 for row in table for x in row if x))
    tr.peak("goldberg.alg2_table.peak_bits", max(abs(x).bit_length() for row in table for x in row))
    return c


def _extreme_valuation(n: int, p: int) -> int:
    return exactmath.legendre_vp_factorial(n, p) + denominators.l_exponent(n, p)


# ---------------------------------------------------------------------------
# heavy_rows: the three TABLE2 rows through coeff_tilde and extract_leading


def heavy_prepare(par: dict):
    return [refdata.TABLE2[i] for i in par["rows"]]


def heavy_calls(rows, tr):
    out = []
    for row in rows:
        with tr.span("goldberg.coeff_tilde"):
            tilde = goldberg.coeff_tilde(row.runs)
        with tr.span("analysis.extract_leading"):
            lead = analysis.extract_leading(tilde, row.p)
        out.append((tilde, lead))
    return out


def _row_checks(row, c: Fraction) -> list:
    tag = f"n={row.n} p={row.p}"
    digits = (len(str(abs(c.numerator))), len(str(c.denominator)))
    return [
        (f"digit counts {tag}", digits == (row.num_digits, row.den_digits)),
        (f"valuation {tag}", exactmath.vp(c.denominator, row.p)
         == exactmath.legendre_vp_factorial(row.n, row.p) + row.l),
    ]


def heavy_calls_check(rows, out):
    checks = []
    for row, (tilde, lead) in zip(rows, out):
        scale = -1 if row.n % 2 else 1
        for q in row.runs:
            scale *= math.factorial(q)
        checks += _row_checks(row, tilde / scale)
        checks.append((f"leading part n={row.n} p={row.p}", (lead.e, lead.a_hat) == (row.e, row.a_hat)))
    return len(rows), checks


def heavy_replay(rows, tr):
    out = []
    for row in rows:
        with tr.span("denominators.capital_denominator"):
            d = denominators.capital_denominator(row.n)
        out.append(_alg2_stages(goldberg.WordSpec(True, row.runs), d, tr))
    return out


def heavy_replay_check(rows, out):
    checks = []
    for row, c in zip(rows, out):
        checks += _row_checks(row, c)
    return len(rows), checks


# ---------------------------------------------------------------------------
# qset_scan: exhaustive Q(n, 2) scans against QSET_REFERENCE


def qset_prepare(par: dict):
    return [(n, 2) for n in par["degrees"]]


def qset_calls(cases, tr):
    out = []
    for n, p in cases:
        with tr.span("analysis.q_set"):
            out.append(tuple(part.parts for part in analysis.q_set(n, p)))
    return out


def qset_check(cases, out):
    items = sum(sum(1 for _ in denominators.partitions(n)) for n, _ in cases)
    checks = [(f"Q({n},{p})", got == refdata.QSET_REFERENCE[(n, p)])
              for (n, p), got in zip(cases, out)]
    return items, checks


def qset_replay(cases, tr):
    """q_set's stages: enumerate, one shared denominator, then coeff_alg2 and
    vp per partition."""
    out = []
    for n, p in cases:
        target = _extreme_valuation(n, p)
        with tr.span("denominators.partitions"):
            all_parts = list(denominators.partitions(n))
        tr.add("analysis.q_set.partitions", len(all_parts))
        with tr.span("denominators.capital_denominator"):
            d = denominators.capital_denominator(n)
        found = []
        for parts in all_parts:
            c = _alg2_stages(goldberg.WordSpec(True, parts), d, tr)
            with tr.span("exactmath.vp"):
                v = exactmath.vp(c.denominator, p)
            if v == target:
                found.append(parts)
        out.append(tuple(found))
    return out


# ---------------------------------------------------------------------------
# verify_sweep: every light suite through the CLI, in one interpreter


def verify_prepare(par: dict):
    return par["max_n"]


def _max_n_args(name: str, max_n) -> list[str]:
    return [] if max_n is None or name in SMOKE_FULL_SIZE else ["--max-n", str(max_n)]


def verify_calls(max_n, tr):
    """cli.run per suite; the span it opens around cli's run_suite call
    splits its time into the suite and the CLI's own cost."""
    out = []
    for name in LIGHT_SUITES:
        captured, diagnostics = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(diagnostics):
            with tr.span("cli.run"), tr.wrap(cli, "run_suite", f"verify.{name}"):
                code = cli.run(["--json", "verify", "--suite", name, *_max_n_args(name, max_n)])
        out.append((name, code, captured.getvalue()))
    return out


def verify_calls_check(max_n, out):
    items = 0
    checks = []
    for name, code, text in out:
        checks.append((f"{name} exit status", code == 0))
        for line in text.splitlines():
            record = json.loads(line)
            items += 1
            checks.append((f"{name}: {record['claim']} {record['inputs']}", record["pass"] is True))
    return items, checks


def verify_replay(max_n, tr):
    """The layers under the suites, each from a cold start."""
    small = max_n is not None
    b_index = SMOKE_MAX_N if small else BERNOULLI_INDEX
    with tr.span("special.bernoulli"):
        b = special.bernoulli(b_index)
    # bernoulli-vsc sieves up to each denominator; this is the largest
    with tr.span("exactmath.primes_upto"):
        primes = exactmath.primes_upto(b.denominator)
    with tr.span("special.stirling2"):
        special.stirling2(SMOKE_MAX_N if small else STIRLING_Q, 1)
    goldberg.series_oracle.cache_clear()
    oracle_top = SMOKE_MAX_N if small else ORACLE_DEGREE
    for n in range(1, oracle_top + 1):
        with tr.span("goldberg.series_oracle"):
            oracle = goldberg.series_oracle(n)
    goldberg_sums = []
    for row in refdata.TABLE1:
        with tr.span("goldberg.coeff_goldberg_sum"):
            goldberg_sums.append(goldberg.coeff_goldberg_sum(row.runs))
    # the witness suite's stages
    valuations = []
    for n in range(2, (SMOKE_MAX_N if small else WITNESS_DEGREE) + 1):
        with tr.span("denominators.capital_denominator"):
            d = denominators.capital_denominator(n)
        for p in exactmath.primes_upto(n - 1):
            with tr.span("witness.witness_runs"):
                w = witness.witness_runs(n, p)
            c = _alg2_stages(w.word, d, tr)
            with tr.span("exactmath.vp"):
                valuations.append((n, p, exactmath.vp(c.denominator, p)))
    return b_index, b, primes, oracle, goldberg_sums, valuations


def verify_replay_check(max_n, out):
    b_index, b, primes, oracle, goldberg_sums, valuations = out
    # von Staudt-Clausen: the denominator is the product of the primes p
    # with (p - 1) | index
    vsc = math.prod(p for p in primes if p <= b_index + 1 and b_index % (p - 1) == 0)
    checks = [
        (f"B_{b_index} denominator", b.denominator == vsc),
        ("series oracle AB", oracle["AB"] == Fraction(1, 2)),
    ]
    for row, g in zip(refdata.TABLE1, goldberg_sums):
        checks.append((f"goldberg sum runs={row.runs}", g == exactmath.rational_from_str(row.coeff)))
    for n, p, v in valuations:
        checks.append((f"witness n={n} p={p}", v == _extreme_valuation(n, p)))
    return len(checks), checks


# ---------------------------------------------------------------------------
# random_words: seeded words through coeff_word's default route


def random_prepare(par: dict):
    return [goldberg.WordSpec(a_first, runs) for a_first, runs in random_word_runs(**par)]


def random_calls(words, tr):
    out = []
    for word in words:
        with tr.span("goldberg.coeff_word"):
            out.append(goldberg.coeff_word(word))
    return out


def random_calls_check(words, out):
    checks = []
    for word, c in zip(words, out):
        tag = f"{'A' if word.a_first else 'B'}-first runs={word.runs}"
        cap = denominators.capital_denominator(word.degree)
        checks.append((f"denominator divides n!*d_n {tag}", cap % c.denominator == 0))
        if len(word.runs) == 2:
            checks.append((f"bernoulli route {tag}", c == goldberg.coeff_word(word, method="bernoulli")))
    return len(words), checks


def random_replay(words, tr):
    out = []
    for word in words:
        with tr.span("denominators.capital_denominator"):
            d = denominators.capital_denominator(word.degree)
        out.append((d, _alg2_stages(word, d, tr)))
    return out


def random_replay_check(words, out):
    checks = [(f"alg2 denominator divides n!*d_n runs={w.runs}", d % c.denominator == 0)
              for w, (d, c) in zip(words, out)]
    return len(words), checks


# workload -> phase -> (prepare, work, check); "calls" is the measured phase
PHASES = {
    "heavy_rows": {
        "calls": (heavy_prepare, heavy_calls, heavy_calls_check),
        "replay": (heavy_prepare, heavy_replay, heavy_replay_check),
    },
    "qset_scan": {
        "calls": (qset_prepare, qset_calls, qset_check),
        "replay": (qset_prepare, qset_replay, qset_check),
    },
    "verify_sweep": {
        "calls": (verify_prepare, verify_calls, verify_calls_check),
        "replay": (verify_prepare, verify_replay, verify_replay_check),
    },
    "random_words": {
        "calls": (random_prepare, random_calls, random_calls_check),
        "replay": (random_prepare, random_replay, random_replay_check),
    },
}
