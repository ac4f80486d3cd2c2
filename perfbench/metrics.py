"""Names and units of the benchmark's metrics, and how the per-layer ones
are read off a traced pass (stdlib only, so the runner never imports the
package it measures)."""

from __future__ import annotations

from spans import call_counts, durations, self_times

WORKLOADS = ("heavy_rows", "qset_scan", "verify_sweep", "random_words")

# phases of a traced pass; an untraced pass runs "calls" alone
PHASES = ("calls", "replay")

# every verify suite except table2 and qset, fixed so that the workload does
# not grow when a suite is added
LIGHT_SUITES = (
    "dn-list", "partition-lcm", "min-degree", "oracle-agreement", "two-block",
    "goldberg-symmetry", "denominator-divides", "lcm-brute", "witness",
    "lemma-binomials", "lemma3", "stirling", "bernoulli-vsc", "bernoulli-sum",
    "table1",
)

END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# spans whose summed duration is a per-layer metric "<span>.s"
TIMED_SPANS = (
    "goldberg.coeff_tilde",
    "goldberg.coeff_word",
    "goldberg.alg2_table",
    "goldberg.coeff_alg2",
    "goldberg.series_oracle",
    "goldberg.coeff_goldberg_sum",
    "denominators.capital_denominator",
    "denominators.partitions",
    "analysis.q_set",
    "analysis.extract_leading",
    "exactmath.vp",
    "exactmath.primes_upto",
    "special.bernoulli",
    "special.stirling2",
    "witness.witness_runs",
    *(f"verify.{name}" for name in LIGHT_SUITES),
)

# spans whose number is a per-layer metric "<span>.calls"
COUNTED_SPANS = ("goldberg.coeff_word", "goldberg.coeff_alg2")

# self times: each span minus the spans the package opened inside it
SELF_TIMES = {
    "goldberg.alg2_sum.s": "goldberg.coeff_alg2",  # minus its alg2_table call
    "cli.run.overhead_s": "cli.run",  # minus its run_suite call
}

# values the phases record themselves (see workloads.py)
RECORDED = {
    "goldberg.alg2_table.cells": "count",
    "goldberg.alg2_table.peak_bits": "bits",
    "analysis.q_set.partitions": "count",
}

PER_LAYER = {
    **{f"{name}.s": "s" for name in TIMED_SPANS},
    **{f"{name}.calls": "count" for name in COUNTED_SPANS},
    **{name: "s" for name in SELF_TIMES},
    **RECORDED,
    "trace.overhead_s": "s",
}


def layer_values(spans: list[dict], values: dict) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s, for one traced pass.

    A layer the workload never calls reads 0.
    """
    total = durations(spans)
    own = self_times(spans)
    counts = call_counts(spans)
    out = {f"{name}.s": total.get(name, 0.0) for name in TIMED_SPANS}
    out.update({f"{name}.calls": counts.get(name, 0) for name in COUNTED_SPANS})
    out.update({metric: own.get(name, 0.0) for metric, name in SELF_TIMES.items()})
    out.update({name: values.get(name, 0) for name in RECORDED})
    return out
