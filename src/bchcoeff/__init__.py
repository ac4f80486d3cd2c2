"""Exact arithmetic for the series log(e^A e^B).

The package computes word coefficients of the series exactly, the smallest
common denominator of each homogeneous component, and the extreme words whose
coefficients actually need that denominator.  Everything is integer or
rational arithmetic; there is no floating point anywhere.

The verification suites and the command line are the submodules
``bchcoeff.verify`` and ``bchcoeff.cli``; importing the package loads neither.
"""

from .analysis import (
    LeadingTerm,
    Lemma3Class,
    Partition,
    QSET_DEGREE_MAX,
    bernoulli_sum_residue,
    brute_lcm_degree,
    expected_a,
    extract_leading,
    lemma3_sides,
    q_set,
)
from .denominators import (
    DenominatorRecord,
    PARTITION_LCM_MAX,
    capital_denominator,
    d_n,
    denominator_record,
    l_exponent,
    min_degree_with_l,
    partition_lcm,
    partitions,
)
from .exactmath import (
    PADIC_INFINITY,
    digit_sum,
    is_prime,
    legendre_vp_factorial,
    lucas_binomial_mod,
    mod_inverse,
    padic_digits,
    primes_upto,
    rational_from_str,
    require_prime,
    vp,
)
from .goldberg import (
    ALG2_DEGREE_MAX,
    COEFF_DEGREE_MAX,
    IntegerExactnessError,
    METHODS,
    SERIES_ORACLE_MAX,
    WordSpec,
    alg2_table,
    bernoulli_binomial_sum,
    coeff_alg2,
    coeff_bernoulli_m2,
    coeff_goldberg_sum,
    coeff_tilde,
    coeff_word,
    series_oracle,
)
from .special import bernoulli, stirling2
from .witness import (
    WitnessBranch,
    WitnessResult,
    lemma1_k,
    lemma2_k,
    power_branch_runs,
    witness_runs,
)

__version__ = "0.1.0"

__all__ = [
    "ALG2_DEGREE_MAX",
    "COEFF_DEGREE_MAX",
    "DenominatorRecord",
    "IntegerExactnessError",
    "LeadingTerm",
    "Lemma3Class",
    "METHODS",
    "PADIC_INFINITY",
    "PARTITION_LCM_MAX",
    "Partition",
    "QSET_DEGREE_MAX",
    "SERIES_ORACLE_MAX",
    "WitnessBranch",
    "WitnessResult",
    "WordSpec",
    "alg2_table",
    "bernoulli",
    "bernoulli_binomial_sum",
    "bernoulli_sum_residue",
    "brute_lcm_degree",
    "capital_denominator",
    "coeff_alg2",
    "coeff_bernoulli_m2",
    "coeff_goldberg_sum",
    "coeff_tilde",
    "coeff_word",
    "d_n",
    "denominator_record",
    "digit_sum",
    "expected_a",
    "extract_leading",
    "is_prime",
    "l_exponent",
    "legendre_vp_factorial",
    "lemma1_k",
    "lemma2_k",
    "lemma3_sides",
    "lucas_binomial_mod",
    "min_degree_with_l",
    "mod_inverse",
    "padic_digits",
    "partition_lcm",
    "partitions",
    "power_branch_runs",
    "primes_upto",
    "q_set",
    "rational_from_str",
    "require_prime",
    "series_oracle",
    "stirling2",
    "vp",
    "witness_runs",
]
