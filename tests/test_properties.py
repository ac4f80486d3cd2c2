"""Property tests: the coefficient routes against each other on random words,
and the two Stirling routes on random indices.

Each property draws words from a fixed, derandomized stream, so a run is
reproducible and its cost bounded; the routes share no code beyond WordSpec.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bchcoeff.denominators import capital_denominator  # noqa: E402
from bchcoeff.goldberg import (  # noqa: E402
    COEFF_DEGREE_MAX,
    WordSpec,
    _k_sum_numerator,
    coeff_alg2,
    coeff_goldberg_sum,
    coeff_word,
    series_oracle,
)
from bchcoeff.special import stirling2, stirling2_from_sum  # noqa: E402

PROFILE = settings(derandomize=True, max_examples=100, deadline=None, database=None)


@st.composite
def run_lists(draw, max_degree):
    """Run lengths of a word of degree 1..max_degree."""
    n = draw(st.integers(1, max_degree))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) if n > 1 else ())
    bounds = [0, *cuts, n]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


@PROFILE
@given(run_lists(40), st.booleans())
def test_product_route_equals_alg2(runs, a_first):
    word = WordSpec(a_first, runs)
    assert coeff_word(word) == coeff_alg2(word)


@PROFILE
@given(run_lists(10), st.booleans())
def test_product_route_equals_series_oracle(runs, a_first):
    word = WordSpec(a_first, runs)
    assert coeff_word(word) == series_oracle(word.degree)[word.letters()]


@PROFILE
@given(run_lists(40).flatmap(lambda runs: st.tuples(st.just(runs), st.permutations(runs))))
def test_run_permutation_invariance(pair):
    runs, perm = pair
    assert coeff_alg2(WordSpec(True, tuple(perm))) == coeff_goldberg_sum(runs)


@PROFILE
@given(run_lists(120))
def test_denominator_divides_capital(runs):
    c = coeff_goldberg_sum(runs)
    assert capital_denominator(sum(runs)) % c.denominator == 0


@PROFILE
@given(st.integers(2, 200).flatmap(lambda n: st.tuples(st.integers(1, n - 1), st.just(n))),
       st.booleans())
def test_bernoulli_route_equals_product_route(split, a_first):
    k, n = split
    word = WordSpec(a_first, (n - k, k))
    assert coeff_word(word, method="bernoulli") == coeff_word(word)


def test_bernoulli_route_at_the_guard():
    # past the old Bernoulli guard of 900, up to the shared one
    word = WordSpec(True, (COEFF_DEGREE_MAX - 2, 2))
    assert coeff_word(word, method="bernoulli") == coeff_word(word)


@PROFILE
@given(run_lists(40))
def test_b_first_sign(runs):
    n = sum(runs)
    assert coeff_alg2(WordSpec(False, runs)) == (-1) ** (n + 1) * coeff_goldberg_sum(runs)


@st.composite
def even_degree_odd_blocks(draw, max_degree):
    m = draw(st.integers(0, (max_degree - 1) // 2)) * 2 + 1
    n = draw(st.integers((m + 1) // 2, max_degree // 2)) * 2
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=m - 1, max_size=m - 1)))
    bounds = [0, *cuts, n]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


@PROFILE
@given(even_degree_odd_blocks(40), st.booleans())
def test_even_degree_odd_blocks_vanish(runs, a_first):
    word = WordSpec(a_first, runs)
    assert coeff_word(word) == 0
    assert coeff_alg2(word) == 0


@PROFILE
@given(st.lists(st.integers(1, 400).flatmap(lambda q: st.tuples(st.just(q), st.integers(1, q))),
                min_size=1, max_size=6))
def test_stirling_routes_agree(pairs):
    # q in any order across the cap of 300: the table fills, and the one row
    # kept past it rolls forward or restarts from the cap
    for q, j in pairs:
        assert stirling2(q, j) == stirling2_from_sum(q, j)


def test_k_sum_closed_form():
    # the k-sum at one total t, against the alternating binomial sum it replaces
    for h in range(13):
        for m in (2 * h + 1, 2 * h + 2):
            for t in range(m, 81):
                unit = [0] * t + [1]
                direct = sum(Fraction((-1) ** k * math.comb(h, k), t - k) for k in range(h + 1))
                assert Fraction(_k_sum_numerator(unit, m, t), math.factorial(t)) == direct
