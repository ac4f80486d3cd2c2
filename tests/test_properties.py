"""Property tests: the coefficient routes against each other on random words,
the product route against its Stirling-basis and Eulerian-basis references,
the partition walk's
leaves against the product route, ``q_set`` against the valuation of every
partition's coefficient, and the two Stirling routes on random indices.

Each property draws words from a fixed, derandomized stream, so a run is
reproducible and its cost bounded; the routes share no code beyond WordSpec.
"""

import itertools
import math
import operator
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bchcoeff.analysis import q_set  # noqa: E402
from bchcoeff.denominators import capital_denominator, l_exponent, partitions  # noqa: E402
from bchcoeff.exactmath import legendre_vp_factorial, primes_upto, vp  # noqa: E402
from bchcoeff.goldberg import (  # noqa: E402
    COEFF_DEGREE_MAX,
    WordSpec,
    _goldberg_numerator,
    _k_sum_weights,
    coeff_alg2,
    coeff_goldberg_sum,
    coeff_word,
    series_oracle,
)
from bchcoeff.special import stirling2, stirling2_from_sum  # noqa: E402
from test_goldberg import (  # noqa: E402
    eulerian_numerator,
    gamma_to_eulerian,
    stirling_basis_numerator,
    to_stirling_basis,
    walk_leaves,
)

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
@given(run_lists(120))
def test_product_route_equals_stirling_basis(runs):
    assert _goldberg_numerator(runs) == stirling_basis_numerator(runs)


# a block past the table's cap of 300 in about half the examples, so the
# kept rows of both tables roll forward and restart
@settings(PROFILE, max_examples=40)
@given(run_lists(300), st.one_of(st.just(()), st.tuples(st.integers(301, 360))))
def test_product_route_equals_eulerian_basis(runs, far):
    runs = far + runs
    assert _goldberg_numerator(runs) == eulerian_numerator(runs)


# each example walks the partitions of n up to its leaf, p(36) = 17,977 at most
@settings(PROFILE, max_examples=50)
@given(st.integers(1, 36).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, sum(1 for _ in partitions(n)) - 1))))
def test_walk_leaf_equals_product_route(leaf):
    n, index = leaf
    parts, num = next(itertools.islice(walk_leaves(n), index, None))
    assert sum(parts) == n
    assert num == _goldberg_numerator(parts)


# each example reduces the coefficient of every partition of n, p(24) = 1,575
# at most; primes past n give the target 0, where every partition attains it
@settings(PROFILE, max_examples=40)
@given(st.integers(1, 24), st.sampled_from(primes_upto(29)))
def test_q_set_equals_valuation_filter(n, p):
    target = legendre_vp_factorial(n, p) + l_exponent(n, p)
    expected = tuple(parts for parts in partitions(n)
                     if vp(coeff_goldberg_sum(parts).denominator, p) == target)
    assert tuple(part.parts for part in q_set(n, p)) == expected


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
    # the Beta weight of each z^j (1+z)^(n-m-2j) against the alternating
    # binomial k-sum it replaces, applied to z^m times it over (1-z)^n in
    # powers of x
    for n in range(1, 31):
        k_sums = [[sum(Fraction((-1) ** k * math.comb(h, k), t - k) for k in range(h + 1))
                   if t > h else 0 for t in range(n + 1)] for h in range((n + 1) // 2)]
        for m in range(1, n + 1):
            weights = _k_sum_weights(n, m)
            for j in range(len(weights)):
                x_poly = to_stirling_basis(gamma_to_eulerian([0] * j + [1], n - m), m, n)
                direct = sum(map(operator.mul, x_poly, k_sums[(m - 1) // 2]))
                assert Fraction(weights[j], math.factorial(n)) == direct, (n, m, j)
