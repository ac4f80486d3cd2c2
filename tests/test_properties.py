"""Property tests: the routes that compute one thing checked against each
other on random inputs from a fixed, derandomized stream, so a run is
reproducible and its cost bounded.

The tables the routes read: the product route (``coeff_word``,
``_goldberg_numerator``), the partition walk, ``q_set`` (which runs the walk)
and ``bernoulli`` read the gamma rows in ``special``.  alg2, word by word
(``coeff_alg2``) or over every word of a degree (``_alg2_words``), builds
its own scaled columns and reads no table; neither do the series oracle,
``witness_runs`` or ``extract_leading``.  The Stirling-basis and
Eulerian-basis references in ``test_goldberg`` build their own rows, the
Eulerian ones from ``special``'s row generator, which keeps nothing.
``stirling2`` reads no row; Worpitzky's sum reads that generator's rows.

The pairs, with their domains:

* product route == alg2: random words up to degree 40;
* product route == series oracle: random words up to degree 10;
* product route == Stirling-basis reference: run lists up to degree 120;
* product route == Eulerian-basis reference: up to degree 300, plus a block
  of 301..360 in some examples;
* walk leaf == product route: a random partition of n <= 36;
* ``q_set`` == valuation filter over every partition's coefficient
  (product route): n <= 24, p <= 29;
* alg2 on a permutation of the runs == product route: degree <= 40;
* product-route denominator divides ``n! * d_n``: degree <= 120;
* Bernoulli route == product route on two-block words: degree <= 200,
  and once at the shared guard;
* B-first sign: alg2 on the B-first word == (-1)^(n+1) product route,
  degree <= 40;
* odd blocks at even degree: product route and alg2 both 0, degree <= 40;
* ``stirling2`` == Worpitzky's sum: q <= 400;
* ``_k_sum_weights`` == the alternating binomial k-sum: every n <= 30;
* the alg2 walk == alg2 word by word: a random word of degree <= 12;
* the witness word's coefficient (product route) attains
  v_p(n!) + l(n, p): random n <= 300 and prime p < n;
* ``extract_leading`` recombines to its input with a tail above depth e:
  random rationals, p <= 47.
"""

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bchcoeff.analysis import extract_leading, q_set  # noqa: E402
from bchcoeff.denominators import capital_denominator, l_exponent, partitions  # noqa: E402
from bchcoeff.exactmath import legendre_vp_factorial, primes_upto, vp  # noqa: E402
from bchcoeff.goldberg import (  # noqa: E402
    COEFF_DEGREE_MAX,
    WordSpec,
    _alg2_words,
    _goldberg_numerator,
    _k_sum_weights,
    coeff_alg2,
    coeff_goldberg_sum,
    coeff_word,
    series_oracle,
)
from bchcoeff.special import _eulerian_rows, _worpitzky, stirling2  # noqa: E402
from bchcoeff.witness import witness_runs  # noqa: E402
from test_goldberg import (  # noqa: E402
    eulerian_numerator,
    gamma_to_eulerian,
    stirling_basis_numerator,
    to_stirling_basis,
    walk_leaves,
)

# A_q for q <= 400, one ascending pass of special's generator for the module
EULERIAN_ROWS = tuple(itertools.islice(_eulerian_rows(), 401))

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


# a block past the gamma table's cap of 300 in about half the examples, so
# its kept row rolls forward and restarts
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
    # q in any order up to 400: the alternating sum against Worpitzky's
    # identity on the Eulerian rows
    for q, j in pairs:
        assert stirling2(q, j) == _worpitzky(EULERIAN_ROWS[q], j)


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


@lru_cache(maxsize=None)
def alg2_walk(n):
    # one walk per degree for the module: 0.2-0.25 s for every n <= 12
    return _alg2_words(n, capital_denominator(n))


@PROFILE
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1))))
def test_alg2_walk_equals_alg2(word_bits):
    n, bits = word_bits
    letters = "".join("AB"[bits >> i & 1] for i in range(n))
    assert alg2_walk(n)[letters] == coeff_alg2(WordSpec.from_letters(letters))


@PROFILE
@given(st.integers(3, 300).flatmap(lambda n: st.tuples(st.just(n), st.sampled_from(primes_upto(n - 1)))))
def test_witness_attains_the_extreme_valuation(case):
    n, p = case
    w = witness_runs(n, p)
    assert sum(w.runs) == n
    target = legendre_vp_factorial(n, p) + l_exponent(n, p)
    assert vp(coeff_word(w.word).denominator, p) == target


@PROFILE
@given(st.integers(-10**20, 10**20), st.integers(1, 10**20), st.integers(-8, 8),
       st.sampled_from(primes_upto(47)))
def test_extract_leading_recombines(num, den, shift, p):
    x = Fraction(num, den) * Fraction(p) ** shift
    e, a_hat, u_hat = extract_leading(x, p)
    assert e == (max(0, -vp(x, p)) if x else 0)
    assert 0 <= a_hat < p
    assert (a_hat != 0) == (x != 0 and vp(x, p) <= 0)
    assert Fraction(a_hat, p**e) + u_hat == x
    assert u_hat == 0 or vp(u_hat, p) > -e
