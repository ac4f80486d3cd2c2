import inspect
import itertools
import math
import operator
import pathlib
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache

import pytest

import bchcoeff
from bchcoeff import goldberg
from bchcoeff.denominators import capital_denominator, partitions
from bchcoeff.goldberg import (
    ALG2_DEGREE_MAX,
    COEFF_DEGREE_MAX,
    IntegerExactnessError,
    METHODS,
    SERIES_ORACLE_MAX,
    WordSpec,
    _alg2_words,
    _goldberg_numerator,
    _k_sum_weights,
    _partition_walk,
    _poly_mul,
    alg2_table,
    coeff_alg2,
    coeff_bernoulli_m2,
    coeff_goldberg_sum,
    coeff_tilde,
    coeff_word,
    series_oracle,
)
from bchcoeff.refdata import TABLE2
from bchcoeff.special import _eulerian_row, _stirling_row

H3 = {
    "AAB": Fraction(1, 12),
    "ABA": Fraction(-1, 6),
    "BAA": Fraction(1, 12),
    "BBA": Fraction(1, 12),
    "BAB": Fraction(-1, 6),
    "ABB": Fraction(1, 12),
    "AAA": Fraction(0),
    "BBB": Fraction(0),
}


@lru_cache(maxsize=None)
def stirling_basis_row(q: int) -> tuple[int, ...]:
    """P_q(x) = sum((-1)^j j! S(q, j) x^j), j = 0..q, by the recurrence
    a(q, j) = j (a(q-1, j) - a(q-1, j-1)), a(q, q) = -q a(q-1, q-1): the block
    polynomial of the Stirling basis, which the Eulerian rows replaced."""
    row = (1,)
    for k in range(1, q + 1):
        row = (0, *(j * (row[j] - row[j - 1]) for j in range(1, k)), -k * row[k - 1])
    return row


def stirling_poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def stirling_k_sum_weights(n: int, h: int) -> tuple[int, list[int]]:
    """(-1)^h h! and W[t] = (t-h-1)! n!/t!: n! times the closed form
    sum((-1)^k C(h, k) / (t-k) for k = 0..h) = (-1)^h h! (t-h-1)! / t! is
    (-1)^h h! W[t], for t >= 2h+1."""
    first = 2 * h + 1
    weights = [0] * (n + 1)
    falling = 1  # n!/t!, from t = n down
    for t in range(n, first - 1, -1):
        weights[t] = falling
        falling *= t
    h_fact = math.factorial(h)
    rising = h_fact  # (t-h-1)!, from t = 2h+1 up
    for t in range(first, n + 1):
        weights[t] *= rising
        rising *= t - h
    return -h_fact if h % 2 else h_fact, weights


def stirling_basis_numerator(runs) -> int:
    """n! times the tilde form by the Stirling-basis product and its k-sum
    weights: the product route before the Eulerian basis, the reference the
    new numerator is checked against."""
    poly = [1]
    for q in runs:
        poly = stirling_poly_mul(poly, stirling_basis_row(q))
    scale, weights = stirling_k_sum_weights(sum(runs), (len(runs) - 1) // 2)
    return scale * sum(x * w for x, w in zip(poly, weights))


def to_stirling_basis(e, m: int, n: int) -> list[int]:
    """z^m E(z) / (1-z)^n in powers of x, z = -x/(1-x), for E of degree <= n-m:
    each z^(m+s) / (1-z)^n is (-1)^(m+s) x^(m+s) (1-x)^(n-m-s)."""
    out = [0] * (n + 1)
    for s, c in enumerate(e):
        for i in range(n - m - s + 1):
            out[m + s + i] += (-1) ** (m + s + i) * math.comb(n - m - s, i) * c
    return out


def eulerian_half_mul(a, b) -> list[int]:
    """The product of two palindromic polynomials: the lower half by
    convolution, the upper half its mirror.  The Eulerian basis's kernel,
    which the gamma basis replaced."""
    deg = len(a) + len(b) - 2
    half = deg // 2
    out = [0] * (half + 1)
    for i, x in enumerate(a[:half + 1]):
        for j, y in enumerate(b[:half + 1 - i], i):
            out[j] += x * y
    return out + out[:deg - half][::-1]


def eulerian_k_sum_weights(n: int, m: int) -> list[int]:
    """W[s] = (-1)^(h+m+s) (m-h-1+s)! (n-m+h-s)!, s = 0..n-m, h = (m-1)//2:
    n! times the tilde form is sum(e_s W[s]) over the coefficients e_s of the
    product E of the blocks' Eulerian polynomials."""
    h = (m - 1) // 2
    top = n - m
    weights = [0] * (top + 1)
    falling = math.factorial(h)  # (n-m+h-s)!, from s = n-m down
    for s in range(top, -1, -1):
        weights[s] = falling
        falling *= top + h - s + 1
    rising = math.factorial(m - h - 1)  # (m-h-1+s)!, from s = 0 up
    for s in range(top + 1):
        weights[s] *= -rising if (h + m + s) % 2 else rising
        rising *= m - h + s
    return weights


def eulerian_numerator(runs) -> int:
    """n! times the tilde form by the Eulerian rows' half products and their
    weights: the product route before the gamma basis, the reference the new
    numerator is checked against."""
    poly = [1]
    for q in runs:
        if q > 1:
            poly = eulerian_half_mul(poly, _eulerian_row(q))
    return sum(map(operator.mul, poly, eulerian_k_sum_weights(sum(runs), len(runs))))


def gamma_to_eulerian(g, d: int) -> list[int]:
    """sum(g_k z^k (1+z)^(d-2k)) in powers of z, by Horner's rule in
    (1+z)^2 and then d - 2(len(g)-1) factors 1+z."""
    acc = [g[0]]
    for k in range(1, len(g)):
        acc = [x + 2 * y + w for x, y, w in zip(acc + [0, 0], [0, *acc, 0], [0, 0, *acc])]
        acc[k] += g[k]
    for _ in range(d - 2 * (len(g) - 1)):
        acc = [x + y for x, y in zip(acc + [0], [0, *acc])]
    return acc


class TestWordSpec:
    def test_from_letters(self):
        w = WordSpec.from_letters("AABAB")
        assert w.a_first and w.runs == (2, 1, 1, 1)
        assert w.degree == 5
        assert w.letters() == "AABAB"
        v = WordSpec.from_letters("BBA")
        assert not v.a_first and v.runs == (2, 1)

    def test_letters_round_trip(self):
        for text in ("A", "B", "AB", "BA", "AABB", "ABABAB", "BBBAAAB"):
            assert WordSpec.from_letters(text).letters() == text

    def test_rejects(self):
        with pytest.raises(ValueError):
            WordSpec.from_letters("")
        with pytest.raises(ValueError):
            WordSpec.from_letters("AXB")
        with pytest.raises(ValueError):
            WordSpec(True, ())
        with pytest.raises(ValueError):
            WordSpec(True, (2, 0, 1))

    def test_rejects_non_integer_runs(self):
        # a float is not truncated and a string is not parsed
        with pytest.raises(ValueError, match="2.9"):
            WordSpec(True, (2.9, 1))
        with pytest.raises(ValueError, match="1.5"):
            coeff_goldberg_sum((2, 1.5))
        with pytest.raises(ValueError, match="'3'"):
            WordSpec(True, ("3", True))

    def test_accepts_int_subclasses(self):
        class Length(int):
            pass

        word = WordSpec(True, (Length(2), True))
        assert word.runs == (2, 1)
        assert all(type(q) is int for q in word.runs)
        assert coeff_goldberg_sum((Length(2), 1)) == Fraction(1, 12)


class TestSmallValues:
    @pytest.mark.parametrize("letters,value", [
        ("A", Fraction(1)),
        ("B", Fraction(1)),
        ("AB", Fraction(1, 2)),
        ("BA", Fraction(-1, 2)),
        ("AA", Fraction(0)),
        ("BB", Fraction(0)),
        ("AAB", Fraction(1, 12)),
        ("ABA", Fraction(-1, 6)),
    ])
    def test_frozen(self, letters, value):
        word = WordSpec.from_letters(letters)
        assert coeff_alg2(word) == value
        assert coeff_word(word, method="goldberg") == value

    def test_degree_three_complete(self):
        for letters, value in H3.items():
            assert coeff_alg2(WordSpec.from_letters(letters)) == value

    def test_single_runs_vanish(self):
        # log(e^A) = A: pure powers beyond degree 1 carry coefficient 0
        for n in range(2, 9):
            assert coeff_alg2(WordSpec(True, (n,))) == 0
            assert coeff_alg2(WordSpec(False, (n,))) == 0


class TestGoldbergRoute:
    def test_tilde_examples(self):
        assert coeff_tilde((1,)) == -1
        assert coeff_tilde((2, 1)) == Fraction(-1, 6)
        assert coeff_tilde((1, 1)) == Fraction(1, 2)

    def test_sum_examples(self):
        assert coeff_goldberg_sum((1, 1)) == Fraction(1, 2)
        assert coeff_goldberg_sum((2, 1)) == Fraction(1, 12)
        assert coeff_goldberg_sum((1, 1, 1)) == Fraction(-1, 6)

    def test_permutation_invariance(self):
        assert coeff_goldberg_sum((1, 2)) == coeff_goldberg_sum((2, 1))
        assert coeff_goldberg_sum((3, 1, 2)) == coeff_goldberg_sum((1, 2, 3))

    def test_coeff_tilde_scaling(self):
        # (-1)^n q_1! ... q_m! c == tilde, with c from alg2
        for runs in ((2, 1), (3, 2), (2, 2, 1), (4, 3)):
            n = sum(runs)
            scale = math.prod(math.factorial(q) for q in runs)
            sign = -1 if n % 2 else 1
            c = coeff_alg2(WordSpec(True, runs))
            assert coeff_tilde(runs) == sign * scale * c

    def test_one_public_tilde_entry(self):
        assert "method" not in inspect.signature(coeff_tilde).parameters
        assert not hasattr(bchcoeff, "coeff_goldberg_tilde")
        assert "coeff_goldberg_tilde" not in bchcoeff.__all__

    def test_rejects(self):
        with pytest.raises(ValueError):
            coeff_goldberg_sum(())
        with pytest.raises(ValueError):
            coeff_goldberg_sum((2, 0))


def walk_leaves(n):
    """The walk's leaves, flattened lazily: (parts, num) in yield order."""
    return ((prefix + (3,) * a + (2,) * b + (1,) * r, num)
            for prefix, tails in _partition_walk(n) for a, b, r, num in tails)


class TestPartitionWalk:
    def test_walk_equals_per_partition_route(self):
        # every leaf shape occurs: (n,), (1,)*n, and folded tails 3^a 2^b 1^r
        # of every length; the integers are compared unreduced
        for n in range(1, 25):
            expected = [(parts, _goldberg_numerator(parts)) for parts in partitions(n)]
            assert list(walk_leaves(n)) == expected, n

    @pytest.mark.parametrize("n", [30, 36])
    def test_walk_sampled(self, n):
        leaves = list(walk_leaves(n))
        assert [parts for parts, _ in leaves] == list(partitions(n))
        for parts, num in leaves[::37]:
            assert num == _goldberg_numerator(parts), parts

    def test_walk_multiplies_only_the_big_parts(self, monkeypatch):
        # one multiply per tree edge with a part >= 4 (478 at n = 27), and one
        # per power of gamma_3 (9); a walk with one multiply per edge makes 3009
        calls = 0
        poly_mul = goldberg._poly_mul

        def counting(a, b):
            nonlocal calls
            calls += 1
            return poly_mul(a, b)

        monkeypatch.setattr(goldberg, "_poly_mul", counting)
        assert sum(1 for _ in walk_leaves(27)) == 3010
        assert calls == 487
        assert calls <= 600

    def test_walk_is_lazy(self):
        walk = _partition_walk(20)
        assert next(walk) == ((20,), [(0, 0, 0, 0)])

    def test_k_sum_weights(self):
        # G[j] weighs z^j (1+z)^(D-2j) of E, so it is the binomial transform
        # of the Eulerian weights W[s] of the z^s; W against its closed form
        for n in range(1, 31):
            for m in range(1, n + 1):
                h, d = (m - 1) // 2, n - m
                eulerian = eulerian_k_sum_weights(n, m)
                assert eulerian == [
                    (-1) ** (h + m + s) * math.factorial(m - h - 1 + s) * math.factorial(d + h - s)
                    for s in range(d + 1)], (n, m)
                assert _k_sum_weights(n, m) == [
                    sum(math.comb(d - 2 * j, s - j) * eulerian[s] for s in range(j, d - j + 1))
                    for j in range(d // 2 + 1)], (n, m)

    @pytest.mark.parametrize("n", [140, 255])
    def test_k_sum_weights_large(self, n):
        # the running products against the weights the Stirling basis applies
        # to z^j (1+z)^(n-m-2j), each converted to powers of x
        for m in (1, 2, 3, n // 4, n // 2, n - 1, n):
            weights = _k_sum_weights(n, m)
            scale, reference = stirling_k_sum_weights(n, (m - 1) // 2)
            top = (n - m) // 2
            for j in sorted({0, min(1, top), top // 2, top}):
                unit = gamma_to_eulerian([0] * j + [1], n - m)
                x_poly = to_stirling_basis(unit, m, n)
                assert weights[j] == scale * sum(map(operator.mul, x_poly, reference)), (m, j)

    @pytest.mark.parametrize("q", [1, 2, 7, 300, 301, 1100])
    def test_block_poly(self, q):
        # the Eulerian polynomial A_q from special's second table, on both
        # sides of its cap: palindromic, summing to q!, and equal to the
        # closed form sum((-1)^i C(q+1, i) (k+1-i)^q for i <= k); past 301 a
        # spread of k
        row = _eulerian_row(q)
        assert isinstance(row, tuple) and len(row) == q
        assert row == row[::-1] and sum(row) == math.factorial(q)
        for k in range((q + 1) // 2) if q <= 301 else (0, 1, 2, q // 3, q // 2 - 1, q // 2):
            assert row[k] == sum((-1) ** i * math.comb(q + 1, i) * (k + 1 - i) ** q
                                 for i in range(k + 1)), k

    def test_gamma_rows_expand_to_the_eulerian_rows(self):
        # A_q(z) = sum(gamma(q, k) z^k (1+z)^(q-1-2k)) on both sides of the cap
        for q in range(1, 302):
            row = _stirling_row(q)
            assert isinstance(row, tuple) and len(row) == (q + 1) // 2, q
            assert gamma_to_eulerian(row, q - 1) == list(_eulerian_row(q)), q

    def test_gamma_row_at_the_guard(self):
        # A_q(1) = q!, and z = 1 gives each gamma(q, k) the weight 2^(q-1-2k)
        q = COEFF_DEGREE_MAX
        row = _stirling_row(q)
        assert len(row) == (q + 1) // 2
        assert sum(g << (q - 1 - 2 * k) for k, g in enumerate(row)) == math.factorial(q)

    def test_block_poly_is_the_stirling_block(self):
        # P_q(x) = z A_q(z) / (1-z)^q with z = -x/(1-x), from both tables
        for q in range(1, 41):
            block = list(stirling_basis_row(q))
            assert to_stirling_basis(_eulerian_row(q), 1, q) == block, q
            assert to_stirling_basis(gamma_to_eulerian(_stirling_row(q), q - 1), 1, q) == block, q

    def test_poly_mul_is_the_full_product(self):
        # gamma vectors convolve to the gamma vector of the product of the
        # Eulerian rows, which the old half product and its mirror also give
        for qs in ((2, 3), (3, 3), (4, 7), (7, 4), (5, 2, 9), (10, 11, 12), (1, 6)):
            poly, half, full = [1], [1], [1]
            for q in qs:
                poly = _poly_mul(poly, _stirling_row(q))
                half = eulerian_half_mul(half, _eulerian_row(q))
                full = stirling_poly_mul(full, _eulerian_row(q))
            assert gamma_to_eulerian(poly, sum(qs) - len(qs)) == half == full, qs

    def test_numerator_equals_stirling_basis_on_every_partition(self):
        for n in range(1, 25):
            for parts in partitions(n):
                assert _goldberg_numerator(parts) == stirling_basis_numerator(parts), parts

    @pytest.mark.parametrize("row", TABLE2, ids=lambda row: f"n={row.n}")
    def test_numerator_equals_stirling_basis_on_table2(self, row):
        assert _goldberg_numerator(row.runs) == stirling_basis_numerator(row.runs)

    def test_numerator_equals_eulerian_basis_on_every_partition(self):
        for n in range(1, 25):
            for parts in partitions(n):
                assert _goldberg_numerator(parts) == eulerian_numerator(parts), parts

    @pytest.mark.parametrize("row", TABLE2, ids=lambda row: f"n={row.n}")
    def test_numerator_equals_eulerian_basis_on_table2(self, row):
        assert _goldberg_numerator(row.runs) == eulerian_numerator(row.runs)

    def test_single_block_reads_no_row(self, monkeypatch):
        # log(e^A) = A: one block past degree 1 is 0 before any product
        monkeypatch.setattr(goldberg, "_stirling_row", None)
        assert coeff_goldberg_sum((1,)) == 1
        for q in (2, 3, 301, COEFF_DEGREE_MAX):
            assert _goldberg_numerator((q,)) == 0
            assert coeff_goldberg_sum((q,)) == 0


class TestDegreeGuards:
    def test_limits_cover_the_reference_rows(self):
        assert 255 <= ALG2_DEGREE_MAX < COEFF_DEGREE_MAX

    def test_alg2_guard(self):
        word = WordSpec(True, (ALG2_DEGREE_MAX, 1))
        with pytest.raises(ValueError, match=str(ALG2_DEGREE_MAX)):
            coeff_alg2(word)
        with pytest.raises(ValueError, match=str(ALG2_DEGREE_MAX)):
            alg2_table(word)

    def test_goldberg_guard(self):
        runs = (COEFF_DEGREE_MAX, 1)
        with pytest.raises(ValueError, match=str(COEFF_DEGREE_MAX)):
            coeff_goldberg_sum(runs)
        with pytest.raises(ValueError, match=str(COEFF_DEGREE_MAX)):
            coeff_word(WordSpec(False, runs))
        # the two-block route shares the guard
        with pytest.raises(ValueError, match=str(COEFF_DEGREE_MAX)):
            coeff_word(WordSpec(True, runs), method="bernoulli")

    def test_the_limit_itself_is_allowed(self):
        # the cheapest shape at that degree: alternating single letters
        c = coeff_goldberg_sum((1,) * COEFF_DEGREE_MAX)
        assert capital_denominator(COEFF_DEGREE_MAX) % c.denominator == 0


class TestBernoulliRoute:
    def test_examples(self):
        assert coeff_bernoulli_m2(2, 1) == Fraction(1, 2)
        assert coeff_bernoulli_m2(3, 1) == Fraction(1, 12)
        assert coeff_bernoulli_m2(4, 1) == 0
        assert coeff_bernoulli_m2(3, 2) == Fraction(1, 12)

    def test_against_alg2(self):
        for n in range(2, 15):
            for k in range(1, n):
                assert coeff_bernoulli_m2(n, k) == coeff_alg2(WordSpec(True, (n - k, k)))

    def test_rejects(self):
        with pytest.raises(ValueError):
            coeff_bernoulli_m2(1, 1)
        with pytest.raises(ValueError):
            coeff_bernoulli_m2(5, 0)
        with pytest.raises(ValueError):
            coeff_bernoulli_m2(5, 5)


class TestDispatch:
    def test_methods_constant(self):
        assert METHODS == ("alg2", "goldberg", "bernoulli", "oracle")

    def test_all_methods_agree(self):
        # B-first two-block word: every backend must apply the same sign rule
        word = WordSpec.from_letters("BBAA")
        values = {m: coeff_word(word, method=m) for m in METHODS}
        assert len(set(values.values())) == 1

    def test_letter_swap_sign(self):
        # exchanging A and B throughout carries the sign (-1)^(n+1)
        swap = str.maketrans("AB", "BA")
        for letters in ("AB", "AAB", "AABB", "ABAB", "AABAB", "AABABB"):
            a = coeff_alg2(WordSpec.from_letters(letters))
            b = coeff_alg2(WordSpec.from_letters(letters.translate(swap)))
            if len(letters) % 2 == 0:
                assert a == -b
            else:
                assert a == b

    def test_bernoulli_needs_two_blocks(self):
        with pytest.raises(ValueError):
            coeff_word(WordSpec.from_letters("ABA"), method="bernoulli")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            coeff_word(WordSpec.from_letters("AB"), method="magic")


class TestSeriesOracle:
    def test_degree_one_and_two(self):
        h = series_oracle(2)
        assert h["A"] == 1 and h["B"] == 1
        assert h["AB"] == Fraction(1, 2)
        assert h["BA"] == Fraction(-1, 2)
        assert h["AA"] == 0 and h["BB"] == 0

    def test_degree_three(self):
        h = series_oracle(3)
        for letters, value in H3.items():
            assert h[letters] == value

    def test_key_count(self):
        assert len(series_oracle(5)) == 2**6 - 2

    def test_read_only(self):
        h = series_oracle(3)
        with pytest.raises(TypeError):
            h["AB"] = 0

    def test_truncation(self):
        # the verify suites build the oracle once and read every lower degree
        # from it
        for big in range(2, 11):
            full = series_oracle(big)
            for n in range(1, big):
                assert series_oracle(n) == {w: c for w, c in full.items() if len(w) <= n}

    def test_guard(self):
        with pytest.raises(ValueError):
            series_oracle(0)
        with pytest.raises(ValueError):
            series_oracle(SERIES_ORACLE_MAX + 1)

    def test_one_map_at_a_time(self):
        # the degree-15 map (about 12 MiB) is let go before the degree-16 map
        # is built, so building both in turn peaks near building 16 alone
        def peak_kib(degrees):
            code = ("import resource\nfrom bchcoeff.goldberg import series_oracle\n"
                    f"for n in {degrees}:\n    series_oracle(n)\n"
                    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
            out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 check=True, cwd=pathlib.Path(goldberg.__file__).parents[1])
            return int(out.stdout)

        assert peak_kib((15, 16)) < peak_kib((16,)) + 5 * 1024


def _power_sum_oracle(max_degree: int) -> dict[str, Fraction]:
    # the oracle by powers: Y^k by concatenation products, then the sum of
    # (-1)^(k+1) Y^k / k over one common denominator
    nf = math.factorial(max_degree)
    fact = [math.factorial(i) for i in range(max_degree + 1)]
    y_items = [
        ("A" * i + "B" * (length - i), nf // (fact[i] * fact[length - i]))
        for length in range(1, max_degree + 1)
        for i in range(length + 1)
    ]
    ell = math.lcm(*range(1, max_degree + 1))
    acc: dict[str, int] = {}
    power = dict(y_items)  # Y^k scaled by nf^k
    for k in range(1, max_degree + 1):
        scale = (ell // k) * nf ** (max_degree - k)
        if k % 2 == 0:
            scale = -scale
        for w, v in power.items():
            acc[w] = acc.get(w, 0) + scale * v
        if k == max_degree:
            break
        nxt: dict[str, int] = {}
        for w1, v1 in power.items():
            room = max_degree - len(w1)
            for w2, v2 in y_items:
                if len(w2) > room:
                    break
                key = w1 + w2
                if key in nxt:
                    nxt[key] += v1 * v2
                else:
                    nxt[key] = v1 * v2
        power = nxt
    denom = ell * nf**max_degree
    return {w: Fraction(num, denom) for w, num in acc.items()}


class TestOracleReference:
    def test_equals_power_sum(self):
        for n in range(1, 11):
            assert series_oracle(n) == _power_sum_oracle(n), n

    def test_sampled_degree_twelve(self):
        # log(1 + Y) = sum((-1)^(k+1) Y^k / k), each Y^k by convolution
        oracle = series_oracle(12)
        for letters in itertools.islice(itertools.product("AB", repeat=12), 0, None, 97):
            word = "".join(letters)
            expected = sum(Fraction((-1) ** (k + 1), k) * _power_coeff(word, k)
                           for k in range(1, 13))
            assert oracle[word] == expected, word


def _y_coeff(chunk: str) -> Fraction:
    # coefficient of a word in Y = e^A e^B - 1: nonzero only on A^i B^j
    i = len(chunk) - len(chunk.lstrip("A"))
    if "A" in chunk[i:]:
        return Fraction(0)
    j = len(chunk) - i
    return Fraction(1, math.factorial(i) * math.factorial(j))


@lru_cache(maxsize=None)
def _power_coeff(word: str, k: int) -> Fraction:
    # coefficient of word in Y^k by splitting off a nonempty leading chunk
    if k == 1:
        return _y_coeff(word)
    total = Fraction(0)
    for cut in range(1, len(word)):
        head = _y_coeff(word[:cut])
        if head:
            total += head * _power_coeff(word[cut:], k - 1)
    return total


class TestTableAudit:
    @pytest.mark.parametrize("letters", ["AABAB", "AABB", "BABA", "ABBBA", "AAABB"])
    def test_table_matches_independent_convolution(self, letters):
        word = WordSpec.from_letters(letters)
        n_total = word.degree
        table, d = alg2_table(word)
        assert d == capital_denominator(n_total)
        for n in range(1, n_total + 1):
            tail = letters[n_total - n:]
            for k in range(1, n + 1):
                assert table[k][n] == d * _power_coeff(tail, k)

    def test_log_assembly(self):
        # the alternating sum over k of table[k][n]/k reproduces the oracle
        for letters in ("AABAB", "ABBA"):
            word = WordSpec.from_letters(letters)
            assert coeff_alg2(word) == series_oracle(word.degree)[letters]


class TestExactnessGuard:
    def test_wrong_scale_trips_single_block_seed(self):
        with pytest.raises(IntegerExactnessError):
            coeff_alg2(WordSpec(True, (3,)), common_denominator=7)

    def test_wrong_scale_trips_two_block_seed(self):
        with pytest.raises(IntegerExactnessError):
            coeff_alg2(WordSpec(True, (2, 1)), common_denominator=7)

    def test_error_is_arithmetic_error(self):
        assert issubclass(IntegerExactnessError, ArithmeticError)

    def test_multiple_of_true_denominator_is_fine(self):
        word = WordSpec.from_letters("AABA")
        d = capital_denominator(4)
        assert coeff_alg2(word, common_denominator=3 * d) == coeff_alg2(word)


@pytest.mark.parametrize("letters,step", [("BBA", "same-block step"),
                                          ("AABA", "block-boundary step")])
def test_step_guards_name_the_step(letters, step):
    # d = 1 clears the seeds of these words, and the first step divides by 2!
    with pytest.raises(IntegerExactnessError, match=f"^{step}: 1 not divisible by 2$"):
        coeff_alg2(WordSpec.from_letters(letters), common_denominator=1)


class TestAlg2Walk:
    def test_every_word_once(self):
        for n in range(1, 10):
            d = capital_denominator(n)
            values = _alg2_words(n, d)
            assert sorted(values) == ["".join(w) for w in itertools.product("AB", repeat=n)]
            for letters, c in values.items():
                assert c == coeff_alg2(WordSpec.from_letters(letters), common_denominator=d)

    def test_sampled_degree_twelve(self):
        d = capital_denominator(12)
        values = _alg2_words(12, d)
        assert len(values) == 2**12
        for letters, c in itertools.islice(sorted(values.items()), 0, None, 61):
            assert c == coeff_alg2(WordSpec.from_letters(letters), common_denominator=d)

    def test_one_column_step_per_tail(self, monkeypatch):
        # the 2^11 - 2 tails of length 1..10; word by word it takes 10 * 2^10
        calls = 0
        column = goldberg._alg2_column

        def counting(*args):
            nonlocal calls
            calls += 1
            return column(*args)

        monkeypatch.setattr(goldberg, "_alg2_column", counting)
        assert len(_alg2_words(10, capital_denominator(10))) == 1024
        assert calls == 2**11 - 2

    def test_wrong_scale_trips_the_guard(self):
        with pytest.raises(IntegerExactnessError):
            _alg2_words(3, 7)

    def test_guard(self):
        for n in (0, SERIES_ORACLE_MAX + 1):
            with pytest.raises(ValueError, match=str(SERIES_ORACLE_MAX)):
                _alg2_words(n, 1)
