import math
import random
from fractions import Fraction

import pytest

from bchcoeff.analysis import (
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
from bchcoeff.denominators import capital_denominator, l_exponent, partitions
from bchcoeff.exactmath import PADIC_INFINITY, digit_sum, legendre_vp_factorial, vp
from bchcoeff.goldberg import SERIES_ORACLE_MAX
from bchcoeff.goldberg import WordSpec, bernoulli_binomial_sum, coeff_alg2, coeff_tilde
from bchcoeff.special import bernoulli
from bchcoeff.witness import power_branch_runs


class TestExtractLeading:
    def test_worked_example(self):
        x = Fraction(-2609686559, 116396280)
        lt = extract_leading(x, 7)
        assert lt.e == 1
        assert lt.a_hat == 5
        assert lt.u_hat == Fraction(-384689537, 16628040)

    def test_simple_cases(self):
        lt = extract_leading(Fraction(1, 5), 5)
        assert (lt.e, lt.a_hat, lt.u_hat) == (1, 1, 0)
        lt = extract_leading(Fraction(3, 4), 2)
        assert (lt.e, lt.a_hat, lt.u_hat) == (2, 1, Fraction(1, 2))
        lt = extract_leading(Fraction(7, 2), 7)
        assert (lt.e, lt.a_hat, lt.u_hat) == (0, 0, Fraction(7, 2))
        lt = extract_leading(5, 3)
        assert (lt.e, lt.a_hat, lt.u_hat) == (0, 2, 3)

    def test_zero(self):
        lt = extract_leading(Fraction(0), 3)
        assert (lt.e, lt.a_hat, lt.u_hat) == (0, 0, 0)

    def test_recomposition(self):
        rng = random.Random(99)
        for _ in range(300):
            p = rng.choice([2, 3, 5, 7])
            x = Fraction(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
            lt = extract_leading(x, p)
            assert 0 <= lt.a_hat < p
            assert x == Fraction(lt.a_hat, p**lt.e) + lt.u_hat
            if lt.u_hat:
                assert vp(lt.u_hat, p) > -lt.e
            if lt.e > 0:
                assert lt.a_hat != 0
                assert lt.e == -vp(x, p)

    def test_needs_prime(self):
        with pytest.raises(ValueError):
            extract_leading(Fraction(1, 2), 4)


class TestExpectedA:
    def test_two_block_regime(self):
        assert expected_a(28, 7, 2) == 6
        assert expected_a(27, 7, 2) == 1
        assert expected_a(26, 7, 2) == 6
        assert expected_a(8, 2, 2) == 1
        assert expected_a(10, 3, 2) == 2
        assert expected_a(11, 3, 2) == 1

    def test_power_m_regime(self):
        assert expected_a(15, 2, 4) == 1
        assert expected_a(255, 2, 8) == 1
        assert expected_a(11, 3, 3) == 2
        assert expected_a(13, 3, 3) == 2
        assert expected_a(161, 3, 9) == 2
        # odd p, even n: the coefficient vanishes
        assert expected_a(26, 7, 7) is None

    def test_power_m_plus_one_regime(self):
        assert expected_a(27, 7, 8) == 5
        assert expected_a(26, 7, 8) == 4
        assert expected_a(242, 3, 10) == 2

    def test_matches_actual_leading_parts(self):
        cases = [
            (15, 2, (8, 4, 2, 1)),
            (11, 3, (9, 1, 1)),
            (13, 3, (9, 3, 1)),
            (26, 7, (14, 12)),
            (27, 7, (21, 6)),
        ]
        for n, p, runs in cases:
            lt = extract_leading(coeff_tilde(runs), p)
            assert lt.a_hat == expected_a(n, p, len(runs))

    def test_rejects(self):
        with pytest.raises(ValueError):
            expected_a(9, 3, 5)  # m is neither 2 nor near a power of 3
        with pytest.raises(ValueError):
            expected_a(5, 3, 4)  # m = p + 1 but s_3(5) = 3 = p exactly
        with pytest.raises(ValueError):
            expected_a(161, 3, 2)  # two-block form needs l(n, p) <= 1
        with pytest.raises(ValueError):
            expected_a(0, 3, 2)
        with pytest.raises(ValueError):
            expected_a(5, 4, 2)
        with pytest.raises(ValueError, match="^m must be >= 2, got 1$"):
            expected_a(5, 3, 1)

    def test_power_m_plus_one_at_p_two(self):
        # m = 2^l + 1 blocks is odd, so even n vanishes; odd n leads with
        # residue 1 at depth 1, and at depth 2 the leading term sits at depth
        # 1, above l, so the residue at depth 2 is 0
        checked = 0
        for n in range(1, 200):
            for l in (1, 2):
                m = 2**l + 1
                if l > l_exponent(n, 2) or digit_sum(n, 2) == 2**l:
                    continue
                c = coeff_tilde(power_branch_runs(n, 2, l, m))
                predicted = expected_a(n, 2, m)
                if predicted is None:
                    assert c == 0, (n, l)
                else:
                    lt = extract_leading(c, 2)
                    assert lt.e <= l and (lt.a_hat if lt.e == l else 0) == predicted, (n, l)
                checked += 1
        assert checked == 215

    @pytest.mark.parametrize("m", [18, 19, 28])
    def test_rejects_near_a_multiple_of_a_power(self, m):
        # l(161, 3) = 2, and m or m - 1 is 2 * 9 or 3 * 9: divisible by 3^2
        # but not a power of 3, so neither power regime applies
        with pytest.raises(ValueError, match="outside the covered regimes"):
            expected_a(161, 3, m)


class TestBruteSweeps:
    def test_lcm_small_degrees(self):
        assert brute_lcm_degree(1) == 1
        assert brute_lcm_degree(3) == 12
        assert brute_lcm_degree(5) == 720
        for n in range(1, 9):
            assert brute_lcm_degree(n) == capital_denominator(n)

    def test_max_vp(self):
        # the largest v_p over the degree-n denominators is v_p of their lcm
        assert vp(brute_lcm_degree(2), 2) == 1
        assert vp(brute_lcm_degree(3), 2) == 2
        assert vp(brute_lcm_degree(4), 3) == 1

    def test_guards(self):
        with pytest.raises(ValueError):
            brute_lcm_degree(SERIES_ORACLE_MAX + 1)
        with pytest.raises(ValueError):
            brute_lcm_degree(0)


class TestPartitionType:
    def test_valid(self):
        part = Partition((4, 2, 1))
        assert part.n == 7
        assert part.parts == (4, 2, 1)

    def test_rejects(self):
        with pytest.raises(ValueError):
            Partition(())
        with pytest.raises(ValueError):
            Partition((1, 2))  # increasing
        with pytest.raises(ValueError):
            Partition((2, 0))
        with pytest.raises(ValueError, match="2.5"):
            Partition((2.5, 1))  # not truncated
        with pytest.raises(ValueError, match="'4'"):
            Partition(("4", 2))  # not parsed

    def test_accepts_int_subclasses(self):
        class Part(int):
            pass

        part = Partition((Part(4), Part(2), True))
        assert part.parts == (4, 2, 1)
        assert all(type(x) is int for x in part.parts)


class TestQSet:
    def test_small_sets(self):
        assert tuple(q.parts for q in q_set(6, 2)) == ((4, 2),)
        assert tuple(q.parts for q in q_set(12, 2)) == ((8, 4),)
        assert tuple(q.parts for q in q_set(9, 3)) == ((6, 3), (3, 3, 3))

    def test_reference_value(self):
        assert tuple(q.parts for q in q_set(15, 2)) == ((8, 4, 2, 1),)

    def test_methods_agree(self):
        # reference: the alg2 recurrences on every partition, one shared
        # denominator per degree, kept only where the valuation is extreme
        for n in range(1, 21):
            d = capital_denominator(n)
            coeffs = [(parts, coeff_alg2(WordSpec(True, parts), common_denominator=d))
                      for parts in partitions(n)]
            for p in (2, 3, 5):
                target = legendre_vp_factorial(n, p) + l_exponent(n, p)
                expected = tuple(parts for parts, c in coeffs if vp(c.denominator, p) == target)
                assert tuple(q.parts for q in q_set(n, p)) == expected, (n, p)

    def test_guards(self):
        with pytest.raises(ValueError, match=f"n <= {QSET_DEGREE_MAX}, got"):
            q_set(QSET_DEGREE_MAX + 1, 2)
        with pytest.raises(ValueError):
            q_set(10, 9)


class TestLemma3:
    def test_examples(self):
        assert lemma3_sides((1, 1), 2, 1) == (0, 0, Lemma3Class.ALL_SMALL)
        assert lemma3_sides((3, 1), 2, 1) == (1, 1, Lemma3Class.ONE_LARGE_EXACT)
        assert lemma3_sides((2, 1, 1), 2, 1) == (1, 1, Lemma3Class.ONE_LARGE_WINDOW)
        assert lemma3_sides((4, 1), 2, 1) == (3, 1, Lemma3Class.NONE)
        assert lemma3_sides((1, 1, 1), 2, 1)[2] == Lemma3Class.ALL_SMALL

    def test_exact_pattern_three(self):
        # p = 3, l = 1: one entry 5 = 2p-1, the rest p-1 = 2
        lhs, rhs, cls = lemma3_sides((5, 2, 2), 3, 1)
        assert cls == Lemma3Class.ONE_LARGE_EXACT
        assert lhs == rhs == 1

    def test_bound_holds_on_random_tuples(self):
        rng = random.Random(7)
        for _ in range(400):
            p, l = rng.choice([(2, 1), (2, 2), (3, 1)])
            m = rng.choice([p**l, p**l + 1])
            tup = tuple(rng.randint(1, 4 * p) for _ in range(m))
            lhs, rhs, cls = lemma3_sides(tup, p, l)
            assert rhs is PADIC_INFINITY or lhs >= rhs
            if cls is not Lemma3Class.NONE:
                assert lhs == rhs

    def test_rejects(self):
        with pytest.raises(ValueError):
            lemma3_sides((1, 1, 1, 1), 2, 1)  # length must be 2 or 3
        with pytest.raises(ValueError):
            lemma3_sides((1, 0), 2, 1)
        with pytest.raises(ValueError):
            lemma3_sides((1, 1), 2, 0)


class TestBernoulliSums:
    def test_values(self):
        assert bernoulli_binomial_sum(2, 1) == Fraction(-1, 2)
        assert bernoulli_binomial_sum(4, 1) == 0  # B_3
        assert bernoulli_binomial_sum(5, 2) == Fraction(-1, 15)  # 2*B_4
        assert bernoulli_binomial_sum(4, 2) == Fraction(1, 6)  # 2*B_3 + B_2

    def test_definition(self):
        for n in range(2, 12):
            for k in range(1, n):
                direct = sum(
                    math.comb(k, j) * bernoulli(n - j) for j in range(1, k + 1)
                )
                assert bernoulli_binomial_sum(n, k) == direct

    def test_residue_spot_checks(self):
        assert bernoulli_sum_residue(4, 1, 2) == 0
        assert bernoulli_sum_residue(4, 2, 2) == 1
        assert bernoulli_sum_residue(5, 2, 2) == 0

    def test_residue_predicts_leading_part(self):
        for p in (2, 3, 5, 7):
            for n in range(2, 16):
                for k in range(1, n):
                    s = bernoulli_binomial_sum(n, k)
                    a = bernoulli_sum_residue(n, k, p)
                    lt = extract_leading(s, p)
                    if a:
                        assert (lt.e, lt.a_hat) == (1, (-a) % p)
                    else:
                        assert lt.e == 0

    def test_rejects(self):
        with pytest.raises(ValueError):
            bernoulli_binomial_sum(1, 1)
        with pytest.raises(ValueError):
            bernoulli_binomial_sum(5, 5)
        with pytest.raises(ValueError):
            bernoulli_sum_residue(5, 2, 6)
        for k in (0, 5):
            with pytest.raises(ValueError, match="1 <= k <= n-1"):
                bernoulli_sum_residue(5, k, 2)
