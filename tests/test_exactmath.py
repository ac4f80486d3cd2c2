import math
import random
from fractions import Fraction

import pytest

from bchcoeff.exactmath import (
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


class TestRationalStrings:
    def test_parse(self):
        assert rational_from_str("-3/6") == Fraction(-1, 2)
        assert rational_from_str("7") == 7
        assert rational_from_str("0") == 0
        assert rational_from_str("-0/5") == 0

    @pytest.mark.parametrize("bad", ["", "3/0", " 1/2", "1/2 ", "1.5", "+3", "1/-2", "a/b", "1 / 2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            rational_from_str(bad)

    def test_round_trip(self):
        for x in (Fraction(3, 7), Fraction(-22, 9), Fraction(0), Fraction(17)):
            assert rational_from_str(str(x)) == x


def trial_division(n: int) -> bool:
    """The reference: n >= 2 with no divisor in 2..isqrt(n)."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


# psi_12, the least strong pseudoprime to every prime base up to 37
PSI_12 = 318665857834031151167461


class TestPrimes:
    def test_is_prime_small(self):
        assert [n for n in range(-3, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert not is_prime(25)
        assert is_prime(7919)
        assert not is_prime(7917)

    def test_against_the_sieve(self):
        # past 2**18 is_prime leaves trial division for the strong test
        bound = (1 << 18) + (1 << 16)
        assert [n for n in range(bound + 1) if is_prime(n)] == primes_upto(bound)
        assert [n for n in range(3000) if trial_division(n)] == primes_upto(2999)

    def test_against_trial_division(self):
        rng = random.Random(61)
        for n in [rng.randrange(1 << 18, 10**10) for _ in range(300)] + [2**31 - 1, 2**31 + 11]:
            assert is_prime(n) == trial_division(n), n

    @pytest.mark.parametrize("n, factors", [
        # strong pseudoprime to the bases 2, 3, 5, 7 (caught from base 11 on)
        (3215031751, (151, 751, 28351)),
        # psi_9: strong pseudoprime to every prime base up to 31
        (3825123056546413051, (149491, 747451, 34233211)),
    ])
    def test_strong_pseudoprimes(self, n, factors):
        assert math.prod(factors) == n and all(map(trial_division, factors))
        assert not is_prime(n)

    def test_carmichael_numbers(self):
        # Korselt: squarefree, and p - 1 divides n - 1 for each prime p | n.
        # Chernick's (6k+1)(12k+1)(18k+1) is one whenever all three are prime.
        chernick = [(6 * k + 1, 12 * k + 1, 18 * k + 1) for k in range(1, 3000)]
        cases = [(561, (3, 11, 17)), (1105, (5, 13, 17)), (8911, (7, 19, 67))]
        cases += [(math.prod(f), f) for f in chernick if all(map(trial_division, f))]
        assert len(cases) > 20 and cases[-1][0] > 10**12
        for n, factors in cases:
            assert math.prod(factors) == n
            assert all((n - 1) % (f - 1) == 0 for f in factors)
            assert not is_prime(n), n

    def test_mersenne_numbers(self):
        # Lucas-Lehmer decides 2^q - 1 for an odd prime q: every one below
        # psi_12; the composite ones are strong pseudoprimes to base 2
        def lucas_lehmer(q):
            m, s = 2**q - 1, 4
            for _ in range(q - 2):
                s = (s * s - 2) % m
            return s == 0

        exponents = primes_upto(78)[1:]
        assert 2**exponents[-1] - 1 < PSI_12 < 2**79 - 1
        assert [q for q in exponents if lucas_lehmer(q)] == [3, 5, 7, 13, 17, 19, 31, 61]
        for q in exponents:
            assert is_prime(2**q - 1) == lucas_lehmer(q), q

    def test_limit(self):
        for n in (PSI_12, PSI_12 + 2, 2**89 - 1):
            with pytest.raises(ValueError, match=f"p < {PSI_12}, got {n}$"):
                require_prime(n)

    def test_require_prime(self):
        require_prime(13)
        require_prime(2**61 - 1)
        with pytest.raises(ValueError):
            require_prime(12)
        with pytest.raises(ValueError):
            require_prime(1)
        with pytest.raises(ValueError, match="expected a prime"):
            require_prime(2**61 + 1)

    def test_primes_upto(self):
        assert primes_upto(1) == []
        assert primes_upto(2) == [2]
        assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        for bound in (0, 3, 4, 49, 100, 121, 500, 2000):
            assert primes_upto(bound) == [n for n in range(bound + 1) if is_prime(n)]


class TestValuation:
    def test_zero_is_infinite(self):
        assert vp(0, 5) == PADIC_INFINITY
        assert vp(Fraction(0), 2) == PADIC_INFINITY
        assert PADIC_INFINITY > 10**9

    def test_examples(self):
        assert vp(8, 2) == 3
        assert vp(Fraction(8, 3), 2) == 3
        assert vp(Fraction(3, 8), 2) == -3
        assert vp(-12, 2) == 2
        assert vp(7, 5) == 0

    def test_needs_prime(self):
        with pytest.raises(ValueError):
            vp(5, 4)

    def test_multiplicative(self):
        rng = random.Random(20260822)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7, 11])
            x = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 400))
            y = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 400))
            assert vp(x * y, p) == vp(x, p) + vp(y, p)


def _digits_value(digits: tuple[int, ...], p: int) -> int:
    return sum(a * p**i for i, a in enumerate(digits))


class TestDigits:
    def test_expansion(self):
        d = padic_digits(26, 7)
        assert d == (5, 3)
        assert _digits_value(d, 7) == 26
        assert sum(d) == 8

    def test_zero(self):
        assert padic_digits(0, 3) == ()
        assert _digits_value(padic_digits(0, 3), 3) == 0

    def test_round_trip(self):
        for n in range(0, 300):
            for p in (2, 3, 7):
                d = padic_digits(n, p)
                assert _digits_value(d, p) == n
                assert all(0 <= a < p for a in d)
                assert not d or d[-1] != 0

    def test_validation(self):
        with pytest.raises(ValueError):
            padic_digits(-1, 2)
        with pytest.raises(ValueError):
            padic_digits(26, 4)  # base not prime

    def test_digit_sum(self):
        assert digit_sum(26, 7) == 8
        assert digit_sum(255, 2) == 8
        assert digit_sum(161, 3) == 9
        for n in range(200):
            assert digit_sum(n, 5) == sum(padic_digits(n, 5))
        with pytest.raises(ValueError, match="^n must be nonnegative, got -1$"):
            digit_sum(-1, 2)


class TestLegendre:
    def test_examples(self):
        assert legendre_vp_factorial(26, 7) == 3
        assert legendre_vp_factorial(255, 2) == 247
        assert legendre_vp_factorial(5, 2) == 3

    def test_against_floor_sums(self):
        for p in primes_upto(97):
            for n in range(0, 5000, 37):
                direct = 0
                power = p
                while power <= n:
                    direct += n // power
                    power *= p
                assert legendre_vp_factorial(n, p) == direct

    def test_against_factorial_valuation(self):
        for n in range(1, 60):
            for p in (2, 3, 5, 7):
                assert legendre_vp_factorial(n, p) == vp(math.factorial(n), p)


class TestBinomials:
    def test_lucas_example(self):
        # digits of 26 in base 7 are (5, 3), of 12 are (5, 1):
        # C(3,1) * C(5,5) = 3
        assert lucas_binomial_mod(26, 12, 7) == 3

    def test_lucas_against_comb(self):
        for p in (2, 3, 5, 7, 11, 13):
            for n in range(0, 150):
                for k in range(0, n + 1):
                    assert lucas_binomial_mod(n, k, p) == math.comb(n, k) % p

    def test_lucas_rejects(self):
        with pytest.raises(ValueError):
            lucas_binomial_mod(5, 2, 6)
        with pytest.raises(ValueError):
            lucas_binomial_mod(-1, 0, 2)


class TestModular:
    def test_mod_inverse(self):
        assert mod_inverse(3, 7) == 5
        for p in (2, 3, 5, 7, 11):
            for v in range(1, p):
                assert v * mod_inverse(v, p) % p == 1
        assert mod_inverse(-3, 7) == mod_inverse(4, 7)

    def test_mod_inverse_rejects(self):
        with pytest.raises(ValueError):
            mod_inverse(14, 7)
        with pytest.raises(ValueError):
            mod_inverse(3, 8)
