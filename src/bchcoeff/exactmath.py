"""Exact integer and rational arithmetic primitives.

Everything in this package runs at arbitrary precision: rationals are
``fractions.Fraction``, integers are plain Python ints, and nothing ever
rounds.  This module collects the small number-theoretic helpers the rest of
the code leans on: p-adic valuations and digit expansions, Legendre's
factorial valuation, binomial residues via Lucas' digitwise product, a prime
sieve, and modular inverses.

The p-adic valuation of zero is ``PADIC_INFINITY`` (``math.inf``), which
compares greater than every finite valuation.  It is a distinguished value,
not a large sentinel integer.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

__all__ = [
    "PADIC_INFINITY",
    "digit_sum",
    "is_prime",
    "legendre_vp_factorial",
    "lucas_binomial_mod",
    "mod_inverse",
    "padic_digits",
    "primes_upto",
    "rational_from_str",
    "require_prime",
    "vp",
]

PADIC_INFINITY = math.inf

# num or num/den, optional leading minus, no whitespace anywhere
_RATIONAL_FORMAT = re.compile(r"-?\d+(?:/\d+)?")


def rational_from_str(text: str) -> Fraction:
    """Parse ``"num/den"`` (or plain ``"num"``) into a rational in lowest terms.

    The format is strict: decimal digits, an optional leading ``-``, no
    whitespace.  A zero denominator is rejected.

    >>> rational_from_str("-3/6")
    Fraction(-1, 2)
    """
    if not isinstance(text, str) or not _RATIONAL_FORMAT.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    if not den:
        return Fraction(int(num))
    if int(den) == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(int(num), int(den))


def is_prime(n: int) -> bool:
    """Trial-division primality test; ample for the prime sizes used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def require_prime(p: int) -> None:
    """Raise ValueError unless p is prime."""
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"expected a prime, got {p!r}")


def _vp_int(n: int, p: int) -> int:
    # caller guarantees n != 0 and p prime
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(x: Fraction | int, p: int) -> int | float:
    """p-adic valuation of a rational; ``vp(0, p)`` is ``PADIC_INFINITY``.

    Multiplicative: vp(x*y) == vp(x) + vp(y) whenever both are nonzero.
    """
    require_prime(p)
    if x == 0:
        return PADIC_INFINITY
    if isinstance(x, Fraction):
        return _vp_int(x.numerator, p) - _vp_int(x.denominator, p)
    return _vp_int(x, p)


def padic_digits(n: int, p: int) -> tuple[int, ...]:
    """The base-p digits of a nonnegative integer, least significant first.

    Empty for zero; the top digit of a nonzero n is nonzero.
    """
    require_prime(p)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    digits = []
    while n:
        n, a = divmod(n, p)
        digits.append(a)
    return tuple(digits)


def digit_sum(n: int, p: int) -> int:
    """s_p(n), the sum of the base-p digits of n."""
    require_prime(p)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    s = 0
    while n:
        n, a = divmod(n, p)
        s += a
    return s


def legendre_vp_factorial(n: int, p: int) -> int:
    """vp(n!) by Legendre's formula, in the closed form (n - s_p(n)) / (p - 1).

    The division is always exact.
    """
    return (n - digit_sum(n, p)) // (p - 1)


def lucas_binomial_mod(n: int, k: int, p: int) -> int:
    """C(n, k) mod p as the digitwise product of small binomials in base p.

    Zero as soon as some digit of k exceeds the matching digit of n.
    """
    require_prime(p)
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    r = 1
    while n or k:
        n, a = divmod(n, p)
        k, b = divmod(k, p)
        if b > a:
            return 0
        r = r * math.comb(a, b) % p
    return r


def primes_upto(n: int) -> list[int]:
    """Ascending list of primes <= n (plain sieve of Eratosthenes)."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for q in range(2, math.isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(range(q * q, n + 1, q)))
    return list(itertools.compress(range(n + 1), sieve))


def mod_inverse(v: int, p: int) -> int:
    """The inverse of v modulo a prime p, normalized into [1, p-1]."""
    require_prime(p)
    if v % p == 0:
        raise ValueError(f"{v} is not invertible modulo {p}")
    return pow(v, -1, p)
