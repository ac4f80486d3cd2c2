"""Smallest common denominators of the graded pieces of log(e^A e^B).

The degree-n coefficients, put over one denominator, need exactly

    D_n = n! * d_n,      d_n = prod(p ** l(n, p) for primes p < n),

where l(n, p) is the largest t with p**t <= s_p(n) (the base-p digit sum).
The same number is the lcm of k * j_1! * ... * j_k! over all partitions
(j_1, ..., j_k) of n; ``partition_lcm`` computes that form by full
enumeration and serves as an independent check on the product formula.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterator

from .exactmath import digit_sum, primes_upto, require_prime

__all__ = [
    "DenominatorRecord",
    "PARTITION_LCM_MAX",
    "capital_denominator",
    "d_n",
    "denominator_record",
    "l_exponent",
    "min_degree_with_l",
    "partition_lcm",
    "partitions",
]

# full partition enumeration stays desk-scale (p(40) = 37338 partitions)
PARTITION_LCM_MAX = 40


def l_exponent(n: int, p: int) -> int:
    """The largest t with p**t <= s_p(n); zero whenever s_p(n) < p."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    s = digit_sum(n, p)
    t = 0
    power = p
    while power <= s:
        t += 1
        power *= p
    return t


class DenominatorRecord(namedtuple("DenominatorRecord", "n dn capital factorization")):
    """d_n and D_n together with the prime factorization of d_n.

    n, dn, capital: int; factorization: tuple[tuple[int, int], ...], the
    (prime, exponent) pairs in ascending order.
    """

    __slots__ = ()


def denominator_record(n: int) -> DenominatorRecord:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    factors = []
    dn = 1
    for p in primes_upto(n - 1):
        e = l_exponent(n, p)
        if e:
            factors.append((p, e))
            dn *= p**e
    return DenominatorRecord(n, dn, math.factorial(n) * dn, tuple(factors))


def d_n(n: int) -> int:
    """The factorial-free part of the common denominator in degree n."""
    return denominator_record(n).dn


def capital_denominator(n: int) -> int:
    """D_n = n! * d_n, the smallest common denominator in degree n."""
    return denominator_record(n).capital


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n as weakly decreasing tuples, reverse-lexicographic.

    Knuth's Algorithm P (TAOCP 7.2.1.4): a[1..m] is the partition and q
    indexes its last part above 1, so a step never walks over the trailing
    1s.  Decrement a[q] and refill greedily after it; a 2 at a[q] just
    splits into 1 + 1.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        yield ()
        return
    a = [0] * (n + 1)  # a[0] = 0 stops q at 0 once every part is 1
    m = 1
    rest = n
    while True:
        a[m] = rest
        q = m - (rest == 1)
        while True:
            yield tuple(a[1:m + 1])
            if a[q] != 2:
                break
            a[q] = 1
            q -= 1
            m += 1
            a[m] = 1
        if q == 0:
            return
        x = a[q] - 1
        a[q] = x
        rest = m - q + 1
        m = q + 1
        while rest > x:
            a[m] = x
            m += 1
            rest -= x


def partition_lcm(n: int) -> int:
    """lcm of k * j_1! * ... * j_k! over all partitions of n.

    Equal to capital_denominator(n); computed independently of it.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > PARTITION_LCM_MAX:
        raise ValueError(
            f"partition enumeration guard: n <= {PARTITION_LCM_MAX}, got {n}"
        )
    out = 1
    for parts in partitions(n):
        value = len(parts)
        for j in parts:
            value *= math.factorial(j)
        out = math.lcm(out, value)
    return out


def min_degree_with_l(p: int, l: int) -> int:
    """The smallest degree n whose denominator carries p to the power l >= 2.

    Closed form 2 * p**x - 1 with x = (p**l - 1) / (p - 1): the base-p digits
    are one 1 on top of x (p-1)s, hitting digit sum p**l as early as possible.
    """
    require_prime(p)
    if l < 2:
        raise ValueError(f"l must be >= 2, got {l}")
    x = (p**l - 1) // (p - 1)
    return 2 * p**x - 1

