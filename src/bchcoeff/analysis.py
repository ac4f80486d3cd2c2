"""Analysis of coefficient denominators: leading p-parts, predicted residues,
exhaustive degree sweeps, and the factorial-valuation classifier.

``extract_leading`` splits a rational into a_hat / p**e plus a strictly
smaller tail; ``expected_a`` predicts a_hat for word shapes with a closed
form.  The brute-force sweeps (``brute_lcm_degree``, ``q_set``) stay
exhaustive by design and carry explicit size guards.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from fractions import Fraction

from .denominators import l_exponent
from .exactmath import (
    _integer,
    digit_sum,
    legendre_vp_factorial,
    mod_inverse,
    require_prime,
    vp,
)
from .goldberg import WordSpec, _partition_walk, series_oracle

__all__ = [
    "LeadingTerm",
    "Lemma3Class",
    "Partition",
    "QSET_DEGREE_MAX",
    "bernoulli_sum_residue",
    "brute_lcm_degree",
    "expected_a",
    "extract_leading",
    "lemma3_sides",
    "q_set",
]

# q_set walks every partition of n (p(48) = 147273); at the limit each of
# p = 2, 3, 5, 7 takes about 0.8-0.9 s of CPU on one core, Python 3.11
QSET_DEGREE_MAX = 48


class LeadingTerm(namedtuple("LeadingTerm", "e a_hat u_hat")):
    """x = a_hat / p**e + u_hat with 0 <= a_hat < p and vp(u_hat) > -e
    (e, a_hat: int; u_hat: Fraction)."""

    __slots__ = ()


def extract_leading(x: Fraction | int, p: int) -> LeadingTerm:
    """Split off the leading p-part of a rational.

    e = max(0, -vp(x)), the valuation of the reduced denominator; a_hat is
    the mod-p residue carried at that depth (0 whenever vp(x) >= 1, and for
    x == 0 the whole triple is zero).
    """
    require_prime(p)
    x = Fraction(x)
    if x == 0:
        return LeadingTerm(0, 0, Fraction(0))
    num, den = x.numerator, x.denominator
    e = vp(den, p)
    a_hat = num % p * mod_inverse(den // p**e, p) % p
    u_hat = x - Fraction(a_hat, p**e)
    if u_hat and vp(u_hat, p) <= -e:
        raise ArithmeticError(
            f"extract_leading({x}, {p}): tail {u_hat} does not lie above depth {e}"
        )
    return LeadingTerm(e, a_hat, u_hat)


def expected_a(n: int, p: int, m: int) -> int | None:
    """Predicted leading residue for an extreme word of degree n with m blocks.

    Covered regimes:

    * m == 2 with l(n, p) <= 1 and n >= p: residue (-1)^(n+1) mod p.
    * m == p**l, 1 <= l <= l(n, p): 1 for p == 2; 2*((p-1)/2)^n mod p for odd
      p and odd n; for odd p and even n the coefficient vanishes outright
      (returns None).
    * m == p**l + 1, 1 <= l <= l(n, p), s_p(n) != p**l: -((p-1)/2)^(n-1) mod p
      for odd p.  For p == 2 the block count is odd, so even n vanishes
      (None); odd n gives 1 at l == 1 and residue 0 at l >= 2 (meaning the
      leading term sits strictly above depth l).

    Anything else raises ValueError.
    """
    require_prime(p)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    l_cap = l_exponent(n, p)
    if m == 2 and l_cap <= 1 and n >= p:
        return 1 if n % 2 == 1 else (p - 1) % p
    l = vp(m, p)
    if m == p**l and 1 <= l <= l_cap:
        if p == 2:
            return 1
        if n % 2 == 0:
            return None
        return 2 * pow((p - 1) // 2, n, p) % p
    l = vp(m - 1, p)
    if m - 1 == p**l and 1 <= l <= l_cap:
        if digit_sum(n, p) == p**l:
            raise ValueError(
                f"m = p**l + 1 needs s_p(n) != p**l (both are {p ** l})"
            )
        if p == 2:
            if n % 2 == 0:
                return None
            return 1 if l == 1 else 0
        return (-pow((p - 1) // 2, n - 1, p)) % p
    raise ValueError(f"(n={n}, p={p}, m={m}) is outside the covered regimes")


def _denominators_by_degree(bound: int) -> list[list[int]]:
    """The coefficient denominators of every word of length n <= bound, at
    index n, from one oracle build: a degree-n coefficient does not depend on
    where the series is truncated."""
    by_degree: list[list[int]] = [[] for _ in range(bound + 1)]
    for word, coeff in series_oracle(bound).items():
        by_degree[len(word)].append(coeff.denominator)
    return by_degree


def brute_lcm_degree(n: int) -> int:
    """lcm of the coefficient denominators over all 2^n words of degree n.

    The series oracle's own guard, ``SERIES_ORACLE_MAX``, bounds n.
    """
    return math.lcm(*_denominators_by_degree(n)[n])


class Partition(namedtuple("Partition", "parts")):
    """A weakly decreasing tuple of positive parts (parts: tuple[int, ...])."""

    __slots__ = ()

    def __new__(cls, parts) -> "Partition":
        # the run lengths of a word: nonempty positive integers
        parts = WordSpec(True, parts).runs
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        return super().__new__(cls, parts)

    @classmethod
    def _make(cls, iterable) -> "Partition":
        # _replace builds through _make; both go through the checks above
        return cls(*iterable)

    @property
    def n(self) -> int:
        return sum(self.parts)


def q_set(n: int, p: int) -> tuple[Partition, ...]:
    """Every descending partition of n whose A-first word attains the extreme
    denominator valuation v_p(n!) + l(n, p).

    Exhaustive over all partitions of n, in reverse-lexicographic order: the
    walk shares each prefix's polynomial product down the partition tree and
    yields each leaf's coefficient as num / (+-n! q_1! ... q_m!), unreduced.
    That denominator's valuation v is a sum of Legendre values, so with
    e = v - target a leaf attains the target exactly when p^e divides num and
    p^(e+1) does not; when the target is 0 (n < p), p^e dividing num is
    enough.  No coefficient is reduced, and only the hits become partitions.
    """
    require_prime(p)
    if not 1 <= n <= QSET_DEGREE_MAX:
        raise ValueError(f"exhaustive-search guard: 1 <= n <= {QSET_DEGREE_MAX}, got {n}")
    target = legendre_vp_factorial(n, p) + l_exponent(n, p)
    vf = [legendre_vp_factorial(q, p) for q in range(max(n, 3) + 1)]
    # e never exceeds the valuation of n! * n!
    powers = [p**e for e in range(2 * vf[n] + 2)]
    found = []
    for prefix, tails in _partition_walk(n):
        base = vf[n] + sum(vf[q] for q in prefix) - target
        for a, b, r, num in tails:
            e = base + a * vf[3] + b * vf[2]
            # a zero coefficient has num 0 and denominator 1: a hit only at target 0
            if e >= 0 and not num % powers[e] and (not target or num % powers[e + 1]):
                found.append(Partition(prefix + (3,) * a + (2,) * b + (1,) * r))
    return tuple(found)


class Lemma3Class(Enum):
    """Which equality pattern of the factorial-valuation bound a tuple matches."""

    ALL_SMALL = "all-small"            # every entry <= p-1
    ONE_LARGE_EXACT = "one-large-exact"    # length p: one entry 2p-1, rest p-1
    ONE_LARGE_WINDOW = "one-large-window"  # length p+1: one entry in [p, 2p-1], sum in [p^2, p^2+p-1]
    NONE = "none"


def lemma3_sides(j, p: int, l: int):
    """Both sides of v_p(j_1! ... j_m!) >= v_p(floor(sum(j) / p**l)), plus the
    equality classification.

    The tuple length must be p**l or p**l + 1 and all entries positive.  The
    right side is PADIC_INFINITY when the floor is zero (unreachable under
    the length precondition, kept for totality).  Returns (lhs, rhs, class);
    the bound holds always, with equality exactly when class is not NONE.
    """
    require_prime(p)
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    tup = tuple(_integer(x, "each entry") for x in j)
    m = len(tup)
    if m not in (p**l, p**l + 1):
        raise ValueError(f"tuple length must be {p ** l} or {p ** l + 1}, got {m}")
    if any(x < 1 for x in tup):
        raise ValueError(f"entries must be positive: {tup}")
    lhs = sum(legendre_vp_factorial(x, p) for x in tup)
    rhs = vp(sum(tup) // p**l, p)
    if all(x <= p - 1 for x in tup):
        cls = Lemma3Class.ALL_SMALL
    else:
        cls = Lemma3Class.NONE
        big = [x for x in tup if x >= p]
        if l == 1 and len(big) == 1 and big[0] <= 2 * p - 1:
            if m == p and big[0] == 2 * p - 1 and all(
                x == p - 1 for x in tup if x < p
            ):
                cls = Lemma3Class.ONE_LARGE_EXACT
            elif m == p + 1 and p * p <= sum(tup) <= p * p + p - 1:
                cls = Lemma3Class.ONE_LARGE_WINDOW
    return lhs, rhs, cls


def bernoulli_sum_residue(n: int, k: int, p: int) -> int:
    """The residue a with bernoulli_binomial_sum(n, k) == -a/p + (p-integral).

    A Bernoulli number contributes a -1/p part exactly when (p-1) divides its
    index and the index is 1 or even (odd indices >= 3 vanish); a adds up
    C(k, j) over the contributing j.
    """
    require_prime(p)
    if n < 2 or not 1 <= k <= n - 1:
        raise ValueError(f"needs n >= 2 and 1 <= k <= n-1, got n={n}, k={k}")
    a = 0
    for j in range(1, k + 1):
        idx = n - j
        if idx % (p - 1) == 0 and (idx == 1 or idx % 2 == 0):
            a += math.comb(k, j)
    return a % p
