"""Words whose coefficient denominator is as p-divisible as degree n allows.

For each prime p and degree n the extreme valuation is v_p(n!) + l(n, p),
and some word always attains it.  The construction branches on l = l(n, p):

* l == 0, n < p: a one- or two-block word chosen by parity does it.
* l == 0, n >= p: A^(n-k) B^k with k = p^(r-1) (p-1) cut from the top digit
  position r of n, so that v_p(C(n, k)) == 1.
* l == 1: A^(n-k) B^k with k picked greedily inside the digit expansion of n,
  so that v_p(C(n, k)) == 0 and (p-1) | k.
* l >= 2: a word of m = p^l blocks (or p^l + 1 when the vanishing parity rule
  would kill the p^l choice) whose runs past the first are powers of p taken
  from the digit expansion of n.

The resulting word is always A-first.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .denominators import l_exponent
from .exactmath import digit_sum, padic_digits, require_prime
from .goldberg import WordSpec

__all__ = [
    "WitnessBranch",
    "WitnessResult",
    "lemma1_k",
    "lemma2_k",
    "power_branch_runs",
    "witness_runs",
]


class WitnessBranch(Enum):
    SMALL_N = "small-n"
    LEMMA1 = "lemma1"
    LEMMA2 = "lemma2"
    POWER_M = "power-m"
    POWER_M_PLUS_1 = "power-m-plus-1"


class WitnessResult(namedtuple("WitnessResult", "n p l m runs branch")):
    """The constructed word plus everything the construction branched on.

    n, p, l, m: int; runs: tuple[int, ...]; branch: WitnessBranch.
    """

    __slots__ = ()

    @property
    def word(self) -> WordSpec:
        return WordSpec(True, self.runs)


def lemma1_k(n: int, p: int) -> int:
    """k = p^(r-1) * (p-1), r the top base-p digit position of n.

    Gives v_p(C(n, k)) == 1.  Needs n >= p, and the digit below the top one
    must be < p-1 (automatic when s_p(n) < p).
    """
    require_prime(p)
    if n < p:
        raise ValueError(f"needs n >= p, got n={n}, p={p}")
    digits = padic_digits(n, p)
    r = len(digits) - 1
    if digits[r - 1] >= p - 1:
        raise ValueError(
            f"digit condition violated: digit {r - 1} of {n} in base {p} "
            f"is {digits[r - 1]}, must be < {p - 1}"
        )
    return p ** (r - 1) * (p - 1)


def lemma2_k(n: int, p: int) -> int:
    """Greedy digitwise k below n with digit sum exactly p-1.

    Gives v_p(C(n, k)) == 0 with (p-1) | k.  Needs s_p(n) >= p.
    """
    require_prime(p)
    digits = padic_digits(n, p)
    if sum(digits) < p:
        raise ValueError(f"needs s_p(n) >= p; s_{p}({n}) = {sum(digits)}")
    budget = p - 1
    k = 0
    power = 1
    for a in digits:
        if not budget:
            break
        b = min(budget, a)
        k += b * power
        budget -= b
        power *= p
    return k


def power_branch_runs(n: int, p: int, l: int, m: int) -> tuple[int, ...]:
    """Runs for the many-block construction at an explicit block count m.

    Flatten the base-p expansion of n into the ascending list (b_1, ..., b_s)
    of powers, one copy per digit unit (s = s_p(n)); the word takes
    q_1 = b_m + ... + b_s and q_2, ..., q_m = b_(m-1), ..., b_1.  m must be
    p**l or p**l + 1; the latter additionally needs s_p(n) != p**l.
    """
    require_prime(p)
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if m not in (p**l, p**l + 1):
        raise ValueError(f"m must be {p ** l} or {p ** l + 1}, got {m}")
    digits = padic_digits(n, p)
    s = sum(digits)
    if s < p**l:
        raise ValueError(f"needs s_p(n) >= p**l = {p ** l}; s_{p}({n}) = {s}")
    if m == p**l + 1 and s == p**l:
        raise ValueError(f"m = p**l + 1 needs s_p(n) != p**l (both are {s})")
    powers = []
    value = 1
    for a in digits:
        powers.extend([value] * a)
        value *= p
    runs = (sum(powers[m - 1 :]), *reversed(powers[: m - 1]))
    if runs[0] < p:
        raise ArithmeticError(
            f"power_branch_runs({n}, {p}, {l}, {m}): first run {runs[0]} is below p"
        )
    if sum(digit_sum(q, p) for q in runs) != s:
        raise ArithmeticError(
            f"power_branch_runs({n}, {p}, {l}, {m}): digit sums of runs {runs} "
            f"do not add up to {s}"
        )
    return runs


def witness_runs(n: int, p: int) -> WitnessResult:
    """Construct the extreme-denominator word for degree n at prime p."""
    require_prime(p)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    l = l_exponent(n, p)
    if l == 0:
        if n < p:
            if n == 1:
                runs: tuple[int, ...] = (1,)
            elif n == 2 or n % 2 == 1:
                runs = (n - 1, 1)
            else:
                runs = (n - 2, 2)
            return WitnessResult(n, p, l, len(runs), runs, WitnessBranch.SMALL_N)
        k = lemma1_k(n, p)
        return WitnessResult(n, p, l, 2, (n - k, k), WitnessBranch.LEMMA1)
    if l == 1:
        k = lemma2_k(n, p)
        return WitnessResult(n, p, l, 2, (n - k, k), WitnessBranch.LEMMA2)
    if p == 2 or n % 2 == 1:
        m = p**l
        branch = WitnessBranch.POWER_M
    else:
        m = p**l + 1
        branch = WitnessBranch.POWER_M_PLUS_1
    return WitnessResult(n, p, l, m, power_branch_runs(n, p, l, m), branch)
