"""Bernoulli numbers and Stirling numbers of the second kind, exactly.

Bernoulli numbers use the convention bernoulli(1) == -1/2, pinned by the
recurrence sum(C(n+1, k) * B_k for k in 0..n) == 0.  Stirling numbers come
from the triangular recurrence S(q, j) = j*S(q-1, j) + S(q-1, j-1), with the
alternating binomial sum available as an independent cross-check.

Both families are memoized into append-only tables guarded by one lock, so
concurrent callers never observe a partially built entry.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

__all__ = ["bernoulli", "stirling2", "stirling2_from_sum"]

_lock = threading.Lock()
_bernoulli: list[Fraction] = [Fraction(1)]
_stirling_rows: list[list[int]] = [[1]]  # row q holds S(q, j) for j = 0..q


def bernoulli(n: int) -> Fraction:
    """The n-th Bernoulli number; bernoulli(1) == Fraction(-1, 2).

    Odd indices >= 3 come out exactly zero from the recurrence, they are not
    special-cased.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n >= len(_bernoulli):
        with _lock:
            while len(_bernoulli) <= n:
                m = len(_bernoulli)
                acc = sum(math.comb(m + 1, k) * _bernoulli[k] for k in range(m))
                _bernoulli.append(-acc / (m + 1))
    return _bernoulli[n]


def stirling2(q: int, j: int) -> int:
    """S(q, j): the number of partitions of a q-element set into j blocks.

    Defined here for q, j >= 1; zero when j > q.
    """
    if q < 1 or j < 1:
        raise ValueError(f"q and j must be >= 1, got q={q}, j={j}")
    if j > q:
        return 0
    if q >= len(_stirling_rows):
        with _lock:
            while len(_stirling_rows) <= q:
                prev = _stirling_rows[-1]
                qq = len(_stirling_rows)
                row = [0] * (qq + 1)
                for jj in range(1, qq):
                    row[jj] = jj * prev[jj] + prev[jj - 1]
                row[qq] = 1
                _stirling_rows.append(row)
    return _stirling_rows[q][j]


def stirling2_from_sum(q: int, j: int) -> int:
    """S(q, j) from the alternating sum (1/j!) * sum((-1)^(j-i) C(j,i) i^q).

    Independent of the recurrence route; the division by j! must be exact and
    is checked.
    """
    if q < 1 or j < 1:
        raise ValueError(f"q and j must be >= 1, got q={q}, j={j}")
    if j > q:
        return 0
    total = 0
    for i in range(1, j + 1):
        term = math.comb(j, i) * i**q
        total += term if (j - i) % 2 == 0 else -term
    quotient, rem = divmod(total, math.factorial(j))
    if rem:
        raise ArithmeticError(f"alternating sum for S({q},{j}) not divisible by {j}!")
    return quotient
