"""Stirling numbers of the second kind and Bernoulli numbers, exactly.

Row q of the one table holds the signed Stirling numbers the product route
multiplies, a(q, j) = (-1)^j j! S(q, j) for j = 0..q: the coefficients of the
block polynomial P_q(x), lowest power first.  The triangular recurrence
S(q, j) = j*S(q-1, j) + S(q-1, j-1) becomes

    a(q, j) = j * (a(q-1, j) - a(q-1, j-1)),  a(q, q) = -q * a(q-1, q-1),

and ``stirling2`` divides (-1)^j j! back out; the alternating binomial sum is
an independent cross-check.  ``bernoulli`` reads row n by the classical
identity B_n = sum(a(n, j) / (j + 1)), one integer sum over lcm(1..n+1); it
gives bernoulli(1) == -1/2, the convention of sum(C(n+1, k) B_k) == 0.

The table is append-only and guarded by one lock, so concurrent callers never
observe a partially built row.  It keeps rows only up to q = 300; past it one
row is kept, rolled forward to the next q asked for.  Rows are tuples, shared
with every caller.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache

__all__ = ["bernoulli", "stirling2", "stirling2_from_sum"]

_lock = threading.Lock()
_stirling_rows: list[tuple[int, ...]] = [(1,)]  # row q holds a(q, j) for j = 0..q
# the table stops here: row q holds about q^2 log2(q) bits, so a table up to one
# block at the coefficient guard (q = 1100) would pin 465 MiB for the life of
# the process; the TABLE2 rows and every suite at its default bound stay below
_STIRLING_SHARED_MAX = 300
_stirling_far: tuple[int, tuple[int, ...]] | None = None  # (q, row) for one q past the table


# one Fraction per index asked for; B_1100 is about 1 KiB
@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """The n-th Bernoulli number; bernoulli(1) == Fraction(-1, 2).

    Odd indices >= 3 come out exactly zero from the sum, they are not
    special-cased.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    ell = math.lcm(*range(1, n + 2))
    return Fraction(sum(a * (ell // (j + 1)) for j, a in enumerate(_stirling_row(n))), ell)


def stirling2(q: int, j: int) -> int:
    """S(q, j): the number of partitions of a q-element set into j blocks.

    Defined here for q, j >= 1; zero when j > q.  Read off row q of the table
    as (-1)^j a(q, j) / j!; the division must be exact and is checked.
    """
    if q < 1 or j < 1:
        raise ValueError(f"q and j must be >= 1, got q={q}, j={j}")
    if j > q:
        return 0
    quotient, rem = divmod(_stirling_row(q)[j], math.factorial(j))
    if rem:
        raise ArithmeticError(f"a({q},{j}) not divisible by {j}!")
    return -quotient if j % 2 else quotient


def _next_stirling_row(prev: tuple[int, ...]) -> tuple[int, ...]:
    q = len(prev)
    row = [0] * (q + 1)
    for j in range(1, q):
        row[j] = j * (prev[j] - prev[j - 1])
    row[q] = -q * prev[q - 1]
    return tuple(row)


def _stirling_row(q: int) -> tuple[int, ...]:
    """a(q, j) = (-1)^j j! S(q, j) for j = 0..q: the block polynomial P_q.

    Past the table the kept row rolls forward when q is at or above it, and
    restarts from the table's last row otherwise, so an ascending scan builds
    each row once.
    """
    global _stirling_far
    if q < len(_stirling_rows):
        return _stirling_rows[q]
    with _lock:
        while len(_stirling_rows) <= min(q, _STIRLING_SHARED_MAX):
            _stirling_rows.append(_next_stirling_row(_stirling_rows[-1]))
        if q <= _STIRLING_SHARED_MAX:
            return _stirling_rows[q]
        if _stirling_far is None or _stirling_far[0] > q:
            _stirling_far = (_STIRLING_SHARED_MAX, _stirling_rows[-1])
        start, row = _stirling_far
        for _ in range(start, q):
            row = _next_stirling_row(row)
        _stirling_far = (q, row)
        return row


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
