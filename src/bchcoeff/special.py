"""Stirling numbers of the second kind and Bernoulli numbers, exactly.

Row q of the one table holds the Eulerian numbers A(q, k) for k = 0..q-1,
the coefficients of the Eulerian polynomial A_q(z), lowest power first (row
0 is A_0 = 1).  They carry the product route: with z = -x/(1-x),

    P_q(x) = sum((-1)^j j! S(q, j) x^j) = z A_q(z) / (1-z)^q,

so ``goldberg`` multiplies Eulerian rows instead of Stirling rows.  A row is
palindromic, A(q, k) == A(q, q-1-k), and sums to q!; it is built over its
lower half by

    A(q, k) = (k+1) A(q-1, k) + (q-k) A(q-1, k-1)

and then mirrored.  ``stirling2`` reads S(q, j) back by Worpitzky's identity
j! S(q, j) = sum(A(q, k) C(k, q-j) for k = q-j..q-1), dividing j! out with a
check; the alternating binomial sum is an independent cross-check.
``bernoulli`` reads row n-1 by B_n = n sum((-1)^k A(n-1, k)) / (2^n (2^n-1))
for n >= 2 (the alternating sum vanishes for odd n >= 3); B_0 = 1 and
B_1 = -1/2, the convention of sum(C(n+1, k) B_k) == 0.

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
# row q holds A(q, k) for k = 0..q-1.  The name is older than the Eulerian
# basis; it stays until perfbench, whose cache check reads it, renames it too
# (ROADMAP item 1)
_stirling_rows: list[tuple[int, ...]] = [(1,)]
# the table stops here: row q holds about q^2 log2(q) bits, so a table up to one
# block at the coefficient guard (q = 1100) would pin 421 MiB for the life
# of the process; the TABLE2 rows and every suite at its default bound stay below
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
    if n < 2:
        return Fraction(1) if n == 0 else Fraction(-1, 2)
    row = _stirling_row(n - 1)
    alternating = sum(row[::2]) - sum(row[1::2])
    return Fraction(n * alternating, (1 << n) * ((1 << n) - 1))


def stirling2(q: int, j: int) -> int:
    """S(q, j): the number of partitions of a q-element set into j blocks.

    Defined here for q, j >= 1; zero when j > q.  Read off row q of the table
    by Worpitzky's identity; the division by j! must be exact and is checked.
    """
    if q < 1 or j < 1:
        raise ValueError(f"q and j must be >= 1, got q={q}, j={j}")
    if j > q:
        return 0
    row = _stirling_row(q)
    total = sum(row[k] * math.comb(k, q - j) for k in range(q - j, q))
    quotient, rem = divmod(total, math.factorial(j))
    if rem:
        raise ArithmeticError(f"Worpitzky sum for S({q},{j}) not divisible by {j}!")
    return quotient


def _next_stirling_row(prev: tuple[int, ...], q: int) -> tuple[int, ...]:
    """Row q from row q-1: the lower half by the recurrence, then its mirror."""
    half = [1]
    half += [(k + 1) * a + (q - k) * b
             for k, a, b in zip(range(1, (q + 1) // 2), prev[1:], prev)]
    return tuple(half + half[:q - len(half)][::-1])


def _stirling_row(q: int) -> tuple[int, ...]:
    """A(q, k) for k = 0..q-1 (row 0 is (1,)): the Eulerian polynomial A_q.

    Past the table the kept row rolls forward when q is at or above it, and
    restarts from the table's last row otherwise, so an ascending scan builds
    each row once.
    """
    global _stirling_far
    if q < len(_stirling_rows):
        return _stirling_rows[q]
    with _lock:
        while len(_stirling_rows) <= min(q, _STIRLING_SHARED_MAX):
            _stirling_rows.append(_next_stirling_row(_stirling_rows[-1], len(_stirling_rows)))
        if q <= _STIRLING_SHARED_MAX:
            return _stirling_rows[q]
        if _stirling_far is None or _stirling_far[0] > q:
            _stirling_far = (_STIRLING_SHARED_MAX, _stirling_rows[-1])
        start, row = _stirling_far
        for k in range(start + 1, q + 1):
            row = _next_stirling_row(row, k)
        _stirling_far = (q, row)
        return row


def stirling2_from_sum(q: int, j: int) -> int:
    """S(q, j) from the alternating sum (1/j!) * sum((-1)^(j-i) C(j,i) i^q).

    Independent of Worpitzky's route; the division by j! must be exact and
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
