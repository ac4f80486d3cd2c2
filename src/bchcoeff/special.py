"""Stirling numbers of the second kind and Bernoulli numbers, exactly.

The Eulerian polynomial A_q(z) = sum(A(q, k) z^k, k = 0..q-1) is gamma-positive
(Foata and Schutzenberger):

    A_q(z) = sum(gamma(q, k) z^k (1+z)^(q-1-2k), k = 0..(q-1)//2).

Row q of the table ``_stirling_rows`` holds gamma(q, k) (row 0 is (1,)), built
by

    gamma(q, k) = (k+1) gamma(q-1, k) + 2(q-2k) gamma(q-1, k-1).

The rows carry the product route: with z = -x/(1-x) the block polynomial
P_q(x) = sum((-1)^j j! S(q, j) x^j) is z A_q(z) / (1-z)^q, so ``goldberg``
multiplies gamma rows: a plain convolution of vectors half as long as the
Eulerian rows, a quarter of the multiplies of their full product, on
integers of about half the bits.  ``bernoulli`` reads the last entry of row
n-1, since at z = -1 only the term with q-1-2k = 0 survives:
B_n = n (-1)^(n/2-1) gamma(n-1, n/2-1) / (2^n (2^n-1)) for even n >= 2.  Odd
n >= 3 give 0, as that row has no such term; B_0 = 1 and B_1 = -1/2, the
convention of sum(C(n+1, k) B_k) == 0.

``stirling2`` reads no row: it is the alternating sum
j! S(q, j) = sum((-1)^(j-i) C(j, i) i^q, i = 1..j), with j! divided out under
a check.  Worpitzky's identity j! S(q, j) = sum(A(q, k) C(k, q-j),
k = q-j..q-1) is the independent cross-check (``_worpitzky``); its Eulerian
rows come from ``_eulerian_rows``, a generator that keeps nothing.  An
Eulerian row is palindromic and sums to q!; it is built over its lower half by

    A(q, k) = (k+1) A(q-1, k) + (q-k) A(q-1, k-1)

and then mirrored.

The table is append-only and guarded by a lock, so concurrent callers never
observe a partially built row.  It keeps rows only up to q = 300; past it one
row is kept, rolled forward to the next q asked for.  Rows are tuples, shared
with every caller.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache

__all__ = ["bernoulli", "stirling2"]

_lock = threading.Lock()
# row q holds gamma(q, k) for k = 0..(q-1)//2.  The name is older than the
# gamma basis; it stays until perfbench, whose cache check reads it, renames
# it too (ROADMAP item 1)
_stirling_rows: list[tuple[int, ...]] = [(1,)]
# the table stops here: a gamma row holds about q^2 log2(q) / 2 bits, so a
# table up to one block at the coefficient guard (q = 1100) would pin about
# 210 MiB for the life of the process; the TABLE2 rows and every suite at its
# default bound stay below
_STIRLING_SHARED_MAX = 300
# (q, row) for the one q past the cap last asked for, set after row 300 is built
_far: tuple[int, tuple[int, ...]] | None = None


# one Fraction per index asked for; B_1100 is about 1 KiB
@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """The n-th Bernoulli number; bernoulli(1) == Fraction(-1, 2).

    Odd indices >= 3 are exactly zero and read no row.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n < 2:
        return Fraction(1) if n == 0 else Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    middle = _stirling_row(n - 1)[-1]
    return Fraction(n * (middle if n % 4 == 2 else -middle), (1 << n) * ((1 << n) - 1))


def stirling2(q: int, j: int) -> int:
    """S(q, j): the number of partitions of a q-element set into j blocks.

    Defined here for q, j >= 1; zero when j > q.  The alternating sum
    (1/j!) * sum((-1)^(j-i) C(j,i) i^q); the division by j! must be exact and
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


def _worpitzky(row: tuple[int, ...], j: int) -> int:
    """S(q, j) for 1 <= j <= q off the Eulerian row q = len(row) >= 1, by
    Worpitzky's identity; the division by j! must be exact and is checked."""
    q = len(row)
    total = sum(row[k] * math.comb(k, q - j) for k in range(q - j, q))
    quotient, rem = divmod(total, math.factorial(j))
    if rem:
        raise ArithmeticError(f"Worpitzky sum for S({q},{j}) not divisible by {j}!")
    return quotient


def _eulerian_rows():
    """A(q, k) for k = 0..q-1, q = 0, 1, 2, ... (row 0 is (1,)); each row is
    built from the one before, the lower half by the recurrence, then its
    mirror."""
    row, q = (1,), 0
    while True:
        yield row
        q += 1
        half = [1] + [(k + 1) * a + (q - k) * b
                      for k, a, b in zip(range(1, (q + 1) // 2), row[1:], row)]
        row = tuple(half + half[:q - len(half)][::-1])


def _next_gamma_row(prev: tuple[int, ...], q: int) -> tuple[int, ...]:
    """Row q of the gamma table from row q-1."""
    row = [1]
    row += [(k + 1) * a + 2 * (q - 2 * k) * b
            for k, a, b in zip(range(1, (q + 1) // 2), prev[1:] + (0,), prev)]
    return tuple(row)


def _stirling_row(q: int) -> tuple[int, ...]:
    """gamma(q, k) for k = 0..(q-1)//2 (row 0 is (1,)): the gamma vector of
    the Eulerian polynomial A_q.

    Past the cap the kept row rolls forward when q is at or above it, and
    restarts from the table's last row otherwise, so an ascending scan builds
    each row once.
    """
    global _far
    if q < len(_stirling_rows):
        return _stirling_rows[q]
    with _lock:
        rows = _stirling_rows
        while len(rows) <= min(q, _STIRLING_SHARED_MAX):
            rows.append(_next_gamma_row(rows[-1], len(rows)))
        if q <= _STIRLING_SHARED_MAX:
            return rows[q]
        start, row = _far if _far and _far[0] <= q else (_STIRLING_SHARED_MAX, rows[-1])
        for k in range(start + 1, q + 1):
            row = _next_gamma_row(row, k)
        _far = (q, row)
        return row
