"""Coefficients of H = log(e^A e^B): four independent computation routes.

A word over {A, B} is described by its first letter and the tuple of maximal
run lengths (q_1, ..., q_m); its coefficient in the degree-n piece of H is a
rational with denominator dividing n! * d_n.

Routes, from fastest to most naive:

* ``coeff_tilde`` and ``coeff_goldberg_sum`` -- Goldberg's double sum folded
  into a product of one polynomial per block and a closed-form k-sum: one
  integer over n!, with and without the tilde scale.  With z = -x/(1-x) the
  block polynomial P_q(x) = sum((-1)^j j! S(q, j) x^j) is z A_q(z)/(1-z)^q,
  where A_q is the Eulerian polynomial.  A_q is gamma-positive,
  A_q(z) = sum(g_k z^k (1+z)^(q-1-2k)), and row q of the table in
  ``special`` holds its gamma vector g.  So the m blocks of a degree-n word
  multiply to z^m E(z)/(1-z)^n with E = sum(g_j z^j (1+z)^(D-2j)), D = n-m,
  where g is the plain convolution of the blocks' gamma vectors, and the
  k-sum becomes a symmetric Beta integral over g:

      n! tilde = sum(g_j G_j),  j = 0..D//2,

  with the weights G of ``_k_sum_weights``.  The parts 1 and 2 cost nothing,
  as g_1 = g_2 = (1,), and one block past degree 1 is 0 without a product.
  The default of ``coeff_word``.  ``_partition_walk`` runs the same product
  down the partition tree of one degree for ``analysis.q_set`` and yields
  each partition's numerator over n! q_1! ... q_m! unreduced, so that no
  ``Fraction`` is built per partition.
* ``coeff_alg2`` -- the paper's scaled integer recurrences over a triangular
  table, O(n^3) big-integer work, kept as the independent cross-check: each
  tail's column is the sum of its rests' columns, one per first factor
  A^i B^j, shifted by one power of Y and divided by i! j!.  All
  intermediate values are integers by construction; every division is checked
  and a remainder raises ``IntegerExactnessError``, since a single remainder
  would falsify the scaling claim the whole route rests on.  The verify
  sweeps run it over every word of one degree at once, sharing the columns of
  common tails.
* ``coeff_bernoulli_m2`` -- two-block words A^(n-k) B^k via Bernoulli numbers.
* ``series_oracle`` -- plain expansion of log(e^A e^B) = log(1 + Y) through
  a given degree, as a map over every word: exponential in the degree, so
  guarded at ``SERIES_ORACLE_MAX``.  It is the reference the other routes are
  tested against, and shares no code with them.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from types import MappingProxyType
from typing import Iterator, Mapping

from .denominators import capital_denominator
from .special import _stirling_row, bernoulli

__all__ = [
    "ALG2_DEGREE_MAX",
    "COEFF_DEGREE_MAX",
    "IntegerExactnessError",
    "METHODS",
    "SERIES_ORACLE_MAX",
    "WordSpec",
    "alg2_table",
    "bernoulli_binomial_sum",
    "coeff_alg2",
    "coeff_bernoulli_m2",
    "coeff_goldberg_sum",
    "coeff_tilde",
    "coeff_word",
    "series_oracle",
]

# the oracle materializes every word of length <= N: 2^(N+1) - 2 entries
SERIES_ORACLE_MAX = 16
# one coefficient of the worst shape at each limit takes 10 s of CPU or less on
# one core, Python 3.11: two equal blocks, about 7 s through alg2 at 270 and
# 2 s on the product route at 1100; any two blocks on the Bernoulli route, 0.6 s
ALG2_DEGREE_MAX = 270
COEFF_DEGREE_MAX = 1100

METHODS = ("alg2", "goldberg", "bernoulli", "oracle")


class IntegerExactnessError(ArithmeticError):
    """An integer-only division left a remainder; the scaled table is unsound."""


class WordSpec(namedtuple("WordSpec", "a_first runs")):
    """A word over {A, B}: the letter it starts with (a_first: bool), plus
    maximal run lengths (runs: tuple[int, ...]).

    AABAB is WordSpec(a_first=True, runs=(2, 1, 1, 1)).
    """

    __slots__ = ()

    def __new__(cls, a_first: bool, runs) -> "WordSpec":
        runs = tuple(runs)
        try:
            # a float is not truncated and a string is not parsed
            ints = tuple(map(operator.index, runs))
        except TypeError:
            raise ValueError(f"run lengths must be integers, got {runs}") from None
        if not ints:
            raise ValueError("a word needs at least one run")
        if any(q < 1 for q in ints):
            raise ValueError(f"run lengths must be positive: {ints}")
        return super().__new__(cls, a_first, ints)

    @classmethod
    def _make(cls, iterable) -> "WordSpec":
        # _replace builds through _make; both go through the checks above
        return cls(*iterable)

    @property
    def degree(self) -> int:
        return sum(self.runs)

    def letters(self) -> str:
        out = []
        is_a = self.a_first
        for q in self.runs:
            out.append(("A" if is_a else "B") * q)
            is_a = not is_a
        return "".join(out)

    @classmethod
    def from_letters(cls, text: str) -> "WordSpec":
        if not text or set(text) - {"A", "B"}:
            raise ValueError(f"a word is a nonempty string over A and B, got {text!r}")
        return cls(text[0] == "A", tuple(len(list(g)) for _, g in groupby(text)))


def _alg2_column(cols, fact, tail: str) -> list[int]:
    """Column n = len(tail) of the scaled table, entries k = 0..n, from
    cols[L], the column of the tail's own length-L tail, for L < n.

    Entry k is d times the tail's coefficient in Y^k, where
    Y = e^A e^B - 1 = sum(A^i B^j / (i! j!)), so column 0, the empty tail,
    is [d], the only place the scale d enters.  The tail's first factor is a
    nonempty prefix A^i B^j: A^i for i = 1..a_run, the leading A-run, then
    A^a_run B^j for j = 1..b_run, the B-run after it.  The column sums, over
    these, the rest's column shifted by one power of Y and divided by i! j!,
    the rest possibly the empty tail; one guarded loop divides every entry
    exactly.  A rest of length L fills entries 1..L+1, so entry n, d, is the
    length-(n-1) rest's entry n-1 over 1.  The rests go shortest first, so a
    remainder names the step of the shortest rest that has one.  The column
    depends only on the tail, so words that share a tail share its columns.
    """
    n = len(tail)
    rest = tail.lstrip("A")
    a_run = n - len(rest)
    b_run = len(rest) - len(rest.lstrip("B"))
    col = [0] * (n + 1)
    terms = [(cols[n - i], fact[i], "same-block step") for i in range(1, a_run + 1)]
    terms += [(cols[n - a_run - j], fact[a_run] * fact[j],
               "block-boundary step" if a_run else "same-block step")
              for j in range(1, b_run + 1)]
    for c, f, step in reversed(terms):
        for k, e in enumerate(c, 1):
            if e:
                q, rem = divmod(e, f)
                if rem:
                    raise IntegerExactnessError(f"{step}: {e} not divisible by {f}")
                col[k] += q
    return col


def _log_coeff(col: list[int], d: int) -> Fraction:
    """sum((-1)^(k+1) col[k] / k for k >= 1) / d: a word's coefficient in
    log(1 + Y) from its full-length column."""
    acc = 0
    for k in range(1, len(col)):
        term, rem = divmod(col[k], k)
        if rem:
            raise IntegerExactnessError(f"alternating-sum term: {col[k]} not divisible by {k}")
        acc += term if k % 2 == 1 else -term
    return Fraction(acc, d)


def alg2_table(word: WordSpec, *, common_denominator: int | None = None):
    """The full scaled table behind ``coeff_alg2``, for auditing.

    Returns (cols, d) with d = capital_denominator(degree) unless overridden.
    cols[n] is the column of the word's length-n tail, entries k = 0..n:
    cols[n][k] equals d times the tail's coefficient in the k-th power of
    e^A e^B - 1, so the table is a triangle, cols[0] == [d] is the empty tail
    and cols[n][n] == d for every n.  Every entry is linear in d.
    """
    n_total = word.degree
    if n_total > ALG2_DEGREE_MAX:
        raise ValueError(f"alg2 degree guard: degree <= {ALG2_DEGREE_MAX}, got {n_total}")
    d = capital_denominator(n_total) if common_denominator is None else common_denominator
    letters = word.letters()
    fact = [math.factorial(t) for t in range(n_total + 1)]
    cols = [[d]]
    for i in range(n_total - 1, -1, -1):
        cols.append(_alg2_column(cols, fact, letters[i:]))
    return cols, d


def coeff_alg2(word: WordSpec, *, common_denominator: int | None = None) -> Fraction:
    """Coefficient of ``word`` in H, by integer recurrences over a scaled table.

    ``common_denominator`` replaces the scale d = n! * d_n, the empty tail's
    one entry: a multiple of it gives the same value, anything else trips
    the exactness guard, which is what the tests use it for.  The
    benchmark's replay passes n! * d_n itself, which saves nothing
    measurable.
    """
    cols, d = alg2_table(word, common_denominator=common_denominator)
    return _log_coeff(cols[-1], d)


def _alg2_words(n: int, d: int) -> dict[str, Fraction]:
    """``coeff_alg2`` of every word of degree n over the common denominator
    d, keyed by letters.

    A depth-first walk over tails, prepending one letter per edge: each
    distinct tail's column is computed once, 2^(n+1) - 2 column steps for
    the 2^n words against n 2^n word by word.  It touches every word of the
    degree, so it shares the oracle's guard.
    """
    if not isinstance(n, int) or not 1 <= n <= SERIES_ORACLE_MAX:
        raise ValueError(f"alg2 walk guard: 1 <= degree <= {SERIES_ORACLE_MAX}, got {n}")
    fact = [math.factorial(t) for t in range(n + 1)]
    cols = [[d]]
    out = {}

    def walk(tail):
        for letter in "AB":
            grown = letter + tail
            cols.append(_alg2_column(cols, fact, grown))
            if len(grown) == n:
                out[grown] = _log_coeff(cols[-1], d)
            else:
                walk(grown)
            cols.pop()

    walk("")
    return out


def _tilde_scale(runs: tuple[int, ...]) -> int:
    """(-1)^n * q_1! * ... * q_m!, the factor between c and its tilde form."""
    scale = 1
    for q in runs:
        scale *= math.factorial(q)
    return -scale if sum(runs) % 2 else scale


def _poly_mul(a, b) -> list[int]:
    """The product of two polynomials, such as gamma vectors: a plain
    convolution.  gamma vectors are positive, so no term is skipped."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return out


def _k_sum_weights(n: int, m: int) -> list[int]:
    """The gamma weights G[j], j = 0..(n-m)//2, of the k-sum of m blocks at
    degree n: n! times the tilde form is sum(g_j G[j]) over the gamma vector
    g of the blocks' product.

    Over each total t the k-sum is sum((-1)^k C(h, k) / (t-k) for k = 0..h),
    h = (m-1)//2, the Beta integral (-1)^h int_0^1 x^(t-h-1) (1-x)^h dx.
    Under z = -x/(1-x) the blocks multiply to z^m E(z) / (1-z)^n, with
    E = sum(g_j z^j (1+z)^(D-2j)), D = n-m, and the term of g_j becomes
    (-1)^j x^(m-h-1+j) (1-x)^(h+j) (1-2x)^(D-2j): with v = 1-2x a symmetric
    Beta integral, zero when m and D are both odd, and otherwise

        G[j] = (-1)^(h+m+j) (h+j)! (n//2)! F(r),

    with F(r) = (2r)!/r! and r = D/2-j when D is even, and
    F(r) = -(2r-1)!/(r-1)! and r = (D+1)/2-j when D is odd.  Built by running
    products, with no division.
    """
    h = (m - 1) // 2
    d = n - m
    top = d // 2
    if m % 2 and d % 2:
        return [0] * (top + 1)
    weights = [0] * (top + 1)
    ratio, r = 1, d % 2  # F(r) up to sign, from j = top (r = 0 or 1) down
    for j in range(top, -1, -1):
        weights[j] = ratio
        ratio *= 2 * (2 * r + 1)
        r += 1
    rising = math.factorial(h) * math.factorial(n // 2)  # (h+j)! (n//2)!, from j = 0 up
    flip = h + m + d % 2  # F(r) carries a minus sign when D is odd
    for j in range(top + 1):
        weights[j] *= -rising if (flip + j) % 2 else rising
        rising *= h + j + 1
    return weights


def _goldberg_numerator(q: tuple[int, ...]) -> int:
    """n! times the tilde form of the A-first word with validated runs ``q``.

    The gamma vectors of the blocks multiply by convolution; as
    gamma_1 = gamma_2 = (1,), the parts 1 and 2 add a block to the k-sum and
    nothing to the product.  An odd number of blocks is 0 at even degree,
    where the k-sum weights vanish, and past degree 1 for one block, as
    log(e^A) = A; neither reads a row.
    """
    n, m = sum(q), len(q)
    if n > COEFF_DEGREE_MAX:
        raise ValueError(f"goldberg degree guard: degree <= {COEFF_DEGREE_MAX}, got {n}")
    if m % 2 and (n % 2 == 0 or m == 1 < n):
        return 0
    poly = [1]
    for qi in q:
        if qi > 2:
            poly = _poly_mul(poly, _stirling_row(qi))
    return sum(map(operator.mul, poly, _k_sum_weights(n, m)))


def coeff_tilde(runs) -> Fraction:
    """(-1)^n * q_1! * ... * q_m! * c(q_1, ..., q_m) by Goldberg's double sum.

    With t = j_1 + ... + j_m over all index tuples 1 <= j_i <= q_i:

        sum over tuples and 0 <= k <= (m-1)//2 of
            (-1)^(t-k) C((m-1)//2, k) j_1! ... j_m! S(q_1,j_1) ... S(q_m,j_m) / (t-k)

    The signed tuple products of total t add up to the x^t coefficient of
    the block polynomials' product P_q1(x) ... P_qm(x).  In the gamma basis
    of ``special``'s table that product is z^m E(z)/(1-z)^n, and the k-sum
    is a Beta integral over the gamma vector of E, so the result is one
    integer over n!.
    """
    q = WordSpec(True, runs).runs
    return Fraction(_goldberg_numerator(q), math.factorial(sum(q)))


def coeff_goldberg_sum(runs) -> Fraction:
    """c(q_1, ..., q_m): the coefficient of the A-first word with these runs.

    The B-first word of the same runs carries the extra sign (-1)^(n+1).
    """
    q = WordSpec(True, runs).runs
    return Fraction(_goldberg_numerator(q), math.factorial(sum(q)) * _tilde_scale(q))


def _partition_walk(n: int) -> Iterator[tuple[tuple[int, ...], list[tuple[int, int, int, int]]]]:
    """Yield (prefix, tails) for every node of the partition tree of n, so
    that the leaves prefix + 3^a 2^b 1^r, read in yield order, are the
    descending partitions of n in reverse-lexicographic order.

    ``prefix`` holds the parts >= 4; each tail (a, b, r, num) ends it with
    3a + 2b + r = n - sum(prefix), a and then b descending, and num is
    ``_goldberg_numerator`` of the leaf: the coefficient of its A-first word
    is num / ((-1)^n n! q_1! ... q_m!), never reduced here.

    A depth-first walk over the parts q >= 4: partitions sharing a prefix
    share its product of gamma vectors, so each tree edge costs one
    multiplication.  A node is yielded after its children.  As
    gamma_1 = gamma_2 = (1,), the small parts multiply to S = gamma_3^a, with
    gamma_3 = (1, 2), so the k-sum of the leaf is

        sum(poly_B[i] * V[i]),  V[i] = sum(S[j] * G[i + j]),

    with the weights G of its m blocks.  V depends only on (a, m), and one
    more factor gamma_3 gives V_a[i] = V_(a-1)[i] + 2 V_(a-1)[i + 1] from
    V_0 = G, so the walk builds each V once, from the one before, and
    multiplies only by the blocks q >= 4 along the tree.
    """
    corr = {}  # (a, m) -> V; V is G itself at a = 0

    def correlated(a, m):
        key = a, m
        if key not in corr:
            if a:
                v = correlated(a - 1, m)
                corr[key] = [x + 2 * y for x, y in zip(v, v[1:])]
            else:
                corr[key] = _k_sum_weights(n, m)
        return corr[key]

    def walk(parts, poly, remaining):
        for q in range(min(remaining, parts[-1] if parts else n), 3, -1):
            yield from walk(parts + (q,), _poly_mul(poly, _stirling_row(q)), remaining - q)
        tails = []
        for a in range(remaining // 3, -1, -1):
            for b in range((remaining - 3 * a) // 2, -1, -1):
                r = remaining - 3 * a - 2 * b
                v = correlated(a, len(parts) + a + b + r)
                tails.append((a, b, r, sum(map(operator.mul, poly, v))))
        yield parts, tails

    yield from walk((), [1], n)


def bernoulli_binomial_sum(n: int, k: int) -> Fraction:
    """sum(C(k, j) * B_(n-j) for j = 1..k), the Bernoulli part of the
    two-block coefficient, in integers over one lcm.  The indices ascend, so
    the table row kept past the cap rolls forward; odd ones >= 3 are 0."""
    if n < 2:
        raise ValueError(f"two-block words need degree >= 2, got n={n}")
    if n > COEFF_DEGREE_MAX:
        raise ValueError(f"bernoulli degree guard: n <= {COEFF_DEGREE_MAX}, got {n}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got k={k}")
    terms = [(math.comb(k, n - i), bernoulli(i))
             for i in range(n - k, n) if i < 3 or i % 2 == 0]
    ell = math.lcm(*(b.denominator for _, b in terms))
    return Fraction(sum(c * b.numerator * (ell // b.denominator) for c, b in terms), ell)


def coeff_bernoulli_m2(n: int, k: int) -> Fraction:
    """The two-block coefficient c(n-k, k), i.e. of A^(n-k) B^k, via Bernoulli numbers.

        c(n-k, k) = (-1)^(n+k)/n! * C(n, k) * bernoulli_binomial_sum(n, k)
    """
    c = Fraction(math.comb(n, k), math.factorial(n)) * bernoulli_binomial_sum(n, k)
    return -c if (n + k) % 2 else c


def coeff_word(word: WordSpec, *, method: str = "goldberg") -> Fraction:
    """Coefficient of an arbitrary word; ``method`` forces a backend.

    "bernoulli" only covers two-block words; "oracle" is limited to degree
    <= SERIES_ORACLE_MAX.
    """
    if method == "alg2":
        return coeff_alg2(word)
    if method == "oracle":
        return series_oracle(word.degree)[word.letters()]
    if method == "goldberg":
        c = coeff_goldberg_sum(word.runs)
    elif method == "bernoulli":
        if len(word.runs) != 2:
            raise ValueError("the bernoulli backend needs a two-block word")
        c = coeff_bernoulli_m2(word.degree, word.runs[1])
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    # both routes give the A-first word; swapping the letters costs (-1)^(n+1)
    return c if word.a_first or word.degree % 2 else -c


# one map at a time: the degree-16 map alone peaks a process at about 66 MiB,
# and each verify suite builds one map at its bound
@lru_cache(maxsize=1)
def series_oracle(max_degree: int) -> Mapping[str, Fraction]:
    """Every coefficient of log(e^A e^B) through ``max_degree``, by plain expansion.

    With Y = e^A e^B - 1 and N = max_degree, Horner's rule evaluates
    log(1 + Y) = Y (1 - Y (1/2 - Y (1/3 - ...))) from the inside out:
    G_N = 1/N, G_k = 1/k - Y G_(k+1) and H = Y G_1, where G_k needs only the
    words of length <= N - k and each product with Y is a concatenation.  In
    integers, g_k = lcm(1..N) N!^(N-k) G_k obeys
    g_k = lcm/k N!^(N-k) - (N! Y) g_(k+1), and H lcm N!^N = (N! Y) g_1.  Keys
    are letter strings throughout, so the result is a read-only map from every
    word of length 1..N (zeros included) to its exact rational.
    """
    if not isinstance(max_degree, int) or not 1 <= max_degree <= SERIES_ORACLE_MAX:
        raise ValueError(
            f"series guard: the oracle covers 1 <= max_degree <= {SERIES_ORACLE_MAX},"
            f" got {max_degree}"
        )
    # the cache would let go of the previous map only after this one is built
    series_oracle.cache_clear()
    nf = math.factorial(max_degree)
    fact = [math.factorial(i) for i in range(max_degree + 1)]
    # the nonzero words of Y are A^i B^j, in order of length
    y_items = [
        ("A" * i + "B" * (length - i), nf // (fact[i] * fact[length - i]))
        for length in range(1, max_degree + 1)
        for i in range(length + 1)
    ]
    ell = math.lcm(*range(1, max_degree + 1))

    def times_y(g: dict[str, int], room: int) -> dict[str, int]:
        # nf * Y * g, truncated to words of length <= room
        out: dict[str, int] = {}
        for w2, v2 in g.items():
            fit = room - len(w2)
            for w1, v1 in y_items:
                if len(w1) > fit:
                    break
                key = w1 + w2
                if key in out:
                    out[key] += v1 * v2
                else:
                    out[key] = v1 * v2
        return out

    # g holds (-1)^(k+1) g_k, so that each step adds nf Y g instead of
    # subtracting it
    g: dict[str, int] = {}
    for k in range(max_degree, 0, -1):
        g = times_y(g, max_degree - k)
        const = (ell // k) * nf ** (max_degree - k)
        g[""] = const if k % 2 else -const
    acc = times_y(g, max_degree)
    denom = ell * nf**max_degree
    return MappingProxyType({w: Fraction(num, denom) for w, num in acc.items()})
