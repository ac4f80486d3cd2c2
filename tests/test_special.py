import functools
import itertools
import math
import sys
import threading
from fractions import Fraction

import pytest

from bchcoeff import special
from bchcoeff.exactmath import primes_upto
from bchcoeff.goldberg import COEFF_DEGREE_MAX, coeff_bernoulli_m2, coeff_goldberg_sum
from bchcoeff.special import _eulerian_rows, _worpitzky, bernoulli, stirling2


KNOWN_BERNOULLI = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    3: Fraction(0),
    4: Fraction(-1, 30),
    5: Fraction(0),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
}


@functools.lru_cache(maxsize=None)
def recurrence_bernoulli(top: int) -> tuple[Fraction, ...]:
    """B_0 .. B_top from sum(C(m+1, k) B_k for k = 0..m) == 0, one Fraction
    at a time: the reference the gamma rows' middle terms are checked against."""
    b = [Fraction(1)]
    for m in range(1, top + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return tuple(b)


class TestBernoulli:
    def test_known_values(self):
        for n, value in KNOWN_BERNOULLI.items():
            assert bernoulli(n) == value

    def test_odd_zero(self):
        assert all(bernoulli(n) == 0 for n in range(3, 60, 2))

    def test_recurrence_identity(self):
        # sum(C(n+1, k) B_k, k=0..n) == 0 for n >= 1
        for n in range(1, 40):
            total = sum(math.comb(n + 1, k) * bernoulli(k) for k in range(n + 1))
            assert total == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bernoulli(-1)

    def test_equals_the_recurrence_through_the_table(self):
        top = special._STIRLING_SHARED_MAX
        assert [bernoulli(n) for n in range(top + 1)] == list(recurrence_bernoulli(330)[:top + 1])

    @pytest.mark.parametrize("order", [1, -1], ids=["ascending", "descending"])
    def test_equals_the_recurrence_past_the_table(self, order):
        # an even B_n reads row n - 1: B_302 and B_330 the row kept past the
        # table, rolled forward in ascending order, restarted from the table
        # in descending order; odd ones read no row
        reference = recurrence_bernoulli(330)
        bernoulli.cache_clear()
        for n in (301, 302, 305, 330)[::order]:
            assert bernoulli(n) == reference[n], n
        assert len(special._stirling_rows) <= special._STIRLING_SHARED_MAX + 1

    def test_even_denominator_is_product_of_special_primes(self):
        # denominator of B_n (n even) == product of primes p with (p-1) | n
        for n in range(2, 61, 2):
            expected = 1
            for p in primes_upto(n + 1):
                if n % (p - 1) == 0:
                    expected *= p
            assert bernoulli(n).denominator == expected


def brute_stirling(q: int, j: int) -> int:
    """Number of ways to assign q labeled items onto exactly j unlabeled
    nonempty blocks, via surjection counting: j! S(q, j) = surjections."""
    if j > q:
        return 0
    surjections = sum(
        (-1) ** (j - i) * math.comb(j, i) * i**q for i in range(j + 1)
    )
    return surjections // math.factorial(j)


class TestStirling:
    def test_known_values(self):
        assert stirling2(1, 1) == 1
        assert stirling2(4, 2) == 7
        assert stirling2(5, 3) == 25
        assert stirling2(6, 3) == 90
        assert stirling2(7, 3) == 301
        assert stirling2(9, 9) == 1
        assert stirling2(9, 10) == 0

    def test_against_direct_count(self):
        # independent direct enumeration of every set partition of q items as
        # a restricted growth string: item i joins a block opened by an
        # earlier item or opens the next one; S(q, j) counts those with j blocks
        strings = [()]
        for q in range(1, 9):
            strings = [s + (b,) for s in strings for b in range(max(s, default=-1) + 2)]
            for j in range(1, q + 1):
                assert stirling2(q, j) == sum(1 for s in strings if max(s) + 1 == j)

    def test_two_routes_agree(self):
        # the alternating sum against Worpitzky's identity on the Eulerian rows
        for q, row in zip(range(1, 41), itertools.islice(_eulerian_rows(), 1, None)):
            for j in range(1, q + 1):
                assert stirling2(q, j) == _worpitzky(row, j), (q, j)

    def test_reads_no_table(self, monkeypatch):
        # the alternating sum reads no row: the gamma table keeps its start
        # row and nothing is kept past its cap
        monkeypatch.setattr(special, "_stirling_rows", [(1,)])
        monkeypatch.setattr(special, "_far", None)
        for q, row in zip(range(1, 401), itertools.islice(_eulerian_rows(), 1, None)):
            for j in {1, 2, 3, q // 3, q // 2, q - 1, q}.intersection(range(1, q + 1)):
                assert stirling2(q, j) == _worpitzky(row, j), (q, j)
            assert stirling2(q, q + 1) == 0
        assert special._stirling_rows == [(1,)]
        assert special._far is None

    def test_surjection_form(self):
        for q in range(1, 20):
            for j in range(1, q + 1):
                assert stirling2(q, j) == brute_stirling(q, j)

    def test_rejects(self):
        with pytest.raises(ValueError):
            stirling2(0, 1)
        with pytest.raises(ValueError):
            stirling2(3, 0)
        with pytest.raises(ValueError):
            stirling2(0, 0)
        # Worpitzky's division by j! is checked: (1, 2) is no Eulerian row
        assert _worpitzky((1, 1), 2) == stirling2(2, 2) == 1
        with pytest.raises(ArithmeticError, match="S\\(2,2\\)"):
            _worpitzky((1, 2), 2)


def gamma_rows_past_the_cap(top: int) -> dict[int, tuple[int, ...]]:
    """Gamma rows 300..top rolled by ``_next_gamma_row`` from row 0, apart
    from the table: the reference its far row is checked against."""
    row, rows = (1,), {}
    for q in range(1, top + 1):
        row = special._next_gamma_row(row, q)
        if q >= 300:
            rows[q] = row
    return rows


def check_gamma_row(row: tuple[int, ...], q: int, reference) -> None:
    # A_q(1) = q!, and z = 1 gives each gamma(q, k) the weight 2^(q-1-2k)
    assert sum(g << (q - 1 - 2 * k) for k, g in enumerate(row)) == math.factorial(q), q
    assert row == reference[q], q


class TestStirlingMemory:
    CAP = 300  # the last row of the shared triangle

    def test_triangle_stops_at_the_cap(self):
        # a word at the coefficient guard needs row 1098 of the gamma table
        assert coeff_goldberg_sum((COEFF_DEGREE_MAX - 2, 2)) != 0
        assert len(special._stirling_rows) <= self.CAP + 1

    @pytest.mark.parametrize("offsets", [
        (1, 2, 3, 40, 90),    # ascending: the kept row rolls forward
        (90, 40, 3, 2, 1),    # descending: each restarts from the triangle
        (7, 7, 60, 60, 7),    # repeated
    ], ids=["ascending", "descending", "repeated"])
    def test_rows_past_the_cap(self, offsets):
        reference = gamma_rows_past_the_cap(self.CAP + 90)
        for q in (self.CAP + k for k in offsets):
            row = special._stirling_row(q)
            check_gamma_row(row, q, reference)
            assert special._far == (q, row)
        assert len(special._stirling_rows) == self.CAP + 1

    def test_block_polys_stop_at_the_cap(self):
        # the product route multiplies the gamma table's rows; each one near
        # the guard holds about 0.6 MiB, and only the far row is kept past
        # the cap.  B_q reads row q - 1 before the product reads row q, so
        # the kept row only rolls forward
        assert special._STIRLING_SHARED_MAX == self.CAP
        assert coeff_goldberg_sum((self.CAP, 1)) != 0
        for q in range(1000, 1100, 4):
            assert coeff_bernoulli_m2(q + 1, 1) == coeff_goldberg_sum((q, 1)), q
        assert len(special._stirling_rows) == self.CAP + 1

    def test_bernoulli_route_stops_at_the_cap(self):
        # a two-block word at the coefficient guard reads B_1098 off row 1098
        assert coeff_bernoulli_m2(COEFF_DEGREE_MAX, 2) != 0
        assert len(special._stirling_rows) <= self.CAP + 1


class TestThreadSafety:
    def test_concurrent_fill(self, monkeypatch):
        errors = []
        values = []
        reference = gamma_rows_past_the_cap(340)
        # every thread then asks for an index nobody has computed yet, off an
        # empty table
        monkeypatch.setattr(special, "_stirling_rows", [(1,)])
        monkeypatch.setattr(special, "_far", None)
        bernoulli.cache_clear()

        def worker(i):
            try:
                values.append(bernoulli(180))
                # half the threads move the one row kept past the table up,
                # half move it down
                for q in (310, 340, 320)[::1 if i % 2 else -1]:
                    check_gamma_row(special._stirling_row(q), q, reference)
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        # von Staudt-Clausen: the denominator is the product of the primes p
        # with (p - 1) | 180
        assert len(set(values)) == 1
        assert values[0].denominator == math.prod(
            p for p in primes_upto(181) if 180 % (p - 1) == 0
        )
