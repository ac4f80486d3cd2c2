import math

import pytest

from conftest import read_bfile

from bchcoeff.analysis import QSET_DEGREE_MAX
from bchcoeff.denominators import (
    PARTITION_LCM_MAX,
    capital_denominator,
    d_n,
    denominator_record,
    l_exponent,
    min_degree_with_l,
    partition_lcm,
    partitions,
)
from bchcoeff.refdata import DN_REFERENCE


class TestLExponent:
    def test_examples(self):
        assert l_exponent(26, 7) == 1  # s_7(26) = 8
        assert l_exponent(28, 7) == 0  # s_7(28) = 4
        assert l_exponent(15, 2) == 2  # s_2(15) = 4
        assert l_exponent(255, 2) == 3  # s_2(255) = 8
        assert l_exponent(161, 3) == 2  # s_3(161) = 9
        assert l_exponent(31249, 5) == 2  # s_5(31249) = 25

    def test_zero_when_digit_sum_small(self):
        for n in range(1, 50):
            for p in (2, 3, 5, 7):
                l = l_exponent(n, p)
                s = sum(int(c) for c in _base_digits(n, p))
                assert (l == 0) == (s < p)
                assert p**l <= s < p ** (l + 1)

    def test_rejects(self):
        with pytest.raises(ValueError):
            l_exponent(0, 2)
        with pytest.raises(ValueError):
            l_exponent(5, 4)


def _base_digits(n, p):
    out = []
    while n:
        n, a = divmod(n, p)
        out.append(a)
    return out


class TestDn:
    def test_reference_list(self):
        assert tuple(d_n(n) for n in range(1, 26)) == DN_REFERENCE

    def test_examples(self):
        assert d_n(13) == 210
        assert d_n(25) == 546
        assert d_n(1) == 1
        assert d_n(2) == 1

    def test_capital(self):
        assert capital_denominator(1) == 1
        assert capital_denominator(5) == 720
        assert capital_denominator(13) == math.factorial(13) * 210

    def test_record(self):
        rec = denominator_record(13)
        assert rec.n == 13
        assert rec.dn == 210
        assert rec.capital == math.factorial(13) * 210
        assert rec.factorization == ((2, 1), (3, 1), (5, 1), (7, 1))
        assert denominator_record(4).factorization == ()
        assert denominator_record(15).factorization == ((2, 2), (3, 1))

    def test_rejects(self):
        with pytest.raises(ValueError):
            d_n(0)
        with pytest.raises(ValueError):
            denominator_record(0)


class TestPartitions:
    def test_small_sequence(self):
        assert list(partitions(5)) == [
            (5,),
            (4, 1),
            (3, 2),
            (3, 1, 1),
            (2, 2, 1),
            (2, 1, 1, 1),
            (1, 1, 1, 1, 1),
        ]

    def test_zero_and_one(self):
        assert list(partitions(0)) == [()]
        assert list(partitions(1)) == [(1,)]

    def test_counts(self):
        # p(10) = 42, p(20) = 627, p(40) = 37338
        assert sum(1 for _ in partitions(10)) == 42
        assert sum(1 for _ in partitions(20)) == 627
        assert sum(1 for _ in partitions(40)) == 37338

    def test_shape(self):
        for n in range(1, 14):
            seen = set()
            prev = None
            for parts in partitions(n):
                assert sum(parts) == n
                assert all(a >= b for a, b in zip(parts, parts[1:]))
                assert parts not in seen
                seen.add(parts)
                if prev is not None:
                    assert parts < prev  # reverse-lexicographic
                prev = parts

    def test_matches_recursive_reference(self):
        for n in range(31):
            assert list(partitions(n)) == list(_reference_partitions(n)), n

    def test_count_at_qset_limit(self):
        # the analysis.QSET_DEGREE_MAX comment counts p(48) = 147273 partitions
        assert QSET_DEGREE_MAX == 48
        assert sum(1 for _ in partitions(QSET_DEGREE_MAX)) == 147273

    def test_rejects(self):
        with pytest.raises(ValueError):
            list(partitions(-1))


def _reference_partitions(n, largest=None):
    """Partitions of n with parts <= largest, largest first part first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _reference_partitions(n - first, first):
            yield (first,) + rest


class TestPartitionLcm:
    def test_small_value(self):
        # partitions of 5 give the multiset {120, 48, 24, 18, 12, 8, 5}
        assert partition_lcm(5) == 720

    def test_matches_formula(self):
        for n in range(1, 31):
            assert partition_lcm(n) == capital_denominator(n)

    def test_guard(self):
        with pytest.raises(ValueError):
            partition_lcm(PARTITION_LCM_MAX + 1)
        with pytest.raises(ValueError):
            partition_lcm(0)


class TestMinDegree:
    def test_values(self):
        assert min_degree_with_l(2, 2) == 15
        assert min_degree_with_l(2, 3) == 255
        assert min_degree_with_l(2, 4) == 65535
        assert min_degree_with_l(3, 2) == 161
        assert min_degree_with_l(5, 2) == 31249
        assert min_degree_with_l(3, 3) == 3188645

    def test_attains_l(self):
        for p in (2, 3, 5):
            for l in (2, 3):
                n = min_degree_with_l(p, l)
                assert l_exponent(n, p) == l

    def test_minimality_by_scan(self):
        for p, l in ((2, 2), (2, 3), (3, 2)):
            n = min_degree_with_l(p, l)
            assert all(l_exponent(m, p) < l for m in range(1, n))

    def test_rejects(self):
        with pytest.raises(ValueError):
            min_degree_with_l(2, 1)
        with pytest.raises(ValueError):
            min_degree_with_l(4, 2)


def _bfile_mismatches(path):
    """(n, listed, computed) wherever a b-file disagrees with d_n."""
    return [(n, listed, d_n(n)) for n, listed in read_bfile(path) if d_n(n) != listed]


class TestBfile:
    def test_read(self, tmp_path):
        f = tmp_path / "b.txt"
        f.write_text("# comment\n1 1\n2 1\n\n3 2  # inline\n")
        assert read_bfile(f) == [(1, 1), (2, 1), (3, 2)]

    def test_read_malformed(self, tmp_path):
        f = tmp_path / "b.txt"
        f.write_text("1 2 3\n")
        with pytest.raises(ValueError):
            read_bfile(f)

    def test_check_good_file(self, data_dir):
        assert _bfile_mismatches(data_dir / "b338025.txt") == []

    def test_check_reports_mismatch(self, tmp_path):
        f = tmp_path / "b.txt"
        f.write_text("1 1\n2 99\n")
        assert _bfile_mismatches(f) == [(2, 99, 1)]
