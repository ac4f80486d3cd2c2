"""The plain-text data files and the in-package constants must agree.

The text files exist so the reference values can be read without Python;
this test pins them to the constants the verification suites use.
"""

from fractions import Fraction

from conftest import read_bfile

from bchcoeff.exactmath import rational_from_str
from bchcoeff.refdata import (
    DN_REFERENCE,
    MIN_DEGREE_REFERENCE,
    QSET_REFERENCE,
    TABLE1,
    TABLE2,
)


def _data_lines(path):
    out = []
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line.split())
    return out


def test_bfile_matches_reference(data_dir):
    entries = read_bfile(data_dir / "b338025.txt")
    assert entries == list(enumerate(DN_REFERENCE, start=1))


def test_table1_file_matches_reference(data_dir):
    lines = _data_lines(data_dir / "table1.txt")
    assert len(lines) == len(TABLE1)
    for fields, row in zip(lines, TABLE1):
        assert [int(x) for x in fields[:4]] == [row.n, row.p, row.l, row.m]
        assert tuple(int(x) for x in fields[4].split(",")) == row.runs
        assert fields[5] == row.coeff
        assert rational_from_str(fields[5]) == Fraction(row.coeff)
        assert [int(x) for x in fields[6:]] == [row.e, row.a_hat]


def test_table2_file_matches_reference(data_dir):
    lines = _data_lines(data_dir / "table2.txt")
    assert len(lines) == len(TABLE2)
    for fields, row in zip(lines, TABLE2):
        assert [int(x) for x in fields[:4]] == [row.n, row.p, row.l, row.m]
        assert tuple(int(x) for x in fields[4].split(",")) == row.runs
        assert [int(x) for x in fields[5:]] == [
            row.num_digits, row.den_digits, row.e, row.a_hat,
        ]


def test_qsets_file_matches_reference(data_dir):
    lines = _data_lines(data_dir / "qsets.txt")
    seen = {}
    for fields in lines:
        n, p = int(fields[0]), int(fields[1])
        parts = tuple(
            tuple(int(x) for x in chunk.split(",")) for chunk in fields[2].split(";")
        )
        seen[(n, p)] = parts
    assert seen == QSET_REFERENCE


def test_reference_tables_are_consistent():
    # rows describe genuine partitions of their degree
    for row in TABLE1 + TABLE2:
        assert sum(row.runs) == row.n
        assert all(q >= 1 for q in row.runs)
        assert len(row.runs) == row.m
        assert 0 <= row.a_hat < row.p
    for (n, _p), parts in QSET_REFERENCE.items():
        for part in parts:
            assert sum(part) == n
            assert all(a >= b for a, b in zip(part, part[1:]))
    for (p, l), n in MIN_DEGREE_REFERENCE.items():
        assert l >= 2 and n % p != 0  # all reference degrees end in base-p digit p-1
