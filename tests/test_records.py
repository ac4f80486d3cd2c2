"""The eight result records: their repr, immutability, hashing and keyword
construction, pinned independently of how the record types are declared."""

from fractions import Fraction

import pytest

from bchcoeff import (
    DenominatorRecord,
    LeadingTerm,
    Partition,
    WitnessBranch,
    WitnessResult,
    WordSpec,
    denominator_record,
    extract_leading,
    witness_runs,
)
from bchcoeff.refdata import TABLE1, TABLE2, Table1Row, Table2Row
from bchcoeff.verify import CheckRecord

# (record factory, expected repr, one field name); each factory builds a fresh
# instance on every call
RECORDS = [
    (lambda: WordSpec.from_letters("AABAB"),
     "WordSpec(a_first=True, runs=(2, 1, 1, 1))", "runs"),
    (lambda: Partition((3, 2, 2)), "Partition(parts=(3, 2, 2))", "parts"),
    (lambda: extract_leading(Fraction(5, 63), 7),
     "LeadingTerm(e=1, a_hat=6, u_hat=Fraction(-7, 9))", "a_hat"),
    (lambda: denominator_record(15),
     "DenominatorRecord(n=15, dn=12, capital=15692092416000, factorization=((2, 2), (3, 1)))",
     "dn"),
    (lambda: Table1Row(26, 7, 1, 2, (14, 12),
                       "-63102076049869/846912068365871834726400000", 1, 6),
     "Table1Row(n=26, p=7, l=1, m=2, runs=(14, 12), "
     "coeff='-63102076049869/846912068365871834726400000', e=1, a_hat=6)", "coeff"),
    (lambda: Table2Row(255, 2, 3, 8, (128, 64, 32, 16, 8, 4, 2, 1), 330, 460, 3, 1),
     "Table2Row(n=255, p=2, l=3, m=8, runs=(128, 64, 32, 16, 8, 4, 2, 1), "
     "num_digits=330, den_digits=460, e=3, a_hat=1)", "num_digits"),
    (lambda: witness_runs(26, 7),
     "WitnessResult(n=26, p=7, l=1, m=2, runs=(14, 12), "
     "branch=<WitnessBranch.LEMMA2: 'lemma2'>)", "branch"),
    (lambda: CheckRecord("claim-id", "n=3", "4", "4", True),
     "CheckRecord(claim='claim-id', inputs='n=3', expected='4', actual='4', passed=True)",
     "passed"),
]
IDS = [expected.split("(", 1)[0] for _, expected, _ in RECORDS]


@pytest.mark.parametrize("make, expected, field", RECORDS, ids=IDS)
def test_repr(make, expected, field):
    assert repr(make()) == expected


@pytest.mark.parametrize("make, expected, field", RECORDS, ids=IDS)
def test_fields_are_read_only(make, expected, field):
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    assert getattr(record, field) == before


@pytest.mark.parametrize("make, expected, field", RECORDS, ids=IDS)
def test_equal_records_hash_equal(make, expected, field):
    a, b = make(), make()
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_keyword_construction():
    assert WordSpec(a_first=True, runs=(2, 1)) == WordSpec(True, (2, 1))
    assert WordSpec(a_first=False, runs=[3]).runs == (3,)
    assert Partition(parts=(3, 1)).parts == (3, 1)
    assert Partition(parts=[2, 2]).n == 4
    with pytest.raises(ValueError, match="at least one run"):
        WordSpec(a_first=True, runs=())
    with pytest.raises(ValueError, match="weakly decreasing"):
        Partition(parts=(1, 2))
    assert LeadingTerm(e=0, a_hat=0, u_hat=Fraction(0)) == extract_leading(0, 5)
    assert DenominatorRecord(n=1, dn=1, capital=1, factorization=()) == denominator_record(1)
    assert WitnessResult(n=26, p=7, l=1, m=2, runs=(14, 12),
                         branch=WitnessBranch.LEMMA2) == witness_runs(26, 7)
    assert Table1Row(n=26, p=7, l=1, m=7, runs=(14, 7, 1, 1, 1, 1, 1), coeff="0",
                     e=0, a_hat=0) == TABLE1[1]
    assert Table2Row(n=161, p=3, l=2, m=9, runs=(81, 27, 27, 9, 9, 3, 3, 1, 1),
                     num_digits=168, den_digits=248, e=2, a_hat=2) == TABLE2[0]
    assert CheckRecord(claim="c", inputs="i", expected="e", actual="a", passed=False).line() \
        == "c | i | expected e | actual a | FAIL"


def test_replace_validates():
    # records are named tuples; _replace must not skip the constructor's checks
    assert WordSpec(True, (2, 1))._replace(a_first=False) == WordSpec(False, (2, 1))
    with pytest.raises(ValueError, match="positive"):
        WordSpec(True, (2, 1))._replace(runs=(2, 0))
    with pytest.raises(ValueError, match="weakly decreasing"):
        Partition((2, 1))._replace(parts=(1, 2))
