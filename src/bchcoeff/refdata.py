"""Frozen reference values the verification suites recompute and compare
against.

Every number in this module is independently recomputed by the library when
the matching suite runs; nothing here feeds back into the computations
themselves.  The same values are mirrored as plain-text files under the test
data directory, and a test pins the two copies to each other.
"""

from __future__ import annotations

from collections import namedtuple

__all__ = [
    "DN_REFERENCE",
    "MIN_DEGREE_REFERENCE",
    "QSET_REFERENCE",
    "TABLE1",
    "TABLE2",
    "Table1Row",
    "Table2Row",
]

# d_1 .. d_25
DN_REFERENCE = (
    1, 1, 2, 1, 6, 2, 6, 3, 10, 2, 6, 2, 210,
    30, 12, 3, 30, 10, 210, 42, 330, 30, 60, 30, 546,
)


class Table1Row(namedtuple("Table1Row", "n p l m runs coeff e a_hat")):
    """A worked coefficient at p = 7: exact value and its leading 7-part.

    runs: tuple[int, ...]; coeff: str, "num/den" or "0"; every other field int.
    """

    __slots__ = ()


TABLE1 = (
    Table1Row(26, 7, 1, 2, (14, 12),
              "-63102076049869/846912068365871834726400000", 1, 6),
    Table1Row(26, 7, 1, 7, (14, 7, 1, 1, 1, 1, 1), "0", 0, 0),
    Table1Row(26, 7, 1, 8, (7, 7, 7, 1, 1, 1, 1, 1),
              "5260127/12693891496366080000", 1, 4),
    Table1Row(27, 7, 1, 2, (21, 6),
              "-6333157/33967061565476143104000", 1, 1),
    Table1Row(27, 7, 1, 7, (21, 1, 1, 1, 1, 1, 1),
              "-1970755117/6416000517923271475200000", 1, 5),
    Table1Row(27, 7, 1, 8, (14, 7, 1, 1, 1, 1, 1, 1),
              "2609686559/51142033113881149440000", 1, 5),
    Table1Row(28, 7, 0, 2, (22, 6),
              "252293307089/10162944820390462016716800000", 1, 6),
)


class Table2Row(namedtuple("Table2Row", "n p l m runs num_digits den_digits e a_hat")):
    """A large-degree extreme word: coefficient size and leading p-part.

    runs: tuple[int, ...]; every other field int.
    """

    __slots__ = ()


TABLE2 = (
    Table2Row(161, 3, 2, 9, (81, 27, 27, 9, 9, 3, 3, 1, 1), 168, 248, 2, 2),
    Table2Row(242, 3, 2, 10, (81, 81, 27, 27, 9, 9, 3, 3, 1, 1), 288, 408, 2, 2),
    Table2Row(255, 2, 3, 8, (128, 64, 32, 16, 8, 4, 2, 1), 330, 460, 3, 1),
)


# (n, p) -> partitions of n whose word hits the extreme denominator valuation,
# reverse-lexicographic
QSET_REFERENCE = {
    (15, 2): ((8, 4, 2, 1),),
    (19, 3): ((18, 1), (10, 9), (9, 9, 1)),
    (21, 5): (
        (20, 1), (16, 5), (15, 6), (15, 5, 1), (11, 10), (11, 5, 5), (10, 10, 1),
        (10, 6, 5), (10, 5, 5, 1), (6, 5, 5, 5), (5, 5, 5, 5, 1),
    ),
    (23, 2): ((16, 4, 2, 1),),
    (26, 7): (
        (24, 2), (23, 3), (23, 1, 1, 1), (22, 4), (22, 2, 1, 1), (21, 5), (21, 3, 1, 1),
        (21, 2, 2, 1), (21, 1, 1, 1, 1, 1), (18, 8), (17, 9), (17, 7, 1, 1), (16, 10),
        (16, 8, 1, 1), (16, 7, 2, 1), (15, 11), (15, 9, 1, 1), (15, 8, 2, 1),
        (15, 7, 3, 1), (15, 7, 2, 2), (15, 7, 1, 1, 1, 1), (14, 12), (14, 10, 1, 1),
        (14, 9, 2, 1), (14, 8, 3, 1), (14, 8, 2, 2), (14, 8, 1, 1, 1, 1), (14, 7, 4, 1),
        (14, 7, 3, 2), (14, 7, 2, 1, 1, 1), (11, 7, 7, 1), (10, 8, 7, 1), (10, 7, 7, 2),
        (9, 9, 7, 1), (9, 8, 8, 1), (9, 8, 7, 2), (9, 7, 7, 3), (9, 7, 7, 1, 1, 1),
        (8, 8, 8, 2), (8, 8, 7, 3), (8, 8, 7, 1, 1, 1), (8, 7, 7, 4),
        (8, 7, 7, 2, 1, 1), (7, 7, 7, 5), (7, 7, 7, 3, 1, 1), (7, 7, 7, 2, 2, 1),
        (7, 7, 7, 1, 1, 1, 1, 1),
    ),
    (27, 2): ((16, 8, 2, 1),),
    (29, 2): ((16, 8, 4, 1),),
    (29, 3): ((28, 1), (27, 2), (27, 1, 1)),
    (29, 5): (
        (28, 1), (27, 2), (27, 1, 1), (26, 3), (26, 2, 1), (26, 1, 1, 1), (25, 4),
        (25, 3, 1), (25, 2, 2), (25, 2, 1, 1), (25, 1, 1, 1, 1),
    ),
    (30, 2): ((16, 8, 4, 2),),
    (31, 2): (
        (24, 4, 2, 1),
        (20, 8, 2, 1),
        (18, 8, 4, 1),
        (17, 8, 4, 2),
        (16, 12, 2, 1),
        (16, 10, 4, 1),
        (16, 9, 4, 2),
        (16, 8, 6, 1),
        (16, 8, 5, 2),
        (16, 8, 4, 3),
    ),
    (33, 2): ((32, 1),),
    (35, 2): ((34, 1), (32, 2, 1), (32, 1, 1, 1), (16, 16, 2, 1)),
    (39, 2): ((32, 4, 2, 1),),
}

# (p, l) -> smallest degree whose denominator carries p^l
MIN_DEGREE_REFERENCE = {
    (2, 2): 15,
    (2, 3): 255,
    (2, 4): 65535,
    (3, 2): 161,
    (5, 2): 31249,
}
