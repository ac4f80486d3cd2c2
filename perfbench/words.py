"""Seeded word generator for the random_words workload (stdlib only).

The benchmark draws the words here and hands the package only ``WordSpec``s
built from the returned ``(a_first, runs)`` pairs.
"""

from __future__ import annotations

import random

# K words of degree 40..140 with 2..10 blocks
WORD_COUNT = 45
DEGREE_LO = 40
DEGREE_HI = 140
BLOCKS_MIN = 2
BLOCKS_MAX = 10


def _composition(rng: random.Random, n: int, parts: int) -> list[int]:
    """A uniformly random composition of n into ``parts`` positive parts."""
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    bounds = [0, *cuts, n]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def random_word_runs(
    seed: int,
    pass_no: int = 0,
    count: int = WORD_COUNT,
    lo: int = DEGREE_LO,
    hi: int = DEGREE_HI,
) -> list[tuple[bool, tuple[int, ...]]]:
    """``count`` words as ``(a_first, runs)``, the same for the same seed and
    pass number.  Each pass of a run draws its own set, so a run's median
    spans many sets and what cost difference is left between sets evens out.

    The alg2 cost of a word follows its degree, its block count, its first
    letter and its largest block, so each slot i fixes those: a degree band
    of width (hi - lo) / count, a block count, a starting letter, the share of
    the degree that the largest block takes and that block's letter.  The
    seed draws the degree inside the band, the largest block's position among
    the blocks of its letter, and the lengths of all other blocks.  Every
    word changes with the seed while the cost of the whole set barely does.
    """
    rng = random.Random(f"{seed}/{pass_no}")
    span = BLOCKS_MAX - BLOCKS_MIN + 1
    out = []
    for i in range(count):
        band_lo = lo + (hi - lo) * i // count
        band_hi = lo + (hi - lo) * (i + 1) // count
        n = rng.randint(band_lo, max(band_lo, band_hi - 1))
        m = BLOCKS_MIN + i % span
        share = (1 + 4 * i % 9) / 10  # 0.1 .. 0.9, spread over the slots
        big = min(max(-(-n // m), round(share * n)), n - (m - 1))
        rest = _composition(rng, n - big, m - 1) if m > 2 else [n - big]
        a_first = i % 2 == 0
        big_is_a = i // 2 % 2 == 0
        pos = rng.choice(range(0 if big_is_a == a_first else 1, m, 2))
        out.append((a_first, tuple(rest[:pos] + [big] + rest[pos:])))
    return out
