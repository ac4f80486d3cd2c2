"""Reproduce the large-degree showcase rows exactly.

Three witness words at degrees 161, 242, and 255 have coefficients with
hundreds of digits.  The exact integer pipeline computes each in a few
milliseconds on the Goldberg product route, and the leading part of each
scaled coefficient matches the residue predicted by the closed-form
Bernoulli sums.  By default only the degree 161 row runs; pass --all for
the full set.
"""

import argparse
import time

from bchcoeff import (
    coeff_tilde,
    expected_a,
    extract_leading,
    l_exponent,
    legendre_vp_factorial,
    vp,
    witness_runs,
)

ROWS = [(161, 3), (242, 3), (255, 2)]


def show(n: int, p: int) -> None:
    res = witness_runs(n, p)
    start = time.monotonic()
    tilde = coeff_tilde(res.runs)
    elapsed = time.monotonic() - start
    lt = extract_leading(tilde, p)
    target = legendre_vp_factorial(n, p) + l_exponent(n, p)
    predicted = expected_a(n, p, res.m)
    print(f"n = {n}, p = {p}  ({res.branch.value}, m = {res.m}, {elapsed * 1000:.1f} ms)")
    print(f"  runs          {res.runs}")
    print(f"  numerator     {len(str(abs(tilde.numerator)))} digits")
    print(f"  denominator   {len(str(tilde.denominator))} digits")
    print(f"  v_p check     denominator valuation {vp(tilde.denominator, p)}, "
          f"target {target - leading_shift(n, p)}")
    print(f"  leading part  a = {lt.a_hat} / p^{lt.e}  (predicted a = {predicted})")
    print()


def leading_shift(n: int, p: int) -> int:
    # tilde(c) absorbs the run factorials, so its p-valuation target drops
    # by v_p of the product of run lengths' factorials
    res = witness_runs(n, p)
    return sum(legendre_vp_factorial(q, p) for q in res.runs)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--all", action="store_true", help="run all three rows")
    args = ap.parse_args()
    rows = ROWS if args.all else ROWS[:1]
    for n, p in rows:
        show(n, p)


if __name__ == "__main__":
    main()
