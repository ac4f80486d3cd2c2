"""Construct words whose coefficients attain the extreme p-valuation.

The denominator formula says the worst denominator at degree n contains p
exactly v_p(n!) + l(n,p) times.  For every prime p < n a short explicit
word reaches that bound; which construction applies depends on the base-p
digits of n.  This script builds the witness for a spread of (n, p) pairs
and confirms the valuation by computing the coefficient exactly.
"""

from bchcoeff import (
    coeff_word,
    l_exponent,
    legendre_vp_factorial,
    vp,
    witness_runs,
)


def main() -> None:
    cases = [(6, 3), (10, 2), (12, 5), (15, 2), (20, 19), (26, 7), (28, 7)]
    print(" n   p  branch          word                  v_p(denom)  target")
    for n, p in cases:
        res = witness_runs(n, p)
        target = legendre_vp_factorial(n, p) + l_exponent(n, p)
        c = coeff_word(res.word)
        seen = vp(c.denominator, p)
        mark = "ok" if seen == target else "MISMATCH"
        print(f"{n:3d} {p:3d}  {res.branch.value:14}  {res.word.letters():20}  "
              f"{seen:10d}  {target:6d}  {mark}")

    n, p = 26, 7
    res = witness_runs(n, p)
    print()
    print(f"details for n = {n}, p = {p}:")
    print(f"  branch {res.branch.value}, l = {res.l}, m = {res.m} runs")
    print(f"  run lengths {res.runs}")
    print(f"  coefficient {coeff_word(res.word)}")


if __name__ == "__main__":
    main()
