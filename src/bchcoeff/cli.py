"""Command line front end.

Results go to stdout; progress and diagnostics go to stderr.  With --json,
results are emitted as one JSON object per line instead of prose.  Exit
status: 0 on success, 1 when a verification-style command finds failures,
2 on bad usage, a guard violation, or a verify run that checks nothing.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import brute_lcm_degree, q_set
from .denominators import (
    capital_denominator,
    denominator_record,
    l_exponent,
    min_degree_with_l,
)
from .exactmath import legendre_vp_factorial, vp
from .goldberg import (
    ALG2_DEGREE_MAX,
    COEFF_DEGREE_MAX,
    METHODS,
    SERIES_ORACLE_MAX,
    WordSpec,
    coeff_word,
)
from .refdata import DN_REFERENCE, MIN_DEGREE_REFERENCE
from . import verify
from .verify import run_suite, table1_computed, table2_rows
from .witness import witness_runs

__all__ = ["main", "run"]

# past this degree n! * d_n has more than 4300 digits, CPython's default
# limit for converting an int to text
DENOM_DEGREE_MAX = 1552
# coeff announces its work only when the method's degree guard lets it run
_METHOD_DEGREE_MAX = {
    "alg2": ALG2_DEGREE_MAX,
    "goldberg": COEFF_DEGREE_MAX,
    "bernoulli": COEFF_DEGREE_MAX,
    "oracle": SERIES_ORACLE_MAX,
}


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(text)


def _parse_runs(text: str) -> tuple[int, ...]:
    try:
        runs = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad run list {text!r}; expected comma-separated integers")
    return runs


def _runs_str(runs: tuple[int, ...]) -> str:
    return ",".join(map(str, runs))


def _cmd_coeff(args) -> int:
    if (args.word is None) == (args.runs is None):
        raise ValueError("give exactly one of --word or --runs")
    if args.word is not None:
        if args.b_first:
            raise ValueError("--b-first goes only with --runs; a --word gives its first letter")
        word = WordSpec.from_letters(args.word)
    else:
        word = WordSpec(not args.b_first, _parse_runs(args.runs))
    if word.degree <= _METHOD_DEGREE_MAX[args.method]:
        print(f"computing the degree-{word.degree} coefficient ...", file=sys.stderr, flush=True)
    c = coeff_word(word, method=args.method)
    payload = {
        "runs": list(word.runs),
        "a_first": word.a_first,
        "degree": word.degree,
        "method": args.method,
    }
    text = (f"runs={_runs_str(word.runs)} {'A' if word.a_first else 'B'}-first "
            f"degree={word.degree} method={args.method}\n")
    if args.digits_only:
        sign = "0" if c == 0 else ("-" if c < 0 else "+")
        payload.update(sign=sign, num_digits=len(str(abs(c.numerator))),
                       den_digits=len(str(c.denominator)))
        text += (f"c: sign {sign}, {payload['num_digits']} numerator digits, "
                 f"{payload['den_digits']} denominator digits")
    else:
        payload["coeff"] = str(c)
        text += f"c = {c}"
    _emit(args, payload, text)
    return 0


def _cmd_denom(args) -> int:
    if args.n > DENOM_DEGREE_MAX:
        raise ValueError(f"denom degree guard: n <= {DENOM_DEGREE_MAX}, got {args.n}")
    rec = denominator_record(args.n)
    lines = [f"d_{rec.n} = {rec.dn}", f"{rec.n}! * d_{rec.n} = {rec.capital}"]
    if args.factor:
        if rec.factorization:
            product = " * ".join(
                f"{p}^{e}" if e > 1 else str(p) for p, e in rec.factorization
            )
        else:
            product = "1"
        lines.append(f"d_{rec.n} = {product}")
    payload = {
        "n": rec.n,
        "d_n": rec.dn,
        "capital": rec.capital,
        "factorization": [list(pair) for pair in rec.factorization],
    }
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_witness(args) -> int:
    w = witness_runs(args.n, args.p)
    if args.n <= COEFF_DEGREE_MAX:
        print(f"computing the degree-{args.n} coefficient ...", file=sys.stderr, flush=True)
    c = coeff_word(w.word)
    valuation = vp(c.denominator, args.p)
    target = legendre_vp_factorial(args.n, args.p) + w.l
    ok = valuation == target
    status = "PASS" if ok else "FAIL"
    payload = {
        "n": args.n,
        "p": args.p,
        "l": w.l,
        "m": w.m,
        "branch": w.branch.value,
        "runs": list(w.runs),
        "valuation": valuation,
        "target": target,
        "pass": ok,
    }
    text = (f"n={args.n} p={args.p}: branch={w.branch.value} l={w.l} m={w.m} "
            f"runs={_runs_str(w.runs)}\n"
            f"v_{args.p}(denominator) = {valuation}, target = {target}: {status}")
    _emit(args, payload, text)
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    # each suite's records go out as soon as it finishes, so a suite that
    # checks nothing at this bound costs none of the others' output
    passed = total = 0
    empty = []
    for name in verify.SUITES if args.suite == "all" else [args.suite]:
        records = run_suite(name, args.max_n)
        if not records:
            empty.append(name)
        for rec in records:
            print(json.dumps(rec.as_dict()) if args.json else rec.line())
        sys.stdout.flush()
        passed += sum(rec.passed for rec in records)
        total += len(records)
    if empty:
        which = f"suite {empty[0]}" if len(empty) == 1 else f"suites {', '.join(empty)}"
        raise ValueError(f"{which} ran no checks with --max-n {args.max_n}")
    print(f"{args.suite}: {passed}/{total} checks passed", file=sys.stderr)
    return 0 if passed == total else 1


def _cmd_qset(args) -> int:
    found = q_set(args.n, args.p)
    l = l_exponent(args.n, args.p)
    payload = {
        "n": args.n,
        "p": args.p,
        "l": l,
        "partitions": [list(part.parts) for part in found],
    }
    noun = "partition" if len(found) == 1 else "partitions"
    lines = [f"Q({args.n}, {args.p}): {len(found)} extreme {noun}, l = {l}"]
    lines.extend(f"  {_runs_str(part.parts)}" for part in found)
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_lcm(args) -> int:
    if not 1 <= args.n <= SERIES_ORACLE_MAX:
        raise ValueError(f"lcm guard: 1 <= --n <= {SERIES_ORACLE_MAX}, got {args.n}")
    brute = brute_lcm_degree(args.n)
    formula = capital_denominator(args.n)
    ok = brute == formula
    payload = {"n": args.n, "brute": brute, "formula": formula, "pass": ok}
    text = (f"lcm of degree-{args.n} denominators = {brute}\n"
            f"{args.n}! * d_{args.n} = {formula}\n"
            f"agreement: {'PASS' if ok else 'FAIL'}")
    _emit(args, payload, text)
    return 0 if ok else 1


def _row_head(row) -> tuple[dict, str]:
    """The payload fields and the text that every t1 and t2 row starts with."""
    payload = {"n": row.n, "p": row.p, "l": row.l, "m": row.m, "runs": list(row.runs)}
    return payload, f"n={row.n} p={row.p} l={row.l} m={row.m} runs={_runs_str(row.runs)}"


def _cmd_table(args) -> int:
    if args.name == "dn":
        for n, value in enumerate(DN_REFERENCE, start=1):
            _emit(args, {"n": n, "d_n": value}, f"{n} {value}")
        return 0
    if args.name == "t1":
        for row, c, e, a_hat in table1_computed():
            payload, text = _row_head(row)
            payload.update(coeff=str(c), e=e, a=a_hat)
            _emit(args, payload, f"{text} c={c} e={e} a={a_hat}")
        return 0
    if args.name == "t2":
        for row, c, e, a_hat in table2_rows():
            payload, text = _row_head(row)
            payload.update(num_digits=len(str(abs(c.numerator))),
                           den_digits=len(str(c.denominator)), e=e, a=a_hat)
            text += f" digits={payload['num_digits']}/{payload['den_digits']} e={e} a={a_hat}"
            if not args.digits_only:
                payload["coeff"] = str(c)
                text += f"\n  c = {c}"
            _emit(args, payload, text)
        return 0
    # mindegree
    for p, l in sorted(MIN_DEGREE_REFERENCE):
        value = min_degree_with_l(p, l)
        _emit(args, {"p": p, "l": l, "n": value}, f"p={p} l={l} n={value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subparser from clobbering a --json given before the
    # subcommand (subparsers copy their own defaults back onto the namespace);
    # run() fills in False when the flag never appears.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit one JSON object per result line")
    parser = argparse.ArgumentParser(
        prog="bchcoeff",
        parents=[shared],
        description="Denominators and extreme words of the log(e^A e^B) series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeff", parents=[shared],
                       help="coefficient of one word of the series")
    p.add_argument("--word", help="letters, e.g. AABAB")
    p.add_argument("--runs", help="run lengths, e.g. 14,12")
    p.add_argument("--b-first", action="store_true",
                   help="with --runs: the word starts with B")
    p.add_argument("--method", choices=METHODS, default="goldberg")
    p.add_argument("--digits-only", action="store_true",
                   help="print size and sign instead of the full rational")
    p.set_defaults(func=_cmd_coeff)

    p = sub.add_parser("denom", parents=[shared],
                       help="the common denominator at one degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--factor", action="store_true", help="also print the factorization")
    p.set_defaults(func=_cmd_denom)

    p = sub.add_parser("witness", parents=[shared],
                       help="construct an extreme word and check its valuation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify", parents=[shared], help="run a named check suite")
    p.add_argument("--suite", required=True, choices=[*verify.SUITES, "all"])
    p.add_argument("--max-n", type=int, default=None,
                   help="override the suite's default bound (a guard caps each sweep)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("qset", parents=[shared],
                       help="all partitions attaining the extreme valuation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=_cmd_qset)

    p = sub.add_parser("lcm", parents=[shared],
                       help="brute-force lcm of one degree vs the formula")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_lcm)

    p = sub.add_parser("table", parents=[shared], help="print a reference table")
    p.add_argument("--name", required=True, choices=("dn", "t1", "t2", "mindegree"))
    p.add_argument("--digits-only", action="store_true",
                   help="with t2: omit the full coefficients")
    p.set_defaults(func=_cmd_table)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "json"):
        args.json = False
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
