import json
import pathlib

import pytest

from bchcoeff import analysis, goldberg, special, verify
from bchcoeff.analysis import QSET_DEGREE_MAX
from bchcoeff.cli import DENOM_DEGREE_MAX, run
from bchcoeff.exactmath import _SPRP_LIMIT
from bchcoeff.goldberg import ALG2_DEGREE_MAX, COEFF_DEGREE_MAX, SERIES_ORACLE_MAX

# stdout, stderr and exit status of fast commands, captured once; any byte
# of difference is a behaviour change
GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8")
)


def lines_of(capsys):
    out, err = capsys.readouterr()
    return out, err


class TestCoeff:
    def test_word(self, capsys):
        assert run(["coeff", "--word", "AAB"]) == 0
        out, _ = lines_of(capsys)
        assert "c = 1/12" in out

    def test_runs(self, capsys):
        assert run(["coeff", "--runs", "2,1"]) == 0
        out, _ = lines_of(capsys)
        assert "c = 1/12" in out

    def test_b_first(self, capsys):
        assert run(["coeff", "--runs", "1,1", "--b-first"]) == 0
        out, _ = lines_of(capsys)
        assert "c = -1/2" in out

    def test_methods(self, capsys):
        for method in ("alg2", "goldberg", "bernoulli", "oracle"):
            assert run(["coeff", "--word", "AB", "--method", method]) == 0
            out, _ = lines_of(capsys)
            assert "c = 1/2" in out

    def test_reference_row(self, capsys):
        assert run(["coeff", "--runs", "14,12"]) == 0
        out, _ = lines_of(capsys)
        assert "c = -63102076049869/846912068365871834726400000" in out

    def test_digits_only(self, capsys):
        assert run(["coeff", "--runs", "14,12", "--digits-only"]) == 0
        out, _ = lines_of(capsys)
        assert "14 numerator digits" in out
        assert "27 denominator digits" in out
        assert "sign -" in out

    def test_json(self, capsys):
        assert run(["--json", "coeff", "--word", "AB"]) == 0
        out, _ = lines_of(capsys)
        payload = json.loads(out)
        assert payload["coeff"] == "1/2"
        assert payload["runs"] == [1, 1]
        assert payload["a_first"] is True

    def test_word_and_runs_conflict(self, capsys):
        assert run(["coeff", "--word", "AB", "--runs", "1,1"]) == 2
        _, err = lines_of(capsys)
        assert "error:" in err

    def test_neither_given(self, capsys):
        assert run(["coeff"]) == 2

    def test_bad_runs(self, capsys):
        assert run(["coeff", "--runs", "2,x"]) == 2
        _, err = lines_of(capsys)
        assert "error:" in err

    def test_bad_word(self, capsys):
        assert run(["coeff", "--word", "ABC"]) == 2

    def test_word_with_b_first(self, capsys):
        # the word's own first letter decides; the flag is refused, not ignored
        assert run(["coeff", "--word", "AB", "--b-first"]) == 2
        out, err = lines_of(capsys)
        assert out == ""
        assert err.startswith("error:") and "--b-first" in err and "--runs" in err

    def test_degree_guards(self, capsys):
        for method, limit in (("goldberg", COEFF_DEGREE_MAX), ("alg2", ALG2_DEGREE_MAX),
                              ("bernoulli", COEFF_DEGREE_MAX)):
            assert run(["coeff", "--runs", f"{limit},1", "--method", method]) == 2
            out, err = lines_of(capsys)
            assert out == ""
            assert err.startswith("error:") and str(limit) in err

    def test_oracle_guard(self, capsys):
        assert run(["coeff", "--runs", "20,20", "--method", "oracle"]) == 2
        _, err = lines_of(capsys)
        assert "error:" in err and "16" in err


class TestDenom:
    def test_plain(self, capsys):
        assert run(["denom", "--n", "13"]) == 0
        out, _ = lines_of(capsys)
        assert "d_13 = 210" in out
        assert "13! * d_13 = 1307674368000" in out

    def test_factor(self, capsys):
        assert run(["denom", "--n", "13", "--factor"]) == 0
        out, _ = lines_of(capsys)
        assert "2 * 3 * 5 * 7" in out
        assert run(["denom", "--n", "15", "--factor"]) == 0
        out, _ = lines_of(capsys)
        assert "2^2 * 3" in out

    def test_factor_of_one(self, capsys):
        assert run(["denom", "--n", "4", "--factor"]) == 0
        out, _ = lines_of(capsys)
        assert "d_4 = 1" in out

    def test_json(self, capsys):
        assert run(["--json", "denom", "--n", "13"]) == 0
        out, _ = lines_of(capsys)
        payload = json.loads(out)
        assert payload == {
            "n": 13,
            "d_n": 210,
            "capital": 1307674368000,
            "factorization": [[2, 1], [3, 1], [5, 1], [7, 1]],
        }

    def test_rejects(self, capsys):
        assert run(["denom", "--n", "0"]) == 2

    def test_guard(self, capsys):
        # the last degree whose n! * d_n still converts to text
        assert run(["denom", "--n", f"{DENOM_DEGREE_MAX}"]) == 0
        out, _ = lines_of(capsys)
        assert out.startswith(f"d_{DENOM_DEGREE_MAX} = ")
        assert run(["denom", "--n", f"{DENOM_DEGREE_MAX + 1}"]) == 2
        out, err = lines_of(capsys)
        assert out == ""
        assert err == f"error: denom degree guard: n <= {DENOM_DEGREE_MAX}, got {DENOM_DEGREE_MAX + 1}\n"


class TestWitness:
    def test_pass(self, capsys):
        assert run(["witness", "--n", "26", "--p", "7"]) == 0
        out, _ = lines_of(capsys)
        assert "branch=lemma2" in out
        assert "runs=14,12" in out
        assert out.strip().endswith("PASS")

    def test_json(self, capsys):
        assert run(["--json", "witness", "--n", "15", "--p", "2"]) == 0
        out, _ = lines_of(capsys)
        payload = json.loads(out)
        assert payload["runs"] == [8, 4, 2, 1]
        assert payload["branch"] == "power-m"
        assert payload["valuation"] == payload["target"] == 13
        assert payload["pass"] is True

    def test_rejects_nonprime(self, capsys):
        assert run(["witness", "--n", "26", "--p", "4"]) == 2

    def test_beyond_the_alg2_limit(self, capsys):
        assert run(["witness", "--n", f"{ALG2_DEGREE_MAX + 30}", "--p", "2"]) == 0
        out, _ = lines_of(capsys)
        assert out.strip().endswith("PASS")


class TestVerifyCommand:
    def test_suite_passes(self, capsys):
        assert run(["verify", "--suite", "min-degree"]) == 0
        out, err = lines_of(capsys)
        assert "| PASS" in out
        assert "| FAIL" not in out
        assert "checks passed" in err

    def test_max_n(self, capsys):
        assert run(["verify", "--suite", "witness", "--max-n", "6"]) == 0
        out, _ = lines_of(capsys)
        assert len([l for l in out.splitlines() if l]) == 8

    def test_json(self, capsys):
        assert run(["--json", "verify", "--suite", "min-degree"]) == 0
        out, _ = lines_of(capsys)
        for line in out.splitlines():
            assert json.loads(line)["pass"] is True

    @pytest.mark.parametrize("max_n", ["1"])
    def test_no_checks_is_an_error(self, capsys, max_n):
        assert run(["verify", "--suite", "witness", "--max-n", max_n]) == 2
        out, err = lines_of(capsys)
        assert out == ""
        assert "witness" in err and f"--max-n {max_n}" in err

    def test_all_keeps_records_past_an_empty_suite(self, capsys, monkeypatch):
        suites = {name: verify.SUITES[name] for name in ("partition-lcm", "two-block", "lcm-brute")}
        monkeypatch.setattr(verify, "SUITES", suites)
        assert run(["verify", "--suite", "all", "--max-n", "1"]) == 2
        out, err = lines_of(capsys)
        assert out.splitlines() == [
            "partition-lcm | n=1 | expected 1 | actual 1 | PASS",
            "degree-lcm | n=1 | expected 1 | actual 1 | PASS",
        ]
        assert err == "error: suite two-block ran no checks with --max-n 1\n"

    @pytest.mark.parametrize("name", sorted(n for n, entry in verify.SUITES.items() if entry[2] is not None))
    def test_guard(self, capsys, name):
        limit = verify.SUITES[name][2]
        assert run(["verify", "--suite", name, "--max-n", f"{limit + 1}"]) == 2
        out, err = lines_of(capsys)
        assert out == ""
        assert err == f"error: suite {name} guard: --max-n <= {limit}, got {limit + 1}\n"

    def test_table2_below_every_row(self, capsys):
        assert run(["verify", "--suite", "table2", "--max-n", "160"]) == 2
        out, err = lines_of(capsys)
        assert out == ""
        assert err == "error: suite table2 ran no checks with --max-n 160\n"

    def test_table2_progress_on_every_call(self, capsys):
        # the rows are cached per process; their progress lines are not
        assert run(["verify", "--suite", "table2"]) == 0
        _, first = lines_of(capsys)
        assert run(["verify", "--suite", "table2"]) == 0
        _, second = lines_of(capsys)
        assert first == second
        assert first.startswith("computing degree-161 coefficient (9 blocks) ...\n")

    def test_unknown_suite_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            run(["verify", "--suite", "bogus"])


class TestQsetCommand:
    def test_singleton(self, capsys):
        assert run(["qset", "--n", "15", "--p", "2"]) == 0
        out, _ = lines_of(capsys)
        assert "1 extreme partition" in out
        assert "8,4,2,1" in out

    def test_json(self, capsys):
        assert run(["--json", "qset", "--n", "9", "--p", "3"]) == 0
        out, _ = lines_of(capsys)
        payload = json.loads(out)
        assert payload["partitions"] == [[6, 3], [3, 3, 3]]
        assert payload["l"] == 0

    def test_guard(self, capsys):
        assert run(["qset", "--n", "99", "--p", "2"]) == 2
        _, err = lines_of(capsys)
        assert "error:" in err and f"n <= {QSET_DEGREE_MAX}, got 99" in err


class TestLargePrimes:
    # 2^61 - 1 is prime: trial division to its square root took about 7.6e8 steps
    @pytest.mark.parametrize("command", ["qset", "witness"])
    def test_mersenne_prime(self, capsys, command):
        assert run([command, "--n", "5", "--p", str(2**61 - 1)]) == 0
        out, _ = lines_of(capsys)
        assert "2305843009213693951" in out

    @pytest.mark.parametrize("command", ["qset", "witness"])
    def test_past_the_primality_limit(self, capsys, command):
        assert run([command, "--n", "5", "--p", "318665857834031151167463"]) == 2
        _, err = lines_of(capsys)
        assert "error:" in err and "p < 318665857834031151167461" in err


class TestLcmCommand:
    def test_agreement(self, capsys):
        assert run(["lcm", "--n", "8"]) == 0
        out, _ = lines_of(capsys)
        assert "agreement: PASS" in out
        assert "120960" in out

    def test_guard(self, capsys):
        assert run(["lcm", "--n", "50"]) == 2

    def test_guard_is_the_oracle_limit(self, capsys):
        # one past the largest degree the series oracle builds
        assert run(["lcm", "--n", "17"]) == 2
        out, err = lines_of(capsys)
        assert out == ""
        assert err.startswith("error:") and "<= 16, got 17" in err

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_guard_names_n_below_one(self, capsys, n):
        assert run(["lcm", "--n", n]) == 2
        out, err = lines_of(capsys)
        assert out == ""
        assert err == f"error: lcm guard: 1 <= --n <= 16, got {n}\n"


class TestTableCommand:
    def test_dn_matches_data_file(self, capsys, data_dir):
        assert run(["table", "--name", "dn"]) == 0
        out, _ = lines_of(capsys)
        assert out == (data_dir / "b338025.txt").read_text()

    def test_t1(self, capsys):
        assert run(["table", "--name", "t1"]) == 0
        out, _ = lines_of(capsys)
        lines = out.splitlines()
        assert len(lines) == 7
        assert lines[0] == (
            "n=26 p=7 l=1 m=2 runs=14,12 "
            "c=-63102076049869/846912068365871834726400000 e=1 a=6"
        )
        assert "c=0 e=0 a=0" in lines[1]

    def test_t1_json(self, capsys):
        assert run(["--json", "table", "--name", "t1"]) == 0
        out, _ = lines_of(capsys)
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 7
        assert rows[2]["coeff"] == "5260127/12693891496366080000"
        assert rows[2]["a"] == 4

    def test_t2_digits_only(self, capsys):
        assert run(["table", "--name", "t2", "--digits-only"]) == 0
        out, _ = lines_of(capsys)
        lines = out.splitlines()
        assert len(lines) == 3
        assert "digits=168/248" in lines[0]
        assert "e=3 a=1" in lines[2]
        assert "c =" not in out

    def test_t2_full(self, capsys):
        assert run(["table", "--name", "t2"]) == 0
        out, _ = lines_of(capsys)
        assert "c = " in out
        assert "digits=330/460" in out

    def test_mindegree(self, capsys):
        assert run(["table", "--name", "mindegree"]) == 0
        out, _ = lines_of(capsys)
        assert "p=2 l=4 n=65535" in out
        assert "p=5 l=2 n=31249" in out


# (argv, limit): arguments just past each guard of each subcommand
GUARDED = [
    *((["coeff", "--runs", f"{limit},1", "--method", method], limit)
      for method, limit in (("goldberg", COEFF_DEGREE_MAX), ("alg2", ALG2_DEGREE_MAX),
                            ("bernoulli", COEFF_DEGREE_MAX), ("oracle", SERIES_ORACLE_MAX))),
    (["witness", "--n", f"{COEFF_DEGREE_MAX + 1}", "--p", "2"], COEFF_DEGREE_MAX),
    (["witness", "--n", "5", "--p", f"{_SPRP_LIMIT}"], _SPRP_LIMIT),
    (["qset", "--n", f"{QSET_DEGREE_MAX + 1}", "--p", "2"], QSET_DEGREE_MAX),
    (["qset", "--n", "5", "--p", f"{_SPRP_LIMIT}"], _SPRP_LIMIT),
    (["lcm", "--n", f"{SERIES_ORACLE_MAX + 1}"], SERIES_ORACLE_MAX),
    (["denom", "--n", f"{DENOM_DEGREE_MAX + 1}"], DENOM_DEGREE_MAX),
    *((["verify", "--suite", name, "--max-n", f"{limit + 1}"], limit)
      for name, (_, _, limit) in verify.SUITES.items() if limit is not None),
    # the lower side: --max-n >= 1 for every suite, 1 <= --n for lcm
    *((["verify", "--suite", name, "--max-n", bound], 1)
      for name, bound in (("dn-list", "0"), ("all", "0"), ("stirling", "-5"), ("witness", "0"))),
    (["lcm", "--n", "0"], SERIES_ORACLE_MAX),
]

# the expensive inner steps, each patched in the module that looks it up
INNER_STEPS = [(goldberg, "_poly_mul"), (goldberg, "_alg2_column"),
               (goldberg, "_stirling_row"), (special, "_stirling_row"),
               (analysis, "_partition_walk")]


@pytest.mark.parametrize("argv,limit", [pytest.param(*case, id=" ".join(case[0]))
                                        for case in GUARDED])
def test_guard_rejects_before_any_work(argv, limit, capsys, monkeypatch):
    # a guard checked after the work has begun would enter one of these
    # steps, which raise here; so the check needs no timing
    for module, name in INNER_STEPS:
        def entered(*args, _name=name):
            raise AssertionError(f"{_name} entered past a guard")
        monkeypatch.setattr(module, name, entered)
    goldberg.series_oracle.cache_clear()
    assert run(argv) == 2
    out, err = lines_of(capsys)
    assert out == ""
    assert err.startswith("error:") and f"{limit}, got " in err
    assert goldberg.series_oracle.cache_info().currsize == 0


class TestParser:
    def test_no_command(self):
        with pytest.raises(SystemExit):
            run([])

    def test_json_after_subcommand(self, capsys):
        assert run(["denom", "--n", "5", "--json"]) == 0
        out, _ = lines_of(capsys)
        assert json.loads(out)["d_n"] == 6


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_golden_output(case, capsys):
    assert run(case["argv"]) == case["exit"]
    out, err = lines_of(capsys)
    assert out == case["stdout"]
    assert err == case["stderr"]
