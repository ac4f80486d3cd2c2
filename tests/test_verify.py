import json
import math
import time

import pytest

import bchcoeff.analysis
import bchcoeff.verify
from bchcoeff.verify import (
    SUITES,
    CheckRecord,
    _square_prime_factors,
    run_suite,
    suite_names,
)


EXPECTED_SUITES = {
    "dn-list",
    "partition-lcm",
    "min-degree",
    "oracle-agreement",
    "two-block",
    "goldberg-symmetry",
    "denominator-divides",
    "lcm-brute",
    "witness",
    "lemma-binomials",
    "lemma3",
    "stirling",
    "bernoulli-vsc",
    "bernoulli-sum",
    "table1",
    "table2",
    "qset",
}


class TestRegistry:
    def test_names(self):
        assert set(suite_names()) == EXPECTED_SUITES

    def test_registry_shape(self):
        for name, (func, default, limit) in SUITES.items():
            assert callable(func), name
            assert func.__doc__, name
            # a fixed grid has neither; a row suite has only a default
            if default is None:
                assert limit is None, name
            elif limit is not None:
                assert 1 <= default <= limit, name
        assert {name for name, (_, _, limit) in SUITES.items() if limit is None} == {
            "min-degree", "lemma3", "table1", "table2", "qset",
        }

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("no-such-suite")


class TestRecords:
    def test_line_format(self):
        rec = CheckRecord("claim-id", "n=3", "4", "4", True)
        assert rec.line() == "claim-id | n=3 | expected 4 | actual 4 | PASS"
        rec = CheckRecord("claim-id", "n=3", "4", "5", False)
        assert rec.line().endswith("| FAIL")

    def test_as_dict_is_json_ready(self):
        rec = CheckRecord("c", "i", "e", "a", True)
        parsed = json.loads(json.dumps(rec.as_dict()))
        assert parsed == {
            "claim": "c", "inputs": "i", "expected": "e", "actual": "a", "pass": True,
        }


class TestRunning:
    def test_cheap_suite_passes(self):
        records = run_suite("min-degree")
        assert records
        assert all(r.passed for r in records)

    def test_max_n_plumbing(self):
        # witness sweep over n <= 6: (n, p) pairs with p < n and p prime
        records = run_suite("witness", 6)
        assert len(records) == 8
        assert all(r.passed for r in records)

    def test_goldberg_symmetry_at_degree_twelve(self):
        # each of the 2^11 compositions of 12 is checked once, against the
        # value of its runs sorted into a partition
        records = run_suite("goldberg-symmetry", 12)
        assert len(records) == 11 + 5
        assert all(r.passed for r in records)

    def test_min_degree_scan_catches_a_late_formula(self, monkeypatch):
        # a closed form one past the true smallest degree leaves that degree
        # inside the digit-sum scan, which must then count it
        true = bchcoeff.verify.min_degree_with_l
        monkeypatch.setattr(bchcoeff.verify, "min_degree_with_l", lambda p, l: true(p, l) + 1)
        minimal = [r for r in run_suite("min-degree") if r.claim == "min-degree-minimal"]
        assert len(minimal) == 5
        assert not any(r.passed for r in minimal)

    @pytest.mark.parametrize("name", ["oracle-agreement", "denominator-divides", "lcm-brute"])
    def test_oracle_suites_build_once(self, name, monkeypatch):
        degrees = []
        oracle = bchcoeff.verify.series_oracle

        def counted(max_degree):
            degrees.append(max_degree)
            return oracle(max_degree)

        # the denominator suites read the oracle through analysis
        monkeypatch.setattr(bchcoeff.verify, "series_oracle", counted)
        monkeypatch.setattr(bchcoeff.analysis, "series_oracle", counted)
        records = run_suite(name, 6)
        assert records and all(r.passed for r in records)
        assert degrees == [6]

    def test_max_n_narrows_dn_sweep(self):
        wide = run_suite("dn-list", 50)
        narrow = run_suite("dn-list", 30)
        assert len(wide) == len(narrow) + 20


LIMITED = sorted(name for name, (_, _, limit) in SUITES.items() if limit is not None)


class TestGuards:
    @pytest.mark.parametrize("name", LIMITED)
    def test_past_the_limit_raises_at_once(self, name):
        limit = SUITES[name][2]
        start = time.monotonic()
        with pytest.raises(ValueError, match=f"suite {name} guard: --max-n <= {limit}, got {limit + 1}"):
            run_suite(name, limit + 1)
        assert time.monotonic() - start < 0.5

    @pytest.mark.parametrize("name", sorted(set(SUITES) - {"table2", "qset"}))
    def test_smoke_bound_checks_something(self, name):
        # a fixed grid ignores the bound; a sweep at 8 still has records
        records = run_suite(name, 8)
        assert records and all(r.passed for r in records)

    def test_table2_skips_rows_above_the_bound(self, monkeypatch):
        computed = []
        monkeypatch.setattr(bchcoeff.verify, "_reference_row", computed.append)
        assert run_suite("table2", 160) == []
        assert computed == []


class TestBernoulliSquarefree:
    @pytest.mark.parametrize("m, expected", [
        (1, []),
        (4, [2]),
        (61 * 61, [61]),  # p == isqrt(m): the sieve bound must include it
        (2 * 2 * 3 * 3 * 5, [2, 3]),
        (56786730, []),  # denominator of B_60
        (7919, []),
    ])
    def test_square_prime_factors(self, m, expected):
        assert _square_prime_factors(m) == expected

    def test_sieve_stops_at_square_root(self, monkeypatch):
        seen = []
        sieve = bchcoeff.verify.primes_upto

        def recording(n):
            seen.append(n)
            return sieve(n)

        monkeypatch.setattr(bchcoeff.verify, "primes_upto", recording)
        records = run_suite("bernoulli-vsc")
        assert records and all(r.passed for r in records)
        assert max(seen) <= math.isqrt(56786730)


class TestLemmaBinomials:
    def test_default_bound_checks_every_prime(self):
        # at n <= 500 both constructions have cases for every prime up to 13
        records = run_suite("lemma-binomials")
        assert all(r.passed for r in records)
        for claim in ("top-digit-cut-valuation-1", "greedy-digit-cut-valuation-0"):
            found = [r.inputs for r in records if r.claim == claim]
            assert [f.split()[0] for f in found] == [f"p={p}" for p in (2, 3, 5, 7, 11, 13)]
            assert all(int(f.split("(")[1].split()[0]) > 0 for f in found)
