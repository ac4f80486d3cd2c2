"""The benchmark's own tests (stdlib unittest).

    python3 -m unittest discover -s perfbench -p "test_*.py"

The smoke tests run ``run.py --smoke``: every workload once, on tiny inputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
import unittest
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, PHASES, WORKLOADS
from spans import Tracer, self_times
from words import BLOCKS_MAX, BLOCKS_MIN, random_word_runs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def smoke(workload: str, trace: int) -> dict:
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}\n{done.stdout}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class WordsTest(unittest.TestCase):
    def test_same_seed_same_words(self):
        self.assertEqual(random_word_runs(11), random_word_runs(11))

    def test_other_seed_other_words(self):
        self.assertNotEqual(random_word_runs(11), random_word_runs(12))

    def test_each_pass_its_own_words(self):
        self.assertEqual(random_word_runs(11, 3), random_word_runs(11, 3))
        self.assertNotEqual(random_word_runs(11, 0), random_word_runs(11, 1))

    def test_words_within_the_stated_ranges(self):
        for seed in range(5):
            words = random_word_runs(seed)
            self.assertEqual({a_first for a_first, _ in words}, {True, False})
            for _, runs in words:
                self.assertTrue(40 <= sum(runs) <= 140, runs)
                self.assertTrue(BLOCKS_MIN <= len(runs) <= BLOCKS_MAX, runs)
                self.assertTrue(all(q >= 1 for q in runs), runs)


class SpansTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            {"id": 0, "parent": None, "name": "outer", "start": 0.0, "end": 10.0},
            {"id": 1, "parent": 0, "name": "inner", "start": 1.0, "end": 4.0},
            {"id": 2, "parent": 0, "name": "inner", "start": 5.0, "end": 7.0},
        ]
        self.assertEqual(self_times(spans), {"outer": 5.0, "inner": 5.0})

    def test_tracer_links_parents(self):
        tr = Tracer()
        with tr.span("a"):
            with tr.span("b"):
                pass
        a, b = (s.as_dict() for s in tr.spans)
        self.assertIsNone(a["parent"])
        self.assertEqual(b["parent"], a["id"])
        self.assertLessEqual(a["start"], b["start"])
        self.assertLessEqual(b["end"], a["end"])

    def test_wrap_spans_the_inner_call_and_restores_it(self):
        module = types.SimpleNamespace(f=lambda x: x + 1)
        original = module.f
        tr = Tracer()
        kept = []
        with tr.wrap(module, "f", "inner", kept), tr.span("outer"):
            self.assertEqual(module.f(1), 2)
        self.assertIs(module.f, original)
        self.assertEqual(kept, [2])
        outer, inner = (s.as_dict() for s in tr.spans)
        self.assertEqual((outer["name"], inner["name"]), ("outer", "inner"))
        self.assertEqual(inner["parent"], outer["id"])


class ConfigTest(unittest.TestCase):
    def test_config_matches_the_code(self):
        self.assertEqual([w["name"] for w in CONFIG["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in CONFIG["end_to_end"]}, END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in CONFIG["per_layer"]}, PER_LAYER)

    def test_phase_lists_match(self):
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, json; sys.path.insert(0, 'perfbench'); import workloads;"
             "print(json.dumps({w: list(p) for w, p in workloads.PHASES.items()}))"],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": str(ROOT / "src")})
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertEqual(json.loads(done.stdout), {w: list(PHASES) for w in WORKLOADS})


class SmokeTest(unittest.TestCase):
    def test_end_to_end_metrics_and_checks(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = smoke(workload, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, END_TO_END)
                self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_per_layer_metrics_and_exact_counts(self):
        units = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
        counted = [name for name, unit in units.items() if unit in ("count", "bits")]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = smoke(workload, 1), smoke(workload, 1)
                for result in (first, second):
                    self.assertTrue(result["correct"])
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)
                for name in counted:
                    self.assertEqual(first["metrics"][name], second["metrics"][name], name)
        self.assertTrue(any((HERE / "out").glob("trace-smoke-*.json")))

    def test_refuses_to_run_without_the_package(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            done = run_bench("--workload", "heavy_rows", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
