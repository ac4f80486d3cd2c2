"""bchcoeff benchmark runner (stdlib only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  The runner never imports ``bchcoeff``
itself: every pass starts ``child.py`` in a fresh interpreter with ``src`` on
``PYTHONPATH`` and without ``BCHCOEFF_JOBS``, one child at a time, so no
cache survives from one pass to the next and ``q_set`` stays serial.

With ``--trace 0`` it runs untraced passes for about S seconds and
prints the end-to-end metrics.  With ``--trace 1`` it alternates an
untraced and a traced pass, prints the per-layer metrics and writes the
spans to ``perfbench/out/``.  Checks against the reference data run outside
the timed regions.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit status is 1
when a check failed and 2 when the benchmark could not run.  ``--workload
all`` runs every workload in turn.  ``--smoke`` runs one pass on tiny inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, PHASES, WORKLOADS, layer_values

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

# import-only children per run for setup_s, on top of one per untraced pass
SETUP_PROBES = 5
# no round of passes starts that would likely end past this, so a run ends
# inside three minutes even when a pass is slow
RUN_BUDGET_S = 150.0
CHILD_TIMEOUT_S = 170.0


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(row[key] for row in rows)


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


def git_commit() -> str:
    """The commit checked out at ROOT, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BCHCOEFF_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


class Runner:
    def __init__(self, workload: str, seed: int, smoke: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []

    def child(self, phase: str, trace: bool, pass_no: int = 0) -> dict:
        """Run one child to completion and return its result."""
        argv = [sys.executable, str(HERE / "child.py"), self.workload, phase,
                str(self.seed), str(pass_no), "1" if self.smoke else "0",
                "1" if trace else "0"]
        spawned = time.perf_counter()
        try:
            done = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload}/{phase}: child ran over {CHILD_TIMEOUT_S} s") from None
        if done.returncode != 0 or not done.stdout.strip():
            raise BenchError(f"{self.workload}/{phase}: child exited {done.returncode}\n"
                             f"{done.stderr.strip()}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if Path(result["source"]).resolve() != (ROOT / "src" / "bchcoeff").resolve():
            raise BenchError(f"imported bchcoeff from {result['source']}, not from {ROOT / 'src'}")
        result["setup_s"] = result["imported_at"] - spawned
        if phase != "import":
            self.attempted += result["checks"]
            self.failures += [f"{self.workload}/{phase}: {claim}" for claim in result["failures"]]
        return result

    def traced_pass(self, pass_id: int) -> dict:
        """Every phase of the workload with spans on; spans of one pass share
        pass_id, and span ids carry their phase."""
        spans, values, wall = [], {}, 0.0
        for phase in PHASES:
            result = self.child(phase, trace=True)
            wall += result["wall_s"]
            for key, value in result["values"].items():
                if key.endswith("peak_bits"):
                    values[key] = max(values.get(key, value), value)
                else:
                    values[key] = values.get(key, 0) + value
            for s in result["spans"]:
                spans.append({**s, "pass": pass_id, "phase": phase,
                              "id": f"{phase}.{s['id']}",
                              "parent": None if s["parent"] is None else f"{phase}.{s['parent']}"})
        return {"pass": pass_id, "wall_s": wall, "spans": spans,
                "layers": layer_values(spans, values)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    runner = Runner(workload, seed, smoke)
    runner.child("import", trace=False)  # writes bytecode caches; not counted
    setup = [runner.child("import", trace=False)["setup_s"]
             for _ in range(1 if smoke else SETUP_PROBES)]
    untraced: list[dict] = []
    traced: list[dict] = []
    rounds: list[float] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        # untraced runs give every pass its own inputs (random_words draws
        # a word set per pass); traced runs repeat pass 0's, so that the
        # traced and untraced passes match and the counts repeat exactly
        pass_no = 0 if trace else len(untraced)
        untraced.append(runner.child("calls", trace=False, pass_no=pass_no))
        if trace:
            traced.append(runner.traced_pass(len(traced)))
        rounds.append(time.perf_counter() - began)
        # start no round that would likely end past the deadline, so that a
        # run lasts about S seconds whatever a pass costs
        ends = time.perf_counter() - start + statistics.median(rounds)
        if smoke or ends > min(seconds, RUN_BUDGET_S):
            break
    setup += [p["setup_s"] for p in untraced]
    # the first pass warms the host up; it is checked, and timed only when
    # no other pass ran
    timed = untraced[1:] or untraced
    run_s = median_of(timed, "wall_s")
    if trace:
        # counts repeat exactly, so their median is one of them
        metrics = {name: (statistics.median if unit == "s" else statistics.median_low)(
                       p["layers"][name] for p in traced)
                   for name, unit in PER_LAYER.items() if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = median_of(traced, "wall_s") - run_s
        units = PER_LAYER
    else:
        metrics = {
            "run_s": run_s,
            "cpu_s": median_of(timed, "cpu_s"),
            "items_per_s": statistics.median(p["items"] / p["wall_s"] for p in timed),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": median_of(timed, "rss_mb"),
        }
        units = END_TO_END
    return {
        "workload": workload,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "attempted": runner.attempted,
        "failures": runner.failures,
        "untraced": untraced,
        "traced": traced,
        "setup_samples": setup,
    }


def pass_agreement(untraced: list[dict], bound: float | None) -> str:
    """First pass against the later ones: a cache that leaked between passes
    would make the later ones faster."""
    if len(untraced) < 2:
        return "pass agreement: one pass only"
    first = untraced[0]["cpu_s"]
    later = statistics.median(p["cpu_s"] for p in untraced[1:])
    share = abs(first - later) / later
    verdict = "" if bound is None else f", {'within' if share <= bound else 'OUTSIDE'} bound {bound}"
    return (f"pass agreement: first pass cpu_s {first:.4f}, later median {later:.4f}, "
            f"differ by {share:.1%}{verdict}")


def write_trace(result: dict, stamp: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    tag = "smoke-" if stamp["smoke"] else ""
    path = OUT_DIR / f"trace-{tag}{result['workload']}-seed{stamp['seed']}.json"
    payload = {
        "stamp": stamp,
        "workload": result["workload"],
        "metrics": result["metrics"],
        "untraced_wall_s": [p["wall_s"] for p in result["untraced"]],
        "passes": [{"pass": p["pass"], "wall_s": p["wall_s"], "layers": p["layers"]}
                   for p in result["traced"]],
        "spans": [s for p in result["traced"] for s in p["spans"]],
    }
    path.write_text(json.dumps(payload, indent=1))
    return path


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass per run on tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "bchcoeff" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'bchcoeff'}", file=sys.stderr)
        return 2
    stamp = {"seed": args.seed, "python": platform.python_version(), "nproc": os.cpu_count(),
             "commit": git_commit(), "seconds": args.seconds, "trace": args.trace,
             "smoke": args.smoke}
    bounds = {}
    config = ROOT / "BENCHMARK.json"
    if config.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(config.read_text())["end_to_end"]}
    print(f"# stamp {json.dumps(stamp)}")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in workloads:
            results.append(run_workload(workload, args.seed, args.seconds,
                                        bool(args.trace), args.smoke))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = {}
    attempted = failed = 0
    for result in results:
        workload = result["workload"]
        prefix = f"{workload}." if len(results) > 1 else ""
        n_untraced = len(result["untraced"])
        warm_up = " (the first one warm-up)" if n_untraced > 1 else ""
        print(f"# {workload}: {n_untraced} untraced passes{warm_up} and "
              f"{len(result['traced'])} traced, {len(result['setup_samples'])} set-up samples")
        walls = " ".join(f"{p['wall_s']:.4f}" for p in result["untraced"])
        print(f"# untraced pass wall_s: {walls}")
        for name, m in result["metrics"].items():
            print(f"{prefix}{name} {m['value']!r} {m['unit']}")
            metrics[prefix + name] = m
        n_failed = len(result["failures"])
        ratio = n_failed / result["attempted"] if result["attempted"] else 1.0
        print(f"{prefix}failed_ratio {ratio!r} ratio ({n_failed}/{result['attempted']} checks failed)")
        for claim in result["failures"]:
            print(f"# FAILED {claim}")
        if args.trace:
            print(f"# spans written to {write_trace(result, stamp).relative_to(ROOT)}")
        else:
            print(f"# {pass_agreement(result['untraced'], bounds.get('run_s'))}")
        attempted += result["attempted"]
        failed += n_failed
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
