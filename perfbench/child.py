"""One phase of one benchmark pass, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD PHASE SEED PASS SMOKE TRACE

``run.py`` starts it with ``PYTHONPATH`` pointing at the checkout's ``src``.
The first statements import the package and note the time, which gives the
set-up time.  PHASE "import" stops there.  Otherwise the child builds the
phase's inputs, times the calls (wall and CPU), checks the outputs outside the
timed region, and prints one JSON object as its last line of output.
"""

import time

import bchcoeff

IMPORTED_AT = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from spans import NullTracer, Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    workload, phase, seed, pass_no, smoke, trace = argv
    result = {"imported_at": IMPORTED_AT, "source": os.path.dirname(bchcoeff.__file__)}
    if phase != "import":
        import workloads

        cold = workloads.caches_cold()
        prepare, work, check = workloads.PHASES[workload][phase]
        inputs = prepare(workloads.params(workload, int(seed), smoke == "1", int(pass_no)))
        tracer = Tracer() if trace == "1" else NullTracer()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        with tracer.span(phase):
            outputs = work(inputs, tracer)
        wall1 = time.perf_counter()
        cpu1 = time.process_time()
        items, checks = check(inputs, outputs)
        checks.insert(0, ("package caches empty at start", cold))
        result.update(
            wall_s=wall1 - wall0,
            cpu_s=cpu1 - cpu0,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            items=items,
            checks=len(checks),
            failures=[claim for claim, ok in checks if not ok],
            spans=[s.as_dict() for s in tracer.spans],
            values=tracer.values,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
