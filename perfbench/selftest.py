"""Self-test of the benchmark on tiny inputs (about two minutes).

    python3 perfbench/selftest.py

For each workload, at reduced trial counts, it runs one pass untraced and two
passes traced, then asserts that:

- BENCHMARK.json names exactly the metrics run.py reports;
- every output passes its check, and traced output bytes and exit codes equal
  the untraced ones;
- each per-layer count or time is above zero on the workload meant to
  exercise it;
- the two traced passes give identical operation counts.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads
from tracer import Tracer

# Reduced sizes; verify-torus keeps the whole torus suite, which has no
# trial count for its exact checks.
TINY = {
    "PENCIL_TRIALS": {suite: (1, 1) for suite in workloads.PENCIL_TRIALS},
    "TORUS_FACTOR_TRIALS": 10,
    "FORM_TUPLES": ((3, 2), (4, 2), (3, 3)),
}

COUNT_UNITS = ("count", "bits")
COUNT_RATIOS = ("gauss_int_frac", "fail_frac", "repeat_frac")


def home(metric: str) -> str | None:
    """The workload meant to exercise a per-layer metric; None for ratios."""
    if metric.endswith("_frac"):
        return None
    if (metric.startswith(("torus.", "ring.CycloElement."))
            or metric == "suites.torus.total_s"):
        return "verify-torus"
    if metric.startswith(("serialize.", "cli.")):
        return "form-requests"
    return "verify-pencil"


def traced_pass(cli, requests, untraced_wall):
    tracer = Tracer()
    tracer.install()
    try:
        outs, wall, timing = run.run_pass(cli, requests, tracer)
    finally:
        tracer.uninstall()
    return outs, run.layer_metrics(tracer, wall, untraced_wall,
                                   timing["factor"])


def main() -> int:
    problems = []
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if {m["name"] for m in bench["per_layer"]} != set(run.per_layer_units()):
        problems.append("BENCHMARK.json per_layer differs from run.py")
    if {m["name"] for m in bench["end_to_end"]} != set(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    if {w["name"] for w in bench["workloads"]} != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")

    for key, value in TINY.items():
        setattr(workloads, key, value)
    sys.path.insert(0, str(run.SRC))
    from pencilforms import cli, jacobi

    jacobi.calibrated_sign()
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        for workload in workloads.WORKLOADS:
            requests = workloads.build(workload, 7, 1, Path(tmp) / workload)[0]
            plain, wall, _ = run.run_pass(cli, requests)
            first_outs, first = traced_pass(cli, requests, wall)
            _, second = traced_pass(cli, requests, wall)
            for i, (request, a, b) in enumerate(zip(requests, plain,
                                                    first_outs)):
                reason = run.check(request, a)
                if reason is not None:
                    problems.append(f"{workload} request {i}: {reason}")
                if (a["code"], a["stdout"]) != (b["code"], b["stdout"]):
                    problems.append(f"{workload} request {i}: traced output "
                                    "differs")
            units = run.per_layer_units()
            for name, unit in units.items():
                exact = unit in COUNT_UNITS or name.endswith(COUNT_RATIOS)
                if exact and first[name] != second[name]:
                    problems.append(f"{workload} {name}: counts differ "
                                    f"({first[name]} vs {second[name]})")
                if home(name) == workload and not first[name] > 0:
                    problems.append(f"{workload} {name} is {first[name]}")
            print(f"{workload}: {len(requests)} requests, untraced "
                  f"{wall:.2f} s, overhead "
                  f"{first['trace.overhead_frac']:.3f}", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
