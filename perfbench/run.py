"""Layered benchmark of pencilforms, driven through in-process `cli.main`.

    python3 perfbench/run.py --workload verify-pencil --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One closed-loop client in one process sends the workload's
requests one after another. ``--trace 0`` reports the end-to-end metrics
with tracing off; ``--trace 1`` runs the first pass untraced, then again
with every layer wrapped (see tracer.py), and reports the per-layer metrics.
Times are given at reference speed, corrected for the host's drift by a
reference computation sampled during timing (see speed.py).
Outputs are checked after timing. The last line of stdout is the result
JSON; a record with the environment, per-request counters and, when traced,
the spans is written under perfbench/out/.

``--workload all`` runs every workload in turn, each in a fresh process.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import pencilforms.cli; from pencilforms import jacobi; "
              "jacobi.calibrated_sign()")

END_TO_END = {
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (metric, stat) pairs reported from the traced pass.
LAYER_STATS = [
    ("core.poly_mul", ("calls", "self_s")),
    ("core.poly_add", ("calls", "self_s")),
    ("core.poly_mul_term", ("calls", "self_s")),
    ("core.qmul", ("calls", "self_s")),
    ("core.qadd", ("calls", "self_s")),
    ("ring.MultiPoly.mul", ("calls", "self_s")),
    ("ring.MultiPoly.exact_divide", ("calls", "self_s")),
    ("ring.RatFn.reduce", ("calls", "total_s")),
    ("ring.RatFn.arith", ("self_s",)),
    ("ring.CycloElement.mul", ("calls", "self_s", "total_s")),
    ("linalg.det", ("calls", "total_s")),
    ("linalg.adjugate", ("calls", "total_s")),
    ("linalg.PolyMatrix.mul", ("calls", "self_s")),
    ("forms.maurer_cartan", ("calls", "total_s")),
    ("forms.wedge", ("calls", "self_s")),
    ("forms.exterior_derivative", ("total_s",)),
    ("forms.trace", ("total_s",)),
    ("cochains.evaluate", ("calls", "self_s")),
    ("cochains.cyclic_symmetrize", ("total_s",)),
    ("cochains.is_cyclic", ("total_s",)),
    ("transgression.kappa", ("calls", "total_s")),
    ("transgression.apply_multilinear", ("total_s",)),
    ("transgression.transgression_report", ("total_s",)),
    ("transgression.hyperplane_decomposition", ("total_s",)),
    ("jacobi.trace_power_form", ("calls", "total_s")),
    ("jacobi.anchored_trace_power", ("total_s",)),
    ("jacobi.factorize_top_form", ("total_s",)),
    ("jacobi.cubic_trace_data", ("total_s",)),
    ("torus.TorusElement.mul", ("calls", "self_s", "total_s")),
    ("torus.delta", ("self_s",)),
    ("torus.cyclicity_check", ("total_s",)),
    ("torus.coboundary_check", ("total_s",)),
    ("torus.factorization_report", ("total_s",)),
    ("torus.neumann_resolvent", ("calls",)),
] + [("suites." + s, ("total_s",)) for s in (
    "flatness", "theorem29", "jacobi-classic", "parity", "theorem33",
    "example35", "tau", "hyperplane", "torus")] + [
    ("serialize.parse", ("self_s",)),
    ("serialize.emit", ("self_s",)),
    ("cli", ("self_s",)),
]

LAYERS = ("core", "ring", "linalg", "forms", "cochains", "transgression",
          "jacobi", "torus", "suites", "serialize", "cli")

STAT_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}

EXTRA_LAYER_UNITS = {
    "core.poly_mul.term_pairs": "count",
    "core.poly_mul.gauss_int_frac": "ratio",
    "core.max_terms": "count",
    "core.max_coeff_bits": "bits",
    "ring.MultiPoly.exact_divide.fail_frac": "ratio",
    "linalg.adjugate.repeat_frac": "ratio",
    "forms.maurer_cartan.repeat_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> dict:
    units = {}
    for name, stats in LAYER_STATS:
        for stat in stats:
            units[f"{name}.{stat}"] = STAT_UNITS[stat]
    units.update(EXTRA_LAYER_UNITS)
    for layer in LAYERS:
        units[f"{layer}.self_frac"] = "ratio"
    return units


class BenchError(Exception):
    """The benchmark cannot run here: message to stderr, exit code 2."""


# -- environment ------------------------------------------------------------------


def _git_rev():
    """HEAD of the checkout, or None when the checkout is not a git tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    """sha256 over the package sources, to tell commits apart without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "pencilforms").glob("*.py*")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _source_lines() -> int:
    """Non-generated lines of src/pencilforms (the generated C is skipped)."""
    total = 0
    for path in sorted((SRC / "pencilforms").iterdir()):
        if path.suffix in (".py", ".pyx") and path.is_file():
            total += len(path.read_text(encoding="utf-8").splitlines())
    return total


def environment(workload: str, seed: int, passes: int) -> dict:
    import pencilforms

    return {
        "git_rev": _git_rev(),
        "source_sha256": _source_digest(),
        "backend": pencilforms.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "workload": workload,
        "passes": passes,
        "parameters": workloads.parameters(workload),
        "source_lines": _source_lines(),
    }


# -- measurement --------------------------------------------------------------------


def measure_setup() -> tuple:
    """Median seconds, at reference speed, from a fresh interpreter to a
    ready package, and the median measured seconds.

    The benchmark process and the interpreters it starts are held to one CPU,
    so the reference samples time the CPU the interpreters run on.
    """
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
    if cpus:
        os.sched_setaffinity(0, {min(cpus)})
    times = []
    try:
        with speed.Sampler() as sampler:
            for _ in range(SETUP_REPEATS):
                spent = sampler.spent
                t0 = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-c", SETUP_CODE, str(SRC)],
                    cwd=ROOT, capture_output=True, timeout=120)
                times.append(time.perf_counter() - t0
                             - (sampler.spent - spent))
                if proc.returncode != 0:
                    raise BenchError(
                        "set-up failed: "
                        + proc.stderr.decode(errors="replace")[-400:])
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
    measured = statistics.median(times)
    return measured * sampler.factor(), measured


def execute(cli, request, sampler, tracer=None, request_id=0) -> dict:
    """One closed-loop request through cli.main; output captured.

    `net_s` is the measured time without the sampler's interruptions.
    """
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.begin_request(request_id)
    spent = sampler.spent
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(request.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed request, not a crash
            code = "exception"
            err.write(traceback.format_exc())
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.end_request()
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "t0": t0, "t1": t1, "net_s": t1 - t0 - (sampler.spent - spent)}


def run_pass(cli, requests, tracer=None) -> tuple:
    """Results, pass time at reference speed, and the raw timing of the pass.

    Each result's `latency_s` is its request's time at the reference speed
    around it; the pass time is their sum plus the time between requests.
    """
    gc.collect()
    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        results = [execute(cli, r, sampler, tracer, i)
                   for i, r in enumerate(requests)]
        measured = time.perf_counter() - t0 - sampler.spent
    for result in results:
        result["latency_s"] = result["net_s"] * sampler.factor(result["t0"],
                                                               result["t1"])
    k = sampler.factor()
    between = measured - sum(r["net_s"] for r in results)
    wall = sum(r["latency_s"] for r in results) + between * k
    return results, wall, {"measured_s": measured, "factor": k,
                           "samples": len(sampler.samples)}


def check(request, result) -> str | None:
    if result["code"] != 0:
        return f"exit code {result['code']}: {result['stderr'][-300:]}"
    text = result["stdout"]
    try:
        if request.kind == "report":
            return checks.check_report(text, request.required)
        if request.kind == "cyclic":
            return checks.check_cyclic_kappa(text, request.tuple_json,
                                             request.spec)
        ref = checks.Reference(request.tuple_json, request.point)
        return {"spectrum": checks.check_spectrum, "mc": checks.check_mc,
                "trace3": checks.check_trace3,
                "top": checks.check_top_factor}[request.kind](text, ref)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable output: {exc!r}"


# -- per-layer metrics ------------------------------------------------------------------


def layer_metrics(tracer, traced_wall: float, untraced_wall: float,
                  factor: float) -> dict:
    """Per-layer values; span seconds are scaled to reference speed by the
    traced pass's `factor`, as its `traced_wall` is."""
    totals = tracer.totals()
    values = {}
    for name, stats in LAYER_STATS:
        calls, self_s, total_s = totals.get(name, (0, 0.0, 0.0))
        for stat in stats:
            values[f"{name}.{stat}"] = {"calls": calls,
                                        "self_s": self_s * factor,
                                        "total_s": total_s * factor}[stat]
    mul_calls = totals.get("core.poly_mul", (0,))[0]
    div_calls = totals.get("ring.MultiPoly.exact_divide", (0,))[0]
    mc_calls = totals.get("forms.maurer_cartan", (0,))[0]
    adj_calls = totals.get("linalg.adjugate", (0,))[0]
    values.update({
        "core.poly_mul.term_pairs": tracer.term_pairs,
        "core.poly_mul.gauss_int_frac": _ratio(tracer.gauss_int_calls,
                                               mul_calls),
        "core.max_terms": tracer.max_terms,
        "core.max_coeff_bits": tracer.max_coeff_bits,
        "ring.MultiPoly.exact_divide.fail_frac": _ratio(tracer.divide_fails,
                                                        div_calls),
        "linalg.adjugate.repeat_frac": _ratio(
            tracer.repeats["linalg.adjugate"], adj_calls),
        "forms.maurer_cartan.repeat_frac": _ratio(
            tracer.repeats["forms.maurer_cartan"], mc_calls),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    })
    for layer in LAYERS:
        own = sum(agg[1] for name, agg in totals.items()
                  if name == layer or name.startswith(layer + "."))
        values[f"{layer}.self_frac"] = own * factor / traced_wall
    return values


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


# -- one workload ------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s, setup_measured = (None, None) if trace else measure_setup()
    from pencilforms import cli, jacobi

    jacobi.calibrated_sign()  # lazy set-up finishes before timing
    passes = 1 if trace else workloads.pass_count(workload, seconds)
    run_dir = OUT / f"{workload}-seed{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    requests = workloads.build(workload, seed, passes, run_dir / "inputs")

    record = {"env": environment(workload, seed, passes)}
    results = [run_pass(cli, reqs) for reqs in requests]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    traced = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(cli, requests[0], tracer)
        finally:
            tracer.uninstall()
        for i, (plain, with_trace) in enumerate(zip(results[0][0],
                                                    traced[0])):
            if (plain["code"], plain["stdout"]) != (with_trace["code"],
                                                    with_trace["stdout"]):
                failures.append((0, i, "traced output differs from untraced"))

    attempted = 0
    for p, (reqs, (outs, _, _)) in enumerate(zip(requests, results)):
        for i, (request, result) in enumerate(zip(reqs, outs)):
            attempted += 1
            reason = check(request, result)
            if reason is not None:
                failures.append((p, i, reason))
    failed = len({(p, i) for p, i, _ in failures})
    for p, i, reason in failures[:10]:
        print(f"FAILED pass {p} request {i} "
              f"({' '.join(requests[p][i].argv)}): {reason}", file=sys.stderr)

    latencies = [r["latency_s"] * 1000 for outs, _, _ in results
                 for r in outs]
    walls = [wall for _, wall, _ in results]
    summary = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "requests": len(latencies), "passes": passes,
        "latencies_ms": [[r["latency_s"] * 1000 for r in outs]
                         for outs, _, _ in results],
        "pass_timing": [timing for _, _, timing in results],
    }
    if trace:
        values = layer_metrics(tracer, traced[1], walls[0],
                               traced[2]["factor"])
        units = per_layer_units()
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name in units}
        record["per_request"] = {str(k): v for k, v in
                                 tracer.per_request.items()}
        record["spans"] = tracer.write_spans(run_dir / "spans.tsv.gz")
        summary["traced_wall_s"] = traced[1]
        summary["untraced_wall_s"] = walls[0]
    else:
        values = {
            "wall_s": statistics.median(walls),
            "req_p50_ms": statistics.median(latencies),
            # inclusive: stays within the observed latencies when a run
            # has few requests (verify-torus makes two)
            "req_p90_ms": statistics.quantiles(latencies, n=10,
                                               method="inclusive")[8],
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        summary["pass_walls_s"] = walls
        summary["setup_measured_s"] = setup_measured
    record["summary"] = summary
    record["metrics"] = metrics
    name = "trace.json" if trace else "result.json"
    (run_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict) -> None:
    env, summary = record["env"], record["summary"]
    print(f"# {env['workload']} seed={env['seed']} backend={env['backend']} "
          f"python={env['python']} nproc={env['nproc']} "
          f"rev={env['git_rev']} source_lines={env['source_lines']}")
    print(f"# passes={summary['passes']} requests={summary['requests']} "
          f"failed_frac={summary['failed_frac']:.4f} "
          f"({summary['failed']}/{summary['attempted']})")
    for name, metric in record["metrics"].items():
        print(f"{env['workload']:14s} {name:44s} {metric['value']:.6g} "
              f"{metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # one fresh process per workload, so peak_rss_mb is each one's own
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds",
                                 str(args.seconds), "--trace",
                                 str(args.trace)]).returncode
                 for name in workloads.WORKLOADS]
        return max(codes)
    try:
        if not (SRC / "pencilforms" / "__init__.py").is_file():
            raise BenchError(f"no package source at {SRC}; run from the "
                             "root of a pencilforms checkout")
        sys.path.insert(0, str(SRC))
        import pencilforms

        if Path(pencilforms.__file__).resolve().parent != SRC / "pencilforms":
            raise BenchError(f"imported {pencilforms.__file__}, not the "
                             "checkout's source")
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(record)
    summary = record["summary"]
    print(json.dumps({
        "correct": summary["correct"], "attempted": summary["attempted"],
        "failed": summary["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
