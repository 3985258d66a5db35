"""The three workloads: request lists built from the workload seed.

A run is a fixed number of passes; every pass is the workload's request
sequence on inputs drawn from (seed, pass index), so no input repeats across
passes and a cross-call cache can only help within a pass, where the
workload shares inputs on purpose (form-requests: several requests per
tuple). Pass counts scale with --seconds against the nominal pass times
measured at the commit that introduced the benchmark (2 vCPU, Python 3.11,
pure-Python kernel), so every run of one seed does the same work.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from checks import REQUIRED_CHECKS, well_conditioned_point

# verify-pencil: every pencil suite of `verify --suite all`, in its order, in
# one pass of about 20 s (the defaults take about 70 s), as (trials, requests):
# a suite split into several requests, each with its own seed, draws more
# pencils for the same work, so the pass costs about the same at every seed.
# parity is at its minimum of one pencil per (k, n) combination; theorem29 at
# its minimum of one cochain per cell, as its cost depends most on the draw
# (0.4-2.6 s per request), so that more of it widened the spread of the pass
# time between seeds. flatness at 12 trials and example35 at 8 cost about the
# same (0.55-0.75 s): their six requests form one cluster, with four cheaper
# requests below and four dearer above, so the median of the 14 requests
# falls in its middle. The 90th percentile falls between the two theorem33
# requests.
PENCIL_TRIALS = {
    "flatness": (12, 3),
    "theorem29": (6, 1),
    "jacobi-classic": (20, 1),
    "parity": (4, 1),
    "theorem33": (6, 2),
    "example35": (8, 3),
    "tau": (3, 2),
    "hyperplane": (6, 1),
}

# verify-torus: `verify --suite torus` (~24 s, exact cocycle checks) plus the
# numeric factorization with enough sample points that the floating-point
# part is about a third of the pass.
TORUS_FACTOR_TRIALS = 75

# form-requests: tuples per pass, as (n, k); two passes make 102 requests.
# The median request falls among the 16 kappa and trace-power requests of the
# four n=4, k=2 tuples; with two such tuples it sat at the edge of that
# cluster and moved by 25% between seeds. The 90th percentile falls among the
# 12 slowest requests, the kappa, trace-power and top-factor requests of the
# n=4, k=3 tuples, whose cost varies little with the seed; with one such
# tuple per pass it fell among the cyclic kappa requests below them, whose
# cost depends on the random cochain, and spread by 10% over ten seeds.
FORM_TUPLES = ((3, 2), (3, 2), (3, 3), (4, 2), (4, 2), (4, 2), (4, 2),
               (4, 3), (4, 3))

NOMINAL_PASS_S = {
    "verify-pencil": 20.0,
    "verify-torus": 34.0,
    "form-requests": 14.5,
}

WORKLOADS = tuple(NOMINAL_PASS_S)


@dataclass
class Request:
    argv: list
    kind: str                      # which output check applies
    required: set = field(default_factory=set)
    tuple_json: dict | None = None
    point: list | None = None
    spec: str | None = None


def derive(seed: int, *parts) -> int:
    text = repr((int(seed),) + tuple(str(p) for p in parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def pass_count(workload: str, seconds: float) -> int:
    """Whole passes that fit in `seconds` at the nominal pass time; >= 1."""
    return max(1, int(seconds // NOMINAL_PASS_S[workload]))


def parameters(workload: str) -> dict:
    """Workload parameters recorded with every result."""
    if workload == "verify-pencil":
        return {"suites": list(PENCIL_TRIALS),
                "trials": {s: t for s, (t, _) in PENCIL_TRIALS.items()},
                "requests": {s: r for s, (_, r) in PENCIL_TRIALS.items()}}
    if workload == "verify-torus":
        return {"suites": ["torus"],
                "torus_factorization_trials": TORUS_FACTOR_TRIALS}
    return {"tuples_per_pass": [f"n={n},k={k}" for n, k in FORM_TUPLES],
            "requests_per_tuple": ["spectrum", "mc", "kappa traceword:3",
                                   "kappa cyclic-random:A:k:s (A=3 if k=2 "
                                   "else 2)", "trace-power 3",
                                   "top-factor (n=4)"],
            "entries": "Gaussian rationals a/b + (c/d) i: half with b in "
                       "{2,3}, 30% with an imaginary part"}


def build(workload: str, seed: int, passes: int, input_dir: Path) -> list:
    """Request lists, one per pass; form inputs are written to input_dir."""
    out = []
    for p in range(passes):
        pass_seed = derive(seed, workload, p)
        if workload == "verify-pencil":
            out.append(_pencil_pass(pass_seed))
        elif workload == "verify-torus":
            out.append(_torus_pass(pass_seed))
        else:
            out.append(_form_pass(pass_seed, input_dir / f"pass{p}"))
    return out


def _pencil_pass(pass_seed: int) -> list:
    return [Request(["verify", "--suite", suite, "--seed",
                     str(derive(pass_seed, suite, r)), "--trials", str(trials),
                     "--json-out", "-"],
                    "report", required=REQUIRED_CHECKS[suite])
            for suite, (trials, requests) in PENCIL_TRIALS.items()
            for r in range(requests)]


def _torus_pass(pass_seed: int) -> list:
    return [
        Request(["verify", "--suite", "torus", "--seed", str(pass_seed),
                 "--json-out", "-"], "report", required=REQUIRED_CHECKS["torus"]),
        Request(["torus", "--check", "factorization", "--seed",
                 str(pass_seed), "--trials", str(TORUS_FACTOR_TRIALS),
                 "--json-out", "-"], "report",
                required=REQUIRED_CHECKS["torus-factorization"]),
    ]


def _entries(rng: random.Random, count: int) -> list:
    """Gaussian-rational entry strings with a fixed composition.

    Exactly half the entries have a denominator 2 or 3 and exactly 30% an
    imaginary part; numerators are nonzero. Only positions and values are
    random, so the cost of one tuple varies less from seed to seed than with
    independent draws.
    """
    with_den = set(rng.sample(range(count), count // 2))
    with_imag = set(rng.sample(range(count), round(0.3 * count)))
    out = []
    for pos in range(count):
        if pos in with_den:
            text = rng.choice(("1/2", "3/2", "1/3", "2/3"))
        else:
            text = rng.choice(("1", "2", "3"))
        if rng.random() < 0.5:
            text = "-" + text
        if pos in with_imag:
            text += rng.choice(("+", "-")) + rng.choice(
                ("1", "2", "1/2", "1/3", "2/3")) + "*i"
        out.append(text)
    return out


def _form_pass(pass_seed: int, directory: Path) -> list:
    directory.mkdir(parents=True, exist_ok=True)
    requests = []
    for t, (n, k) in enumerate(FORM_TUPLES):
        rng = random.Random(derive(pass_seed, "tuple", t))
        while True:
            flat = iter(_entries(rng, n * k * k))
            data = {"n": n, "k": k,
                    "matrices": [[[next(flat) for _ in range(k)]
                                  for _ in range(k)] for _ in range(n)]}
            try:
                point = well_conditioned_point(rng, data)
                break
            except RuntimeError:
                continue  # det A(z) vanishes identically: draw again
        path = directory / f"tuple{t}.json"
        path.write_text(json.dumps(data, indent=1) + "\n")
        arity = 3 if k == 2 else 2
        spec = f"cyclic-random:{arity}:{k}:{derive(pass_seed, 'cochain', t) % 10**6}"
        common = ["--input", str(path), "--json-out", "-"]
        kinds = [(["spectrum"], "spectrum", None),
                 (["form", "--kind", "mc"], "mc", None),
                 (["form", "--kind", "kappa", "--cochain", "traceword:3"],
                  "trace3", None),
                 (["form", "--kind", "kappa", "--cochain", spec],
                  "cyclic", spec),
                 (["form", "--kind", "trace-power", "--power", "3"],
                  "trace3", None)]
        if n == 4:
            kinds.append((["form", "--kind", "top-factor"], "top", None))
        for head, kind, cochain in kinds:
            requests.append(Request(head + common, kind, tuple_json=data,
                                    point=point, spec=cochain))
    return requests
