"""Command-line interface.

Four subcommands: spectrum (determinant and homogeneity degree of a
pencil), form (connection form, kappa, trace powers, top-form
factorization), verify (named suites), and torus (cocycle and
factorization checks). All randomness flows through the seed; identical
invocations produce identical bytes. Exit codes: 0 all checks pass,
1 a check failed, 2 bad input or usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from . import serialize
from .cochains import Cochain, DenseCochain, TraceWord, cyclic_symmetrize, \
    functional_product
from .forms import maurer_cartan
from .jacobi import factorize_top_form, trace_power_form
from .linalg import MatrixTuple, PolyMatrix
from .ring import _split_top
from .sampling import rng_for
from .suites import (SUITE_NAMES, SuiteReport, run_suite,
                     torus_cocycle_checks, torus_factorization_checks)
from .transgression import kappa


class CliError(Exception):
    """Bad input or usage: message to stderr, exit code 2."""


# cyclic-random:A:K:SEED draws a tensor with (K*K)^A keys and rotates it A
# times; larger specs are rejected before any work.
MAX_RANDOM_KEYS = 4096
MAX_RANDOM_ARITY = 16
# --trials for verify and torus; a suite's work grows with it, and 0 runs
# each suite's minimum
MAX_TRIALS = 1000


def _default_seed() -> int:
    raw = os.environ.get("PENCILFORMS_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"PENCILFORMS_SEED must be an integer, got {raw!r}")


def _resolve_seed(args) -> int:
    return args.seed if args.seed is not None else _default_seed()


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")


def _load_pencil(path: str) -> PolyMatrix:
    data = _load_json(path)
    try:
        obj = serialize.pencil_input_from_json(data)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")
    return obj.pencil() if isinstance(obj, MatrixTuple) else obj


def parse_cochain_spec(spec: str) -> Cochain:
    """Grammar: trace | traceword:A | dense:FILE | cyclic-random:A:K:SEED
    | product(SPEC, SPEC)."""
    spec = spec.strip()
    if spec == "trace":
        return TraceWord(1)
    if spec.startswith("traceword:"):
        try:
            arity = int(spec[len("traceword:"):])
        except ValueError:
            raise CliError(f"cochain spec {spec!r}: arity must be an integer")
        if arity < 1:
            raise CliError(f"cochain spec {spec!r}: arity must be >= 1")
        return TraceWord(arity)
    if spec.startswith("dense:"):
        path = spec[len("dense:"):]
        data = _load_json(path)
        try:
            return serialize.dense_cochain_from_json(data)
        except ValueError as exc:
            raise CliError(f"{path}: {exc}")
    if spec.startswith("cyclic-random:"):
        fields = spec[len("cyclic-random:"):].split(":")
        if len(fields) != 3:
            raise CliError(
                f"cochain spec {spec!r}: expected cyclic-random:A:K:SEED")
        try:
            arity, k, seed = (int(f) for f in fields)
        except ValueError:
            raise CliError(f"cochain spec {spec!r}: fields must be integers")
        if arity < 1 or k < 1:
            raise CliError(f"cochain spec {spec!r}: arity and k must be >= 1")
        if arity > MAX_RANDOM_ARITY or (k * k) ** arity > MAX_RANDOM_KEYS:
            raise CliError(
                f"cochain spec {spec!r}: at most {MAX_RANDOM_KEYS} tensor "
                f"keys (K*K)^A and arity {MAX_RANDOM_ARITY}")
        rng = rng_for(seed, "cochain-spec", arity, k)
        return cyclic_symmetrize(DenseCochain.random(rng, arity, k))
    if spec.startswith("product(") and spec.endswith(")"):
        try:
            inner = _split_top(spec[len("product("):-1], ",")
        except ValueError as exc:
            raise CliError(f"cochain spec {spec!r}: {exc}")
        if len(inner) != 2:
            raise CliError(
                f"cochain spec {spec!r}: product takes exactly two specs")
        return functional_product(parse_cochain_spec(inner[0]),
                                  parse_cochain_spec(inner[1]))
    raise CliError(
        f"unrecognized cochain spec {spec!r}; expected trace, traceword:A, "
        "dense:FILE, cyclic-random:A:K:SEED, or product(SPEC, SPEC)")


def _write_json_out(path: Optional[str], payload: str) -> None:
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)


def _emit_report(report: SuiteReport, json_out: Optional[str]) -> int:
    if json_out == "-":
        sys.stdout.write(report.json())
    else:
        sys.stdout.write(report.text())
        _write_json_out(json_out, report.json())
    return 0 if report.passed else 1


def cmd_spectrum(args) -> int:
    f = _load_pencil(args.input)
    det = f.det()
    try:
        degree = det.homogeneity_degree()
    except ValueError as exc:
        raise CliError(str(exc))
    payload = serialize.canonical_json({
        "det": str(det),
        "degree": degree,
    })
    if args.json_out == "-":
        sys.stdout.write(payload)
    else:
        degree_text = str(degree) if degree is not None else "not homogeneous"
        sys.stdout.write(f"det: {det}\ndegree: {degree_text}\n")
        _write_json_out(args.json_out, payload)
    return 0


def cmd_form(args) -> int:
    f = _load_pencil(args.input)
    if args.kind == "mc":
        try:
            omega = maurer_cartan(f)
        except ValueError as exc:
            raise CliError(str(exc))
        data = serialize.matrix_form_to_json(omega)
    elif args.kind == "kappa":
        phi = parse_cochain_spec(args.cochain)
        try:
            data = serialize.scalar_form_to_json(kappa(phi, f))
        except ValueError as exc:
            raise CliError(str(exc))
    elif args.kind == "trace-power":
        try:
            form = trace_power_form(f, args.power)
        except ValueError as exc:
            raise CliError(str(exc))
        data = serialize.scalar_form_to_json(form)
    else:  # top-factor
        try:
            fact = factorize_top_form(f)
        except ValueError as exc:
            raise CliError(str(exc))
        if not fact.residual.is_zero:
            sys.stderr.write("FAIL: nonzero residual; the top form is not "
                             "a multiple of s\n")
            return 1
        data = {
            "q": {"num": str(fact.q.num), "den": str(fact.q.den)},
            "q_denominator_power": fact.q.den_pow,
            "residual_zero": fact.residual.is_zero,
            "normalized_coefficients": [
                {"num": str(b.num), "den": str(b.den)} for b in fact.bar_i],
        }
    payload = serialize.canonical_json(data)
    sys.stdout.write(payload)
    _write_json_out(args.json_out, payload)
    return 0


def _check_tol_and_trials(args) -> None:
    if args.tol is not None and not args.tol > 0:
        raise CliError(f"--tol must be positive, got {args.tol}")
    if args.trials is not None and not 0 <= args.trials <= MAX_TRIALS:
        raise CliError(f"--trials must be in 0..{MAX_TRIALS}, "
                       f"got {args.trials}")


def cmd_verify(args) -> int:
    _check_tol_and_trials(args)
    report = run_suite(args.suite, _resolve_seed(args), trials=args.trials,
                       tol=args.tol)
    return _emit_report(report, args.json_out)


def cmd_torus(args) -> int:
    _check_tol_and_trials(args)
    config = None
    if args.input:
        data = _load_json(args.input)
        try:
            config = serialize.torus_config_from_json(data)
        except ValueError as exc:
            raise CliError(f"{args.input}: {exc}")
    seed = _resolve_seed(args)
    if args.check == "cocycles":
        if config is not None and config.mode != "exact":
            raise CliError("cocycle checks need an exact-mode configuration")
        results = torus_cocycle_checks(seed, config)
        report = SuiteReport("torus-cocycles", seed, tuple(results))
    else:
        theta = None
        if config is not None:
            if config.mode != "numeric":
                raise CliError(
                    "factorization checks need a numeric-mode configuration")
            theta = config.theta
        results = torus_factorization_checks(seed, trials=args.trials,
                                             tol=args.tol, theta=theta)
        report = SuiteReport("torus-factorization", seed, tuple(results))
    return _emit_report(report, args.json_out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pencilforms",
        description="Exact multiparameter pencil spectra, connection "
                    "forms, and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seeded=True):
        p.add_argument("--json-out", metavar="PATH",
                       help="write the JSON report to PATH; '-' replaces "
                            "the text output on stdout with JSON")
        if seeded:
            p.add_argument("--seed", type=int, default=None,
                           help="64-bit seed; defaults to PENCILFORMS_SEED "
                                "or 0")

    p = sub.add_parser("spectrum",
                       help="determinant of the pencil and its homogeneity "
                            "degree")
    p.add_argument("--input", required=True, metavar="FILE",
                   help="matrix-tuple or polynomial-matrix JSON")
    add_common(p, seeded=False)
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("form", help="compute a differential form")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--kind", required=True,
                   choices=("mc", "kappa", "trace-power", "top-factor"))
    p.add_argument("--cochain", default="trace", metavar="SPEC",
                   help="cochain spec for --kind kappa: trace, traceword:A, "
                        "dense:FILE, cyclic-random:A:K:SEED, "
                        "product(SPEC, SPEC)")
    p.add_argument("--power", type=int, default=3, metavar="M",
                   help="power for --kind trace-power (default 3)")
    add_common(p, seeded=False)
    p.set_defaults(handler=cmd_form)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--trials", type=int, default=None,
                   help="trial count where the suite samples inputs "
                        f"(0..{MAX_TRIALS})")
    p.add_argument("--tol", type=float, default=None,
                   help="tolerance for numeric residual checks")
    add_common(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("torus", help="twisted-algebra checks")
    p.add_argument("--check", required=True,
                   choices=("cocycles", "factorization"))
    p.add_argument("--input", metavar="FILE",
                   help="torus configuration JSON; defaults to the built-in "
                        "orders q in {3,4,5} or the built-in numeric angles")
    p.add_argument("--trials", type=int, default=None,
                   help=f"sampled points for factorization (0..{MAX_TRIALS})")
    p.add_argument("--tol", type=float, default=None)
    add_common(p)
    p.set_defaults(handler=cmd_torus)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
