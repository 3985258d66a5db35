"""Acceptance gate: the eleven shipping criteria, one line each.

Each test prints PASS/FAIL with its headline numbers (visible under
pytest -s or -rA) and asserts the same condition. Library-level checks
use a fixed seed; the determinism criterion runs the CLI twice.
"""

import os
import subprocess
import sys
import time

import pencilforms
from pencilforms.cochains import DenseCochain, TraceWord, cyclic_symmetrize, \
    is_cyclic
from pencilforms.forms import maurer_cartan
from pencilforms.jacobi import factorize_top_form, trace_power_form
from pencilforms.sampling import random_matrix_tuple, random_poly_matrix, \
    rng_for
from pencilforms.suites import (suite_cubic_trace, suite_entry_matrix,
                                suite_flatness, suite_hyperplane,
                                suite_jacobi_classic, suite_parity,
                                suite_tau, suite_torus, suite_transgression)
from pencilforms.transgression import kappa, kappa_wedge_oracle

from oracles import trace_word_dense

SEED = 2026


def _report(ok: bool, line: str) -> None:
    print(("PASS " if ok else "FAIL ") + line, flush=True)
    assert ok, line


def _all_passed(results) -> bool:
    return all(r.passed for r in results)


def test_criterion_01_flatness():
    start = time.monotonic()
    results = suite_flatness(SEED)
    elapsed = time.monotonic() - start
    ok = _all_passed(results) and elapsed < 30
    _report(ok, "criterion 1: flatness, 20 linear + 5 quadratic inputs, "
                f"exact, {elapsed:.1f}s (< 30s)")


def test_criterion_02_transgression():
    start = time.monotonic()
    results = suite_transgression(SEED)
    elapsed = time.monotonic() - start
    ok = _all_passed(results) and elapsed < 120
    _report(ok, "criterion 2: (a/(a+1)) kappa(b phi) + d kappa(phi) = 0 "
                "with both sub-identities, arities 1-3, k=2, n in {3,4}, "
                f"{elapsed:.1f}s (< 120s)")


def test_criterion_03_jacobi():
    results = suite_jacobi_classic(SEED)
    _report(_all_passed(results),
            "criterion 3: tr(adj(f) d_i f) = d_i det f, all variables, "
            "k up to 4, 20 random f")


def test_criterion_04_parity():
    results = suite_parity(SEED)
    _report(_all_passed(results),
            "criterion 4: tr(omega^2) = 0 and tr(omega^4) = 0 exactly, "
            "k in {2,3}, n in {4,5}")


def test_criterion_05_cubic_trace_constant():
    start = time.monotonic()
    results = suite_cubic_trace(SEED, trials=100)
    results += suite_entry_matrix(SEED, trials=100)
    elapsed = time.monotonic() - start
    ok = _all_passed(results) and elapsed < 180
    detail = next(r.detail for r in results
                  if r.name == "example35.entry-matrix")
    _report(ok, "criterion 5: p constant for 100 tuples (k=2) matching the "
                "calibrated entry-matrix constant, homogeneous of degree 2 "
                f"for 20 tuples (k=3), exact division; {detail.split(';')[0]}; "
                f"{elapsed:.1f}s (< 180s)")


def test_criterion_06_top_factorization():
    ok = True
    for k in (2, 3):
        t = random_matrix_tuple(rng_for(SEED, "acc-top", k), 4, k)
        fact = factorize_top_form(t.pencil())
        ok = ok and fact.residual.is_zero
    rng = rng_for(SEED, "acc-top", "quadratic")
    while True:
        f = random_poly_matrix(rng, 4, 2, degree=2)
        if not f.det().is_zero:
            break
    ok = ok and factorize_top_form(f).residual.is_zero
    _report(ok, "criterion 6: top-form factorization with zero residual and "
                "cross relations, n=4, k in {2,3}, plus one homogeneous "
                "quadratic input")


def test_criterion_07_cochain_algebra():
    ok = True
    for k in (2, 3):
        for arity in (1, 2, 3):
            phi = DenseCochain.random(rng_for(SEED, "acc-bb", k, arity),
                                      arity, k)
            ok = ok and not phi.coboundary().coboundary().tensor
            cyc = cyclic_symmetrize(phi)
            ok = ok and is_cyclic(cyc.coboundary())
        ok = ok and not trace_word_dense(1, k).coboundary().tensor
        for arity in (1, 3, 5):
            word = trace_word_dense(arity, k)
            ok = ok and is_cyclic(word)
            ok = ok and not word.coboundary().tensor
    _report(ok, "criterion 7: b b = 0, b preserves cyclicity, b(trace) = 0, "
                "odd trace-words are cyclic cocycles, k in {2,3}")


def test_criterion_08_tau_and_hyperplanes():
    results = suite_tau(SEED) + suite_hyperplane(SEED)
    _report(_all_passed(results),
            "criterion 8: tau multiplicative and closed on invariant "
            "functionals; diagonal det = product of lines with "
            "kappa(coordinate) = d(ell)/ell")


def test_criterion_09_oracle_equivalence():
    ok = True
    for i in range(20):
        arity = (1, 2, 3)[i % 3]
        n = (2, 3)[i % 2]
        rng = rng_for(SEED, "acc-oracle", i)
        phi = (TraceWord(arity) if i % 5 == 0
               else DenseCochain.random(rng, arity, 2))
        f = random_matrix_tuple(rng, n, 2).pencil()
        ok = ok and kappa(phi, f) == kappa_wedge_oracle(phi, f)
    for i in range(2):
        f = random_matrix_tuple(rng_for(SEED, "acc-wedge", i), 4, 2).pencil()
        om = maurer_cartan(f)
        ok = ok and trace_power_form(f, 3) == om.wedge_power(3).trace()
    _report(ok, "criterion 9: kappa matches the wedge oracle on 20 pairs; "
                "permutation expansion of tr(omega^3) matches the wedge "
                "power")


def test_criterion_10_torus():
    results = suite_torus(SEED)
    _report(_all_passed(results),
            "criterion 10: twisted algebra laws, all four cocycles and both "
            "factorization equalities of the truncated resolvent exact for "
            "q in {3,4,5}")


def test_criterion_11_determinism():
    # the child imports the package these tests import, installed or not
    root = os.path.dirname(os.path.dirname(pencilforms.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")])))

    def run():
        return subprocess.run(
            [sys.executable, "-m", "pencilforms.cli", "verify",
             "--suite", "all", "--seed", "1"],
            capture_output=True, text=True, env=env)

    start = time.monotonic()
    first = run()
    elapsed = time.monotonic() - start
    second = run()
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and first.stdout
          and elapsed < 600)
    _report(ok, "criterion 11: verify --suite all --seed 1 is byte-identical "
                f"across runs and finishes in {elapsed:.1f}s (< 600s)")
