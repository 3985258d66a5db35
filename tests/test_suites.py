"""Suite registry, report shape, and byte-level determinism."""

import ast
import dataclasses
import inspect
import json
from pathlib import Path

import pytest

from pencilforms import _core, cli, jacobi, linalg, serialize, suites, torus
from pencilforms.cochains import FunctionalCochain
from pencilforms.forms import ScalarForm, maurer_cartan
from pencilforms.jacobi import cubic_trace_data, trace_power_form
from pencilforms.linalg import MatrixTuple, PolyMatrix
from pencilforms.ring import MultiPoly, RatFn
from pencilforms.suites import (SUITE_NAMES, SUITES, CheckResult, SuiteReport,
                                run_suite, torus_cocycle_checks,
                                torus_factorization_checks)
from pencilforms.torus import TorusConfig, TorusElement
from conftest import count_poly_mul


def test_registry_names():
    assert set(SUITES) == {
        "flatness", "theorem29", "jacobi-classic", "parity", "theorem33",
        "example35", "tau", "hyperplane", "torus"}
    assert SUITE_NAMES[-1] == "all"
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope", seed=0)


def test_suites_share_one_signature():
    # run_suite calls every suite the same way, so each takes exactly
    # (seed, trials=None)
    for name, suite in SUITES.items():
        params = list(inspect.signature(suite).parameters.values())
        assert [p.name for p in params] == ["seed", "trials"], name
        assert params[0].default is inspect.Parameter.empty, name
        assert params[1].default is None, name


def test_fast_suites_pass():
    for name in ("flatness", "jacobi-classic", "tau", "hyperplane"):
        report = run_suite(name, seed=3)
        assert report.passed, report.text()
        assert report.suite == name
        assert all(r.counterexample is None for r in report.results)


def test_report_text_is_deterministic():
    a = run_suite("jacobi-classic", seed=5)
    b = run_suite("jacobi-classic", seed=5)
    assert a.text() == b.text()
    assert a.json() == b.json()
    c = run_suite("jacobi-classic", seed=6)
    assert c.text() != a.text()


def test_report_text_shape():
    report = run_suite("hyperplane", seed=1)
    lines = report.text().splitlines()
    assert lines[0] == "suite: hyperplane"
    assert lines[1] == "seed: 1"
    assert lines[-1].startswith("result: PASS (")
    assert all(line.startswith("PASS ") for line in lines[2:-1])


def test_failing_report_shape():
    report = SuiteReport("demo", 0, (
        CheckResult("demo.ok", True, "fine"),
        CheckResult("demo.broken", False, "broke", "witness line 1\nline 2"),
    ))
    assert not report.passed
    text = report.text()
    assert "FAIL demo.broken: broke" in text
    assert "\n  witness line 1\n  line 2\n" in text
    assert text.endswith("result: FAIL (2 checks)\n")
    data = report.to_dict()
    assert data["passed"] is False
    assert data["results"][1]["counterexample"] == "witness line 1\nline 2"


def test_trials_knob_scales_counts():
    small = run_suite("flatness", seed=2, trials=8)
    assert small.passed
    assert "8 pencils" in small.results[0].detail
    assert "2 quadratic" in small.results[1].detail


def test_torus_cocycle_checks_single_config():
    results = torus_cocycle_checks(0, TorusConfig.exact(3, 1))
    assert len(results) == 1
    assert results[0].name == "torus.cocycles.q3"
    assert results[0].passed


def test_torus_factorization_tolerance_failure_is_reported(monkeypatch):
    # phi_1(E, W2) of the pinned point, weight 1 in the first equality,
    # raised by twice that residual's rounding bound: the pinned line FAILS
    # and names the bound, which the spoiled value does not move
    inner = suites.factorization_report
    bounds = []

    def spoiled(mats, points):
        samples = inner(mats, points)
        if len(points) == 1:
            sample = samples[0]
            bounds.append(sample.rounding_bounds()[0])
            values = list(map(list, sample.values))
            values[0][2] += 2 * bounds[0]
            samples[0] = dataclasses.replace(
                sample, values=tuple(map(tuple, values)))
            assert sample.rounding_bounds()[0] == bounds[0]
        return samples

    monkeypatch.setattr(suites, "factorization_report", spoiled)
    pinned, sampled = torus_factorization_checks(0)
    assert not pinned.passed
    assert pinned.counterexample.startswith("residual ")
    assert (f" above its rounding bound {bounds[0]:.3e} for phi_1 at z = "
            in pinned.counterexample)
    assert sampled.passed
    # the residuals are still computed and counted
    assert " at 10 seeded points, " in sampled.detail
    assert " on 20 instances, " in sampled.detail


def test_no_function_takes_a_tolerance():
    # numeric lines judge against bounds they compute, so no parameter
    # sets a tolerance
    for path in Path(suites.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args
                names = {a.arg for a in (args.posonlyargs + args.args
                                         + args.kwonlyargs)}
                assert not names & {"tol", "tolerance"}, (path.name,
                                                          node.lineno)


def test_torus_cocycle_checks_refuse_a_numeric_config(tmp_path, capsys):
    with pytest.raises(ValueError, match="exact mode"):
        torus_cocycle_checks(1, TorusConfig.numeric(0.3))
    path = tmp_path / "numeric.json"
    path.write_text(json.dumps({"mode": "numeric", "theta": 0.3}))
    code = cli.main(["torus", "--check", "cocycles", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: cocycle checks need an exact-mode "
                            "configuration\n")


def test_suites_catch_no_exceptions():
    # a library error must end the run, not read as a failed identity
    tree = ast.parse(Path(suites.__file__).read_text(encoding="utf-8"))
    handlers = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.ExceptHandler)]
    assert handlers == []


def test_all_concatenates_in_fixed_order():
    report = run_suite("parity", seed=4)
    assert report.results[0].name == "parity.even-powers"
    # the combined run is exercised end to end by the acceptance tests;
    # here only the registry order contract is pinned
    assert tuple(SUITES) == ("flatness", "theorem29", "jacobi-classic",
                             "parity", "theorem33", "example35", "tau",
                             "hyperplane", "torus")


def test_trace_routes_agree_with_content():
    report = run_suite("theorem33", seed=1, trials=1)
    routes = report.results[-1]
    assert routes.name == "theorem33.trace-routes"
    assert routes.passed, report.text()
    assert routes.detail.endswith("; 2 of 2 tuples nonzero")


_anchored = jacobi.anchored_trace_power


def _doubled_anchored(f):
    return _anchored(f) * 2


def _doubled_omega(f):
    return maurer_cartan(f) * 2


# Each spoils one route: the anchored sum in jacobi, which trace_power_form
# takes at m = 3 and so the split top form reads, or the omega that the
# check wedges itself in suites.
_ROUTE_OWNERS = {"anchored_trace_power": jacobi, "maurer_cartan": suites}


@pytest.mark.parametrize("route, broken, witness", [
    ("anchored_trace_power", _doubled_anchored, "anchored sum != wedge"),
    ("maurer_cartan", _doubled_omega, "anchored sum != wedge"),
])
def test_trace_route_disagreement_fails_verify(monkeypatch, capsys, route,
                                               broken, witness):
    monkeypatch.setattr(_ROUTE_OWNERS[route], route, broken)
    code = cli.main(["verify", "--suite", "theorem33", "--seed", "1",
                     "--trials", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "PASS theorem33.top-factorization: " in out
    assert "FAIL theorem33.trace-routes: " in out
    assert out.count("\nFAIL ") == 1
    lines = out.split("FAIL theorem33.trace-routes: ")[1].splitlines()
    assert lines[1] == f"  k=2: {witness}"
    assert lines[2].lstrip().startswith("{")
    assert out.endswith("result: FAIL (5 checks)\n")


def _top_form_plus_z1(f, m):
    """tr(omega^m) plus z1 dz1 ^ .. ^ dzm, which is not a multiple of s."""
    return trace_power_form(f, m) + ScalarForm(
        f.n, m, {tuple(range(1, m + 1)): MultiPoly.variable(f.n, 1)})


def test_top_form_off_s_fails_verify(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(jacobi, "trace_power_form", _top_form_plus_z1)
    code = cli.main(["verify", "--suite", "theorem33", "--seed", "1",
                     "--trials", "1"])
    out = capsys.readouterr().out
    assert code == 1
    # trace-routes compares the form that was split, so the spoiled anchored
    # route fails it as well, and the wedge route is not spoiled
    lines = out.split("FAIL theorem33.trace-routes: ")[1].splitlines()
    assert lines[1] == "  k=2: anchored sum != wedge"
    lines = out.split("FAIL theorem33.top-factorization: ")[1].splitlines()
    assert lines[1] == "  k=2: nonzero residual"
    assert lines[2].lstrip().startswith("{")
    assert out.endswith("result: FAIL (5 checks)\n")

    path = tmp_path / "units.json"
    path.write_text(serialize.canonical_json(
        serialize.tuple_to_json(MatrixTuple.matrix_units(2))))
    code = cli.main(["form", "--input", str(path), "--kind", "top-factor"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("FAIL: nonzero residual")


def test_trace_routes_without_content_fail():
    # A4 = A1 + A2 makes p = 0, so tr(omega^3) = q s vanishes identically
    a1, a2, a3 = [[1, 2], [0, 1]], [[0, 1], [1, 3]], [[2, 0], [1, 1]]
    a4 = [[a1[r][c] + a2[r][c] for c in range(2)] for r in range(2)]
    t = MatrixTuple([a1, a2, a3, a4])
    result = suites._trace_routes_check(
        [(2, t, trace_power_form(t.pencil(), 3))])
    assert not result.passed
    assert "0 of 1 tuples nonzero" in result.detail
    assert "no content" in result.counterexample


def _run_theorem33(capsys, trials):
    code = cli.main(["verify", "--suite", "theorem33", "--seed", "1",
                     "--trials", str(trials)])
    return code, capsys.readouterr().out


def test_theorem33_counts_only_the_tuples_it_checked(monkeypatch, capsys):
    calls = {2: 0, 3: 0}

    def p_lost_at_trial_1(t):
        fact, p = cubic_trace_data(t)
        calls[t.k] += 1
        return (fact, None) if calls[t.k] == 2 else (fact, p)

    monkeypatch.setattr(suites, "cubic_trace_data", p_lost_at_trial_1)
    code, out = _run_theorem33(capsys, 10)
    assert code == 1
    assert "FAIL theorem33.p-constant-k2: p is a constant for 2 tuples of " \
        "2x2 matrices\n  trial 1 (k=2): q det^2 / 3 is not a polynomial\n" \
        in out
    assert "FAIL theorem33.p-quadratic-k3: p is homogeneous of degree 2 " \
        "for 2 tuples of 3x3 matrices\n  trial 1 (k=3): q det^2 / 3 is not " \
        "a polynomial\n" in out
    # the p failures end neither the shared loop nor the division check
    assert "PASS theorem33.divisibility: every antisymmetrized resolvent " \
        "trace divides exactly by det (12 tuples)\n" in out
    assert calls == {2: 10, 3: 2}


_factor_top_form = jacobi._factor_top_form


def _q_times_z1(big_t):
    fact = _factor_top_form(big_t)
    return dataclasses.replace(
        fact, q=fact.q * MultiPoly.variable(big_t.n, 1))


def test_theorem33_judges_the_degree_of_p(monkeypatch, capsys):
    # q off by a factor z1 leaves tr(omega^3) and its residual alone, but
    # raises the degree of p by one
    monkeypatch.setattr(jacobi, "_factor_top_form", _q_times_z1)
    code, out = _run_theorem33(capsys, 1)
    assert code == 1
    assert "FAIL theorem33.p-constant-k2: p is a constant for 1 tuples of " \
        "2x2 matrices\n  trial 0 (k=2): p not constant\n" in out
    assert "FAIL theorem33.p-quadratic-k3: p is homogeneous of degree 2 " \
        "for 1 tuples of 3x3 matrices\n  trial 0 (k=3): p not homogeneous " \
        "of degree 2\n" in out
    for name in ("divisibility", "top-factorization", "trace-routes"):
        assert f"PASS theorem33.{name}: " in out
    assert out.endswith("result: FAIL (5 checks)\n")


def _undivided_i_value(fact, t):
    """I_(1,2,3) = z1 / det^3: det does not divide its trace z1. The
    triple (1,2,3) leaves out 4, so its I is bar_i[3]."""
    bar_i = list(fact.bar_i)
    bar_i[3] = RatFn.over_power(MultiPoly.variable(4, 1), t.pencil().det(), 3)
    return dataclasses.replace(fact, bar_i=tuple(bar_i))


def _undivided_later_i_values(fact, t):
    """I_(1,3,4) and I_(2,3,4) over det^3: the witness is the first in
    increasing order, (1,3,4)."""
    bar_i = list(fact.bar_i)
    for j in (1, 2):
        bar_i[j - 1] = RatFn.over_power(MultiPoly.variable(4, j),
                                        t.pencil().det(), 3)
    return dataclasses.replace(fact, bar_i=tuple(bar_i))


def _nonzero_residual(fact, t):
    return dataclasses.replace(fact, residual=ScalarForm(
        4, 3, {(1, 2, 3): MultiPoly.variable(4, 1)}))


@pytest.mark.parametrize("spoil, witness", [
    (_undivided_i_value, "trace difference at (1,2,3) is not divisible by det"),
    (_undivided_later_i_values,
     "trace difference at (1,3,4) is not divisible by det"),
    (_nonzero_residual, "tr(omega^3) is not q s: nonzero residual"),
])
def test_theorem33_division_failure_fails_divisibility_alone(
        monkeypatch, capsys, spoil, witness):
    calls = [0]

    def spoiled_at_trial_2(t):
        fact, p = cubic_trace_data(t)
        calls[0] += 1
        return (spoil(fact, t) if calls[0] == 3 else fact), p

    monkeypatch.setattr(suites, "cubic_trace_data", spoiled_at_trial_2)
    code, out = _run_theorem33(capsys, 5)
    assert code == 1
    assert "FAIL theorem33.divisibility: every antisymmetrized resolvent " \
        "trace divides exactly by det (3 tuples)\n" \
        f"  trial 2 (k=2): {witness}\n" in out
    assert "PASS theorem33.p-constant-k2: p is a constant for 5 tuples" in out
    assert "PASS theorem33.p-quadratic-k3: p is homogeneous of degree 2 " \
        "for 1 tuples" in out
    assert out.count("\nFAIL ") == 1


def test_example35_reports_a_missing_p(monkeypatch, capsys):
    calls = [0]

    def p_lost_at_trial_1(t):
        fact, p = cubic_trace_data(t)
        calls[0] += 1
        return (fact, None) if calls[0] == 2 else (fact, p)

    monkeypatch.setattr(suites, "cubic_trace_data", p_lost_at_trial_1)
    code = cli.main(["verify", "--suite", "example35", "--seed", "1",
                     "--trials", "4"])
    out = capsys.readouterr().out
    assert code == 1
    lines = out.split("FAIL example35.entry-matrix: ")[1].splitlines()
    assert lines[0].endswith("p = epsilon * C for 2 tuples of 2x2 matrices")
    assert lines[1] == "  trial 1: q det^2 / 3 is not a polynomial"
    assert lines[2].lstrip().startswith("{")


def _doubled(out):
    return out * 2


def _not_closed(out):
    """z2 dz1 over out's variables: nonzero, and not closed."""
    return ScalarForm(out.n, 1, {(1,): MultiPoly.variable(out.n, 2)})


def _spoil_calls(inner, spoiled_calls, spoil):
    """inner, with spoil applied to its result on the listed (1-based)
    calls."""
    calls = [0]

    def wrapped(*args):
        calls[0] += 1
        out = inner(*args)
        return spoil(out) if calls[0] in spoiled_calls else out
    return wrapped


# Each spoiled call falls on the failing instance, and every count includes
# it: flatness builds one omega per trial (calls 2 and 4 are trial 1 of the
# linear and the quadratic loop once the linear one stops), jacobi-classic
# one adjugate, example35 one entry constant, parity tr(omega^2) then
# tr(omega^4) per pencil, and tau three forms per product trial, then one
# per closed-form input. torus.algebra takes two traces per triple.
@pytest.mark.parametrize(
    "suite, owner, attr, spoiled_calls, spoil, trials, fails, witness", [
        ("flatness", suites, "maurer_cartan", {2, 4}, _doubled, 8,
         {"flatness.linear": "2 pencils flat",
          "flatness.quadratic": "2 quadratic-entry matrices flat"},
         "  trial 1"),
        ("jacobi-classic", PolyMatrix, "adjugate", {2}, _doubled, 3,
         {"jacobi.cross-multiplied": "d_i det f for 2 matrices"},
         "  trial 1"),
        ("example35", suites, "entry_matrix_constant", {2}, _doubled, 3,
         {"example35.entry-matrix": "p = epsilon * C for 2 tuples"},
         "  trial 1"),
        ("tau", suites, "tau", {4}, _doubled, 3,
         {"tau.multiplicative": "tau(F2) for 2 pairs"}, "  trial 1"),
        ("parity", suites, "trace_power_form", {3}, _not_closed, 8,
         {"parity.even-powers": "= 0 for 2 pencils"}, "  trial 1"),
        ("tau", suites, "tau", {5}, _not_closed, 1,
         {"tau.closed": "on 2 invariant inputs"}, "  arity 3, n=3"),
        ("torus", torus.TorusElement, "trace", {5}, _doubled, 10,
         {"torus.algebra": "on 3 exact triples"},
         "  trace symmetry fails at q=3, trial 2"),
    ], ids=["flatness", "jacobi-classic", "example35", "tau", "parity",
            "tau-closed", "torus-algebra"])
def test_failing_trial_reports_the_trials_checked(
        monkeypatch, capsys, suite, owner, attr, spoiled_calls, spoil, trials,
        fails, witness):
    monkeypatch.setattr(owner, attr, _spoil_calls(getattr(owner, attr),
                                                  spoiled_calls, spoil))
    code = cli.main(["verify", "--suite", suite, "--seed", "1",
                     "--trials", str(trials)])
    out = capsys.readouterr().out
    assert code == 1
    for name, claim in fails.items():
        lines = out.split(f"\nFAIL {name}: ")[1].splitlines()
        assert claim in lines[0]
        assert lines[1].startswith(witness), lines[1]


# Kernel products of one whole theorem33 run at the verify-pencil trial
# count. 3,954 was recorded when cubic_trace_data began taking tr(omega^3)
# from the anchored sum of one omega and trace-routes stopped calling it
# (parent: 4,432); 3,088 when trace-routes began reading the top form that
# factorize_top_form split, and the residual stayed on omega's base; 2,968
# when scalar forms became the k = 1 case of matrix forms, the residual
# built from numerators over that base and forms compared by subtraction
# over their shared base; 2,638 when the anchored sum began to form each
# prefix product of its trace words once; 2,620 when p**m stopped
# multiplying p by one first; 2,407 (measured 2,519 before) when det and
# the adjugate became one kernel sum per minor, the adjugate's minors
# sharing their sub-minors; 2,325 when tr(omega^3) began to trace B_a
# against one commutator [B_b, B_c] (went 2,407 -> 2,325); 2,169 when
# omega ^ omega began to take one commutator per pair of terms, skipping
# the entry products that cancel (went 2,325 -> 2,169). A second route to
# tr(omega^3) coming back exceeds it.
THEOREM33_SUITE_BUDGET = 2_169


def test_theorem33_suite_kernel_product_budget(monkeypatch):
    calls = count_poly_mul(monkeypatch)
    results = suites.suite_cubic_trace(1, trials=6)
    assert all(r.passed for r in results)
    assert 0 < calls[0] <= THEOREM33_SUITE_BUDGET


# `_core._pack` calls in one default theorem33 run: each polynomial packs
# its exponents once, the first time it enters a kernel sum, and keeps
# them (10,445 before p**m stopped multiplying p by one first, which packed
# the product by one as well; 10,328 before omega's det became one kernel
# sum over the pencil's first row and the adjugate's first column, which
# packs those row entries too). 42,566 when every sum packed its operands
# again. Packing again per sum, or dropping the kept form, exceeds it.
# Since kernel results come back packed, only polynomials built from term
# dicts pack: 3,569 calls. 1,392 since det and the adjugate expand as
# kernel sums over packed entries and `partial` returns packed results.
THEOREM33_PACK_BUDGET = 1_392


def test_theorem33_packs_each_operand_once(monkeypatch):
    packs = [0]
    inner = _core._pack

    def counting(exps, width):
        packs[0] += 1
        return inner(exps, width)

    monkeypatch.setattr(_core, "_pack", counting)
    assert run_suite("theorem33", 1).passed
    assert 0 < packs[0] <= THEOREM33_PACK_BUDGET


# Kernel products of one whole theorem29 run at the verify-pencil trial
# count. 7,269 was recorded when dense cochains began to be evaluated one
# slot at a time over a trie of their keys (parent, key by key: 16,035);
# 6,829 when kappa began to contract that trie against omega slot by slot;
# 6,598 when scalar forms became the k = 1 case of matrix forms, so d of
# kappa is one kernel sum per coefficient and forms over one base compare
# without cross-multiplying; 4,304 when kappa of a trace word and of its
# coboundary began to contract their tensors (b tr(x y z) is empty) in
# place of a permutation expansion; 3,822 (measured 3,834 before) when
# det and the adjugate became one kernel sum per minor. Multiplying each
# key out on its own, or evaluating phi once per permutation, exceeds it.
THEOREM29_SUITE_BUDGET = 3_822


def test_theorem29_suite_kernel_product_budget(monkeypatch):
    calls = count_poly_mul(monkeypatch)
    results = suites.suite_transgression(1, trials=6)
    assert all(r.passed for r in results)
    assert 0 < calls[0] <= THEOREM29_SUITE_BUDGET


# Kernel products of the other pencil suites at seed 1 and their
# verify-pencil trial counts, recorded when each coefficient of a matrix
# wedge, trace or d became one `MultiPoly.dot` per entry and kappa of a
# dense cochain a slot-wise contraction. Products, not kernel calls, so a
# lost work saving shows here whatever the fusion. tau (2,180) was
# tightened when scalar forms became the k = 1 case of matrix forms, so d
# of a kappa form is one kernel sum per coefficient and forms over one base
# compare by subtraction, and again (2,124) when kappa of trace words and
# their products began to contract a chain of dense tensors in place of a
# permutation expansion; flatness (4,246) and hyperplane (1,281) measure
# what they have since then, and example35 (1,463) what it has since the
# anchored sum formed each prefix product once; example35 (1,175) and
# hyperplane (1,261) were tightened when p**m stopped multiplying p by one
# first. parity (2,890) was tightened when an even form traced against
# itself began to take each unordered pair of its terms once.
# jacobi-classic (3,622) was tightened when tr(adj(f) d_i f) began to be
# traced without forming the product (k^2 entry products, not k^3). All
# six were set to their measured counts when det and the adjugate became
# one kernel sum per minor, the adjugate's minors sharing their
# sub-minors (measured before: flatness 3,682, jacobi-classic 2,510,
# parity 2,207, example35 1,139, tau 946, hyperplane 1,153); a
# cofactor expansion per minor coming back exceeds jacobi-classic's and
# hyperplane's. example35 went 968 (under its budget of 1,087) -> 904
# and tau 916 -> 888 when tr(omega^3) began to trace B_a against one
# commutator [B_b, B_c];
# jacobi-classic went 1,590 -> 1,345 and hyperplane 928 -> 869 when a
# matrix began to keep its det, so the suites read sampling's det in
# place of expanding it again. flatness went 3,502 -> 2,942, parity
# 2,153 -> 1,737 and tau 888 -> 882 when omega ^ omega began to take one
# commutator per pair of terms, skipping the entry products that cancel,
# and flatness to check d omega + omega ^ omega as one curvature form.
# The test ids carry the suite alone, so tightening a budget keeps the
# test's name.
PENCIL_SUITE_BUDGETS = {
    "flatness": (12, 2_942),
    "jacobi-classic": (20, 1_345),
    "parity": (4, 1_737),
    "example35": (8, 904),
    "tau": (3, 882),
    "hyperplane": (6, 869),
}


@pytest.mark.parametrize("suite", PENCIL_SUITE_BUDGETS)
def test_pencil_suite_kernel_product_budget(monkeypatch, suite):
    trials, budget = PENCIL_SUITE_BUDGETS[suite]
    calls = count_poly_mul(monkeypatch)
    report = run_suite(suite, seed=1, trials=trials)
    assert report.passed, report.text()
    assert 0 < calls[0] <= budget


def test_jacobi_classic_expands_each_det_once(monkeypatch):
    # sampling takes each draw's det to reject a singular one, and the
    # suite compares the accepted matrix's det: one expansion per matrix
    expanded = []
    inner = linalg.grid_det

    def counting(a, one):
        if isinstance(one, MultiPoly):
            expanded.append(a)
        return inner(a, one)

    monkeypatch.setattr(linalg, "grid_det", counting)
    assert run_suite("jacobi-classic", seed=1).passed
    assert len(expanded) >= 20
    assert len(set(expanded)) == len(expanded)


# Kernel term pairs (len(p) * len(q) per product) of the parity suite at
# seed 1, trials 4, recorded when an even form traced against itself began
# to take each unordered pair of its terms once (before: 1,394,444, most
# of it tr(omega^4) at k = 3, n = 5). The product count barely shows that
# saving (2,890 -> 2,656); the ordered pairs coming back exceed this one.
# It went 791,528 -> 737,887 when omega ^ omega began to take one
# commutator per pair of terms, skipping the entry products that cancel.
PARITY_TERM_PAIR_BUDGET = 737_887


def test_parity_suite_kernel_term_pair_budget(monkeypatch):
    calls = count_poly_mul(monkeypatch)
    report = run_suite("parity", seed=1, trials=4)
    assert report.passed, report.text()
    assert 0 < calls[2] <= PARITY_TERM_PAIR_BUDGET


# -- verdicts the suites make on values the library returns ---------------


def _run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_theorem29_judges_the_correction_form(monkeypatch, capsys):
    # a doubled phi(d omega, omega, ..) breaks both identities it enters,
    # and leaves (a/(a+1)) kappa(b phi) = -d kappa(phi) alone
    inner = suites.transgression_report

    def doubled_correction(phi, f):
        rep = inner(phi, f)
        return dataclasses.replace(rep, correction=rep.correction * 2)

    monkeypatch.setattr(suites, "transgression_report", doubled_correction)
    code, out = _run_cli(capsys, "verify", "--suite", "theorem29", "--seed",
                         "1", "--trials", "6")
    assert code == 1
    assert "PASS theorem29.main: " in out
    for name in ("decomposition", "correction"):
        lines = out.split(f"FAIL theorem29.{name}: ")[1].splitlines()
        assert lines[0].endswith(" pairs")
        assert " arity " in lines[1] and lines[2].lstrip().startswith("{")
    assert out.endswith("result: FAIL (3 checks)\n")


def _shifted_det(dec):
    return dataclasses.replace(dec, det=dec.det + MultiPoly.one(dec.det.n))


def _doubled_kappa_form(dec):
    forms = dict(dec.kappa_forms)
    forms[1] = forms[1] * 2
    return dataclasses.replace(dec, kappa_forms=forms)


@pytest.mark.parametrize("spoil, failing, claim, passing", [
    (_shifted_det, "det-product", "for 3 diagonal tuples", "kappa-lines"),
    (_doubled_kappa_form, "kappa-lines", "every line of 3 tuples",
     "det-product"),
], ids=["det", "kappa"])
def test_hyperplane_judges_each_returned_form(monkeypatch, capsys, spoil,
                                              failing, claim, passing):
    inner = suites.hyperplane_decomposition
    monkeypatch.setattr(suites, "hyperplane_decomposition",
                        lambda t: spoil(inner(t)))
    code, out = _run_cli(capsys, "verify", "--suite", "hyperplane", "--seed",
                         "1", "--trials", "2")
    assert code == 1
    assert f"PASS hyperplane.{passing}: " in out
    lines = out.split(f"FAIL hyperplane.{failing}: ")[1].splitlines()
    assert lines[0].endswith(claim)
    assert lines[1] == "  pinned"
    assert out.count("\nFAIL ") == 1


def test_torus_cocycles_judge_a_non_cyclic_cocycle(monkeypatch):
    # tr(x0 x1) is symmetric, so the arity-2 sign -1 fails at once
    monkeypatch.setitem(torus._COCYCLES, "phi1", lambda: FunctionalCochain(
        2, lambda args: args[0].trace(args[1]), label="phi1"))
    result, = torus_cocycle_checks(1, TorusConfig.exact(3, 1))
    assert not result.passed
    assert result.name == "torus.cocycles.q3"
    assert result.detail.endswith(" on 1 monomial tuples (q=3, p'=1)")
    assert result.counterexample == \
        "cyclicity fails for phi1 on degrees ((0, 0), (0, 0))"
    # the one twist-free run gives every order the same counterexample
    results = torus_cocycle_checks(1)
    assert [r.name for r in results] == [
        "torus.cocycles.q3", "torus.cocycles.q4", "torus.cocycles.q5"]
    for r, (q, p) in zip(results, ((3, 1), (4, 1), (5, 2))):
        assert not r.passed
        assert r.detail.endswith(f" on 1 monomial tuples (q={q}, p'={p})")
        assert r.counterexample == result.counterexample


def test_torus_cocycles_fail_terms_with_different_twists(monkeypatch,
                                                         capsys):
    # tr(y) + tr(y^2) for y = x0 x1 x2 is cyclic at every twist, but on a
    # zero-sum tuple y is c lambda^E, so its two terms carry lambda^E and
    # lambda^2E; the twist-free run fails the first tuple with E != 0,
    # which exact arithmetic at q = 1 alone would pass on every grid tuple
    def mixed(args):
        y = args[0] * args[1] * args[2]
        return y.trace() + y.trace(y)

    monkeypatch.setitem(torus._COCYCLES, "psi1",
                        lambda: FunctionalCochain(3, mixed, label="psi1"))
    monomials = torus._box_monomials(TorusConfig.exact(1, 0), 2)
    for degrees in torus._grid_tuples(3):
        args = [monomials[d] for d in degrees]
        assert mixed(args) == mixed(args[-1:] + args[:-1]), degrees
    claim = ("cyclicity fails for psi1 on degrees "
             "((-1, -1), (0, 0), (1, 1))")
    for argv in (("verify", "--suite", "torus", "--seed", "1"),
                 ("torus", "--check", "cocycles", "--seed", "1")):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        assert "FAIL torus.cocycles.q3: " in captured.out
        assert claim in captured.out


def _inflated_sampled_residual(inner):
    # phi_1(E, W2) of the fourth sampled point, weight 1 in the first
    # equality, raised by 1
    def report(mats, points):
        out = inner(mats, points)
        if len(points) > 1:
            sample = out[3]
            values = list(map(list, sample.values))
            values[0][2] += 1
            out[3] = dataclasses.replace(
                sample, values=tuple(map(tuple, values)))
        return out
    return report


def _no_content(inner):
    # the pencil (1, U, V), where every phi_j(W_x, W_y) vanishes by degree
    def report(mats, points):
        cfg = mats[0].config
        return inner([mats[0], TorusElement.u(cfg), TorusElement.v(cfg)],
                     points)
    return report


@pytest.mark.parametrize("spoil, witnesses", [
    (_inflated_sampled_residual,
     {"sampled": ("10 seeded points", "(max 1.000e+00, ",
                  "residual 1.000e+00 above its rounding bound ")}),
    (_no_content,
     {"pinned": ("z = (1, 1/2, i/4)", "(max 0.000e+00, ",
                 "|phi_1(W1, W2)| = 0.000e+00 is within the rounding bound "),
      "sampled": ("10 seeded points", "(max 0.000e+00, ",
                  "|phi_1(W1, W2)| = 0.000e+00 is within the rounding bound "
                  )}),
], ids=["residual", "no-content"])
def test_torus_factorization_judges_returned_residuals(monkeypatch, capsys,
                                                       spoil, witnesses):
    monkeypatch.setattr(suites, "factorization_report",
                        spoil(suites.factorization_report))
    code, out = _run_cli(capsys, "torus", "--check", "factorization",
                         "--seed", "1", "--trials", "10")
    assert code == 1
    for name in ("pinned", "sampled"):
        if name not in witnesses:
            assert f"PASS torus.factorization.{name}: " in out
            continue
        where, top, why = witnesses[name]
        lines = out.split(f"FAIL torus.factorization.{name}: ")[1].splitlines()
        assert where in lines[0] and top in lines[0]
        assert lines[1].startswith(f"  {why}")
