"""Suite registry, report shape, and byte-level determinism."""

import ast
import dataclasses
import json
from pathlib import Path

import pytest

from pencilforms import _core, cli, jacobi, serialize, suites, torus
from pencilforms.cochains import FunctionalCochain
from pencilforms.forms import ScalarForm
from pencilforms.jacobi import cubic_trace_data, trace_power_form
from pencilforms.linalg import MatrixTuple, PolyMatrix
from pencilforms.ring import MultiPoly, RatFn
from pencilforms.suites import (SUITE_NAMES, SUITES, CheckResult, SuiteReport,
                                run_suite, torus_cocycle_checks,
                                torus_factorization_checks)
from pencilforms.torus import TorusConfig
from conftest import count_poly_mul


def test_registry_names():
    assert set(SUITES) == {
        "flatness", "theorem29", "jacobi-classic", "parity", "theorem33",
        "example35", "tau", "hyperplane", "torus"}
    assert SUITE_NAMES[-1] == "all"
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope", seed=0)


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


def test_torus_factorization_tolerance_failure_is_reported():
    results = torus_factorization_checks(0, tol=1e-40)
    assert not any(r.passed for r in results)
    assert "propagated truncation bound" in results[0].counterexample
    # the residuals are still computed and counted
    assert " at 10 seeded points, " in results[1].detail


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


def _doubled_anchored(f, m):
    return trace_power_form(f, m) * 2


@pytest.mark.parametrize("route, broken, witness", [
    ("anchored_trace_power", _doubled_anchored, "anchored sum != wedge"),
])
def test_trace_route_disagreement_fails_verify(monkeypatch, capsys, route,
                                               broken, witness):
    monkeypatch.setattr(suites, route, broken)
    code = cli.main(["verify", "--suite", "theorem33", "--seed", "1",
                     "--trials", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "PASS theorem33.top-factorization: " in out
    assert "FAIL theorem33.trace-routes: " in out
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
    # trace-routes compares the form that was split, so the spoiled wedge
    # route fails it as well, and the anchored sum is not spoiled
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


def _spoil_calls(inner, spoiled_calls):
    """inner, doubling its result on the listed (1-based) calls."""
    calls = [0]

    def wrapped(*args):
        calls[0] += 1
        out = inner(*args)
        return out * 2 if calls[0] in spoiled_calls else out
    return wrapped


# Each spoiled call falls on trial 1 of the named loop: flatness builds one
# omega per trial (calls 2 and 4 are trial 1 of the linear and the quadratic
# loop once the linear one stops), jacobi-classic one adjugate, example35
# one entry constant, and tau three forms per product trial.
@pytest.mark.parametrize("suite, owner, attr, spoiled_calls, trials, fails", [
    ("flatness", suites, "maurer_cartan", {2, 4}, 8,
     {"flatness.linear": "2 pencils flat",
      "flatness.quadratic": "2 quadratic-entry matrices flat"}),
    ("jacobi-classic", PolyMatrix, "adjugate", {2}, 3,
     {"jacobi.cross-multiplied": "d_i det f for 2 matrices"}),
    ("example35", suites, "entry_matrix_constant", {2}, 3,
     {"example35.entry-matrix": "p = epsilon * C for 2 tuples"}),
    ("tau", suites, "tau", {4}, 3,
     {"tau.multiplicative": "tau(F2) for 2 pairs"}),
], ids=["flatness", "jacobi-classic", "example35", "tau"])
def test_failing_trial_reports_the_trials_checked(
        monkeypatch, capsys, suite, owner, attr, spoiled_calls, trials, fails):
    monkeypatch.setattr(owner, attr,
                        _spoil_calls(getattr(owner, attr), spoiled_calls))
    code = cli.main(["verify", "--suite", suite, "--seed", "1",
                     "--trials", str(trials)])
    out = capsys.readouterr().out
    assert code == 1
    for name, claim in fails.items():
        lines = out.split(f"\nFAIL {name}: ")[1].splitlines()
        assert claim in lines[0]
        assert lines[1].startswith("  trial 1"), lines[1]


# Kernel products of one whole theorem33 run at the verify-pencil trial
# count. 3,954 was recorded when cubic_trace_data began taking tr(omega^3)
# from the anchored sum of one omega and trace-routes stopped calling it
# (parent: 4,432); 3,088 when trace-routes began reading the top form that
# factorize_top_form split, and the residual stayed on omega's base; 2,968
# when scalar forms became the k = 1 case of matrix forms, the residual
# built from numerators over that base and forms compared by subtraction
# over their shared base; 2,638 when the anchored sum began to form each
# prefix product of its trace words once; 2,620 when p**m stopped
# multiplying p by one first. A second route to tr(omega^3)
# coming back exceeds it.
THEOREM33_SUITE_BUDGET = 2_620


def test_theorem33_suite_kernel_product_budget(monkeypatch):
    calls = count_poly_mul(monkeypatch)
    results = suites.suite_cubic_trace(1, trials=6)
    assert all(r.passed for r in results)
    assert 0 < calls[0] <= THEOREM33_SUITE_BUDGET


# `_core._pack` calls in one default theorem33 run: each polynomial packs
# its exponents once, the first time it enters a kernel sum, and keeps
# them (10,445 before p**m stopped multiplying p by one first, which packed
# the product by one as well). 42,566 when every sum packed its operands
# again. Packing again per sum, or dropping the kept form, exceeds it.
THEOREM33_PACK_BUDGET = 10_328


def test_theorem33_packs_each_operand_once(monkeypatch):
    jacobi.calibrated_sign.cache_clear()  # its pencil counts as well
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
# place of a permutation expansion. Multiplying each key out on its own,
# or evaluating phi once per permutation, exceeds it.
THEOREM29_SUITE_BUDGET = 4_304


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
# itself began to take each unordered pair of its terms once. The test ids
# carry the suite alone, so tightening a budget keeps the test's name.
PENCIL_SUITE_BUDGETS = {
    "flatness": (12, 3_754),
    "jacobi-classic": (20, 3_622),
    "parity": (4, 2_656),
    "example35": (8, 1_157),
    "tau": (3, 1_631),
    "hyperplane": (6, 1_221),
}


@pytest.mark.parametrize("suite", PENCIL_SUITE_BUDGETS)
def test_pencil_suite_kernel_product_budget(monkeypatch, suite):
    trials, budget = PENCIL_SUITE_BUDGETS[suite]
    calls = count_poly_mul(monkeypatch)
    report = run_suite(suite, seed=1, trials=trials)
    assert report.passed, report.text()
    assert 0 < calls[0] <= budget


# Kernel term pairs (len(p) * len(q) per product) of the parity suite at
# seed 1, trials 4, recorded when an even form traced against itself began
# to take each unordered pair of its terms once (before: 1,394,444, most
# of it tr(omega^4) at k = 3, n = 5). The product count barely shows that
# saving (2,890 -> 2,656); the ordered pairs coming back exceed this one.
PARITY_TERM_PAIR_BUDGET = 791_528


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
        "cyclicity fails for phi1 on degrees ((3, 3), (-3, -3))"


def _inflated_sampled_residual(inner):
    def report(mats, points):
        out = inner(mats, points)
        if len(points) > 1:
            out.samples[3].residuals = (0.0, 1.0, 0.0, 0.0)
        return out
    return report


def _all_divergent(inner):
    return lambda mats, points: inner(mats, [(0, z2, z3)
                                             for _, z2, z3 in points])


@pytest.mark.parametrize("spoil, witnesses", [
    (_inflated_sampled_residual,
     {"sampled": ("10 seeded points", "(max 1.000e+00)",
                  "residual 1.000e+00 above 1.0e-10")}),
    (_all_divergent,
     {"pinned": ("(1, 0.1, 0.1)", "(max 0.000e+00)",
                 "only 0 usable sample points"),
      "sampled": ("0 seeded points", "(max 0.000e+00)",
                  "only 0 usable sample points")}),
], ids=["residual", "divergent"])
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
        assert where in lines[0] and lines[0].endswith(top)
        assert lines[1] == f"  {why}"
