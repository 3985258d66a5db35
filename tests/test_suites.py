"""Suite registry, report shape, and byte-level determinism."""

import dataclasses

import pytest

from pencilforms import cli, jacobi, serialize, suites
from pencilforms.forms import ScalarForm
from pencilforms.jacobi import cubic_trace_data, trace_power_form
from pencilforms.linalg import MatrixTuple
from pencilforms.ring import MultiPoly
from pencilforms.suites import (SUITE_NAMES, SUITES, CheckResult, SuiteReport,
                                run_suite, torus_cocycle_checks,
                                torus_factorization_checks)
from pencilforms.torus import TorusConfig


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


def _doubled_resolvent_traces(t):
    data = cubic_trace_data(t)
    return dataclasses.replace(data, trace_cubed=data.trace_cubed * 2)


@pytest.mark.parametrize("route, broken, witness", [
    ("anchored_trace_power", _doubled_anchored, "anchored sum != wedge"),
    ("cubic_trace_data", _doubled_resolvent_traces, "3 I != wedge"),
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
    assert "PASS theorem33.trace-routes: " in out
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
    result = suites._trace_routes_check([(2, MatrixTuple([a1, a2, a3, a4]))])
    assert not result.passed
    assert "0 of 1 tuples nonzero" in result.detail
    assert "no content" in result.counterexample


def test_theorem33_counts_only_the_tuples_it_checked(monkeypatch, capsys):
    calls = {2: 0, 3: 0}

    def failing_at_trial_1(t):
        calls[t.k] += 1
        if calls[t.k] == 2:
            raise RuntimeError("forced division failure")
        return cubic_trace_data(t)

    monkeypatch.setattr(suites, "cubic_trace_data", failing_at_trial_1)
    code = cli.main(["verify", "--suite", "theorem33", "--seed", "1",
                     "--trials", "10"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL theorem33.p-constant-k2: p is a constant for 1 tuples of " \
        "2x2 matrices\n  trial 1 (k=2): forced division failure\n" in out
    assert "PASS theorem33.p-quadratic-k3: p is homogeneous of degree 2 " \
        "for 1 tuples of 3x3 matrices\n" in out
    assert "FAIL theorem33.divisibility: every antisymmetrized resolvent " \
        "trace divides exactly by det (2 tuples)\n  trial 1 (k=2): forced " \
        "division failure\n" in out
    assert "PASS theorem33.trace-routes: " in out
