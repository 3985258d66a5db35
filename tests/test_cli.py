"""End-to-end CLI behavior: output bytes, exit codes, JSON round-trips."""

import json
import os
import subprocess
import sys

import pytest

import pencilforms
from pencilforms import serialize
from pencilforms.cli import MAX_TRIALS, CliError, parse_cochain_spec
from pencilforms.cli import main as cli_main
from pencilforms.cochains import DenseCochain, ProductCochain, TraceWord
from pencilforms.linalg import MatrixTuple
from pencilforms.sampling import rng_for
from pencilforms.transgression import kappa


# the child imports the package these tests import, installed or not
PACKAGE_ROOT = os.path.dirname(os.path.dirname(pencilforms.__file__))


def run_cli(*argv, env=None):
    merged = dict(os.environ)
    merged.pop("PENCILFORMS_SEED", None)
    merged["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, merged.get("PYTHONPATH")]))
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "pencilforms.cli", *argv],
        capture_output=True, text=True, env=merged)


@pytest.fixture()
def units_file(tmp_path):
    path = tmp_path / "units.json"
    path.write_text(serialize.canonical_json(
        serialize.tuple_to_json(MatrixTuple.matrix_units(2))))
    return str(path)


def test_spectrum_matrix_units(units_file):
    r = run_cli("spectrum", "--input", units_file)
    assert r.returncode == 0
    assert r.stdout == "det: z1*z4-z2*z3\ndegree: 2\n"


def test_spectrum_polynomial_input(tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(
        {"n": 2, "entries": [["z1", "1"], ["0", "z2"]]}))
    r = run_cli("spectrum", "--input", str(path))
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "det: z1*z2"

    path.write_text(json.dumps(
        {"n": 2, "entries": [["z1+1", "0"], ["0", "z2"]]}))
    r = run_cli("spectrum", "--input", str(path))
    assert r.stdout.splitlines()[1] == "degree: not homogeneous"


def test_spectrum_json_output(units_file):
    r = run_cli("spectrum", "--input", units_file, "--json-out", "-")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data == {"det": "z1*z4-z2*z3", "degree": 2}


def test_form_kappa_round_trips(units_file):
    r = run_cli("form", "--input", units_file, "--kind", "kappa",
                "--cochain", "traceword:3")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    parsed = serialize.scalar_form_from_json(data)
    expected = kappa(TraceWord(3), MatrixTuple.matrix_units(2).pencil())
    assert parsed == expected
    assert serialize.canonical_json(
        serialize.scalar_form_to_json(parsed)) == r.stdout


def test_form_trace_power_even_is_zero(units_file):
    r = run_cli("form", "--input", units_file, "--kind", "trace-power",
                "--power", "2")
    assert r.returncode == 0
    assert json.loads(r.stdout)["terms"] == []


def test_form_top_factor(units_file):
    r = run_cli("form", "--input", units_file, "--kind", "top-factor")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["residual_zero"] is True
    assert len(data["normalized_coefficients"]) == 4


def test_form_mc_round_trips(units_file):
    r = run_cli("form", "--input", units_file, "--kind", "mc")
    assert r.returncode == 0
    form = serialize.matrix_form_from_json(json.loads(r.stdout))
    assert form.degree == 1 and form.n == 4


def test_verify_text_and_exit(units_file):
    r = run_cli("verify", "--suite", "jacobi-classic", "--seed", "3")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "suite: jacobi-classic"
    assert lines[1] == "seed: 3"
    assert lines[-1] == "result: PASS (1 checks)"


def test_verify_runs_are_byte_identical():
    first = run_cli("verify", "--suite", "hyperplane", "--seed", "11")
    second = run_cli("verify", "--suite", "hyperplane", "--seed", "11")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_verify_json_out_file(tmp_path):
    out = tmp_path / "report.json"
    r = run_cli("verify", "--suite", "flatness", "--seed", "1",
                "--json-out", str(out))
    assert r.returncode == 0
    assert r.stdout.startswith("suite: flatness\n")
    data = json.loads(out.read_text())
    assert data["passed"] is True and data["suite"] == "flatness"


def test_env_seed_default():
    with_env = run_cli("verify", "--suite", "hyperplane",
                       env={"PENCILFORMS_SEED": "9"})
    explicit = run_cli("verify", "--suite", "hyperplane", "--seed", "9")
    assert with_env.stdout == explicit.stdout


def test_parse_error_exit_codes(tmp_path, units_file):
    r = run_cli("spectrum", "--input", str(tmp_path / "missing.json"))
    assert r.returncode == 2
    assert "missing.json" in r.stderr

    bad = tmp_path / "bad.json"
    bad.write_text('{"matrices": [[["1", "x?"], ["0", "1"]]]}')
    r = run_cli("spectrum", "--input", str(bad))
    assert r.returncode == 2
    assert "matrices[0][0][1]" in r.stderr

    notjson = tmp_path / "notjson.json"
    notjson.write_text("{ nope")
    r = run_cli("spectrum", "--input", str(notjson))
    assert r.returncode == 2
    assert ":1:" in r.stderr  # line:column location

    r = run_cli("verify", "--suite", "unknown")
    assert r.returncode == 2

    empty = tmp_path / "empty.json"
    empty.write_text('{"matrices": [[]]}')
    singular = tmp_path / "singular.json"  # det vanishes identically
    singular.write_text('{"matrices": [[["1", "0"], ["0", "0"]], '
                        '[["0", "1"], ["0", "0"]]]}')
    huge = tmp_path / "huge.json"  # one exponent above MAX_EXPONENT
    huge.write_text('{"entries": [["z1^100000000", "0"], ["0", "z2"]]}')
    # zero denominators and malformed JSON shapes
    bad_inputs = {
        "zero-den-scalar": '{"matrices": [[["1/0", "0"], ["0", "1"]]]}',
        "zero-den-poly": '{"entries": [["(1/0)*z1", "0"], ["0", "z2"]]}',
        "null-n": '{"entries": [["z1"]], "n": null}',
        "float-n": '{"entries": [["z1"]], "n": 1.5}',
        "scalar-grid": '{"matrices": [5]}',
        "scalar-row": '{"matrices": [[5]]}',
        "scalar-entry-row": '{"entries": [5]}',
    }
    for name, text in bad_inputs.items():
        (tmp_path / f"{name}.json").write_text(text)
    bad_cochains = {
        "zero-den-coeff": '{"arity": 1, "k": 2, "terms": '
                          '[{"pairs": [[0, 0]], "coeff": "1/0"}]}',
        "scalar-terms": '{"arity": 1, "k": 2, "terms": 5}',
        "null-arity": '{"arity": null, "k": 2, "terms": []}',
    }
    for name, text in bad_cochains.items():
        (tmp_path / f"{name}.json").write_text(text)
    # torus configs: an order above torus.MAX_ORDER, non-integral or bool q,
    # and bool theta
    bad_torus = {
        "q-huge": '{"mode": "exact", "q": 1000000, "p_prime": 1}',
        "q-float": '{"mode": "exact", "q": 3.9, "p_prime": 1}',
        "q-bool": '{"mode": "exact", "q": true, "p_prime": 1}',
        "theta-bool": '{"mode": "numeric", "theta": true}',
    }
    for name, text in bad_torus.items():
        (tmp_path / f"torus-{name}.json").write_text(text)
    for argv in (("spectrum", "--input", str(empty)),
                 ("spectrum", "--input", str(huge)),
                 *(("spectrum", "--input", str(tmp_path / f"{name}.json"))
                   for name in bad_inputs),
                 *(("form", "--input", units_file, "--kind", "kappa",
                    "--cochain", f"dense:{tmp_path / name}.json")
                   for name in bad_cochains),
                 ("form", "--input", units_file, "--kind", "kappa",
                  "--cochain", "cyclic-random:9:2:1"),
                 ("form", "--input", units_file, "--kind", "kappa",
                  "--cochain", "cyclic-random:100000:1:1"),
                 ("form", "--input", units_file, "--kind", "kappa",
                  "--cochain", "product((trace,trace)"),
                 ("form", "--input", units_file, "--kind", "kappa",
                  "--cochain", "product(trace,trace))"),
                 ("form", "--input", units_file, "--kind", "kappa",
                  "--cochain", "product(,trace)"),
                 ("form", "--input", str(empty), "--kind", "mc"),
                 ("spectrum", "--input", str(singular)),
                 ("form", "--input", str(singular), "--kind", "mc"),
                 ("form", "--input", units_file, "--kind", "trace-power",
                  "--power", "5"),
                 *(("torus", "--check", check, "--input",
                    str(tmp_path / f"torus-{name}.json"))
                   for name in bad_torus
                   for check in ("cocycles", "factorization")),
                 ("torus", "--check", "factorization", "--tol", "0"),
                 ("torus", "--check", "factorization", "--tol", "-1"),
                 ("torus", "--check", "factorization", "--tol", "nan"),
                 ("verify", "--suite", "flatness", "--tol", "0"),
                 # trial counts outside 0..MAX_TRIALS; the largest ran
                 # unbounded before it was checked
                 *((*command, "--trials", str(trials))
                   for command in (("verify", "--suite", "flatness"),
                                   ("torus", "--check", "factorization"),
                                   ("torus", "--check", "cocycles"))
                   for trials in (-3, MAX_TRIALS + 1, 100000000000))):
        r = run_cli(*argv)
        assert r.returncode == 2, argv
        assert r.stderr.startswith("error: "), argv
        assert r.stderr.count("\n") == 1, argv
        assert "Traceback" not in r.stderr, argv


def test_zero_trials_keeps_its_meaning(capsys):
    # 0 runs each suite's minimum, as 1 does
    for command in (("verify", "--suite", "flatness", "--seed", "1"),
                    ("torus", "--check", "factorization", "--seed", "1")):
        outs = []
        for trials in ("0", "1"):
            code = cli_main([*command, "--trials", trials])
            outs.append((code, capsys.readouterr()))
        assert outs[0] == outs[1]
        assert outs[0][0] == 0


def test_check_failure_exit_code():
    r = run_cli("torus", "--check", "factorization", "--tol", "1e-40")
    assert r.returncode == 1
    assert "FAIL" in r.stdout
    assert "propagated truncation bound" in r.stdout


def test_torus_cocycles_with_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "exact", "q": 3, "p_prime": 1}))
    r = run_cli("torus", "--check", "cocycles", "--input", str(cfg),
                "--seed", "2")
    assert r.returncode == 0
    assert "torus.cocycles.q3" in r.stdout

    num = tmp_path / "num.json"
    num.write_text(json.dumps({"mode": "numeric", "theta": 0.3}))
    r = run_cli("torus", "--check", "cocycles", "--input", str(num))
    assert r.returncode == 2
    assert "exact-mode" in r.stderr


def test_cochain_spec_grammar(tmp_path):
    assert isinstance(parse_cochain_spec("trace"), TraceWord)
    assert parse_cochain_spec("traceword:3").arity == 3

    phi = parse_cochain_spec("cyclic-random:2:2:5")
    again = parse_cochain_spec("cyclic-random:2:2:5")
    assert phi.arity == 2
    assert phi.tensor == again.tensor  # seed pins the draw

    dense = DenseCochain.random(rng_for(7, "spec-file"), 2, 2)
    path = tmp_path / "dense.json"
    path.write_text(serialize.canonical_json(
        serialize.dense_cochain_to_json(dense)))
    loaded = parse_cochain_spec(f"dense:{path}")
    assert loaded.tensor == dense.tensor

    prod = parse_cochain_spec("product(trace, traceword:3)")
    assert isinstance(prod, ProductCochain)
    assert prod.arity == 4
    nested = parse_cochain_spec("product(product(trace, trace), traceword:1)")
    assert nested.arity == 3

    for bad in ("nope", "traceword:x", "traceword:0", "cyclic-random:1:2",
                "product(trace)", "product(trace, trace, trace)"):
        with pytest.raises(CliError):
            parse_cochain_spec(bad)
