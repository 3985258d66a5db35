"""End-to-end CLI behavior: output bytes, exit codes, JSON round-trips."""

import contextlib
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
import time
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pencilforms
from pencilforms import cli, serialize, suites, torus
from pencilforms.cli import MAX_TRIALS, CliError, parse_cochain_spec
from pencilforms.cli import main as cli_main
from pencilforms.cochains import DenseCochain, ProductCochain, TraceWord
from pencilforms.forms import maurer_cartan
from pencilforms.jacobi import trace_power_form
from pencilforms.linalg import MatrixTuple
from pencilforms.ring import MAX_EXPONENT, MultiPoly
from pencilforms.sampling import random_matrix_tuple, rng_for
from pencilforms.transgression import kappa
from test_golden import PENCILS
from test_linalg import rand_gauss_tuple
from test_ring import gaussians


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


def test_form_kappa_cochain_of_another_size_exits_2(units_file):
    # a k = 3 cochain on a k = 2 tuple is bad input, refused before kappa
    # reads any matrix entry
    r = run_cli("form", "--input", units_file, "--kind", "kappa",
                "--cochain", "cyclic-random:2:3:1")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.splitlines() == ["error: argument size 2 != k=3"]
    assert "Traceback" not in r.stderr


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


def _json_out_argv(name, units_file, path):
    return {"verify": ["verify", "--suite", "tau", "--seed", "1"],
            "form": ["form", "--kind", "mc", "--input", units_file],
            "spectrum": ["spectrum", "--input", units_file],
            }[name] + ["--json-out", path]


@pytest.mark.parametrize("name", ["form", "spectrum", "verify"])
def test_unwritable_json_out_is_one_error_line(name, tmp_path, units_file):
    # a missing directory and a directory: exit 2, one error line
    for path, why in ((str(tmp_path / "missing" / "x.json"),
                       "No such file or directory"),
                      (str(tmp_path), "Is a directory")):
        r = run_cli(*_json_out_argv(name, units_file, path))
        assert r.returncode == 2, path
        assert r.stderr == f"error: {path}: {why}\n", path
        assert "Traceback" not in r.stderr


@pytest.mark.parametrize("name", ["form", "spectrum", "verify"])
def test_json_out_file_holds_the_json_bytes(name, tmp_path, units_file,
                                            capsys):
    path = tmp_path / "out.json"
    assert cli_main(_json_out_argv(name, units_file, str(path))) == 0
    capsys.readouterr()
    assert cli_main(_json_out_argv(name, units_file, "-")) == 0
    assert path.read_text(encoding="utf-8") == capsys.readouterr().out


def test_pencil_inputs_past_the_size_limits_exit_2(tmp_path, capsys):
    side = serialize.MAX_SIZE + 1
    cases = {
        # 60 bytes that cost 3 s and 249 MB before the limit
        "n-declared": '{"n": 3000000, "entries": [["z1","z2"],["z3","z4"]]}',
        "n-inferred": '{"entries": [["z9", "0"], ["0", "z1"]]}',
        "k": json.dumps({"matrices": [[[str(int(r == c)) for c in range(side)]
                                       for r in range(side)]] * 2}),
    }
    for name, text in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        for argv in (("spectrum",), ("form", "--kind", "mc")):
            assert cli_main([*argv, "--input", str(path)]) == 2, name
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "exceed" in err, err


# one input path of each entry point that reads a file; {bad} is the file
# under test and {good} a valid pencil
FILE_ENTRY_POINTS = {
    "spectrum": ["spectrum", "--input", "{bad}"],
    "form": ["form", "--kind", "mc", "--input", "{bad}"],
    "dense-cochain": ["form", "--kind", "kappa", "--cochain", "dense:{bad}",
                      "--input", "{good}"],
    "torus": ["torus", "--check", "cocycles", "--input", "{bad}"],
}


@pytest.mark.parametrize("entry", FILE_ENTRY_POINTS)
def test_non_utf8_input_is_one_error_line(entry, tmp_path, units_file):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"matrices": [[["\xff"]]]}')
    argv = [a.format(bad=bad, good=units_file)
            for a in FILE_ENTRY_POINTS[entry]]
    assert _run_in_process(argv) == (
        2, "", f"error: {bad}: not UTF-8 text: byte 0xff at offset 17\n")


@pytest.mark.parametrize("entry", FILE_ENTRY_POINTS)
def test_deeply_nested_json_input_is_one_error_line(entry, tmp_path,
                                                     units_file):
    # far past the parser's recursion limit
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000 + "]" * 100_000)
    argv = [a.format(bad=bad, good=units_file)
            for a in FILE_ENTRY_POINTS[entry]]
    assert _run_in_process(argv) == (
        2, "", f"error: {bad}: nested too deeply\n")


def test_deeply_nested_product_spec_is_one_error_line(units_file):
    def nested(depth):
        return "product(" * depth + "trace" + ", trace)" * depth

    argv = ["form", "--kind", "kappa", "--input", units_file, "--cochain"]
    # a nesting the parser's recursion can take still gives the form: its
    # arity is past n, so it is the zero form of that degree
    code, out, err = _run_in_process(argv + [nested(100)])
    assert (code, err, json.loads(out)["degree"]) == (0, "", 101)
    spec = nested(1200)
    assert _run_in_process(argv + [spec]) == (
        2, "", f"error: cochain spec of {len(spec)} characters: "
        "product(...) nested too deeply\n")


def test_empty_file_paths_are_named(units_file, capsys):
    for argv in (["spectrum", "--input", ""],
                 ["form", "--kind", "kappa", "--cochain", "dense:",
                  "--input", units_file]):
        assert cli_main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err == "error: empty file path ''\n", argv


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
        # integers only: int() read these as arity 1 and the pair (0, 1)
        "float-arity": '{"arity": 1.7, "k": 2, "terms": []}',
        "float-pair": '{"arity": 1, "k": 2, "terms": '
                      '[{"pairs": [[0.5, 1.2]], "coeff": "1"}]}',
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


@pytest.mark.parametrize("value", ["1e-10", "0", "-1", "nan", "inf",
                                   "1e999"])
def test_tol_is_a_usage_error(value):
    # each residual is judged against its own rounding bound, so neither
    # command takes a tolerance
    for command in (("torus", "--check", "factorization"),
                    ("verify", "--suite", "torus")):
        r = run_cli(*command, "--tol", value)
        assert r.returncode == 2, command
        assert r.stdout == "", command
        assert "unrecognized arguments: --tol" in r.stderr, command
        assert "Traceback" not in r.stderr, command


def test_check_failure_exit_code(monkeypatch, capsys):
    # phi_1(E, W2) of the pinned point raised far above its rounding bound
    inner = suites.factorization_report

    def spoiled(mats, points):
        samples = inner(mats, points)
        values = list(map(list, samples[0].values))
        values[0][2] += 1
        samples[0] = dataclasses.replace(samples[0],
                                         values=tuple(map(tuple, values)))
        return samples

    monkeypatch.setattr(suites, "factorization_report", spoiled)
    code = cli_main(["torus", "--check", "factorization"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    assert "residual 1.000e+00 above its rounding bound " in out


@pytest.mark.parametrize("seed", ["1", "2", "3"])
def test_factorization_passes_at_the_largest_trial_count(seed, capsys):
    # a false FAIL at any seed would fail the check's own output: 1000
    # points of the sampling region, each within its own rounding bound
    code = cli_main(["torus", "--check", "factorization", "--seed", seed,
                     "--trials", "1000"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "at 1000 seeded points" in out and "on 2000 instances" in out


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


# Torus config values: mostly the wrong type or out of range, so that few
# examples pay for a full cocycle check (about 1 s each).
config_values = st.one_of(
    st.integers(-5, 80), st.integers(-2 ** 70, 2 ** 70), st.floats(),
    st.booleans(), st.text(max_size=4), st.none(),
    st.lists(st.integers(0, 3), max_size=2))


@st.composite
def torus_config_json(draw):
    """JSON text of a torus config: modes right and wrong, keys present or
    missing, each value drawn from `config_values`; now and then not an
    object at all."""
    if draw(st.integers(0, 19)) == 0:
        return json.dumps(draw(config_values))
    data = {}
    if draw(st.integers(0, 9)):
        data["mode"] = draw(st.sampled_from(
            ["exact", "numeric", "Exact", "", 1, None]))
    for key in ("q", "p_prime", "theta"):
        if draw(st.booleans()):
            data[key] = draw(config_values)
    return json.dumps(data)


@settings(max_examples=150, deadline=None)
@given(torus_config_json())
@example('{"mode": "exact", "q": 64, "p_prime": 5}')
@example('{"mode": "exact", "q": 3}')
@example('{"mode": "numeric", "theta": 0.37}')
@example('{"mode": "numeric", "theta": NaN}')
@example('{"mode": "exact", "q": 0, "p_prime": 1}')
@example('{"mode": "exact", "q": "3", "p_prime": 1}')
@example('{"mode": "numeric", "theta": "0.5"}')
@example('{"mode": "numeric"}')
@example('[1, 2]')
def test_torus_config_contract(tmp_path_factory, text):
    # any config file: exit 0, 1 or 2, an exit 2 with exactly one error
    # line, and never a traceback
    path = tmp_path_factory.mktemp("torus-config") / "config.json"
    path.write_text(text)
    for check in ("cocycles", "factorization"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(["torus", "--check", check, "--input", str(path),
                             "--seed", "1"])
        stderr = err.getvalue()
        assert code in (0, 1, 2), (text, check)
        assert "Traceback" not in stderr, (text, check)
        if code == 2:
            assert stderr.startswith("error: ") and stderr.count("\n") == 1 \
                and stderr.count("error:") == 1, (text, check, stderr)
            assert out.getvalue() == "", (text, check)
        else:
            assert stderr == "" and out.getvalue(), (text, check)


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


# -- cochain specs: any spec is a form or one error line ----------------------

_FIELDS = st.one_of(st.integers(-2, 6).map(str), st.sampled_from(
    ["", "x", "1.5", "2.0", " 3", "1e1", "+2", "0x2", "٣"]))


@st.composite
def dense_json(draw, k):
    """JSON text of a dense cochain: arity, k, pairs and coefficients
    mostly valid, k mostly the tuple's, now and then of the wrong type,
    out of range or of the wrong length; sometimes no object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "{", "[1, 2]", "null",
                                     '{"arity": 1}', '{"arity": 1, "k": 2, '
                                     '"terms": {}}']))
    arity = draw(st.one_of(st.integers(1, 3), st.sampled_from(
        [0, -1, 17, "2", 1.5, True, None])))
    k = draw(st.one_of(st.just(k), st.integers(1, 3), st.sampled_from(
        [0, "2", 2.0, None])))
    length = arity if type(arity) is int and 1 <= arity <= 3 else 1
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        size = draw(st.sampled_from([length] * 4 + [length + 1]))
        pairs = draw(st.one_of(
            st.lists(st.lists(st.integers(-1, 3), min_size=2, max_size=2),
                     min_size=size, max_size=size),
            st.sampled_from([[[0]], "ab", [[1.5, 0]], [[0, 0, 0]], None])))
        coeff = draw(st.sampled_from(["1", "-1/2", "2*i", "1/2+1/3*i", "x",
                                      "1/0", 3, 0, None, True]))
        terms.append({"pairs": pairs, "coeff": coeff})
    return json.dumps({"arity": arity, "k": k, "terms": terms})


def _cochain_spec(draw, k, depth, files):
    kinds = ["trace", "traceword", "traceword", "cyclic", "cyclic", "dense",
             "junk"]
    if depth < 3:
        kinds += ["product"] * 3
    kind = draw(st.sampled_from(kinds))
    if kind == "trace":
        return draw(st.sampled_from(["trace", " trace ", "Trace", "trace:1"]))
    if kind == "traceword":
        return "traceword:" + draw(st.one_of(
            st.integers(1, 4).map(str), _FIELDS))
    if kind == "cyclic":
        fields = [draw(st.one_of(st.integers(1, 4).map(str),
                                 st.integers(-1, 17).map(str), _FIELDS)),
                  draw(st.one_of(st.just(str(k)),
                                 st.integers(-1, 4).map(str), _FIELDS)),
                  draw(st.one_of(st.integers(-3, 10 ** 6).map(str),
                                 _FIELDS))]
        count = draw(st.sampled_from([3] * 6 + [2, 4]))
        fields = (fields + ["1"])[:count]
        return "cyclic-random:" + ":".join(fields)
    if kind == "dense":
        files.append(draw(dense_json(k)))
        return f"dense:@{len(files) - 1}@"
    if kind == "junk":
        return draw(st.sampled_from(["", "nope", "product", "product()",
                                     "dense:", "cyclic-random:", "traceword",
                                     "product(,)", "(trace)"]))
    parts = draw(st.sampled_from([1] + [2] * 6 + [3]))
    inner = ", ".join(_cochain_spec(draw, k, depth + 1, files)
                      for _ in range(parts))
    shape = draw(st.sampled_from(["product({})"] * 8 + [
        "product({}", "product(({})", "product({}))", "product({})("]))
    return shape.format(inner)


@st.composite
def cochain_spec_cases(draw):
    """(spec, files, n, k, zero): a spec, nested products to depth 3, whose
    dense:FILE parts name files @i@ with the JSON texts in `files`, on an
    n x k tuple with n <= 4 and k <= 2, its matrices now and then all
    zero."""
    n, k = draw(st.integers(2, 4)), draw(st.integers(1, 2))
    files = []
    spec = _cochain_spec(draw, k, 0, files)
    return spec, files, n, k, draw(st.integers(0, 9)) == 0


@settings(max_examples=200, deadline=None)
@given(cochain_spec_cases())
@example(("product(trace, cyclic-random:1:3:1)", [], 2, 2, False))
@example(("product(traceword:2, product(trace, dense:@0@))",
          ['{"arity": 1, "k": 3, "terms": []}'], 4, 2, False))
@example(("product(cyclic-random:2:2:1, cyclic-random:2:2:2)", [], 4, 2,
          False))
@example(("traceword:4", [], 4, 2, True))
@example(("product(trace, trace", [], 3, 2, False))
@example(("product(cyclic-random:1:1:0, cyclic-random:1:2:0)", [], 2, 1,
          True))
def test_cochain_spec_contract(tmp_path_factory, case):
    # any cochain spec: exit 0 with a form, or exit 2 with exactly one
    # error line, never a traceback, within a few seconds
    spec, files, n, k, zero = case
    where = tmp_path_factory.mktemp("cochain-spec")
    for pos, text in enumerate(files):
        path = where / f"dense{pos}.json"
        path.write_text(text)
        spec = spec.replace(f"@{pos}@", str(path))
    t = (MatrixTuple([[[0] * k] * k] * n) if zero else
         random_matrix_tuple(rng_for(len(spec), "spec-fuzz", n, k), n, k))
    tuple_path = where / "tuple.json"
    tuple_path.write_text(json.dumps(serialize.tuple_to_json(t)))
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(["form", "--kind", "kappa", f"--cochain={spec}",
                         "--input", str(tuple_path), "--json-out", "-"])
    elapsed = time.perf_counter() - start
    stderr = err.getvalue()
    assert code in (0, 2), (spec, code)
    assert "Traceback" not in stderr, spec
    if code == 2:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1 \
            and stderr.count("error:") == 1, (spec, stderr)
        assert out.getvalue() == "", spec
    else:
        assert stderr == "", spec
        assert json.loads(out.getvalue())["degree"] >= 1, spec
    assert elapsed < 5, (spec, elapsed)


_BAD_ENTRIES = ("x?", "", "1/0", "z1", "1e3", "i*", "2**i")
_MALFORMED = ("{ nope", "[1, 2]", "null", "", '{"matrices": []}',
              '{"matrices": [[["1"]], [["1", "0"], ["0", "1"]]]}',
              '{"matrices": [[[1, 0], [0, "1"]], [["0", "1"]]]}')


@st.composite
def pencil_cli_inputs(draw):
    """(text, n): JSON text of an n x k tuple with n <= 4 and k <= 3, its
    entries small integers or Gaussian rationals as strings. Now and then
    the tuple is singular (one row zero in every matrix), holds an entry
    that is no scalar, declares the wrong n, or the text is malformed JSON
    (cut short, or not a tuple)."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    entry = draw(st.sampled_from((st.integers(-3, 3).map(str),
                                  gaussians.map(str))))
    mats = [[[draw(entry) for _ in range(k)] for _ in range(k)]
            for _ in range(n)]
    data = {"matrices": mats}
    shape = draw(st.integers(0, 9))
    if shape == 0:
        row = draw(st.integers(0, k - 1))
        for grid in mats:
            grid[row] = ["0"] * k
    elif shape == 1:
        grid = draw(st.sampled_from(mats))
        draw(st.sampled_from(grid))[draw(st.integers(0, k - 1))] = \
            draw(st.sampled_from(_BAD_ENTRIES))
    elif shape == 2:
        data["n"] = n + 1
    text = json.dumps(data)
    if shape == 3:
        text = draw(st.sampled_from(
            (text[:draw(st.integers(0, len(text) - 1))],) + _MALFORMED))
    return text, n


def _gauss_tuple_text(seed, n, k):
    return json.dumps(serialize.tuple_to_json(
        rand_gauss_tuple(random.Random(seed), n, k)))


@settings(max_examples=100, deadline=None)
@given(pencil_cli_inputs())
# both self traces: tr(omega ^ omega) at --power 2, tr(omega^2 ^ omega^2)
# at --power 4, on a Gaussian-rational tuple
@example((_gauss_tuple_text(5, 4, 3), 4))
@example((_gauss_tuple_text(6, 4, 2), 4))
# singular: det(f) vanishes identically
@example(('{"matrices": [[["1", "0"], ["0", "0"]], [["0", "1"], ["0", "0"]]]}',
          2))
@example(('{"matrices": [[["1", "0"], ["0", "1"]]', 1))
def test_spectrum_and_form_contract(tmp_path_factory, case):
    # any pencil input to spectrum and form: exit 0, 1 or 2, an exit 2
    # with exactly one error line, never a traceback, and each case within
    # a few seconds; an even trace power that exits 0 prints the zero form
    text, n = case
    path = tmp_path_factory.mktemp("pencil-cli") / "pencil.json"
    path.write_text(text)
    runs = [["spectrum"], ["form", "--kind", "mc"],
            ["form", "--kind", "kappa", "--cochain", "traceword:2"]]
    runs += [["form", "--kind", "trace-power", "--power", str(power)]
             for power in range(1, n + 2)]
    start = time.perf_counter()
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main([*argv, "--input", str(path)])
        stderr = err.getvalue()
        assert code in (0, 1, 2), (text, argv)
        assert "Traceback" not in stderr, (text, argv)
        if code == 2:
            assert stderr.startswith("error: ") and stderr.count("\n") == 1 \
                and stderr.count("error:") == 1, (text, argv, stderr)
            assert out.getvalue() == "", (text, argv)
        else:
            assert stderr == "" and out.getvalue(), (text, argv)
        if code == 0 and argv[-1] in ("2", "4") and "--power" in argv:
            assert json.loads(out.getvalue()) == {
                "degree": int(argv[-1]), "n": n, "terms": []}, (text, argv)
    elapsed = time.perf_counter() - start
    assert elapsed < 10, (text, elapsed)


# -- one parser per process ---------------------------------------------------


def _run_in_process(argv):
    """(exit code, stdout, stderr) of one `cli.main` call; a usage error
    that argparse ends in SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_one_parser_serves_every_call_in_either_order(tmp_path, units_file,
                                                      monkeypatch):
    # main parses with the parser built at import: calls in one process
    # give the bytes of a fresh process, whatever ran before them
    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    torus = tmp_path / "torus.json"
    torus.write_text(json.dumps({"mode": "exact", "q": 3, "p_prime": 1}))
    forms = [["form", "--kind", kind, "--input", units_file]
             for kind in ("mc", "kappa", "trace-power", "top-factor")]
    spectrum = ["spectrum", "--input", units_file]
    bad_kind = ["form", "--kind", "nope", "--input", units_file]
    bad_spec = ["form", "--kind", "kappa", "--cochain", "nope",
                "--input", units_file]
    argvs = [spectrum, *forms, *[[*a, "--json-out", "-"] for a in forms],
             ["verify", "--suite", "hyperplane", "--seed", "3",
              "--trials", "2"],
             ["torus", "--check", "cocycles", "--input", str(torus),
              "--seed", "1"],
             bad_kind, bad_spec]
    forward = [_run_in_process(argv) for argv in argvs]
    backward = [_run_in_process(argv) for argv in reversed(argvs)][::-1]
    for argv, first, second in zip(argvs, forward, backward):
        assert first == second, argv
    results = dict(zip(map(tuple, argvs), forward))
    assert all(code == 0 for code, _, _ in forward[:-2])
    code, out, err = results[tuple(bad_kind)]
    assert (code, out) == (2, "") and "invalid choice: 'nope'" in err
    assert results[tuple(bad_spec)][:2] == (2, "")
    assert results[tuple(bad_spec)][2].startswith(
        "error: unrecognized cochain spec 'nope'")
    for argv in (spectrum, [*forms[1], "--json-out", "-"], bad_spec):
        r = run_cli(*argv)
        assert (r.returncode, r.stdout, r.stderr) == results[tuple(argv)]


# -- polynomial-matrix inputs: any input is a result or one error line --------


def _poly_entry(draw, n, coeffs):
    """The text of a polynomial in n variables: at most three monomials of
    degree <= 2."""
    monomials = [e for e in product(range(3), repeat=n) if sum(e) <= 2]
    terms = draw(st.dictionaries(st.sampled_from(monomials), coeffs,
                                 max_size=3))
    return str(MultiPoly.from_terms(n, terms))


@st.composite
def poly_matrix_cli_inputs(draw):
    """(text, n): JSON text of a k x k polynomial matrix in n variables,
    n <= 3 and k <= 3, its entries of degree <= 2 with small integer or
    Gaussian-rational coefficients. Now and then the matrix is singular
    (one row zero), an entry has an exponent above `ring.MAX_EXPONENT`, the
    declared n is wrong or missing, or the text is malformed JSON (cut
    short, or not a matrix)."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    coeffs = draw(st.sampled_from((st.integers(-3, 3), gaussians)))
    rows = [[_poly_entry(draw, n, coeffs) for _ in range(k)]
            for _ in range(k)]
    data = {"n": n, "entries": rows}
    shape = draw(st.integers(0, 9))
    if shape == 0:
        rows[draw(st.integers(0, k - 1))] = ["0"] * k
    elif shape == 1:
        var = draw(st.integers(1, n))
        exponent = MAX_EXPONENT + draw(st.sampled_from((1, 2, 10 ** 9)))
        draw(st.sampled_from(rows))[draw(st.integers(0, k - 1))] = \
            f"z{var}^{exponent}"
    elif shape == 2:
        data["n"] = draw(st.sampled_from((n - 1, n + 1, -1, "2", None, 2.5)))
    elif shape == 3:
        del data["n"]
    text = json.dumps(data)
    if shape == 4:
        text = draw(st.sampled_from(
            (text[:draw(st.integers(0, len(text) - 1))],) + _MALFORMED
            + ('{"entries": []}', '{"entries": [["z1"], "z2"]}',
               '{"entries": [[1, "z1"], ["0", "z1"]]}')))
    return text, n


@settings(max_examples=60, deadline=None)
@given(poly_matrix_cli_inputs())
# singular, of declared size 2 with a stray variable, and past the exponent
# limit
@example(('{"n": 2, "entries": [["z1", "z2"], ["z1", "z2"]]}', 2))
@example(('{"n": 1, "entries": [["z1", "z2"], ["0", "z1"]]}', 2))
@example(('{"n": 2, "entries": [["z1^1001", "0"], ["0", "z2"]]}', 2))
@example(('{"n": 2, "entries": [["z1^2+(1/2-i)*z2^2", "z1*z2"], '
          '["-z2^2", "(2/3*i)*z1^2"]]}', 2))
def test_poly_matrix_spectrum_and_form_contract(tmp_path_factory, case):
    # any polynomial-matrix input to spectrum and every form kind: exit 0,
    # 1 or 2, an exit 2 with exactly one error line, never a traceback, and
    # each case within a few seconds
    text, n = case
    path = tmp_path_factory.mktemp("poly-cli") / "pencil.json"
    path.write_text(text)
    runs = [["spectrum"], ["form", "--kind", "mc"],
            ["form", "--kind", "kappa", "--cochain", "traceword:2"],
            ["form", "--kind", "top-factor"]]
    runs += [["form", "--kind", "trace-power", "--power", str(power)]
             for power in range(1, n + 2)]
    start = time.perf_counter()
    for argv in runs:
        code, out, err = _run_in_process([*argv, "--input", str(path)])
        assert code in (0, 1, 2), (text, argv)
        assert "Traceback" not in err, (text, argv)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1 \
                and err.count("error:") == 1, (text, argv, err)
            assert out == "", (text, argv)
        elif code == 1:
            assert err.startswith("FAIL: ") and err.count("\n") == 1, \
                (text, argv, err)
        else:
            assert err == "" and out, (text, argv)
    elapsed = time.perf_counter() - start
    assert elapsed < 10, (text, elapsed)


# tr(omega) = d log det is never a multiple of s at n = 2: top-factor
# refuses both variables counts as bad input, as it does odd n
@pytest.mark.parametrize("text", [
    '{"n": 2, "entries": [["2*z2^2"]]}',
    '{"matrices": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]]}'])
def test_top_factor_refuses_two_variables(tmp_path, text):
    path = tmp_path / "pencil.json"
    path.write_text(text)
    assert _run_in_process(
        ["form", "--kind", "top-factor", "--input", str(path)]) == (
        2, "", "error: n must be even and >= 4, got 2\n")


# -- kept forms: a request prints what it prints in a fresh process ------------

MEMO_PENCILS = {
    "units": serialize.canonical_json(PENCILS["units"]),
    "gaussian": serialize.canonical_json(PENCILS["gaussian"]),
    "gauss-4-3": _gauss_tuple_text(5, 4, 3),
}
MEMO_KINDS = {
    "spectrum": ["spectrum"],
    "mc": ["form", "--kind", "mc"],
    "kappa-trace": ["form", "--kind", "kappa", "--cochain", "traceword:3"],
    "kappa-trace-1": ["form", "--kind", "kappa", "--cochain", "trace"],
    "kappa-cyclic": ["form", "--kind", "kappa",
                     "--cochain", "cyclic-random:2:{k}:5"],
    "trace-power": ["form", "--kind", "trace-power", "--power", "3"],
    "trace-power-1": ["form", "--kind", "trace-power", "--power", "1"],
    "top-factor": ["form", "--kind", "top-factor"],
}
_COLD = {}  # (pencil, kind) -> the request's result after cache_clear()


def _memo_argv(base, pencil, kind):
    k = len(json.loads(MEMO_PENCILS[pencil])["matrices"][0])
    return [arg.format(k=k) for arg in MEMO_KINDS[kind]] + [
        "--input", str(base / f"{pencil}.json")]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(MEMO_PENCILS)),
                          st.sampled_from(sorted(MEMO_KINDS))),
                min_size=1, max_size=12))
def test_requests_in_one_process_match_cold_runs(tmp_path_factory,
                                                 requests):
    # the CLI keeps the last pencil it parsed, maurer_cartan and
    # trace_power_form keep their last result across requests, and a
    # trace-word kappa shares the kept trace power at m = 1 and m = 3;
    # whatever ran before, a request gives the exit code, stdout
    # and stderr of the same argv run with nothing kept
    base = tmp_path_factory.getbasetemp() / "memo-pencils"
    if not _COLD:
        base.mkdir(exist_ok=True)
        for name, text in MEMO_PENCILS.items():
            (base / f"{name}.json").write_text(text)
        for key in product(MEMO_PENCILS, MEMO_KINDS):
            cli._pencil_of_text.cache_clear()
            maurer_cartan.cache_clear()
            trace_power_form.cache_clear()
            _COLD[key] = _run_in_process(_memo_argv(base, *key))
        assert all(code == 0 for code, _, _ in _COLD.values())
    for key in requests:
        assert _run_in_process(_memo_argv(base, *key)) == _COLD[key], key


def test_pencil_memo_is_keyed_by_the_file_text(tmp_path, units_file):
    kept = cli._load_pencil(units_file)
    assert cli._load_pencil(units_file) is kept
    copy = tmp_path / "copy.json"
    copy.write_text(MEMO_PENCILS["units"])
    assert cli._load_pencil(str(copy)) is kept
    # a file rewritten at the same path is parsed again
    copy.write_text(MEMO_PENCILS["gaussian"])
    gaussian = cli._load_pencil(str(copy))
    assert gaussian is not kept and gaussian == \
        serialize.tuple_from_json(PENCILS["gaussian"]).pencil()
    # a failing text is not kept, and leaves the kept pencil in place
    copy.write_text('{"matrices": [[["x?"]]]}')
    for _ in range(2):
        with pytest.raises(CliError, match="matrices"):
            cli._load_pencil(str(copy))
    copy.write_text(MEMO_PENCILS["gaussian"])
    assert cli._load_pencil(str(copy)) is gaussian
    assert cli._pencil_of_text.cache_info().currsize == 1
