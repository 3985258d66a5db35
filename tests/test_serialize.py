"""JSON round-trips and schema validation."""

import json
import random

import pytest

from oracles import scalar_form_json_reference, top_factor_json_reference
from pencilforms import serialize
from pencilforms.cochains import DenseCochain, TraceWord
from pencilforms.forms import ScalarForm, maurer_cartan
from pencilforms.jacobi import factorize_top_form, trace_power_form
from pencilforms.linalg import MatrixTuple, PolyMatrix
from pencilforms.ring import MultiPoly, Scalar
from pencilforms.serialize import MAX_SIZE, MAX_VARIABLES
from pencilforms.sampling import (random_matrix_tuple, random_poly_matrix,
                                  rng_for)
from pencilforms.torus import MAX_ORDER, TorusConfig
from pencilforms.transgression import kappa
from test_golden import PENCILS
from test_linalg import rand_gauss_tuple


def test_tuple_round_trip():
    for i in range(6):
        t = random_matrix_tuple(rng_for(11, "ser-tuple", i), 3, 2)
        data = serialize.tuple_to_json(t)
        back = serialize.tuple_from_json(data)
        assert back == t
        assert serialize.tuple_to_json(back) == data


def test_tuple_json_is_canonical_and_stable():
    units = MatrixTuple.matrix_units(2)
    text = serialize.canonical_json(serialize.tuple_to_json(units))
    again = serialize.canonical_json(
        serialize.tuple_to_json(serialize.tuple_from_json(json.loads(text))))
    assert text == again
    assert text.endswith("\n")


def test_tuple_errors_carry_location():
    with pytest.raises(ValueError, match=r"matrices\[0\]\[1\]\[0\]"):
        serialize.tuple_from_json(
            {"matrices": [[["1", "0"], ["x?", "1"]]]})
    with pytest.raises(ValueError, match="declared"):
        serialize.tuple_from_json(
            {"n": 3, "matrices": [[["1"]], [["0"]]]})
    with pytest.raises(ValueError):
        serialize.tuple_from_json({"matrices": []})


@pytest.mark.parametrize("data", [
    {"n": True, "k": True, "matrices": [[["2"]]]},
    {"n": 2.0, "matrices": [[["1"]], [["2"]]]},
    {"k": 1.0, "matrices": [[["1"]], [["2"]]]},
    {"n": 2, "k": False, "matrices": [[["1"]], [["2"]]]},
], ids=["n-k-true", "n-float", "k-float", "k-false"])
def test_tuple_sizes_must_be_integers(data):
    # the declared sizes were only compared with !=, so true read as 1 and
    # 2.0 as 2
    with pytest.raises(ValueError, match="must be an integer"):
        serialize.tuple_from_json(data)


def test_poly_matrix_round_trip_and_inference():
    f = random_poly_matrix(rng_for(12, "ser-poly"), 3, 2, degree=2)
    data = serialize.poly_matrix_to_json(f)
    back = serialize.poly_matrix_from_json(data)
    assert back == f

    # n can be inferred from the highest variable that appears
    inferred = serialize.poly_matrix_from_json(
        {"entries": [["z1+z3", "0"], ["1", "z2"]]})
    assert inferred.n == 3

    with pytest.raises(ValueError, match="n"):
        serialize.poly_matrix_from_json({"entries": [["1", "2"], ["3", "4"]]})


def _unit_tuple(n, k):
    """n matrices of side k: the identity, then zeros."""
    return {"matrices": [[["1" if r == c and j == 0 else "0"
                           for c in range(k)] for r in range(k)]
                         for j in range(n)]}


def _diagonal_entries(n, k):
    """A side-k polynomial matrix in n declared variables, z1 to zn down
    its diagonal."""
    return {"n": n, "entries": [[f"z{min(r, n - 1) + 1}" if r == c else "0"
                                 for c in range(k)] for r in range(k)]}


@pytest.mark.parametrize("n, k", [(MAX_VARIABLES, 2), (2, MAX_SIZE),
                                  (MAX_VARIABLES, MAX_SIZE)])
def test_pencil_inputs_at_the_size_limits_parse(n, k):
    t = serialize.tuple_from_json(_unit_tuple(n, k))
    assert (t.n, t.k) == (n, k)
    f = serialize.poly_matrix_from_json(_diagonal_entries(n, k))
    assert (f.n, f.k) == (n, k)


@pytest.mark.parametrize("data, message", [
    (_unit_tuple(MAX_VARIABLES + 1, 2), "variables exceed"),
    (_unit_tuple(2, MAX_SIZE + 1), "side 7 exceeds"),
    ({"matrices": [[["1"] * (MAX_SIZE + 1)]]}, "side 7 exceeds"),
    (_diagonal_entries(MAX_VARIABLES + 1, 2), "variables exceed"),
    ({"n": 3000000, "entries": [["z1", "z2"], ["z3", "z4"]]},
     "3000000 variables exceed"),
    ({"entries": [[f"z{MAX_VARIABLES + 1}"]]}, "variables exceed"),
    (_diagonal_entries(2, MAX_SIZE + 1), "side 7 exceeds"),
], ids=["tuple-n", "tuple-k", "tuple-row", "poly-n", "poly-n-huge",
        "poly-n-inferred", "poly-k"])
def test_pencil_inputs_past_the_size_limits_are_refused_unparsed(
        monkeypatch, data, message):
    def refuse(*args):
        raise AssertionError("parsed an entry of an oversized input")

    monkeypatch.setattr(Scalar, "parse", refuse)
    monkeypatch.setattr(PolyMatrix, "parse", refuse)
    with pytest.raises(ValueError, match=message):
        serialize.pencil_input_from_json(data)


def test_pencil_input_dispatch():
    t = serialize.pencil_input_from_json(
        {"matrices": [[["1"]], [["2"]]]})
    assert isinstance(t, MatrixTuple)
    f = serialize.pencil_input_from_json(
        {"n": 2, "entries": [["z1"]]})
    assert isinstance(f, PolyMatrix)
    with pytest.raises(ValueError):
        serialize.pencil_input_from_json({"nope": 1})


def test_scalar_form_round_trip():
    t = random_matrix_tuple(rng_for(13, "ser-form"), 4, 2)
    form = kappa(TraceWord(3), t.pencil())
    data = serialize.scalar_form_to_json(form)
    back = serialize.scalar_form_from_json(data)
    assert back == form
    # terms come out sorted by multi-index
    indices = [tuple(item["index"]) for item in data["terms"]]
    assert indices == sorted(indices)
    assert serialize.scalar_form_to_json(back) == data


def test_scalar_form_handles_trace_powers():
    t = random_matrix_tuple(rng_for(14, "ser-form"), 4, 2)
    form = trace_power_form(t.pencil(), 3)
    data = serialize.scalar_form_to_json(form)
    assert serialize.scalar_form_from_json(data) == form


def test_matrix_form_round_trip():
    t = random_matrix_tuple(rng_for(15, "ser-mform"), 3, 2)
    om = maurer_cartan(t.pencil())
    data = serialize.matrix_form_to_json(om)
    back = serialize.matrix_form_from_json(data)
    assert back == om
    assert serialize.matrix_form_to_json(back) == data


def test_dense_cochain_round_trip():
    phi = DenseCochain.random(rng_for(16, "ser-cochain"), 2, 2)
    data = serialize.dense_cochain_to_json(phi)
    back = serialize.dense_cochain_from_json(data)
    assert back.tensor == phi.tensor
    assert back.arity == phi.arity and back.k == phi.k
    assert serialize.dense_cochain_to_json(back) == data


def test_dense_cochain_errors():
    with pytest.raises(ValueError, match="arity"):
        serialize.dense_cochain_from_json({"k": 2})
    with pytest.raises(ValueError, match=r"terms\[0\]\.coeff"):
        serialize.dense_cochain_from_json(
            {"arity": 1, "k": 2,
             "terms": [{"pairs": [[0, 0]], "coeff": "x?"}]})
    with pytest.raises(ValueError, match="cochain JSON"):
        serialize.dense_cochain_from_json(
            {"arity": 1, "k": 2,
             "terms": [{"pairs": [[5, 0]], "coeff": "1"}]})


@pytest.mark.parametrize("data, message", [
    ({"arity": 1.7, "k": 2, "terms": []}, "'arity' and 'k'"),
    ({"arity": True, "k": 2, "terms": []}, "'arity' and 'k'"),
    ({"arity": 1, "k": 2.0, "terms": []}, "'arity' and 'k'"),
    ({"arity": 1, "k": False, "terms": []}, "'arity' and 'k'"),
    ({"arity": 0, "k": 2, "terms": []}, "'arity' and 'k'"),
    ({"arity": 1, "k": 0, "terms": []}, "'arity' and 'k'"),
    ({"arity": 1, "k": 2, "terms": [{"pairs": [[0.5, 1.2]]}]},
     r"terms\[0\]\.pairs"),
    ({"arity": 2, "k": 2, "terms": [{"pairs": [[0, 1], [True, 0]]}]},
     r"terms\[0\]\.pairs"),
    ({"arity": 1, "k": 2, "terms": [{"pairs": [["0", "1"]]}]},
     r"terms\[0\]\.pairs"),
], ids=["arity-float", "arity-true", "k-float", "k-false", "arity-0", "k-0",
        "pair-float", "pair-true", "pair-string"])
def test_dense_cochain_reader_takes_integers_only(data, message):
    # int() used to read 1.7 as 1 and [0.5, 1.2] as (0, 1)
    with pytest.raises(ValueError, match=message):
        serialize.dense_cochain_from_json(data)


def test_dense_cochain_duplicate_keys_accumulate():
    back = serialize.dense_cochain_from_json(
        {"arity": 1, "k": 2, "terms": [
            {"pairs": [[0, 0]], "coeff": "1"},
            {"pairs": [[0, 0]], "coeff": "2"},
        ]})
    assert back.tensor[((0, 0),)] == Scalar(3)


def test_torus_config_round_trip():
    exact = TorusConfig.exact(5, 2)
    assert serialize.torus_config_from_json(
        serialize.torus_config_to_json(exact)) == exact
    numeric = TorusConfig.numeric(0.37)
    assert serialize.torus_config_from_json(
        serialize.torus_config_to_json(numeric)) == numeric
    with pytest.raises(ValueError, match="mode"):
        serialize.torus_config_from_json({"q": 4})
    with pytest.raises(ValueError, match="missing key"):
        serialize.torus_config_from_json({"mode": "numeric"})


@pytest.mark.parametrize("data, message", [
    ({"mode": "exact", "q": 3.9}, "q must be an integer"),
    ({"mode": "exact", "q": True}, "q must be an integer"),
    ({"mode": "exact", "q": "3"}, "q must be an integer"),
    ({"mode": "exact", "q": 3, "p_prime": 1.5}, "p_prime must be an integer"),
    ({"mode": "exact", "q": 3, "p_prime": False}, "p_prime must be an integer"),
    ({"mode": "exact", "q": 10 ** 6}, "order q must lie in"),
    ({"mode": "exact", "q": 0}, "order q must lie in"),
    ({"mode": "numeric", "theta": True}, "theta must be a number"),
    ({"mode": "numeric", "theta": "0.3"}, "theta must be a number"),
    ({"mode": "numeric", "theta": 10 ** 400}, "theta must lie in"),
], ids=["q-float", "q-bool", "q-string", "p-float", "p-bool", "q-huge",
        "q-zero", "theta-bool", "theta-string", "theta-huge-int"])
def test_torus_config_rejects_bad_values(data, message):
    with pytest.raises(ValueError, match=message):
        serialize.torus_config_from_json(data)


def test_torus_config_accepts_the_largest_order():
    config = serialize.torus_config_from_json(
        {"mode": "exact", "q": MAX_ORDER, "p_prime": 1})
    assert config == TorusConfig.exact(MAX_ORDER, 1)
    assert serialize.torus_config_from_json(
        {"mode": "numeric", "theta": 1}) == TorusConfig.numeric(1.0)


_ONE_TERM = [{"index": [1], "num": "1"}]
_ONE_MATRIX_TERM = [{"index": [1], "entries": [["1"]]}]


@pytest.mark.parametrize("reader, data", [
    (serialize.scalar_form_from_json, {"degree": 1, "n": None}),
    (serialize.matrix_form_from_json, {"degree": 1, "n": 2, "k": None}),
    (serialize.scalar_form_from_json, {"degree": 1, "n": 2, "terms": [5]}),
    (serialize.matrix_form_from_json,
     {"degree": 1, "n": 2, "k": 2, "terms": [5]}),
    (serialize.scalar_form_from_json,
     {"degree": 1, "n": 2, "terms": [{"index": [1], "num": "1",
                                      "den": "0"}]}),
    (serialize.matrix_form_from_json,
     {"degree": 1, "n": 2, "k": 1, "den_base": "0", "den_pow": 1,
      "terms": _ONE_MATRIX_TERM}),
    (serialize.scalar_form_from_json,
     {"degree": True, "n": 2.9, "terms": _ONE_TERM}),
    (serialize.scalar_form_from_json,
     {"degree": True, "n": 2, "terms": _ONE_TERM}),
    (serialize.scalar_form_from_json,
     {"degree": 1, "n": 2.0, "terms": _ONE_TERM}),
    (serialize.matrix_form_from_json,
     {"degree": 1.0, "n": 2, "k": 1, "terms": _ONE_MATRIX_TERM}),
    (serialize.matrix_form_from_json,
     {"degree": 1, "n": True, "k": 1, "terms": _ONE_MATRIX_TERM}),
    (serialize.matrix_form_from_json,
     {"degree": 1, "n": 2, "k": 1.5, "terms": _ONE_MATRIX_TERM}),
    (serialize.matrix_form_from_json,
     {"degree": 1, "n": 2, "k": 1, "den_base": "z1", "den_pow": True,
      "terms": _ONE_MATRIX_TERM}),
    (serialize.matrix_form_from_json,
     {"degree": 1, "n": 2, "k": 1, "den_base": "z1", "den_pow": 1.0,
      "terms": _ONE_MATRIX_TERM}),
    # index entries are read as they are, never truncated by int(): [1.9]
    # and [true] were both read as dz1
    (serialize.scalar_form_from_json,
     {"degree": 1, "n": 2, "terms": [{"index": [1.9], "num": "z1"}]}),
    (serialize.scalar_form_from_json,
     {"degree": 1, "n": 2, "terms": [{"index": [True], "num": "z2"}]}),
    (serialize.scalar_form_from_json,
     {"degree": 1, "n": 2, "terms": [{"index": ["1"], "num": "z1"}]}),
    (serialize.scalar_form_from_json,
     {"degree": 1, "n": 2, "terms": [{"index": [3], "num": "z1"}]}),
    (serialize.scalar_form_from_json,
     {"degree": 1, "n": 2, "terms": [{"index": 1, "num": "z1"}]}),
    (serialize.matrix_form_from_json,
     {"degree": 1, "n": 2, "k": 1,
      "terms": [{"index": [1.0], "entries": [["1"]]}]}),
    (serialize.matrix_form_from_json,
     {"degree": 1, "n": 2, "k": 1,
      "terms": [{"index": [False], "entries": [["1"]]}]}),
    (serialize.matrix_form_from_json,
     {"degree": 1, "n": 2, "k": 1,
      "terms": [{"index": [0], "entries": [["1"]]}]}),
], ids=["scalar-n-null", "matrix-k-null", "scalar-term-5", "matrix-term-5",
        "scalar-den-0", "matrix-den-base-0", "scalar-degree-true-n-float",
        "scalar-degree-true", "scalar-n-float", "matrix-degree-float",
        "matrix-n-true", "matrix-k-float", "matrix-den-pow-true",
        "matrix-den-pow-float", "scalar-index-float", "scalar-index-true",
        "scalar-index-string", "scalar-index-above-n", "scalar-index-int",
        "matrix-index-float", "matrix-index-false", "matrix-index-0"])
def test_form_readers_reject_malformed_shapes_with_value_error(reader, data):
    with pytest.raises(ValueError, match="malformed (scalar|matrix)-form"):
        reader(data)


# -- form coefficients: one rendering per distinct denominator --------------


def _mixed_power_form() -> ScalarForm:
    """A 1-form over det**2 whose coefficients reduce to det**2, det**1 and
    det**0, with one more at det**2 sharing the first one's denominator."""
    f = MatrixTuple.matrix_units(2).pencil()
    det, z1, z2 = f.det(), MultiPoly.variable(4, 1), MultiPoly.variable(4, 2)
    return ScalarForm._over_power(4, 1, {
        (1,): z1, (2,): det * z2, (3,): det * det, (4,): z1 + z2}, det, 2)


def _gaussian_pencil(seed, n, k):
    return rand_gauss_tuple(random.Random(seed), n, k).pencil()


def _golden_pencils():
    return [serialize.tuple_from_json(data).pencil()
            for data in PENCILS.values()]


def _scalar_forms():
    """(id, form): forms with coefficients over several powers of their
    base, over Gaussian-rational pencils, and over the golden inputs."""
    out = [("mixed-powers", _mixed_power_form())]
    pencils = [(f"gauss-{seed}", _gaussian_pencil(seed, 4, 2))
               for seed in (3, 4)]
    pencils += [(f"golden-{name}", f) for name, f in
                zip(PENCILS, _golden_pencils())]
    for name, f in pencils:
        out += [(f"{name}-trace3", trace_power_form(f, 3)),
                (f"{name}-trace2", trace_power_form(f, 2)),
                (f"{name}-kappa", kappa(TraceWord(3), f))]
    return out


def _counting_renderings(monkeypatch, emit, value):
    """emit(value), with the number of polynomials it raised to a power and
    printed while it ran."""
    counts = {"pow": 0, "str": 0}
    inner_pow, inner_str = MultiPoly.__pow__, MultiPoly.__str__

    def counting_pow(p, m):
        counts["pow"] += 1
        return inner_pow(p, m)

    def counting_str(p):
        counts["str"] += 1
        return inner_str(p)

    monkeypatch.setattr(MultiPoly, "__pow__", counting_pow)
    monkeypatch.setattr(MultiPoly, "__str__", counting_str)
    try:
        return emit(value), counts
    finally:
        monkeypatch.undo()


def _distinct_denominators(coeffs) -> int:
    return len({(c.den_base, c.den_pow) for c in coeffs})


def test_mixed_power_form_reduces_to_several_powers():
    form = _mixed_power_form()
    assert sorted(form.coefficient(i).den_pow for i in form.terms) == \
        [0, 1, 2, 2]


@pytest.mark.parametrize("form", [f for _, f in _scalar_forms()],
                         ids=[name for name, _ in _scalar_forms()])
def test_scalar_form_json_renders_each_denominator_once(monkeypatch, form):
    want = scalar_form_json_reference(form)
    coeffs = [form.coefficient(index) for index in form.terms]
    data, counts = _counting_renderings(monkeypatch,
                                        serialize.scalar_form_to_json, form)
    assert data == want
    distinct = _distinct_denominators(coeffs)
    assert counts == {"pow": distinct, "str": len(coeffs) + distinct}


@pytest.mark.parametrize("f", [_gaussian_pencil(5, 4, 2)]
                         + _golden_pencils(),
                         ids=["gauss-5"] + [f"golden-{n}" for n in PENCILS])
def test_top_factor_json_renders_each_denominator_once(monkeypatch, f):
    fact = factorize_top_form(f)
    coeffs = (fact.q,) + fact.bar_i
    data, counts = _counting_renderings(monkeypatch,
                                        serialize.top_factor_to_json, fact)
    # after the count: the reference keeps each denominator on its RatFn
    assert data == top_factor_json_reference(fact)
    distinct = _distinct_denominators(coeffs)
    assert counts == {"pow": distinct, "str": len(coeffs) + distinct}
    # the bar I_j share their denominator, and q has its own
    assert distinct == 2
