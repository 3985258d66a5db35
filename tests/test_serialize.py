"""JSON round-trips and schema validation."""

import json

import pytest

from pencilforms import serialize
from pencilforms.cochains import DenseCochain, TraceWord
from pencilforms.forms import maurer_cartan
from pencilforms.jacobi import trace_power_form
from pencilforms.linalg import MatrixTuple, PolyMatrix
from pencilforms.ring import Scalar
from pencilforms.sampling import (random_matrix_tuple, random_poly_matrix,
                                  rng_for)
from pencilforms.torus import MAX_ORDER, TorusConfig
from pencilforms.transgression import kappa


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


@pytest.mark.parametrize("reader, data", [
    (serialize.scalar_form_from_json, {"degree": 1, "n": None}),
    (serialize.matrix_form_from_json, {"degree": 1, "n": 2, "k": None}),
    (serialize.scalar_form_from_json, {"degree": 1, "n": 2, "terms": [5]}),
    (serialize.matrix_form_from_json,
     {"degree": 1, "n": 2, "k": 2, "terms": [5]}),
], ids=["scalar-n-null", "matrix-k-null", "scalar-term-5", "matrix-term-5"])
def test_form_readers_reject_malformed_shapes_with_value_error(reader, data):
    with pytest.raises(ValueError, match="malformed (scalar|matrix)-form"):
        reader(data)
