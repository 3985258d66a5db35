"""Trace powers, the q*s factorization, and the cubic constant."""

from itertools import combinations

import pytest

from pencilforms.forms import maurer_cartan
from pencilforms.jacobi import (
    anchored_trace_power,
    calibrated_sign,
    cubic_trace_data,
    entry_matrix_constant,
    factorize_top_form,
    s_form,
    trace_power_form,
)
from pencilforms.linalg import MatrixTuple, PolyMatrix
from pencilforms.ring import MultiPoly, RatFn, Scalar
from pencilforms.sampling import random_matrix_tuple, rng_for
from pencilforms.transgression import kappa_wedge_oracle
from conftest import count_poly_mul
from oracles import trace_word_dense
from test_linalg import rand_gauss_tuple


def test_s_form_pins():
    s2 = s_form(2)
    assert s2.coefficient((1,)) == RatFn(MultiPoly.variable(2, 2))
    assert s2.coefficient((2,)) == RatFn(-MultiPoly.variable(2, 1))
    s4 = s_form(4)
    assert s4.degree == 3
    assert s4.coefficient((2, 3, 4)) == RatFn(-MultiPoly.variable(4, 1))
    assert s4.coefficient((1, 2, 3)) == RatFn(MultiPoly.variable(4, 4))
    with pytest.raises(ValueError):
        s_form(3)
    with pytest.raises(ValueError):
        s_form(0)


def test_s_form_evaluation_at_base_point():
    vals = s_form(4).evaluate_at([1.0, 0.0, 0.0, 1.0])
    assert vals == {(1, 2, 3): 1.0, (1, 2, 4): 0.0,
                    (1, 3, 4): 0.0, (2, 3, 4): -1.0}


def test_d_of_s_form_is_constant_top_form():
    for n in (2, 4):
        ds = s_form(n).exterior_derivative()
        top = tuple(range(1, n + 1))
        assert set(ds.terms) == {top}
        assert ds.coefficient(top) == RatFn(MultiPoly.constant(n, -n))


def test_trace_power_form_low_orders():
    rng = rng_for(51, "low")
    f = random_matrix_tuple(rng, 4, 2).pencil()
    det = f.det()
    one = trace_power_form(f, 1)
    for v in range(1, 5):
        assert one.coefficient((v,)) == RatFn(det.partial(v), det)
    assert trace_power_form(f, 2).is_zero
    assert trace_power_form(f, 4).is_zero


def test_trace_power_form_cubic_is_closed_and_nonzero():
    f = MatrixTuple.matrix_units(2).pencil()
    cubic = trace_power_form(f, 3)
    assert not cubic.is_zero
    assert cubic.exterior_derivative().is_zero
    rng = rng_for(52, "cubic")
    g = random_matrix_tuple(rng, 4, 3).pencil()
    other = trace_power_form(g, 3)
    assert other.exterior_derivative().is_zero


def test_dense_trace_oracle_matches_trace_power_form():
    f = MatrixTuple.matrix_units(2).pencil()
    dense_trace = trace_word_dense(3, 2)
    assert kappa_wedge_oracle(dense_trace, f) == trace_power_form(f, 3)


def test_anchored_expansion_guards():
    f = MatrixTuple.matrix_units(2).pencil()
    with pytest.raises(ValueError):
        anchored_trace_power(f, 2)
    with pytest.raises(ValueError):
        anchored_trace_power(f, 5)
    with pytest.raises(ValueError):
        trace_power_form(f, 5)


def test_factorize_matrix_unit_pencil():
    f = MatrixTuple.matrix_units(2).pencil()
    fact = factorize_top_form(f)
    assert fact.residual.is_zero
    det = f.det()
    # q = 3 p / det^2 with constant p for k = 2
    p = (fact.q * det * det).as_polynomial()
    assert p is not None and p.is_constant
    assert fact.q.den_pow >= 1
    assert len(fact.bar_i) == 4


def test_factorize_quadratic_entries():
    from pencilforms.sampling import random_poly_matrix

    rng = rng_for(53, "quad")
    f = random_poly_matrix(rng, 4, 2, degree=2)
    fact = factorize_top_form(f)
    assert fact.residual.is_zero


def test_factorize_rejects_bad_inputs():
    rng = rng_for(54, "bad")
    odd = random_matrix_tuple(rng, 3, 2).pencil()
    with pytest.raises(ValueError):
        factorize_top_form(odd)
    n = 4
    rows = [[MultiPoly.variable(n, 1), MultiPoly.one(n)],
            [MultiPoly.variable(n, 2), MultiPoly.variable(n, 3)]]
    lopsided = PolyMatrix(n, rows)
    with pytest.raises(ValueError):
        factorize_top_form(lopsided)


def test_two_variable_rotation_pencil_does_not_factor():
    # tr(omega) = d log(z1^2 + z2^2) is not a multiple of s at n = 2.
    n = 2
    z1, z2 = MultiPoly.variable(n, 1), MultiPoly.variable(n, 2)
    f = PolyMatrix(n, [[z1, z2], [-z2, z1]])
    assert not factorize_top_form(f).residual.is_zero


def test_cubic_data_matrix_units():
    data = cubic_trace_data(MatrixTuple.matrix_units(2))
    assert data.p.is_constant and not data.p.is_zero
    square = data.p * data.p
    assert square.constant_value() == Scalar(1)
    assert set(data.i_values) == {(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)}


def test_cubic_data_degrees():
    rng = rng_for(55, "deg")
    for k, expect in [(2, 0), (3, 2)]:
        t = random_matrix_tuple(rng, 4, k)
        data = cubic_trace_data(t)
        if data.p.is_zero:
            continue
        if expect == 0:
            assert data.p.is_constant
        else:
            assert data.p.homogeneity_degree() == expect


def test_cubic_data_rejects_wrong_variable_count():
    rng = rng_for(56, "guard")
    t = random_matrix_tuple(rng, 3, 2)
    with pytest.raises(ValueError):
        cubic_trace_data(t)


def test_entry_matrix_constant_pins():
    units = MatrixTuple.matrix_units(2)
    assert entry_matrix_constant(units) == Scalar(-1)
    with pytest.raises(ValueError):
        entry_matrix_constant(MatrixTuple([[[1]], [[2]], [[3]], [[4]]]))


def test_dependent_tuple_gives_zero_constant_and_zero_p():
    a1 = [[1, 2], [0, 1]]
    a2 = [[0, 1], [1, 3]]
    a3 = [[2, 0], [1, 1]]
    a4 = [[a1[r][c] + a2[r][c] for c in range(2)] for r in range(2)]
    t = MatrixTuple([a1, a2, a3, a4])
    assert entry_matrix_constant(t) == Scalar(0)
    data = cubic_trace_data(t)
    assert data.p.is_zero


def test_calibrated_sign_is_global():
    eps = calibrated_sign()
    assert eps in (Scalar(1), Scalar(-1))
    for trial in range(10):
        rng = rng_for(57, "eps", trial)
        t = random_matrix_tuple(rng, 4, 2)
        data = cubic_trace_data(t)
        expect = eps * entry_matrix_constant(t)
        assert data.p.constant_value() == expect, trial


def test_trace_power_form_matches_formed_wedge_power():
    rng = rng_for(57, "split")
    cases = [(random_matrix_tuple, 3, 3), (random_matrix_tuple, 5, 2),
             (rand_gauss_tuple, 4, 2), (rand_gauss_tuple, 3, 3),
             (random_matrix_tuple, 4, 3)]
    for make, n, k in cases:
        f = make(rng, n, k).pencil()
        omega = maurer_cartan(f)
        for m in range(1, n + 1):
            got = trace_power_form(f, m)
            assert got.degree == m
            # even powers trace to 0; so does the top odd power here
            assert got.is_zero == (m % 2 == 0 or m == n), (n, k, m)
            assert got == omega.wedge_power(m).trace(), (n, k, m)
            if m % 2 and m < n:
                assert anchored_trace_power(f, m) == got, (n, k, m)


def test_cubic_traces_match_formed_products():
    rng = rng_for(58, "cubic-products")
    for t in (random_matrix_tuple(rng, 4, 2), rand_gauss_tuple(rng, 4, 2),
              random_matrix_tuple(rng, 4, 3)):
        f = t.pencil()
        det, adj = f.det(), f.adjugate()
        mats = {j: PolyMatrix.constant(4, t.matrix(j)) for j in range(1, 5)}
        data = cubic_trace_data(t)
        assert any(not v.is_zero for v in data.i_values.values())
        assert data.residual.is_zero
        for (i, j, m) in combinations(range(1, 5), 3):
            fwd = adj * mats[i] * adj * mats[j] * adj * mats[m]
            bwd = adj * mats[i] * adj * mats[m] * adj * mats[j]
            want = RatFn.over_power((fwd - bwd).trace(), det, 3)
            assert data.i_values[(i, j, m)] == want


# Kernel products on fixed inputs. The count depends on the code alone, so
# exceeding it flags lost work savings without any timing. TRACE_POWER_4 was
# recorded when traces of products stopped forming the product (before:
# 2,073). TRACE_POWER_3 and CUBIC_TRACE_DATA were recorded when each trace
# power got one route (before: 1,056 with the anchored recomputation, and
# 1,545 with tr(omega^3) traced twice more); a second route coming back
# inside either call exceeds them.
TRACE_POWER_4_BUDGET = 993
TRACE_POWER_3_BUDGET = 588
CUBIC_TRACE_DATA_BUDGET = 485


def test_trace_power_kernel_product_budget(monkeypatch):
    f = random_matrix_tuple(rng_for(5, "guard"), 5, 3).pencil()
    calls = count_poly_mul(monkeypatch)
    trace_power_form(f, 4)
    assert 0 < calls[0] <= TRACE_POWER_4_BUDGET


def test_odd_trace_power_kernel_product_budget(monkeypatch):
    f = random_matrix_tuple(rng_for(5, "guard-cubic"), 4, 3).pencil()
    calls = count_poly_mul(monkeypatch)
    trace_power_form(f, 3)
    assert 0 < calls[0] <= TRACE_POWER_3_BUDGET


def test_cubic_trace_data_kernel_product_budget(monkeypatch):
    t = random_matrix_tuple(rng_for(5, "guard-cubic"), 4, 3)
    calls = count_poly_mul(monkeypatch)
    cubic_trace_data(t)
    assert 0 < calls[0] <= CUBIC_TRACE_DATA_BUDGET
