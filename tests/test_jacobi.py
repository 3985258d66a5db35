"""Trace powers, the q*s factorization, and the cubic constant."""

import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilforms import ring, serialize
from pencilforms.forms import ScalarForm, maurer_cartan
from pencilforms.jacobi import (
    _factor_top_form,
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
from oracles import (anchored_trace_power_reference, scalar_form_values,
                     top_form_residual_reference, trace_word_dense)
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
    vals = scalar_form_values(s_form(4), [1.0, 0.0, 0.0, 1.0])
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
        trace_power_form(f, 5)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(3, 5), k=st.sampled_from((2, 3)),
       make=st.sampled_from((random_matrix_tuple, rand_gauss_tuple)),
       seed=st.integers(0, 2 ** 16))
def test_anchored_trace_power_matches_one_word_per_permutation(n, k, make,
                                                              seed):
    f = make(random.Random(seed), n, k).pencil()
    assert (anchored_trace_power(f)
            == anchored_trace_power_reference(maurer_cartan(f), 3))


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
    # tr(omega) = d log(z1^2 + z2^2) is not a multiple of s at n = 2, so
    # the public split refuses n = 2
    n = 2
    z1, z2 = MultiPoly.variable(n, 1), MultiPoly.variable(n, 2)
    f = PolyMatrix(n, [[z1, z2], [-z2, z1]])
    assert not _factor_top_form(trace_power_form(f, 1)).residual.is_zero
    with pytest.raises(ValueError, match="n must be even and >= 4, got 2"):
        factorize_top_form(f)


def test_cubic_data_matrix_units():
    fact, p = cubic_trace_data(MatrixTuple.matrix_units(2))
    assert p.is_constant and not p.is_zero
    square = p * p
    assert square.constant_value() == Scalar(1)
    # one I per triple: bar_i[j - 1] is the triple that leaves out j
    assert len(fact.bar_i) == 4
    for j, value in enumerate(fact.bar_i, start=1):
        triple = tuple(v for v in range(1, 5) if v != j)
        assert value == fact.top_form.coefficient(triple) / 3


def test_cubic_data_degrees():
    rng = rng_for(55, "deg")
    for k, expect in [(2, 0), (3, 2)]:
        t = random_matrix_tuple(rng, 4, k)
        _, p = cubic_trace_data(t)
        if p.is_zero:
            continue
        if expect == 0:
            assert p.is_constant
        else:
            assert p.homogeneity_degree() == expect


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
    _, p = cubic_trace_data(t)
    assert p.is_zero


def test_calibrated_sign_is_global():
    # the constant is the ratio p / C on the matrix-unit tuple, and that
    # one ratio serves every seeded tuple
    eps = calibrated_sign()
    assert eps == Scalar(-1)
    units = MatrixTuple.matrix_units(2)
    _, p = cubic_trace_data(units)
    c = entry_matrix_constant(units)
    assert not c.is_zero
    assert p.constant_value() == eps * c
    for trial in range(10):
        rng = rng_for(57, "eps", trial)
        t = random_matrix_tuple(rng, 4, 2)
        _, p = cubic_trace_data(t)
        expect = eps * entry_matrix_constant(t)
        assert p.constant_value() == expect, trial


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
            if m == 3 and n > 3:
                # got is the anchored sum, so the anchored sum meets the
                # traced wedge route instead
                wedge = omega.wedge(omega).trace(omega)
                assert anchored_trace_power(f) == wedge, (n, k, m)


@pytest.mark.parametrize("make", [random_matrix_tuple, rand_gauss_tuple])
@pytest.mark.parametrize("n, k", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_cubic_trace_power_keeps_the_wedge_routes_reduced_form(make, n, k):
    # the same base, power and reduced coefficients as the traced wedge
    # route, so a route that reduced to another power fails here before any
    # golden digest does
    f = make(rng_for(63, "cubic-route", n, k), n, k).pencil()
    omega = maurer_cartan(f)
    got, wedge = trace_power_form(f, 3), omega.wedge(omega).trace(omega)
    assert wedge.is_zero == (n == 3)
    assert got.den_base == wedge.den_base
    assert got.den_pow == wedge.den_pow
    assert set(got.terms) == set(wedge.terms)
    for index in wedge.terms:
        a, b = got.coefficient(index), wedge.coefficient(index)
        assert (a.num, a.den_base, a.den_pow) == (b.num, b.den_base,
                                                  b.den_pow), index


def test_cubic_traces_match_formed_products():
    rng = rng_for(58, "cubic-products")
    for t in (random_matrix_tuple(rng, 4, 2), rand_gauss_tuple(rng, 4, 2),
              random_matrix_tuple(rng, 4, 3)):
        f = t.pencil()
        det, adj = f.det(), f.adjugate()
        mats = {j: PolyMatrix.constant(4, t.matrix(j)) for j in range(1, 5)}
        fact, _ = cubic_trace_data(t)
        assert any(not v.is_zero for v in fact.bar_i)
        assert fact.residual.is_zero
        for (i, j, m) in combinations(range(1, 5), 3):
            fwd = adj * mats[i] * adj * mats[j] * adj * mats[m]
            bwd = adj * mats[i] * adj * mats[m] * adj * mats[j]
            want = RatFn.over_power((fwd - bwd).trace(), det, 3)
            left_out = 10 - i - j - m
            assert fact.bar_i[left_out - 1] == want


def test_top_form_residual_matches_subtraction_reference():
    # z1 (T - q s), kept on T's own denominator base, against T - q s
    # computed over unlike denominators: the same verdict, and the same
    # form up to the factor z1, on seeded top forms, on top forms spoiled
    # off s, and on top forms moved along s (which still factor)
    z = [None] + [MultiPoly.variable(4, v) for v in range(1, 5)]
    for k in (2, 3):
        f = random_matrix_tuple(rng_for(61, "top-residual", k), 4, k).pencil()
        det = f.det()
        top = trace_power_form(f, 3)
        assert not top.is_zero
        for spoil, factors in (
                (ScalarForm(4, 3), True),
                (ScalarForm(4, 3, {(1, 2, 3): z[1]}), False),
                (ScalarForm(4, 3, {(1, 3, 4): RatFn(z[2] * z[4], det)}),
                 False),
                (s_form(4) * RatFn(z[3], det), True)):
            big_t = top + spoil
            fact = _factor_top_form(big_t)
            want = top_form_residual_reference(big_t)
            assert fact.top_form is big_t
            assert fact.residual.is_zero is want.is_zero is factors
            assert fact.residual == want * z[1]


# Kernel products on fixed inputs. The count depends on the code alone, so
# exceeding it flags lost work savings without any timing. TRACE_POWER_4 was
# recorded when traces of products stopped forming the product (before:
# 2,073). TRACE_POWER_3 and CUBIC_TRACE_DATA were recorded when each trace
# power got one route (before: 1,056 with the anchored recomputation, and
# 1,545 with tr(omega^3) traced twice more); a second route coming back
# inside either call exceeds them. The call budgets were recorded when each
# coefficient of a wedge and of a trace of a wedge became one
# `MultiPoly.dot` per entry (before: 303 and 204, one per entry of every
# term pair). CUBIC_TRACE_DATA went 485 -> 459 when the residual began to be
# built from numerators over omega's base instead of by RatFn arithmetic,
# 459 -> 378 when the anchored sum began to form each prefix product of
# its trace words once, and 378 -> 376 when p**m stopped multiplying p by
# one first. TRACE_POWER_4 went 993 -> 858 when an even form traced
# against itself began to take each unordered pair of its terms once; its
# term pairs (len(p) * len(q) per product) went 1,249,103 ->
# 679,508, and the pair budget flags the ordered pairs coming back.
# TRACE_POWER_3 went 588 -> 354 products, 142 -> 122 calls and 56,771 ->
# 34,579 term pairs when tr(omega^3) began to take the anchored sum in
# place of tracing omega ^ omega against omega; the wedge route coming
# back exceeds all three. All were set to their measured counts when det
# and the adjugate of omega's pencil became one kernel sum per minor
# (measured before: TRACE_POWER_4 849 products, 177 calls, 679,373 term
# pairs; TRACE_POWER_3 354, 122, 34,579; CUBIC_TRACE_DATA 367).
# TRACE_POWER_3 went 336 -> 327 products, 95 -> 77 calls and 34,519 ->
# 23,942 term pairs, and CUBIC_TRACE_DATA 349 -> 340, when tr(omega^3)
# began to trace B_a against one commutator [B_b, B_c] in place of two
# head products against two signed tails; tracing both words coming back
# exceeds the pair budget. TRACE_POWER_4 went 831 -> 651 products and
# 679,293 -> 639,283 term pairs when omega ^ omega began to take one
# commutator per pair of terms, skipping the entry products that cancel.
TRACE_POWER_4_BUDGET = 651
TRACE_POWER_4_PAIR_BUDGET = 639_283
TRACE_POWER_3_BUDGET = 327
TRACE_POWER_3_PAIR_BUDGET = 23_942
CUBIC_TRACE_DATA_BUDGET = 340
TRACE_POWER_4_CALL_BUDGET = 150
TRACE_POWER_3_CALL_BUDGET = 77


def test_trace_power_kernel_product_budget(monkeypatch):
    f = random_matrix_tuple(rng_for(5, "guard"), 5, 3).pencil()
    calls = count_poly_mul(monkeypatch)
    trace_power_form(f, 4)
    assert 0 < calls[0] <= TRACE_POWER_4_BUDGET
    assert 0 < calls[1] <= TRACE_POWER_4_CALL_BUDGET
    assert 0 < calls[2] <= TRACE_POWER_4_PAIR_BUDGET


# `ring.poly_pack` calls for trace_power_form(f, 4) on the tuple above:
# only polynomials built from term dicts are packed, each once. 255 when
# every kernel result came back as a term dict and was packed again on
# entering the next sum; 9 (57 before) since the pencil's entries are
# packed once for its det and adjugate and their partials come back
# packed.
TRACE_POWER_4_PACK_BUDGET = 9


def test_trace_power_packs_no_kernel_result(monkeypatch):
    # a pencil built anew: the tuple's own pencil had its entries packed
    # when sampling took its det
    f = MatrixTuple(random_matrix_tuple(rng_for(5, "guard"), 5, 3).mats
                    ).pencil()
    packed, unpacked = [], []
    inner_pack, inner_unpack = ring.poly_pack, ring.poly_unpack

    def counting_pack(p):
        packed.append(p)  # kept alive, so ids stay distinct
        return inner_pack(p)

    def counting_unpack(p):
        unpacked.append(inner_unpack(p))
        return unpacked[-1]

    monkeypatch.setattr(ring, "poly_pack", counting_pack)
    monkeypatch.setattr(ring, "poly_unpack", counting_unpack)
    trace_power_form(f, 4)
    assert 0 < len(packed) <= TRACE_POWER_4_PACK_BUDGET
    assert len({id(p) for p in packed}) == len(packed)
    assert not {id(p) for p in packed} & {id(p) for p in unpacked}


def test_odd_trace_power_kernel_product_budget(monkeypatch):
    f = random_matrix_tuple(rng_for(5, "guard-cubic"), 4, 3).pencil()
    calls = count_poly_mul(monkeypatch)
    trace_power_form(f, 3)
    assert 0 < calls[0] <= TRACE_POWER_3_BUDGET
    assert 0 < calls[1] <= TRACE_POWER_3_CALL_BUDGET
    assert 0 < calls[2] <= TRACE_POWER_3_PAIR_BUDGET


def test_cubic_trace_data_kernel_product_budget(monkeypatch):
    t = random_matrix_tuple(rng_for(5, "guard-cubic"), 4, 3)
    calls = count_poly_mul(monkeypatch)
    cubic_trace_data(t)
    assert 0 < calls[0] <= CUBIC_TRACE_DATA_BUDGET


# -- the kept last omega and trace power ---------------------------------------


def test_top_factor_after_its_trace_power_recomputes_nothing(monkeypatch):
    # the split reads the kept tr(omega^3): a repeat of the trace power
    # makes no kernel product, and factorize_top_form makes only the
    # products of the split itself
    f = random_matrix_tuple(rng_for(5, "guard-cubic"), 4, 3).pencil()
    top = trace_power_form(f, 3)
    calls = count_poly_mul(monkeypatch)
    assert trace_power_form(f, 3) is top
    assert calls == [0, 0, 0]
    fact = factorize_top_form(f)
    assert fact.top_form is top and fact.residual.is_zero
    public, calls[:] = list(calls), [0, 0, 0]
    _factor_top_form(top)
    assert public == calls
    assert 0 < calls[0] < TRACE_POWER_3_BUDGET // 10


def test_an_equal_matrix_parsed_apart_hits_the_kept_forms():
    t = rand_gauss_tuple(random.Random(41), 4, 2)
    f = t.pencil()
    g = serialize.tuple_from_json(json.loads(serialize.canonical_json(
        serialize.tuple_to_json(t)))).pencil()
    assert g == f and g is not f
    omega, top = maurer_cartan(f), trace_power_form(f, 3)
    hits = maurer_cartan.cache_info().hits, trace_power_form.cache_info().hits
    assert maurer_cartan(g) is omega
    assert trace_power_form(g, 3) is top
    assert maurer_cartan.cache_info().hits == hits[0] + 1
    assert trace_power_form.cache_info().hits == hits[1] + 1
    # m is part of the key
    assert trace_power_form(g, 1) is not top
    assert trace_power_form.cache_info().hits == hits[1] + 1


def test_another_pencil_in_between_evicts_the_kept_forms(monkeypatch):
    f = random_matrix_tuple(rng_for(5, "guard-cubic"), 4, 3).pencil()
    g = MatrixTuple.matrix_units(2).pencil()
    first = trace_power_form(f, 3)
    trace_power_form(g, 3)
    assert maurer_cartan.cache_info().currsize == 1
    misses = (maurer_cartan.cache_info().misses,
              trace_power_form.cache_info().misses)
    calls = count_poly_mul(monkeypatch)
    again = trace_power_form(f, 3)
    assert again == first and again is not first
    assert 0 < calls[0] <= TRACE_POWER_3_BUDGET
    assert maurer_cartan.cache_info().misses == misses[0] + 1
    assert trace_power_form.cache_info().misses == misses[1] + 1


def test_a_singular_pencil_raises_on_every_call():
    t = MatrixTuple([[[1, 0], [0, 0]], [[0, 1], [0, 0]]])
    for _ in range(2):
        with pytest.raises(ValueError, match="vanishes identically"):
            trace_power_form(t.pencil(), 1)
        with pytest.raises(ValueError, match="vanishes identically"):
            maurer_cartan(t.pencil())
    assert maurer_cartan.cache_info().currsize == 0
    assert trace_power_form.cache_info().currsize == 0
