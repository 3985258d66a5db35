"""kappa, the transgression identity, tau, and hyperplane decompositions."""

from fractions import Fraction

import pytest

from pencilforms.cli import parse_cochain_spec
from pencilforms.cochains import (
    DenseCochain,
    TraceWord,
    cyclic_symmetrize,
    functional_product,
)
from pencilforms.forms import ScalarForm, maurer_cartan
from pencilforms.linalg import MatrixTuple
from pencilforms.ring import MultiPoly, RatFn, Scalar
from pencilforms.sampling import random_diagonal_tuple, random_matrix_tuple, rng_for
from pencilforms.transgression import (
    apply_multilinear,
    hyperplane_decomposition,
    kappa,
    kappa_wedge_oracle,
    tau,
    transgression_report,
)
from conftest import count_poly_mul


def test_kappa_of_trace_is_dlog_det():
    rng = rng_for(31, "dlog")
    for n, k in [(3, 2), (4, 2), (3, 3)]:
        f = random_matrix_tuple(rng, n, k).pencil()
        det = f.det()
        got = kappa(TraceWord(1), f)
        expect = ScalarForm(n, 1, {
            (v,): RatFn(det.partial(v), det)
            for v in range(1, n + 1) if not det.partial(v).is_zero
        })
        assert got == expect
        # cross-multiplied: trace(adj(f) df/dz_v) = d(det)/dz_v
        adj = f.adjugate()
        for v in range(1, n + 1):
            assert (adj * f.partial(v)).trace() == det.partial(v)


def test_kappa_equals_wedge_oracle_on_seeded_cases():
    for trial in range(20):
        rng = rng_for(32, "oracle", trial)
        k = rng.choice((2, 3))
        n = rng.choice((3, 4))
        arity = rng.choice((1, 2, 3))
        f = random_matrix_tuple(rng, n, k).pencil()
        phi = DenseCochain.random(rng, arity, k)
        assert kappa(phi, f) == kappa_wedge_oracle(phi, f), (trial, n, k, arity)


def test_kappa_metadata_and_edge_cases():
    rng = rng_for(33, "edges")
    f = random_matrix_tuple(rng, 3, 2).pencil()
    res = kappa(TraceWord(2), f)
    assert res.n == 3 and res.degree == 2
    # arity above the variable count: no multi-index exists
    high = kappa(TraceWord(4), f)
    assert high.degree == 4 and high.is_zero
    # zero cochain
    assert kappa(DenseCochain(2, 2, {}), f).is_zero
    # even trace-word: trace of an even wedge power vanishes
    assert kappa(TraceWord(2), f).is_zero


def test_kappa_arity_one_expansion():
    rng = rng_for(34, "arity1")
    f = random_matrix_tuple(rng, 3, 2).pencil()
    omega = maurer_cartan(f)
    phi = DenseCochain.random(rng, 1, 2)
    got = kappa(phi, f)
    expect = ScalarForm(3, 1, {
        (v,): RatFn.over_power(phi.evaluate([omega.coefficient_num((v,))]),
                               omega.den_base, omega.den_pow).reduce()
        for v in range(1, 4)
    })
    assert got == expect


def test_apply_multilinear_rejects_mixed_bases():
    rng = rng_for(35, "mixed")
    f1 = random_matrix_tuple(rng, 3, 2).pencil()
    f2 = random_matrix_tuple(rng, 3, 2).pencil()
    assert f1.det() != f2.det()
    w1, w2 = maurer_cartan(f1), maurer_cartan(f2)
    with pytest.raises(ValueError):
        apply_multilinear(TraceWord(2), [w1, w2])
    with pytest.raises(ValueError):
        apply_multilinear(TraceWord(3), [w1, w1])


def transgression_holds(rep):
    """The identity and its two halves on the report's forms."""
    a = rep.arity
    main = rep.kappa_b * Fraction(a, a + 1) == -rep.d_kappa
    decomposition = rep.kappa_b == -rep.d_kappa - rep.correction
    correction = rep.correction == rep.kappa_b * Fraction(-1, a + 1)
    return main, decomposition, correction


def test_transgression_for_trace():
    rng = rng_for(36, "tr")
    f = random_matrix_tuple(rng, 3, 2).pencil()
    rep = transgression_report(TraceWord(1), f)
    assert transgression_holds(rep) == (True, True, True)
    assert rep.kappa_b.is_zero and rep.d_kappa.is_zero


def test_transgression_for_odd_trace_word():
    # b phi = 0, so closedness of trace(omega^3) is the whole content.
    rng = rng_for(37, "tw3")
    f = random_matrix_tuple(rng, 4, 2).pencil()
    rep = transgression_report(TraceWord(3), f)
    assert transgression_holds(rep) == (True, True, True)
    assert rep.d_kappa.is_zero  # -d kappa(tw3) = 0
    assert not kappa(TraceWord(3), f).is_zero


def test_transgression_for_random_cyclic_cochains():
    for trial in range(6):
        rng = rng_for(38, "cyc", trial)
        arity = rng.choice((1, 2))
        k = 2
        n = rng.choice((3, 4))
        f = random_matrix_tuple(rng, n, k).pencil()
        phi = cyclic_symmetrize(DenseCochain.random(rng, arity, k))
        rep = transgression_report(phi, f)
        main, decomposition, correction = transgression_holds(rep)
        assert main, (trial, arity, n)
        assert decomposition, (trial, arity, n)
        assert correction, (trial, arity, n)
        if arity == 2:
            assert not rep.kappa_b.is_zero or not kappa(phi, f).is_zero


def test_transgression_rejects_non_cyclic():
    rng = rng_for(39, "noncyc")
    f = random_matrix_tuple(rng, 3, 2).pencil()
    phi = DenseCochain.random(rng, 2, 2)
    with pytest.raises(ValueError):
        transgression_report(phi, f)


def test_tau_unit_and_gate():
    rng = rng_for(40, "tau")
    f = random_matrix_tuple(rng, 3, 2).pencil()
    one = tau(1, f)
    assert one.degree == 0
    assert one.coefficient(()) == RatFn.one(3)
    assert tau(Scalar(5), f).coefficient(()) == RatFn(MultiPoly.constant(3, 5))
    entry = DenseCochain.basis(1, 2, ((0, 0),))
    with pytest.raises(ValueError):
        tau(entry, f)


def test_tau_on_diagonal_pencil_sums_log_derivatives():
    t = MatrixTuple([[[1, 0], [0, 1]], [[1, 0], [0, -1]]])
    f = t.pencil()
    got = tau(TraceWord(1), f)
    dec = hyperplane_decomposition(t)
    expect = dec.coordinate_forms[1] + dec.coordinate_forms[2]
    assert got == expect


def test_tau_multiplicativity():
    rng = rng_for(41, "taumul")
    f = random_matrix_tuple(rng, 4, 2).pencil()
    pairs = [
        (TraceWord(1), TraceWord(1)),
        (TraceWord(1), TraceWord(3)),
        (TraceWord(2), TraceWord(1)),
    ]
    for f1, f2 in pairs:
        lhs = tau(functional_product(f1, f2), f)
        rhs = tau(f1, f).wedge(tau(f2, f))
        assert lhs == rhs


def test_tau_closedness_on_invariant_functionals():
    rng = rng_for(42, "tauclosed")
    f = random_matrix_tuple(rng, 4, 2).pencil()
    functionals = [
        TraceWord(1),
        TraceWord(3),
        functional_product(TraceWord(1), TraceWord(1)),
        functional_product(TraceWord(1), TraceWord(3)),
    ]
    for func in functionals:
        form = tau(func, f)
        assert form.exterior_derivative().is_zero, func


def test_hyperplane_pinned_example():
    t = MatrixTuple([[[1, 0], [0, 1]], [[1, 0], [0, -1]]])
    dec = hyperplane_decomposition(t)
    assert [str(line) for line in dec.lines] == ["z1+z2", "z1-z2"]
    assert dec.line_product == dec.det == t.pencil().det()
    assert not any(line.is_zero for line in dec.lines)
    assert dec.kappa_forms == dec.coordinate_forms
    line = dec.lines[0]
    expected = ScalarForm(2, 1, {(1,): RatFn(MultiPoly.one(2), line),
                                 (2,): RatFn(MultiPoly.one(2), line)})
    assert dec.coordinate_forms[1] == expected


def test_hyperplane_zero_line_flagged():
    t = MatrixTuple([[[0, 0], [0, 2]], [[0, 0], [0, 3]]])
    dec = hyperplane_decomposition(t)
    assert [i for i, line in enumerate(dec.lines, 1) if line.is_zero] == [1]
    assert dec.line_product == dec.det  # both sides identically zero
    assert dec.det.is_zero
    assert dec.kappa_forms is None
    assert 1 not in dec.coordinate_forms
    assert 2 in dec.coordinate_forms


def test_hyperplane_multiplicities_group_repeated_lines():
    t = MatrixTuple([[[1, 0], [0, 1]], [[2, 0], [0, 2]]])
    dec = hyperplane_decomposition(t)
    assert len(dec.multiplicities) == 1
    line, mult = dec.multiplicities[0]
    assert str(line) == "z1+2*z2" and mult == 2
    assert dec.line_product == dec.det


def test_hyperplane_random_diagonal_tuples():
    for trial in range(6):
        rng = rng_for(43, "diag", trial)
        t = random_diagonal_tuple(rng, 3, 3)
        dec = hyperplane_decomposition(t)
        assert dec.line_product == dec.det
        assert len(dec.lines) == 3


def test_hyperplane_rejects_non_diagonal():
    t = MatrixTuple([[[1, 1], [0, 1]], [[1, 0], [0, 1]]])
    with pytest.raises(ValueError):
        hyperplane_decomposition(t)


def test_hyperplane_wedge_of_coordinates_matches_product_functional():
    rng = rng_for(44, "hypwedge")
    while True:
        t = random_diagonal_tuple(rng, 3, 3)
        if not t.pencil().det().is_zero:
            break
    dec = hyperplane_decomposition(t)
    f = t.pencil()
    wedge = dec.coordinate_forms[1].wedge(
        dec.coordinate_forms[2]).wedge(dec.coordinate_forms[3])
    product = functional_product(
        DenseCochain.basis(1, 3, ((0, 0),)),
        functional_product(DenseCochain.basis(1, 3, ((1, 1),)),
                           DenseCochain.basis(1, 3, ((2, 2),))))
    assert kappa(product, f) == wedge


# Kernel products of kappa of an arity-3 dense cochain, as form-requests
# asks for on k = 2 tuples, recorded when dense cochains began to be
# evaluated one slot at a time over a trie of their keys (parent, key by
# key: 2,488). Multiplying each key out on its own again exceeds it.
DENSE_KAPPA_BUDGET = 520


def test_dense_kappa_kernel_product_budget(monkeypatch):
    f = random_matrix_tuple(rng_for(5, "guard-dense"), 4, 2).pencil()
    phi = parse_cochain_spec("cyclic-random:3:2:7")
    calls = count_poly_mul(monkeypatch)
    form = kappa(phi, f)
    assert not form.is_zero
    assert 0 < calls[0] <= DENSE_KAPPA_BUDGET
