"""kappa, the transgression identity, tau, and hyperplane decompositions."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pencilforms import transgression
from pencilforms.cli import parse_cochain_spec
from pencilforms.cochains import (
    DenseCochain,
    FunctionalCochain,
    ProductCochain,
    TraceWord,
    coboundary,
    cyclic_symmetrize,
    functional_product,
    invariance_test,
    is_cyclic,
)
from pencilforms.forms import ScalarForm, maurer_cartan
from pencilforms.jacobi import (cubic_trace_data, factorize_top_form,
                               trace_power_form)
from pencilforms.linalg import MatrixTuple, PolyMatrix
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
from oracles import kappa_permutation_reference, trace_word_dense
from test_cochains import dense_factor, structured_cochain
from test_linalg import rand_gauss_tuple
from test_ring import gaussians


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
    assert one.coefficient(()) == RatFn(MultiPoly.one(3))
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


def test_hyperplane_multiplicities_keep_first_appearance_order():
    # lines z1, z2, z1: the repeat is not adjacent to its first appearance
    t = MatrixTuple([[[1, 0, 0], [0, 0, 0], [0, 0, 1]],
                     [[0, 0, 0], [0, 1, 0], [0, 0, 0]]])
    dec = hyperplane_decomposition(t)
    z1, z2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    assert dec.lines == (z1, z2, z1)
    assert dec.multiplicities == ((z1, 2), (z2, 1))
    assert dec.line_product == dec.det == z1 * z1 * z2


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
    t = random_diagonal_tuple(rng_for(44, "hypwedge"), 3, 3)
    dec = hyperplane_decomposition(t)
    f = t.pencil()
    wedge = dec.coordinate_forms[1].wedge(
        dec.coordinate_forms[2]).wedge(dec.coordinate_forms[3])
    product = functional_product(
        DenseCochain.basis(1, 3, ((0, 0),)),
        functional_product(DenseCochain.basis(1, 3, ((1, 1),)),
                           DenseCochain.basis(1, 3, ((2, 2),))))
    assert kappa(product, f) == wedge


# Kernel work of kappa of an arity-3 dense cochain, as form-requests asks
# for on k = 2 tuples. The product budget was 2,488 key by key and 520 with
# phi evaluated over its key trie once per permutation; both budgets were
# recorded when kappa began to contract the trie against omega slot by
# slot, one `MultiPoly.dot` per form coefficient (kernel calls before:
# 504), and set to their measured counts (423 and 112 before) when
# omega's adjugate became one kernel sum per minor, and set again (419 and
# 108 before) when the kappa of a cyclic cochain began to sum one anchored
# first slot. Evaluating phi per permutation, or summing every rotation of
# a cyclic phi, exceeds both.
DENSE_KAPPA_BUDGET = 255
DENSE_KAPPA_CALL_BUDGET = 80


def test_dense_kappa_kernel_product_budget(monkeypatch):
    f = random_matrix_tuple(rng_for(5, "guard-dense"), 4, 2).pencil()
    phi = parse_cochain_spec("cyclic-random:3:2:7")
    calls = count_poly_mul(monkeypatch)
    form = kappa(phi, f)
    assert not form.is_zero
    assert 0 < calls[0] <= DENSE_KAPPA_BUDGET
    assert 0 < calls[1] <= DENSE_KAPPA_CALL_BUDGET


def test_dense_kappa_refuses_a_cochain_of_another_size():
    # the contraction reads omega's entries straight from the trie, so the
    # size check evaluate makes has to happen before it
    f = MatrixTuple.matrix_units(2).pencil()
    phi = parse_cochain_spec("cyclic-random:2:3:1")
    with pytest.raises(ValueError, match=r"argument size 2 != k=3"):
        kappa(phi, f)


def test_kappa_refuses_a_product_with_a_factor_of_another_size():
    # the k = 3 factor is refused when its tensor is asked for on k = 2
    f = MatrixTuple.matrix_units(2).pencil()
    phi = parse_cochain_spec("product(trace, cyclic-random:1:3:1)")
    with pytest.raises(ValueError, match=r"argument size 2 != k=3"):
        kappa(phi, f)


def test_functional_cochains_have_no_tensor():
    # kappa, is_cyclic and invariance_test read a tensor; a function has
    # none, alone or as a factor
    f = MatrixTuple.matrix_units(2).pencil()
    fn = FunctionalCochain(2, lambda args: args[0][0][0] * args[1][1][1])
    nested = ProductCochain(TraceWord(1),
                            FunctionalCochain(1, lambda args: args[0][0][0]))
    for phi in (fn, nested):
        with pytest.raises(TypeError, match="FunctionalCochain has no tensor"):
            kappa(phi, f)
        with pytest.raises(TypeError, match="FunctionalCochain has no tensor"):
            is_cyclic(phi, k=2)
        with pytest.raises(TypeError, match="FunctionalCochain has no tensor"):
            invariance_test(phi, k=2)


# Kernel products of kappa of the dense tensor of tr(x y z) on an n = 4,
# k = 3 pencil, omega included, recorded when kappa began to contract every
# cochain's chain of dense factors; 1,020 products in 324 calls when a
# trace word was evaluated once per permutation. The trace word itself
# took this chain until its kappa became the wedged tr(omega^3). The
# tensor is cyclic, and the budget was set to 405 (696 before) when such a
# tensor's kappa began to sum one anchored first slot.
TRACEWORD_KAPPA_BUDGET = 405

# The same for the trace word tr(x y z), whose kappa is tr(omega^3) by
# `trace_power_form`: 579 products in 131 calls with omega's det read off
# its adjugate, 588 in 142 with det expanded apart.
TRACE_POWER_KAPPA_BUDGET = 588

# The same for a product of two arity-2 cyclic cochains on that pencil: its
# two factor tries are contracted one after the other. 612 products in 540
# calls when the product was evaluated once per permutation; 15,168
# products in 2,137 calls when the outer product of the factors is built
# and contracted as one tensor.
PRODUCT_KAPPA_BUDGET = 792


def test_chain_kappa_kernel_product_budgets(monkeypatch):
    f = random_matrix_tuple(rng_for(5, "guard-traceword"), 4, 3).pencil()
    product = parse_cochain_spec(
        "product(cyclic-random:2:3:1, cyclic-random:2:3:2)")
    for phi, budget in ((TraceWord(3).tensors(3)[0], TRACEWORD_KAPPA_BUDGET),
                        (TraceWord(3), TRACE_POWER_KAPPA_BUDGET),
                        (product, PRODUCT_KAPPA_BUDGET)):
        maurer_cartan.cache_clear()  # each budget counts building omega
        calls = count_poly_mul(monkeypatch)
        assert not kappa(phi, f).is_zero
        assert 0 < calls[0] <= budget, (phi, calls)
    # b tr(x y z) = 0, so its tensor is empty and, omega kept, kappa
    # multiplies nothing
    maurer_cartan(f)
    calls = count_poly_mul(monkeypatch)
    assert kappa(coboundary(TraceWord(3)), f).is_zero
    assert calls == [0, 0, 0]


def test_trace_word_kappa_matches_its_dense_tensor():
    # a trace word's kappa is the wedged tr(omega^m); its dense tensor is a
    # DenseCochain and still takes the chain contraction, m > n included.
    # tr(omega^m) vanishes for even m and, on a linear pencil, at odd
    # m = n (a top form the Euler field contracts to tr(omega^(m-1)) = 0),
    # so the content is m = 1 everywhere and m = 3 at n >= 4: 14 forms
    nonzero = 0
    for n, k in ((3, 2), (4, 2), (4, 3), (5, 2)):
        pencils = (random_matrix_tuple(rng_for(46, "word", n, k), n, k),
                   rand_gauss_tuple(rng_for(46, "gauss-word", n, k), n, k))
        for t in pencils:
            f = t.pencil()
            for m in range(1, 6):
                word = TraceWord(m)
                dense = kappa(word.tensors(k)[0], f)
                got = kappa(word, f)
                assert (got.n, got.degree) == (n, m)
                assert got == dense, (n, k, m, t)
                assert list(got.terms) == list(dense.terms)
                assert (got.den_base, got.den_pow) == (dense.den_base,
                                                       dense.den_pow)
                if m > n or m % 2 == 0:
                    assert got.is_zero, (n, k, m)
                nonzero += not got.is_zero
    assert nonzero == 14


def test_trace_word_kappa_shares_the_kept_trace_power(monkeypatch):
    # kappa of tr(x_1..x_m) returns the form trace_power_form keeps, in
    # either order, with no kernel product
    f = random_matrix_tuple(rng_for(47, "share"), 4, 2).pencil()
    kept = trace_power_form(f, 3)
    calls = count_poly_mul(monkeypatch)
    assert kappa(TraceWord(3), f) is kept
    assert calls == [0, 0, 0]
    trace_power_form.cache_clear()
    form = kappa(TraceWord(3), f)
    calls = count_poly_mul(monkeypatch)
    assert trace_power_form(f, 3) is form
    assert calls == [0, 0, 0]
    # the top-form split after a trace-word kappa at n = 4 splits the kept
    # tr(omega^3) and computes no trace power of its own
    h = MatrixTuple.matrix_units(2).pencil()
    form = kappa(TraceWord(3), h)
    misses = trace_power_form.cache_info().misses
    assert factorize_top_form(h).top_form is form
    assert trace_power_form.cache_info().misses == misses


# Each of these asks for omega by pencil several times (a kappa form per
# cochain or per line, and p's det); the kept omega makes every ask after
# the first a lookup, so one call builds one adjugate.
@pytest.mark.parametrize("call", [
    lambda: transgression_report(
        TraceWord(3), random_matrix_tuple(rng_for(45, "adj"), 3, 2).pencil()),
    lambda: hyperplane_decomposition(MatrixTuple(
        [[[1, 0, 0], [0, 0, 0], [0, 0, 1]],
         [[0, 0, 0], [0, 1, 0], [0, 0, 2]]])),
    lambda: cubic_trace_data(random_matrix_tuple(rng_for(45, "adj"), 4, 2)),
], ids=["transgression_report", "hyperplane_decomposition",
        "cubic_trace_data"])
def test_one_call_builds_omega_once(monkeypatch, call):
    built = [0]
    inner = PolyMatrix.adjugate

    def counting(self):
        built[0] += 1
        return inner(self)

    monkeypatch.setattr(PolyMatrix, "adjugate", counting)
    call()
    assert built == [1]


# -- kappa against its permutation expansion --------------------------------


@st.composite
def kappa_cases(draw):
    """(phi, f): a dense cochain, plain or built by coboundary or
    cyclic_symmetrize; a trace word of arity 1..4; a nested product of
    trace-word and dense factors; or the coboundary of a trace word or of a
    product; and an integer or Gaussian-rational pencil with n = 2..5 and
    k = 1..3 (k <= 2 at arity 4, to bound the reference)."""
    arity = draw(st.integers(1, 4))
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, 3 if arity < 4 else 2))
    hows = ["plain", "cyclic", "traceword"]
    if arity > 1:
        hows += ["coboundary", "product", "b-traceword"]
    if arity > 2:
        hows.append("b-product")
    how = draw(st.sampled_from(hows))
    base = arity - 1 if how in ("coboundary", "b-traceword",
                                "b-product") else arity
    if how in ("plain", "coboundary", "cyclic"):
        phi = dense_factor(draw, base, k)
        if how == "coboundary":
            phi = coboundary(phi)
        elif how == "cyclic":
            phi = cyclic_symmetrize(phi)
    elif how in ("traceword", "b-traceword"):
        phi = TraceWord(base)
    else:
        left = draw(st.integers(1, base - 1))
        phi = ProductCochain(structured_cochain(draw, left, k, 1),
                             structured_cochain(draw, base - left, k, 1))
    if how.startswith("b-"):
        phi = coboundary(phi)
    entries = draw(st.sampled_from((st.integers(-2, 2), gaussians)))
    grid = st.lists(st.lists(entries, min_size=k, max_size=k),
                    min_size=k, max_size=k)
    f = MatrixTuple(draw(st.lists(grid, min_size=n, max_size=n))).pencil()
    assume(not f.det().is_zero)
    return phi, f


_GUARD = random_matrix_tuple(rng_for(5, "guard-dense"), 4, 2).pencil()


@settings(max_examples=200, deadline=None)
@given(kappa_cases())
@example((DenseCochain(3, 2, {}), _GUARD))
@example((parse_cochain_spec("cyclic-random:3:2:7"), _GUARD))
# tr(x y) is symmetric, so every coefficient of kappa cancels to zero
@example((trace_word_dense(2, 2), _GUARD))
@example((TraceWord(3), _GUARD))
@example((coboundary(TraceWord(2)), _GUARD))
# an empty factor empties the whole chain
@example((ProductCochain(TraceWord(1), ProductCochain(
    DenseCochain(1, 2, {}), TraceWord(2))), _GUARD))
@example((coboundary(ProductCochain(
    TraceWord(1), parse_cochain_spec("cyclic-random:2:2:3"))), _GUARD))
def test_dense_kappa_matches_permutation_expansion(case):
    phi, f = case
    got = kappa(phi, f)
    want = kappa_permutation_reference(phi, maurer_cartan(f))
    assert (got.n, got.degree) == (want.n, want.degree)
    assert list(got.terms) == list(want.terms)
    for index in want.terms:
        assert str(got.coefficient(index)) == str(want.coefficient(index))


# -- the anchored sum of a cyclic cochain -----------------------------------


def _gaussian_pencil(draw, n, k):
    grid = st.lists(st.lists(gaussians, min_size=k, max_size=k),
                    min_size=k, max_size=k)
    f = MatrixTuple(draw(st.lists(grid, min_size=n, max_size=n))).pencil()
    assume(not f.det().is_zero)
    return f


@st.composite
def anchored_cases(draw):
    """(phi, f): a cyclic-symmetrized dense cochain of arity 2..4 with
    Gaussian-rational coefficients on k = 2..3 (k = 2 at arity 4, to bound
    the oracle), and a Gaussian-rational pencil with n = arity..4."""
    arity = draw(st.integers(2, 4))
    k = draw(st.integers(2, 3 if arity < 4 else 2))
    n = draw(st.integers(max(arity, 3), 4))
    return (cyclic_symmetrize(dense_factor(draw, arity, k)),
            _gaussian_pencil(draw, n, k))


@settings(max_examples=80, deadline=None)
@given(anchored_cases())
@example((parse_cochain_spec("cyclic-random:3:2:7"), _GUARD))
@example((parse_cochain_spec("cyclic-random:4:2:1"), _GUARD))
def test_anchored_kappa_matches_the_wedge_oracle(case):
    # a cyclic cochain's kappa sums the permutations with pi(1) = min I
    # only, a times each
    phi, f = case
    assert is_cyclic(phi)
    assert kappa(phi, f) == kappa_wedge_oracle(phi, f)


@st.composite
def unanchored_cases(draw):
    """(phi, f): a dense cochain that is not cyclic, or a product of two
    cyclic-symmetrized ones, of arity 2..3 on k = 2, and a
    Gaussian-rational pencil with n = 3..4."""
    arity = draw(st.integers(2, 3))
    if draw(st.booleans()):
        phi = dense_factor(draw, arity, 2)
        assume(not is_cyclic(phi))
    else:
        left = draw(st.integers(1, arity - 1))
        phi = ProductCochain(
            cyclic_symmetrize(dense_factor(draw, left, 2)),
            cyclic_symmetrize(dense_factor(draw, arity - left, 2)))
    return phi, _gaussian_pencil(draw, draw(st.integers(3, 4)), 2)


@settings(max_examples=40, deadline=None)
@given(unanchored_cases())
def test_unanchored_kappa_matches_the_wedge_oracle(case):
    phi, f = case
    assert kappa(phi, f) == kappa_wedge_oracle(phi, f)


def test_the_anchored_sum_needs_the_cyclic_gate(monkeypatch):
    # with the gate forced open, kappa of a cochain that is not cyclic
    # takes the anchored sum and differs from the oracle
    rng = rng_for(33, "gate")
    f = random_matrix_tuple(rng, 3, 2).pencil()
    phi = DenseCochain.random(rng, 2, 2)
    assert not is_cyclic(phi)
    want = kappa_wedge_oracle(phi, f)
    assert kappa(phi, f) == want
    monkeypatch.setattr(transgression, "is_cyclic", lambda phi: True)
    assert kappa(phi, f) != want
