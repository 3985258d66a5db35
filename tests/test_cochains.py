"""Cochain evaluation, the coboundary b, cyclicity, and invariance."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pencilforms import serialize
from pencilforms.cochains import (
    Cochain,
    DenseCochain,
    FormulaCoboundary,
    FunctionalCochain,
    ProductCochain,
    TraceWord,
    coboundary,
    cyclic_symmetrize,
    functional_product,
    invariance_test,
    is_cyclic,
    outer_product,
)
from pencilforms.linalg import (
    PolyMatrix,
    grid_add,
    grid_mul,
    grid_scale,
    grid_sub,
    grid_trace,
)
from pencilforms.ring import MultiPoly, RatFn, Scalar
from pencilforms.sampling import random_poly_matrix, rng_for
from pencilforms.torus import TorusConfig
from oracles import (dense_evaluate_reference, invariance_probe_reference,
                     is_cyclic_spanning_reference, random_grid,
                     trace_word_dense, unit_grid)
from test_ring import gaussians
from test_torus import rand_exact_element, rand_numeric_element


def identity_grid(k):
    return tuple(tuple(Scalar(1) if r == c else Scalar(0) for c in range(k))
                 for r in range(k))


def test_trace_word_pins():
    for k in (2, 3):
        assert TraceWord(1)(identity_grid(k)) == Scalar(k)
    val = TraceWord(3)(unit_grid(2, 0, 1), unit_grid(2, 1, 0), unit_grid(2, 0, 0))
    assert val == Scalar(1)


def test_dense_basis_pins():
    phi = DenseCochain.basis(1, 2, ((0, 0),))
    assert phi(unit_grid(2, 0, 0)) == Scalar(1)
    assert phi(unit_grid(2, 0, 1)) == Scalar(0)


def test_dense_validation():
    with pytest.raises(ValueError):
        DenseCochain(0, 2, {})
    with pytest.raises(ValueError):
        DenseCochain(2, 2, {((0, 0),): Scalar(1)})
    with pytest.raises(ValueError):
        DenseCochain(1, 2, {((0, 2),): Scalar(1)})
    with pytest.raises(ValueError):
        TraceWord(2)(identity_grid(2))


def test_cancelled_duplicate_key_leaves_the_tensor():
    # a key given twice, in the JSON terms list, is summed; a key whose sum
    # is zero is dropped, and a later entry for it starts afresh
    def read(*terms):
        return serialize.dense_cochain_from_json({
            "arity": 1, "k": 2,
            "terms": [{"pairs": [list(pair)], "coeff": coeff}
                      for pair, coeff in terms]})

    phi = read(((0, 0), "1"), ((0, 0), "-1"), ((1, 1), "2"))
    assert phi.tensor == {((1, 1),): Scalar(2)}
    assert repr(phi) == "DenseCochain(arity=1, k=2, 1 entries)"
    assert serialize.dense_cochain_to_json(phi)["terms"] == [
        {"pairs": [[1, 1]], "coeff": "2"}]
    assert phi(identity_grid(2)) == Scalar(2)
    again = read(((0, 0), "1"), ((0, 0), "-1"), ((0, 0), "3"))
    assert again.tensor == {((0, 0),): Scalar(3)}
    empty = read(((1, 0), "1"), ((1, 0), "-1"))
    assert not empty.tensor
    assert empty(identity_grid(2)) == Scalar(0)
    assert not DenseCochain(1, 2, {((1, 0),): 0}).tensor


@pytest.mark.parametrize("entry", [0.5, 1.0, True, False, "0", None],
                         ids=["float", "whole-float", "true", "false",
                              "string", "none"])
def test_dense_keys_take_integers_only(entry):
    # int() would read 0.5 as 0, True as 1 and "0" as 0
    for key in (((entry, 1),), ((1, entry),), ((0, 0), (entry, 0))):
        with pytest.raises(ValueError, match="not an integer"):
            DenseCochain(len(key), 2, {key: 1})
    with pytest.raises(ValueError, match="not an integer"):
        DenseCochain(1, 2, {((0.5, 1.2),): 1})


def test_multilinearity_probes():
    rng = random.Random(21)
    k = 2
    for phi in (TraceWord(2), TraceWord(3),
                DenseCochain.random(rng_for(3, "ml"), 2, k),
                functional_product(TraceWord(1), TraceWord(2))):
        a = phi.arity
        for _ in range(5):
            args = [random_grid(rng, k) for _ in range(a)]
            slot = rng.randrange(a)
            x, y = random_grid(rng, k), random_grid(rng, k)
            lam = Scalar(rng.randint(-3, 3), rng.randint(-2, 2))
            mixed = list(args)
            mixed[slot] = grid_add(x, grid_scale(y, lam))
            with_x = list(args)
            with_x[slot] = x
            with_y = list(args)
            with_y[slot] = y
            assert phi.evaluate(mixed) == \
                phi.evaluate(with_x) + lam * phi.evaluate(with_y)


def test_coboundary_of_trace_vanishes():
    rng = random.Random(22)
    b_tr = coboundary(TraceWord(1))
    assert b_tr.arity == 2
    for _ in range(5):
        x, y = random_grid(rng, 2), random_grid(rng, 2)
        assert b_tr(x, y) == Scalar(0)


def test_coboundary_of_entry_functional_is_commutator_entry():
    rng = random.Random(23)
    phi = DenseCochain.basis(1, 2, ((0, 0),))
    b_phi = coboundary(phi)
    for _ in range(5):
        x, y = random_grid(rng, 2), random_grid(rng, 2)
        comm = grid_sub(grid_mul(x, y), grid_mul(y, x))
        assert b_phi(x, y) == comm[0][0]


def test_dense_coboundary_matches_formula():
    for trial in range(8):
        rng = rng_for(7, "bdense", trial)
        arity = rng.choice((1, 2, 3))
        k = rng.choice((2, 3))
        phi = DenseCochain.random(rng, arity, k)
        dense_b = coboundary(phi)
        formula_b = FormulaCoboundary(phi)
        assert isinstance(dense_b, DenseCochain)
        for _ in range(3):
            args = [random_grid(rng, k) for _ in range(arity + 1)]
            assert dense_b.evaluate(args) == formula_b.evaluate(args)


def test_formula_coboundary_feeds_each_term_its_arguments():
    # the base sees, in order, the argument list of every term of the
    # alternating sum, as spliced from the definition
    for arity in (1, 2, 3, 4):
        seen = []

        def record(args):
            seen.append(list(args))
            return Scalar(len(seen))

        args = [random_grid(rng_for(9, "splice", arity, t), 2)
                for t in range(arity + 1)]
        before = list(args)
        FormulaCoboundary(FunctionalCochain(arity, record))(args)
        want = [args[:j - 1] + [grid_mul(args[j - 1], args[j])] + args[j + 1:]
                for j in range(1, arity + 1)]
        want.append([grid_mul(args[arity], args[0])] + args[1:arity])
        assert seen == want
        assert args == before


def test_wrong_arity_message_from_call_and_evaluate():
    x = unit_grid(2, 0, 1)
    for phi in (TraceWord(2), FormulaCoboundary(TraceWord(2)),
                DenseCochain.basis(2, 2, ((0, 1), (1, 0)))):
        for bad in ([x], [x] * (phi.arity + 1)):
            message = f"expected {phi.arity} arguments, got {len(bad)}"
            for call in (lambda: phi(bad), lambda: phi(*bad),
                         lambda: phi.evaluate(bad)):
                with pytest.raises(ValueError, match=message):
                    call()


def test_formula_coboundary_of_a_function_checks_arguments_once(
        monkeypatch):
    # the coboundary checks the tuple; the function it feeds each term to
    # checks only the length, which the splicing keeps
    checks = [0]
    inner = Cochain._check_args

    def counting(self, args):
        checks[0] += 1
        return inner(self, args)

    monkeypatch.setattr(Cochain, "_check_args", counting)
    args = [random_grid(rng_for(9, "once", t), 2) for t in range(3)]
    b_fn = FormulaCoboundary(FunctionalCochain(
        2, lambda xs: xs[0][0][1] * xs[1][1][0]))
    b_fn(args)
    assert checks == [1]


def test_b_squared_is_zero_on_dense_tensors():
    for arity in (1, 2, 3):
        for k in (2, 3):
            rng = rng_for(8, "bb", arity, k)
            phi = DenseCochain.random(rng, arity, k)
            bb = coboundary(coboundary(phi))
            assert isinstance(bb, DenseCochain)
            assert not bb.tensor


def test_coboundary_ladder_of_trace_words():
    # b kills odd-arity trace-words and sends even ones up a rung.
    for k in (2, 3):
        assert not coboundary(trace_word_dense(1, k)).tensor
        assert not coboundary(trace_word_dense(3, k)).tensor
        up = coboundary(trace_word_dense(2, k))
        assert up.tensor == trace_word_dense(3, k).tensor


def test_to_dense_matches_trace_word():
    rng = random.Random(24)
    for arity, k in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        tw = TraceWord(arity)
        dense = trace_word_dense(arity, k)
        for _ in range(4):
            args = [random_grid(rng, k) for _ in range(arity)]
            assert dense.evaluate(args) == tw.evaluate(args)


def test_is_cyclic_pins():
    assert is_cyclic(TraceWord(3), k=2)
    assert is_cyclic(trace_word_dense(3, 2))
    assert not is_cyclic(TraceWord(2), k=2)
    assert not is_cyclic(trace_word_dense(2, 3))
    assert is_cyclic(DenseCochain.basis(1, 2, ((0, 1),)))
    rng = rng_for(9, "anyfn")
    assert is_cyclic(FunctionalCochain(1, lambda args: args[0][0][0]))
    assert not is_cyclic(DenseCochain.random(rng, 2, 2))


def test_cyclic_symmetrize_produces_cyclic_cochains():
    for trial in range(10):
        rng = rng_for(10, "sym", trial)
        arity = rng.choice((1, 2, 3))
        k = rng.choice((2, 3))
        phi = DenseCochain.random(rng, arity, k)
        sym = cyclic_symmetrize(phi)
        assert is_cyclic(sym)
        # b preserves cyclicity
        assert is_cyclic(coboundary(sym))


def test_cyclic_symmetrize_fixes_cyclic_inputs():
    tw3 = trace_word_dense(3, 2)
    sym = cyclic_symmetrize(tw3)
    assert sym.tensor == tw3.tensor
    with pytest.raises(TypeError, match="DenseCochain"):
        cyclic_symmetrize(TraceWord(3))


def test_product_cochain():
    rng = random.Random(25)
    tr = TraceWord(1)
    prod = functional_product(tr, tr)
    assert prod.arity == 2
    assert prod(unit_grid(2, 0, 0), unit_grid(2, 1, 1)) == Scalar(1)
    left = functional_product(functional_product(tr, TraceWord(2)), tr)
    right = functional_product(tr, functional_product(TraceWord(2), tr))
    for _ in range(5):
        args = [random_grid(rng, 2) for _ in range(4)]
        assert left.evaluate(args) == right.evaluate(args)


def test_invariance():
    assert invariance_test(TraceWord(1), k=2)
    assert invariance_test(TraceWord(3), k=2)
    assert invariance_test(functional_product(TraceWord(1), TraceWord(2)),
                           k=2)
    entry = DenseCochain.basis(1, 2, ((0, 0),))
    assert not invariance_test(entry)
    # a zero factor makes the product zero, invariant whatever the other
    assert not invariance_test(functional_product(entry, TraceWord(1)))
    assert invariance_test(functional_product(entry, DenseCochain(1, 2, {})))


def test_evaluate_on_ratfn_grids():
    n = 2
    z1 = MultiPoly.variable(n, 1)
    z2 = MultiPoly.variable(n, 2)
    x = ((RatFn(z1, z2), RatFn.one(n)), (RatFn.zero(n), RatFn(z2, z1)))
    y = ((RatFn(z2, z1), RatFn.zero(n)), (RatFn.one(n), RatFn(z1, z2)))
    got = TraceWord(2)(x, y)
    # trace(xy) = z1/z2*z2/z1 + 1*1 + 0 + z2/z1*z1/z2 = 3
    assert got == RatFn(MultiPoly.constant(n, 3))
    phi = DenseCochain.basis(2, 2, ((0, 0), (1, 1)))
    assert phi(x, y) == RatFn(z1, z2) * RatFn(z1, z2)


def test_evaluate_on_poly_matrices():
    from pencilforms.linalg import MatrixTuple

    f = MatrixTuple.matrix_units(2).pencil()
    val = TraceWord(1)(f)
    assert val == f.trace()
    phi = DenseCochain.basis(1, 2, ((0, 1),))
    assert phi(f) == f[0][1]


def test_cyclic_symmetrize_scaling():
    # at arity 2 the symmetrizer averages phi and -phi o r
    rng = rng_for(12, "scale")
    phi = DenseCochain.random(rng, 2, 2)
    sym = cyclic_symmetrize(phi)
    half = Scalar(Fraction(1, 2))
    for _ in range(4):
        x, y = random_grid(rng, 2), random_grid(rng, 2)
        expect = (phi.evaluate([x, y]) - phi.evaluate([y, x])) * half
        assert sym.evaluate([x, y]) == expect


def test_trace_word_matches_formed_product():
    rng = rng_for(13, "traceword")
    exact, numeric = TorusConfig.exact(5, 2), TorusConfig.numeric(0.37)
    for a in range(1, 5):
        word = TraceWord(a)
        for k in (2, 3):
            grids = [random_grid(rng, k) for _ in range(a)]
            full = grids[0]
            for x in grids[1:]:
                full = grid_mul(full, x)
            assert word(grids) == grid_trace(full)
            mats = [random_poly_matrix(rng, 3, k, degree=1) for _ in range(a)]
            full = mats[0]
            for x in mats[1:]:
                full = full * x
            assert word(mats) == full.trace()
        for config, make in ((exact, rand_exact_element),
                             (numeric, rand_numeric_element)):
            elems = [make(rng, config) for _ in range(a)]
            full = elems[0]
            for x in elems[1:]:
                full = full * x
            assert word(elems) == full.trace()


# -- evaluation against the key-by-key reference ----------------------------

_exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
_RATFN_BASE = MultiPoly.parse("z1+2*z2", 2)


@st.composite
def dense_cases(draw):
    """(phi, args): a dense cochain, plain or built by coboundary,
    cyclic_symmetrize or rotated, and arguments of one entry type."""
    arity = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    how = draw(st.sampled_from(
        ("plain", "coboundary", "cyclic", "rotated") if arity > 1
        else ("plain", "cyclic", "rotated")))
    base = arity - 1 if how == "coboundary" else arity
    # a drawn share of the keys, at most 40 of them
    rng = draw(st.randoms(use_true_random=True))
    pairs = [(i, j) for i in range(k) for j in range(k)]
    total = len(pairs) ** base
    tensor = {}
    for code in rng.sample(range(total), min(round(rng.random() * total),
                                             40)):
        key = []
        for _ in range(base):
            code, pos = divmod(code, len(pairs))
            key.append(pairs[pos])
        tensor[tuple(key)] = draw(gaussians)
    phi = DenseCochain(base, k, tensor)
    if how == "coboundary":
        phi = coboundary(phi)
    elif how == "cyclic":
        phi = cyclic_symmetrize(phi)
    elif how == "rotated":
        phi = phi.rotated()

    kind = draw(st.sampled_from(("scalar", "poly-int", "poly-gauss",
                                 "ratfn")))

    def entry():
        if kind == "scalar":
            return draw(gaussians)
        coeffs = st.integers(-3, 3) if kind == "poly-int" else gaussians
        num = MultiPoly.from_terms(2, draw(st.dictionaries(
            _exponents, coeffs, max_size=3)))
        if kind == "ratfn":
            return RatFn.over_power(num, _RATFN_BASE,
                                    draw(st.integers(0, 2)))
        return num

    args = []
    for _ in range(arity):
        rows = [[entry() for _ in range(k)] for _ in range(k)]
        args.append(PolyMatrix(2, rows) if kind.startswith("poly")
                    else tuple(tuple(row) for row in rows))
    return phi, args


@settings(max_examples=300, deadline=None)
@given(dense_cases())
@example((DenseCochain(3, 2, {}), [random_poly_matrix(rng_for(14, t), 2, 2)
                                   for t in range(3)]))
@example((DenseCochain(2, 3, {}), [random_grid(rng_for(14, t), 3)
                                   for t in range(2)]))
@example((DenseCochain.basis(4, 2, ((0, 1), (1, 1), (1, 0), (0, 0))),
          [random_poly_matrix(rng_for(15, t), 3, 2) for t in range(4)]))
def test_dense_evaluate_matches_key_by_key_reference(case):
    phi, args = case
    got = phi.evaluate(args)
    want = dense_evaluate_reference(phi, args)
    assert type(got) is type(want) is type(args[0][0][0])
    assert got == want
    assert str(got) == str(want)
    if not phi.tensor:
        assert got.is_zero if hasattr(got, "is_zero") else got == 0


# -- the chain of dense factors against evaluation and the references -------


def dense_factor(draw, arity, k):
    """A dense cochain with up to 10 drawn keys, now and then none."""
    pairs = st.sampled_from([(i, j) for i in range(k) for j in range(k)])
    keys = draw(st.lists(st.tuples(*[pairs] * arity), max_size=10))
    return DenseCochain(arity, k, {key: draw(gaussians) for key in keys})


def structured_cochain(draw, arity, k, depth=0):
    """A trace word, a dense cochain, or a product of two such (nested to
    depth 3), of the given arity on k x k matrices."""
    kinds = ["traceword", "dense"] + (["product"] if arity > 1 and depth < 3
                                      else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "traceword":
        return TraceWord(arity)
    if kind == "dense":
        return dense_factor(draw, arity, k)
    left = draw(st.integers(1, arity - 1))
    return ProductCochain(structured_cochain(draw, left, k, depth + 1),
                          structured_cochain(draw, arity - left, k,
                                             depth + 1))


@st.composite
def chain_cases(draw):
    """(phi, k, args): a cochain of arity 1..3 on k x k matrices and
    Gaussian-rational arguments. phi is a trace word, dense cochain or
    nested product of them; a cyclic-symmetrized dense cochain; a multiple
    of a trace word's tensor, now and then with one more key; or the
    coboundary of one of these."""
    arity = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3 if arity < 3 else 2))
    how = draw(st.sampled_from(("structured", "cyclic", "invariant")))
    base = arity
    if arity > 1 and draw(st.booleans()):
        base = arity - 1
    if how == "structured":
        phi = structured_cochain(draw, base, k)
    elif how == "cyclic":
        phi = cyclic_symmetrize(dense_factor(draw, base, k))
    else:
        c = draw(gaussians)
        tensor = {key: c for key in trace_word_dense(base, k).tensor}
        if draw(st.booleans()):
            pairs = st.sampled_from([(i, j) for i in range(k)
                                     for j in range(k)])
            key = draw(st.tuples(*[pairs] * base))
            tensor[key] = tensor.get(key, Scalar(0)) + draw(gaussians)
        phi = DenseCochain(base, k, tensor)
    if base < arity:
        phi = coboundary(phi)
    args = [tuple(tuple(draw(gaussians) for _ in range(k)) for _ in range(k))
            for _ in range(arity)]
    return phi, k, args


def _chain_example(phi, k):
    args = [random_grid(rng_for(16, "chain", t), k) for t in range(phi.arity)]
    return phi, k, args


_EMPTY_FACTOR = functional_product(DenseCochain(1, 2, {}), TraceWord(2))
_B_TR_TR = coboundary(functional_product(TraceWord(1), TraceWord(1)))


@settings(max_examples=150, deadline=None)
@given(chain_cases())
@example(_chain_example(_EMPTY_FACTOR, 2))
@example(_chain_example(_B_TR_TR, 2))
def test_chain_outer_product_evaluates_like_phi(case):
    phi, k, args = case
    chain = phi.tensors(k)
    assert all(isinstance(factor, DenseCochain) and factor.k == k
               for factor in chain)
    assert sum(factor.arity for factor in chain) == phi.arity
    assert outer_product(chain).evaluate(args) == phi.evaluate(args)


@settings(max_examples=150, deadline=None)
@given(chain_cases())
@example(_chain_example(TraceWord(3), 2))
@example(_chain_example(functional_product(TraceWord(1), TraceWord(2)), 2))
@example(_chain_example(_EMPTY_FACTOR, 2))
@example(_chain_example(_B_TR_TR, 2))
@example(_chain_example(coboundary(TraceWord(2)), 3))
def test_is_cyclic_and_invariance_match_their_references(case):
    phi, k, _ = case
    assert is_cyclic(phi, k=k) == is_cyclic_spanning_reference(phi, k)
    assert invariance_test(phi, k=k) == invariance_probe_reference(phi, k)
