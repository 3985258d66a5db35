"""Differential forms: wedge signs, d, and the Maurer-Cartan form."""

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pencilforms._core import packed_sub, poly_pack, poly_unpack
from pencilforms.forms import (
    MatrixForm,
    ScalarForm,
    maurer_cartan,
    sort_index,
)
from pencilforms.linalg import MatrixTuple, PolyMatrix
from pencilforms.ring import MultiPoly, RatFn
from pencilforms.sampling import random_matrix_tuple, rng_for
from conftest import count_poly_mul
from oracles import (identity_matrix, matrix_d_reference,
                     matrix_form_values, matrix_trace_reference,
                     matrix_wedge_reference, poly_sub_reference,
                     ratfn_value,
                     scalar_add_reference, scalar_coefficients,
                     scalar_d_reference, scalar_form_values,
                     scalar_wedge_reference)
from pencilforms import ring, serialize
from test_linalg import rand_gauss_tuple, rand_tuple
from test_ring import gaussians, rand_poly


def rand_quadratic_matrix(rng, n, k):
    """A matrix of homogeneous degree-2 entries with nonzero determinant."""
    while True:
        rows = []
        for _ in range(k):
            row = []
            for _ in range(k):
                terms = {}
                for _ in range(3):
                    exps = [0] * n
                    exps[rng.randrange(n)] += 1
                    exps[rng.randrange(n)] += 1
                    terms[tuple(exps)] = terms.get(tuple(exps), 0) \
                        + rng.randint(-2, 2)
                row.append(MultiPoly.from_terms(n, terms))
            rows.append(row)
        m = PolyMatrix(n, rows)
        if not m.det().is_zero:
            return m


def rand_scalar_form(rng, n, degree, den=None):
    terms = {}
    for index in combinations(range(1, n + 1), degree):
        num = rand_poly(rng, n, max_deg=2, nterms=3)
        if den is None:
            terms[index] = RatFn(num)
        else:
            terms[index] = RatFn.over_power(num, den, rng.randint(0, 2))
    return ScalarForm(n, degree, terms)


def test_index_sign_helpers():
    assert sort_index((2, 1)) == ((1, 2), -1)
    assert sort_index((3, 1, 2)) == ((1, 2, 3), 1)
    assert sort_index((1, 1)) is None
    # dz^I ^ dz^J and dz_v ^ dz^I
    assert sort_index((1, 3) + (2, 4)) == ((1, 2, 3, 4), -1)
    assert sort_index((1, 2) + (3,)) == ((1, 2, 3), 1)
    assert sort_index((1, 2) + (2, 3)) is None
    assert sort_index((2,) + (1, 3)) == ((1, 2, 3), -1)
    assert sort_index((1,) + (2, 3)) == ((1, 2, 3), 1)
    assert sort_index((3,) + (1, 3)) is None


def test_scalar_form_validation():
    n = 3
    one = RatFn(MultiPoly.one(n))
    with pytest.raises(ValueError):
        ScalarForm(n, 1, {(1, 2): one})
    with pytest.raises(ValueError):
        ScalarForm(n, 2, {(2, 1): one})
    with pytest.raises(ValueError):
        ScalarForm(n, 1, {(4,): one})


def test_scalar_wedge_graded_commutativity():
    rng = random.Random(11)
    n = 4
    for p, q in [(1, 1), (1, 2), (2, 2), (2, 1), (1, 3)]:
        a = rand_scalar_form(rng, n, p)
        b = rand_scalar_form(rng, n, q)
        sign = -1 if (p * q) % 2 else 1
        assert a.wedge(b) == b.wedge(a) * sign


def test_scalar_d_squared_is_zero():
    rng = random.Random(12)
    n = 3
    for degree in (0, 1, 2):
        for _ in range(5):
            a = rand_scalar_form(rng, n, degree)
            assert a.exterior_derivative().exterior_derivative().is_zero
    base = rand_poly(rng, n, max_deg=1, nterms=2) + MultiPoly.one(n)
    a = rand_scalar_form(rng, n, 1, den=base)
    dda = a.exterior_derivative().exterior_derivative()
    assert dda == ScalarForm.zero(n, 3)


def test_scalar_d_leibniz_rule():
    rng = random.Random(13)
    n = 3
    for p, q in [(0, 1), (1, 1), (1, 2)]:
        a = rand_scalar_form(rng, n, p)
        b = rand_scalar_form(rng, n, q)
        lhs = a.wedge(b).exterior_derivative()
        sign = -1 if p % 2 else 1
        rhs = a.exterior_derivative().wedge(b) + a.wedge(b.exterior_derivative()) * sign
        assert lhs == rhs


def test_scalar_d_matches_finite_differences():
    rng = random.Random(14)
    n = 3
    a = rand_scalar_form(rng, n, 1)
    da = a.exterior_derivative()
    point = [0.37, -0.52, 0.81]
    h = 1e-6

    def coeff_at(index, pt):
        return ratfn_value(a.coefficient(index), pt)

    for index in ((1, 2), (1, 3), (2, 3)):
        expect = 0.0
        for pos, v in enumerate(index):
            rest = index[:pos] + index[pos + 1:]
            sign = -1.0 if pos % 2 else 1.0
            up = list(point)
            dn = list(point)
            up[v - 1] += h
            dn[v - 1] -= h
            expect += sign * (coeff_at(rest, up) - coeff_at(rest, dn)) / (2 * h)
        got = ratfn_value(da.coefficient(index), point)
        assert abs(got - expect) < 1e-6


def test_scalar_evaluate_at_and_poles():
    n = 2
    z1 = MultiPoly.variable(n, 1)
    z2 = MultiPoly.variable(n, 2)
    a = ScalarForm(n, 1, {(1,): RatFn(z2, z1), (2,): RatFn(z1)})
    vals = scalar_form_values(a, [2.0, 6.0])
    assert vals == {(1,): 3.0, (2,): 2.0}
    with pytest.raises(ZeroDivisionError):
        scalar_form_values(a, [0.0, 1.0])


def test_maurer_cartan_of_matrix_unit_pencil():
    f = MatrixTuple.matrix_units(2).pencil()
    omega = maurer_cartan(f)
    assert omega.degree == 1
    assert omega.den_base == f.det()
    assert omega.den_pow == 1
    # adj(f) = [[z4, -z2], [-z3, z1]] and df/dz1 hits only entry (1,1)
    num = omega.coefficient_num((1,))
    assert str(num[0][0]) == "z4"
    assert str(num[1][0]) == "-z3"
    assert num[0][1].is_zero and num[1][1].is_zero


def test_maurer_cartan_rejects_singular_pencil():
    t = MatrixTuple([[[1, 0], [0, 0]], [[0, 0], [0, 0]]])
    with pytest.raises(ValueError):
        maurer_cartan(t.pencil())


def _count_det_sums(monkeypatch, first_row) -> list:
    """Count the kernel sums from here on whose left operands are the
    entries of first_row, in order: the sum that reads a det off the
    adjugate, sum_j f[0][j] adj[j][0]. A det expansion's pairs negate
    every other entry, and an adjugate minor has fewer pairs."""
    sums = [0]
    dot = MultiPoly.dot

    def counting(cls, n, pairs):
        pairs = list(pairs)
        if len(pairs) == len(first_row) and all(
                x is e for (x, _), e in zip(pairs, first_row)):
            sums[0] += 1
        return dot(n, pairs)

    monkeypatch.setattr(MultiPoly, "dot", classmethod(counting))
    return sums


def test_maurer_cartan_reads_the_kept_det(monkeypatch):
    rng = random.Random(67)
    kept = rand_tuple(rng, 3, 3).pencil()  # sampling kept its det
    assert kept._det is not None
    fresh = PolyMatrix(kept.n, kept.rows)
    sums = _count_det_sums(monkeypatch, kept.rows[0])
    maurer_cartan.cache_clear()
    omega = maurer_cartan(kept)
    assert sums[0] == 0
    assert omega.den_base == kept.det() and omega.den_pow == 1
    # a matrix with no det yet keeps the one its adjugate gives
    maurer_cartan.cache_clear()
    assert maurer_cartan(fresh) == omega
    assert sums[0] == 1 and fresh._det == kept.det()
    maurer_cartan.cache_clear()


def test_flatness_of_maurer_cartan():
    # d(omega) + omega ^ omega vanishes identically: omega = f^{-1} df.
    rng = random.Random(15)
    for n, k in [(2, 2), (3, 2), (4, 2), (3, 3)]:
        for _ in range(3):
            f = rand_tuple(rng, n, k).pencil()
            omega = maurer_cartan(f)
            curv = omega.exterior_derivative() + omega.wedge(omega)
            assert curv.is_zero, (n, k)


def test_flatness_beyond_pencils():
    rng = random.Random(16)
    for _ in range(3):
        f = rand_quadratic_matrix(rng, 3, 2)
        omega = maurer_cartan(f)
        assert (omega.exterior_derivative() + omega.wedge(omega)).is_zero


def test_radial_contraction_of_maurer_cartan():
    # For entries homogeneous of degree m, sum_v z_v B_v = m * identity.
    rng = random.Random(17)
    n, k = 3, 2
    f = rand_tuple(rng, n, k).pencil()
    omega = maurer_cartan(f)
    acc = PolyMatrix.zero(n, k)
    for v in range(1, n + 1):
        num = omega.coefficient_num((v,))
        acc = acc + num * MultiPoly.variable(n, v)
    expect = identity_matrix(n, k) * omega.den()
    assert acc == expect

    g = rand_quadratic_matrix(rng, n, k)
    omega2 = maurer_cartan(g)
    acc2 = PolyMatrix.zero(n, k)
    for v in range(1, n + 1):
        acc2 = acc2 + omega2.coefficient_num((v,)) * MultiPoly.variable(n, v)
    assert acc2 == identity_matrix(n, k) * (2 * omega2.den())


def test_diagonal_pencil_has_commuting_coefficients():
    t = MatrixTuple([[[1, 0], [0, 2]], [[3, 0], [0, 1]], [[0, 0], [0, 5]]])
    assert t.is_diagonal
    omega = maurer_cartan(t.pencil())
    assert omega.wedge(omega).is_zero
    assert omega.exterior_derivative().is_zero


def test_trace_of_even_wedge_power_vanishes():
    rng = random.Random(18)
    f = rand_tuple(rng, 3, 2).pencil()
    omega = maurer_cartan(f)
    sq = omega.wedge(omega)
    assert sq.trace().is_zero
    assert not sq.is_zero


def test_matrix_form_add_aligns_denominator_powers():
    f = MatrixTuple.matrix_units(2).pencil()
    omega = maurer_cartan(f)
    domega = omega.exterior_derivative()
    assert domega.den_pow == 2
    assert (omega + (-omega)).is_zero
    # mixing a power-1 and a power-2 form over the same base
    lifted = MatrixForm(omega.n, omega.k, 2, domega.terms, f.det(), 2)
    tot = lifted + omega.wedge(omega)
    assert tot.is_zero


def test_matrix_forms_with_different_bases_refuse_to_mix():
    t1 = MatrixTuple([[[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]])
    t2 = MatrixTuple([[[2, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]])
    w1 = maurer_cartan(t1.pencil())
    w2 = maurer_cartan(t2.pencil())
    assert w1.den_base != w2.den_base
    with pytest.raises(ValueError):
        w1.wedge(w2)
    with pytest.raises(ValueError):
        w1 + w2
    # comparing them still works, over the product of the denominators
    assert w1 != w2
    assert w1 == MatrixForm(3, 2, 1, {i: m * w2.den_base
                                      for i, m in w1.terms.items()},
                            w1.den_base * w2.den_base, 1)


def test_matrix_form_reduction_strips_shared_base_factor():
    f = MatrixTuple.matrix_units(2).pencil()
    det = f.det()
    omega = maurer_cartan(f)
    blown = MatrixForm(omega.n, omega.k, 1,
                       {i: m * det for i, m in omega.terms.items()},
                       det, 2)
    slim = blown._reduced()
    assert slim.den_pow == 1
    assert slim == omega


def test_reduction_divides_nothing_when_the_last_entry_fails(monkeypatch):
    base = MultiPoly.parse("z1+z2", 2)  # leading z1, trailing z2
    one = MultiPoly.one(2)
    # three entries divisible by the base, each an unread kernel result
    divisible = [MultiPoly.dot(2, [(base, MultiPoly.parse(text, 2))])
                 for text in ("z1-3*z2", "z1^2+i*z2", "2*z2")]
    # the last: z1 divides its leading z1^2, z2 not its trailing 1
    last = MultiPoly.dot(2, [(MultiPoly.parse("z1^2+1", 2), one)])
    entries = divisible + [last]
    assert all(e._dict is None for e in entries)
    steps = [0]
    inner = ring.poly_mul_term

    def counting(p, exps, c):
        steps[0] += 1
        return inner(p, exps, c)

    monkeypatch.setattr(ring, "poly_mul_term", counting)
    form = MatrixForm(2, 2, 1, {(1,): PolyMatrix(2, [entries[:2],
                                                     entries[2:]])}, base, 1)
    out = form._reduced()
    assert steps[0] == 0  # no division step ran
    assert all(e._dict is None for e in entries)  # all still packed
    assert out.den_pow == 1 and out.terms[(1,)].rows == form.terms[(1,)].rows
    # with the last entry divisible too, every entry is divided once
    entries[3] = MultiPoly.dot(2, [(base, base)])
    form = MatrixForm(2, 2, 1, {(1,): PolyMatrix(2, [entries[:2],
                                                     entries[2:]])}, base, 1)
    assert form._reduced().den_pow == 0 and steps[0] > 0


def test_matrix_form_evaluate_and_pole():
    f = MatrixTuple.matrix_units(2).pencil()
    omega = maurer_cartan(f)
    vals = matrix_form_values(omega, [1.0, 0.0, 0.0, 2.0])
    assert vals[(1,)][0][0] == pytest.approx(1.0)
    assert vals[(4,)][1][1] == pytest.approx(0.5)
    with pytest.raises(ZeroDivisionError):
        matrix_form_values(omega, [1.0, 1.0, 1.0, 1.0])


def test_wedge_power_matches_repeated_wedge():
    rng = random.Random(19)
    f = rand_tuple(rng, 3, 2).pencil()
    omega = maurer_cartan(f)
    assert omega.wedge_power(1) == omega
    assert omega.wedge_power(3) == omega.wedge(omega).wedge(omega)
    with pytest.raises(ValueError):
        omega.wedge_power(0)


def rand_matrix_form(rng, n, k, degree, base, pow_):
    """Random numerators on every degree-`degree` index over base**pow_."""
    terms = {index: PolyMatrix(n, [[rand_poly(rng, n, max_deg=1, nterms=2)
                                    for _ in range(k)] for _ in range(k)])
             for index in combinations(range(1, n + 1), degree)}
    return MatrixForm(n, k, degree, terms, base, pow_)


def test_trace_of_wedge_matches_formed_wedge():
    rng = random.Random(23)
    cases = [(rand_tuple, 3, 3), (rand_tuple, 5, 2), (rand_gauss_tuple, 4, 2),
             (rand_gauss_tuple, 3, 3), (rand_tuple, 4, 3)]
    for make, n, k in cases:
        omega = maurer_cartan(make(rng, n, k).pencil())
        powers = {1: omega, 2: omega.wedge(omega)}
        powers[3] = powers[2].wedge(omega)
        # tr of an even power of omega vanishes, so only (2, 1) and (1, 2)
        # carry content here; the generic forms below cover the rest
        for da, db in ((1, 1), (2, 1), (1, 2), (2, 2), (1, 3)):
            a, b = powers[da], powers[db]
            assert a.trace(b) == a.wedge(b).trace(), (n, k, da, db)
    # generic numerators, unequal powers of one base, and a base-free side
    n, k = 4, 2
    base = MultiPoly.parse("z1+2*z3-z4", n)
    for da, db in ((1, 1), (2, 1), (2, 2), (1, 3)):
        for pa, pb in ((1, 2), (0, 1), (2, 0), (0, 0)):
            a = rand_matrix_form(rng, n, k, da, base, pa)
            b = rand_matrix_form(rng, n, k, db, base, pb)
            got = a.trace(b)
            assert got.degree == da + db and not got.is_zero
            assert got == a.wedge(b).trace(), (da, db, pa, pb)
            assert b.trace(a) == b.wedge(a).trace(), (da, db, pa, pb)
    other = rand_matrix_form(rng, n, k, 1, MultiPoly.parse("z2+1", n), 1)
    with pytest.raises(ValueError):
        rand_matrix_form(rng, n, k, 1, base, 1).trace(other)


def _ordered_pairs(form):
    """The ordered pairs of terms of `form` on disjoint indices."""
    return sum(1 for i in form.terms for j in form.terms
               if not set(i) & set(j))


def test_even_self_trace_matches_ordered_pair_reference(monkeypatch):
    """tr(a ^ a) of a form of positive even degree sums each unordered
    pair of terms once; it must equal the sum over ordered pairs with every
    product formed, key for key, in half the kernel products."""
    rng = random.Random(31)
    calls = count_poly_mul(monkeypatch)
    # (n, k, degree, base, pow): Gaussian-rational numerators; a degree-4
    # self trace has content only from n = 8; a 0-form pairs with itself
    cases = [(4, 2, 2, None, 0), (5, 3, 2, None, 0),
             (4, 3, 2, "z1+2*z3-z4", 1), (5, 2, 2, "z2^2-z1+3", 2),
             (8, 2, 4, None, 0), (3, 2, 0, "z1-z2+2", 1)]
    for n, k, degree, base, pow_ in cases:
        a = rand_matrix_form(rng, n, k, degree,
                             base and MultiPoly.parse(base, n), pow_)
        calls[0] = 0
        got = a.trace(a)
        products = calls[0]
        want = matrix_trace_reference(a, a, formed=True)
        assert not want.is_zero, (n, k, degree)
        assert sorted(got.terms) == sorted(want.terms)
        assert got == want
        for index in want.terms:
            assert str(got.coefficient(index)) == str(want.coefficient(index))
        pairs = _ordered_pairs(a) // 2 if degree else 1
        assert products == pairs * k * k, (n, k, degree)


def test_odd_self_trace_and_wedge_keep_ordered_pairs(monkeypatch):
    """At odd degree the two orders of a pair cancel, so tr(a ^ a) = 0 is
    computed from every ordered pair, not assumed; a wedge, whose products
    do not commute, pairs its terms in both orders at every degree."""
    n, k = 4, 3
    omega = maurer_cartan(rand_gauss_tuple(random.Random(37), n, k).pencil())
    three = rand_matrix_form(random.Random(41), 6, 2, 3, None, 0)
    two = rand_matrix_form(random.Random(43), n, k, 2, None, 0)
    calls = count_poly_mul(monkeypatch)
    assert omega.trace(omega).is_zero
    assert len(omega.terms) == n
    assert calls[0] == 2 * comb(n, 2) * k * k
    calls[0] = 0
    assert three.trace(three).is_zero
    assert calls[0] == _ordered_pairs(three) * 2 * 2 == 20 * 4
    calls[0] = 0
    assert not two.wedge(two).is_zero
    assert calls[0] == _ordered_pairs(two) * k ** 3


# -- fused wedge, trace and d against their pairwise references -------------


@st.composite
def matrix_form_pairs(draw):
    """(x, y): matrix forms in n = 2..5 variables with k = 1..3, integer
    or Gaussian-rational numerators on a drawn set of indices of degree
    0..2, each over a drawn power (0..2) of one base."""
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, 3))
    coeffs = draw(st.sampled_from((st.integers(-3, 3), gaussians)))
    monomials = st.tuples(*[st.integers(0, 1)] * n)
    base = MultiPoly.parse("z1+2*z2-1", n)

    def poly():
        return MultiPoly.from_terms(n, draw(st.dictionaries(
            monomials, coeffs, max_size=2)))

    def form():
        degree = draw(st.integers(0, 2))
        indices = draw(st.lists(st.sampled_from(
            list(combinations(range(1, n + 1), degree))), max_size=4))
        terms = {index: PolyMatrix(n, [[poly() for _ in range(k)]
                                       for _ in range(k)])
                 for index in indices}
        return MatrixForm(n, k, degree, terms, base, draw(st.integers(0, 2)))

    return form(), form()


def _assert_same_matrix_form(got, want):
    assert (got.degree, got.den_pow) == (want.degree, want.den_pow)
    assert got.den_base == want.den_base
    assert sorted(got.terms) == sorted(want.terms)
    for index, mat in want.terms.items():
        assert repr(got.terms[index]) == repr(mat)


_DIAGONAL = maurer_cartan(MatrixTuple(
    [[[1, 0], [0, 2]], [[3, 0], [0, 1]], [[0, 0], [0, 5]]]).pencil())
_GENERIC = maurer_cartan(rand_gauss_tuple(random.Random(29), 4, 3).pencil())
# polynomial numerators (den_pow 0); dz1 ^ dz3 gets one contribution from
# each term, with opposite merge signs
_PENCIL = rand_gauss_tuple(random.Random(30), 3, 2).pencil()
_POLYNOMIAL = MatrixForm(3, 2, 1, {(1,): _PENCIL * _PENCIL, (3,): -_PENCIL})
# degree 3: x ^ x takes each unordered pair of terms as one commutator
_ODD = rand_matrix_form(random.Random(47), 6, 2, 3,
                        MultiPoly.parse("z1+2*z2-1", 6), 1)


@settings(max_examples=150, deadline=None)
@given(matrix_form_pairs())
# commuting coefficients: every coefficient of omega ^ omega and d omega
# cancels to zero
@example((_DIAGONAL, _DIAGONAL))
# tr(omega ^ omega) = 0 coefficient by coefficient; omega ^ omega is not 0
@example((_GENERIC, _GENERIC))
@example((MatrixForm(3, 2, 1, {}), _DIAGONAL))
@example((_POLYNOMIAL, _DIAGONAL))
@example((_ODD, _ODD))
def test_fused_matrix_form_ops_match_pairwise_references(pair):
    x, y = pair
    _assert_same_matrix_form(x.wedge(y), matrix_wedge_reference(x, y))
    # the self wedge: at odd degree one commutator per unordered pair
    _assert_same_matrix_form(x.wedge(x), matrix_wedge_reference(x, x))
    _assert_same_matrix_form(x.exterior_derivative(), matrix_d_reference(x))
    got, want = x.trace(y), matrix_trace_reference(x, y)
    assert (got.n, got.degree) == (want.n, want.degree)
    assert list(got.terms) == list(want.terms)
    for index in want.terms:
        assert str(got.coefficient(index)) == str(want.coefficient(index))


# Kernel work of the flatness check d omega + omega ^ omega on an n = 4,
# k = 3 pencil, recorded when each coefficient of the wedge and of d became
# one `MultiPoly.dot` per entry (kernel calls before: 432, one per entry of
# every term pair), and tightened from 648 products in 216 calls when the
# sum stopped multiplying the numerators already at the higher power by
# one. Products went 540 -> 432 when omega ^ omega began to take one
# commutator per pair of terms, skipping the products that cancel. A
# pairwise wedge or d coming back exceeds the call budget.
FLATNESS_FORM_BUDGET = 432
FLATNESS_FORM_CALL_BUDGET = 108
# The same check as one `curvature()`, recorded when it was added: one
# kernel sum per entry of each of the 6 coefficients, over the
# quotient-rule pairs of d and the commutator pairs together.
CURVATURE_BUDGET = 432
CURVATURE_CALL_BUDGET = 54
CURVATURE_PAIR_BUDGET = 33_577


def _flatness_omega():
    return maurer_cartan(
        random_matrix_tuple(rng_for(5, "guard-cubic"), 4, 3).pencil())


def test_flatness_form_kernel_budget(monkeypatch):
    omega = _flatness_omega()
    calls = count_poly_mul(monkeypatch)
    assert (omega.exterior_derivative() + omega.wedge(omega)).is_zero
    assert 0 < calls[0] <= FLATNESS_FORM_BUDGET
    assert 0 < calls[1] <= FLATNESS_FORM_CALL_BUDGET


def test_curvature_kernel_budget(monkeypatch):
    omega = _flatness_omega()
    calls = count_poly_mul(monkeypatch)
    assert omega.curvature().is_zero
    assert 0 < calls[0] <= CURVATURE_BUDGET
    assert 0 < calls[1] <= CURVATURE_CALL_BUDGET
    assert 0 < calls[2] <= CURVATURE_PAIR_BUDGET


def test_flatness_request_unpacks_no_kernel_result_in_curvature(monkeypatch):
    # omega's entries and their partials are kernel results and the gaps
    # packed differences; a zero curvature is never reduced, so nothing
    # inside curvature reads a term dict
    f = MatrixTuple(random_matrix_tuple(rng_for(5, "guard-cubic"), 4, 3).mats
                    ).pencil()
    omega = maurer_cartan(f)
    unpacked = []
    inner = ring.poly_unpack

    def counting(p):
        unpacked.append(p)
        return inner(p)

    monkeypatch.setattr(ring, "poly_unpack", counting)
    assert omega.curvature().is_zero
    assert unpacked == []


def _curvature_cases(rng, n, k, pow_):
    """Non-flat 1-forms over base**pow_: linear and quadratic entries, the
    same without their dz_2 term, and a perturbed Maurer-Cartan form."""
    base = MultiPoly.parse("z1+2*z2-1", n)
    for max_deg in (1, 2):
        terms = {(v,): PolyMatrix(n, [[rand_poly(rng, n, max_deg=max_deg,
                                                 nterms=2)
                                       for _ in range(k)] for _ in range(k)])
                 for v in range(1, n + 1)}
        yield MatrixForm(n, k, 1, terms, base, pow_)
        del terms[(2,)]
        yield MatrixForm(n, k, 1, terms, base, pow_)
    omega = maurer_cartan(rand_tuple(rng, n, k).pencil())
    bump = PolyMatrix(n, [[rand_poly(rng, n, max_deg=1, nterms=2)
                           for _ in range(k)] for _ in range(k)])
    yield omega + MatrixForm(n, k, 1, {(1,): bump}, omega.den_base,
                             omega.den_pow)


@pytest.mark.parametrize("pow_", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_curvature_is_d_plus_self_wedge(k, pow_):
    rng = random.Random(53 + 10 * k + pow_)
    for form in _curvature_cases(rng, 3, k, pow_):
        got = form.curvature()
        want = form.exterior_derivative() + form.wedge(form)
        assert got.degree == 2 and not want.is_zero
        assert got == want
        assert got == matrix_d_reference(form) + matrix_wedge_reference(
            form, form)


def test_curvature_needs_a_one_form():
    rng = random.Random(59)
    base = MultiPoly.parse("z1+2*z2-1", 3)
    for degree in (0, 2, 3):
        form = rand_matrix_form(rng, 3, 2, degree, base, 1)
        with pytest.raises(ValueError):
            form.curvature()


# (p, q) term dicts: real, Gaussian, den != 1, full and partial
# cancellation, an imaginary part that cancels, unequal and > 8-bit widths
_Q = {"1": (1, 1, 0, 1), "-1": (-1, 1, 0, 1), "1/2": (1, 2, 0, 1),
      "i/3": (0, 1, 1, 3), "2+i": (2, 1, 1, 1), "5/6": (5, 6, 0, 1)}
_SUB_CASES = [
    ({(1, 0): _Q["1"], (0, 2): _Q["-1"]}, {(0, 2): _Q["1"], (3, 1): _Q["1"]}),
    ({(1, 0): _Q["2+i"], (0, 0): _Q["i/3"]}, {(1, 0): _Q["1"]}),
    ({(1, 1): _Q["1/2"], (0, 1): _Q["5/6"]}, {(1, 1): _Q["5/6"]}),
    ({(1, 1): _Q["1/2"], (0, 3): _Q["i/3"]},
     {(1, 1): _Q["1/2"], (0, 3): _Q["i/3"]}),
    ({(1, 0): _Q["2+i"], (0, 1): _Q["1"]}, {(1, 0): (0, 1, 1, 1)}),
    ({(300, 0): _Q["1/2"], (1, 2): _Q["1"]}, {(1, 2): _Q["2+i"]}),
    ({(0, 1): _Q["1"]}, {(0, 1): _Q["-1"], (0, 256): _Q["i/3"]}),
    ({(300, 1): _Q["1"], (2, 0): _Q["1"]}, {(300, 1): _Q["1"]}),
    ({}, {(2, 2): _Q["i/3"]}),
    ({(2, 2): _Q["5/6"]}, {}),
]


@pytest.mark.parametrize("p, q", _SUB_CASES)
def test_packed_sub_matches_poly_sub(p, q):
    got = packed_sub(poly_pack(p), poly_pack(q))
    want = poly_sub_reference(p, q)
    # values and term order, and the form poly_pack gives the difference
    assert list(poly_unpack(got).items()) == list(want.items())
    assert got[2:] == poly_pack(want)[2:]
    assert got[1] >= poly_pack(want)[1]


def test_packed_sub_matches_poly_sub_on_random_operands():
    rng = random.Random(61)
    for _ in range(40):
        x, y = (rand_poly(rng, 3)._terms for _ in range(2))
        got = packed_sub(poly_pack(x), poly_pack(y))
        want = poly_sub_reference(x, y)
        assert list(poly_unpack(got).items()) == list(want.items())


# -- scalar forms: one algebra, checked against RatFn coefficient references --


def test_scalar_form_has_no_algebra_of_its_own():
    assert ScalarForm.wedge is MatrixForm.wedge
    assert ScalarForm.exterior_derivative is MatrixForm.exterior_derivative
    for name in ("__add__", "__neg__", "__mul__", "__eq__", "_reduced"):
        assert name not in ScalarForm.__dict__, name


# two unlike bases and a constant one
_SCALAR_BASES = ("z1+2*z2-1", "z2^2-z1+3", "2")


@st.composite
def scalar_form_pairs(draw):
    """(x, y, r): scalar forms in n = 2..4 variables of degree 0..2, with
    integer or Gaussian-rational numerators on a drawn set of indices, and
    a RatFn r. Each form draws a base from _SCALAR_BASES; it is built
    either from RatFn coefficients over drawn powers 0..2 of that base, or
    from numerators straight over one drawn power of it, which keeps a
    constant base."""
    n = draw(st.integers(2, 4))
    coeffs = draw(st.sampled_from((st.integers(-3, 3), gaussians)))
    monomials = st.tuples(*[st.integers(0, 1)] * n)

    def poly():
        return MultiPoly.from_terms(n, draw(st.dictionaries(
            monomials, coeffs, max_size=2)))

    def base():
        return MultiPoly.parse(draw(st.sampled_from(_SCALAR_BASES)), n)

    def form():
        degree = draw(st.integers(0, 2))
        indices = draw(st.lists(st.sampled_from(
            list(combinations(range(1, n + 1), degree))), min_size=1,
            max_size=4, unique=True))
        b = base()
        if draw(st.booleans()):
            return ScalarForm._over_power(
                n, degree, {index: poly() for index in indices}, b,
                draw(st.integers(0, 2)))
        return ScalarForm(n, degree, {
            index: RatFn.over_power(poly(), b, draw(st.integers(0, 2)))
            for index in indices})

    r_base = base()
    r = RatFn.over_power(poly(), r_base, draw(st.integers(0, 1)))
    return form(), form(), r


_B, _C = (MultiPoly.parse(text, 3) for text in _SCALAR_BASES[:2])
_Z = [MultiPoly.variable(3, v) for v in (1, 2, 3)]
# denominators 1, B and B^2 in one form, against a form over another base
_POWERS = ScalarForm(3, 1, {(1,): _Z[0], (2,): RatFn(_Z[1], _B),
                            (3,): RatFn.over_power(_Z[2], _B, 2)})
_UNLIKE = ScalarForm(3, 1, {(1,): RatFn(_Z[1], _C), (3,): RatFn(_Z[0], _C)})


def _assert_coefficients(form, want: dict):
    for index in form.terms.keys() | want.keys():
        assert form.coefficient(index) == want.get(index, 0), index


@settings(max_examples=150, deadline=None)
@given(scalar_form_pairs())
@example((_POWERS, _UNLIKE, RatFn(_Z[2], _C)))
@example((_UNLIKE, _POWERS, RatFn(_Z[0], _B)))
def test_scalar_form_ops_match_ratfn_references(triple):
    x, y, r = triple
    cx, cy = scalar_coefficients(x), scalar_coefficients(y)
    _assert_coefficients(x.wedge(y), scalar_wedge_reference(cx, cy))
    _assert_coefficients(x.exterior_derivative(), scalar_d_reference(cx, x.n))
    _assert_coefficients(x.wedge(ScalarForm(x.n, 0, {(): r})),
                         {i: c * r for i, c in cx.items()})
    if x.degree == y.degree:
        _assert_coefficients(x + y, scalar_add_reference(cx, cy))
        _assert_coefficients(x - y, scalar_add_reference(
            cx, {i: -c for i, c in cy.items()}))
        assert (x == y) == all(
            cx.get(i, 0) == cy.get(i, 0) for i in cx.keys() | cy.keys())
    assert x == ScalarForm(x.n, x.degree, cx)
    # the JSON denominators are 1, base and base^2 as printed polynomials;
    # reading them back finds the base again, so the bytes round-trip
    data = serialize.scalar_form_to_json(x)
    back = serialize.scalar_form_from_json(data)
    assert back == x
    assert serialize.scalar_form_to_json(back) == data


def test_exterior_derivative_is_kept():
    # omega (over its det), a polynomial form and a 0-form: a second call
    # returns the kept d, equal to d of a fresh copy of the form, bit for
    # bit, and to the pairwise reference
    scalar = ScalarForm(3, 0, {(): MultiPoly.parse("z1*z2+(1/2)*z3^2", 3)})
    for x in (_GENERIC, _POLYNOMIAL, _ODD, scalar):
        d = x.exterior_derivative()
        assert x.exterior_derivative() is d
        fresh = type(x)._from_parts(x.n, x.k, x.degree, dict(x.terms),
                                    x.den_base, x.den_pow)
        _assert_same_matrix_form(d, fresh.exterior_derivative())
        _assert_same_matrix_form(d, matrix_d_reference(x))
        assert type(d) is type(x)
