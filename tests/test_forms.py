"""Differential forms: wedge signs, d, and the Maurer-Cartan form."""

import random
from itertools import combinations

import pytest

from pencilforms.forms import (
    MatrixForm,
    ScalarForm,
    maurer_cartan,
    sort_index,
)
from pencilforms.linalg import MatrixTuple, PolyMatrix
from pencilforms.ring import MultiPoly, RatFn
from test_linalg import rand_gauss_tuple, rand_tuple
from test_ring import rand_poly


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
    with pytest.raises(ValueError):
        ScalarForm(n, 1, {(1, 2): RatFn.one(n)})
    with pytest.raises(ValueError):
        ScalarForm(n, 2, {(2, 1): RatFn.one(n)})
    with pytest.raises(ValueError):
        ScalarForm(n, 1, {(4,): RatFn.one(n)})


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
        c = a.terms.get(index)
        return c.evaluate(pt) if c is not None else 0.0

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
        got = da.terms.get(index)
        got = got.evaluate(point) if got is not None else 0.0
        assert abs(got - expect) < 1e-6


def test_scalar_evaluate_at_and_poles():
    n = 2
    z1 = MultiPoly.variable(n, 1)
    z2 = MultiPoly.variable(n, 2)
    a = ScalarForm(n, 1, {(1,): RatFn(z2, z1), (2,): RatFn(z1)})
    vals = a.evaluate_at([2.0, 6.0])
    assert vals == {(1,): 3.0, (2,): 2.0}
    with pytest.raises(ZeroDivisionError):
        a.evaluate_at([0.0, 1.0])


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
    expect = PolyMatrix.identity(n, k) * omega.den()
    assert acc == expect

    g = rand_quadratic_matrix(rng, n, k)
    omega2 = maurer_cartan(g)
    acc2 = PolyMatrix.zero(n, k)
    for v in range(1, n + 1):
        acc2 = acc2 + omega2.coefficient_num((v,)) * MultiPoly.variable(n, v)
    assert acc2 == PolyMatrix.identity(n, k) * (2 * omega2.den())


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


def test_matrix_form_evaluate_and_pole():
    f = MatrixTuple.matrix_units(2).pencil()
    omega = maurer_cartan(f)
    vals = omega.evaluate_at([1.0, 0.0, 0.0, 2.0])
    assert vals[(1,)][0][0] == pytest.approx(1.0)
    assert vals[(4,)][1][1] == pytest.approx(0.5)
    with pytest.raises(ZeroDivisionError):
        omega.evaluate_at([1.0, 1.0, 1.0, 1.0])


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
