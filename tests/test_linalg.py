"""Exact matrix algebra: determinants, adjugates, pencils, minor identities."""

import random
from collections import Counter
from itertools import permutations

import pytest

from pencilforms import ring
from pencilforms.linalg import (
    MatrixTuple,
    PolyMatrix,
    grid_det,
    grid_minor,
    grid_mul,
    grid_trace,
)
from pencilforms.ring import MultiPoly, RatFn, Scalar

from oracles import adjugate_double_minor_check, grid_double_minor
from test_ring import rand_poly, rand_scalar


def perm_sign(perm):
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


def leibniz_det(rows, zero):
    """Independent determinant oracle: the full permutation sum."""
    k = len(rows)
    total = zero
    for perm in permutations(range(k)):
        term = rows[0][perm[0]]
        for r in range(1, k):
            term = term * rows[r][perm[r]]
        total = total + term * perm_sign(perm)
    return total


def rand_scalar_grid(rng, k):
    return tuple(tuple(rand_scalar(rng) for _ in range(k)) for _ in range(k))


def rand_tuple(rng, n, k):
    """A random matrix tuple whose pencil has a nonzero determinant."""
    while True:
        t = MatrixTuple([[[rng.randint(-3, 3) for _ in range(k)]
                          for _ in range(k)] for _ in range(n)])
        if not t.pencil().det().is_zero:
            return t


def rand_gauss_tuple(rng, n, k):
    """Like rand_tuple, with Gaussian-rational entries."""
    while True:
        t = MatrixTuple([[[rand_scalar(rng) for _ in range(k)]
                          for _ in range(k)] for _ in range(n)])
        if not t.pencil().det().is_zero:
            return t


def test_det_matches_permutation_sum_oracle():
    rng = random.Random(201)
    for _ in range(20):
        k = rng.choice([2, 3])
        n = rng.choice([2, 3])
        m = PolyMatrix(n, [[rand_poly(rng, n, max_deg=1, nterms=2)
                            for _ in range(k)] for _ in range(k)])
        assert m.det() == leibniz_det(m.rows, MultiPoly.zero(n))
    for _ in range(20):
        k = rng.choice([2, 3, 4])
        g = rand_scalar_grid(rng, k)
        assert grid_det(g, Scalar(1)) == leibniz_det(g, Scalar(0))


def test_det_is_multiplicative():
    rng = random.Random(202)
    for _ in range(25):
        k = rng.choice([2, 3])
        a = PolyMatrix.constant(2, rand_scalar_grid(rng, k))
        b = PolyMatrix.constant(2, rand_scalar_grid(rng, k))
        assert (a * b).det() == a.det() * b.det()


def test_adjugate_identity():
    rng = random.Random(203)
    for _ in range(20):
        k = rng.choice([1, 2, 3])
        n = rng.choice([2, 3])
        m = PolyMatrix(n, [[rand_poly(rng, n, max_deg=1, nterms=2)
                            for _ in range(k)] for _ in range(k)])
        prod = m.adjugate() * m
        expect = PolyMatrix.identity(n, k) * m.det()
        assert prod == expect
        assert m * m.adjugate() == expect


def test_pencil_of_matrix_units():
    t = MatrixTuple.matrix_units(2)
    p = t.pencil()
    assert str(p[0][0]) == "z1"
    assert str(p[0][1]) == "z2"
    assert str(p[1][0]) == "z3"
    assert str(p[1][1]) == "z4"
    assert str(p.det()) == "z1*z4-z2*z3"
    assert p.det().homogeneity_degree() == 2


def test_pencil_det_homogeneous_of_degree_k():
    rng = random.Random(204)
    for _ in range(20):
        n, k = rng.choice([2, 3, 4]), rng.choice([2, 3])
        t = rand_tuple(rng, n, k)
        det = t.pencil().det()
        assert det.homogeneity_degree() == k


def test_double_minor_removes_rows_and_columns():
    g = tuple(tuple(Scalar(4 * r + c + 1) for c in range(4)) for r in range(4))
    # removing rows 1,2 and columns 3,4 leaves [[9,10],[13,14]]
    m = grid_minor(g, (1, 2), (3, 4))
    assert m == ((Scalar(9), Scalar(10)), (Scalar(13), Scalar(14)))
    assert grid_double_minor(g, (1, 2), (3, 4), Scalar(1)) \
        == Scalar(9 * 14 - 10 * 13)
    with pytest.raises(ValueError):
        grid_double_minor(g, (1, 1), (2, 3), Scalar(1))
    with pytest.raises(ValueError):
        grid_double_minor(g, (0, 1), (2, 3), Scalar(1))


def test_adjugate_double_minor_identity_random():
    rng = random.Random(205)
    for k in (2, 3, 4, 5):
        for _ in range(25):
            g = rand_scalar_grid(rng, k)
            assert adjugate_double_minor_check(g, Scalar(1))


def test_adjugate_double_minor_identity_polynomial():
    rng = random.Random(206)
    for _ in range(5):
        m = PolyMatrix(2, [[rand_poly(rng, 2, max_deg=1, nterms=2)
                            for _ in range(3)] for _ in range(3)])
        assert adjugate_double_minor_check(m.rows, MultiPoly.one(2))


def test_naive_statement_of_double_minor_identity_fails():
    # the row/column-swapped, signless reading is false on generic matrices
    g = ((Scalar(1), Scalar(2), Scalar(0)),
         (Scalar(0), Scalar(1), Scalar(0)),
         (Scalar(0), Scalar(0), Scalar(1)))
    from pencilforms.linalg import grid_adjugate
    adj = grid_adjugate(g, Scalar(1))
    i, p, j, q = 1, 3, 2, 3
    lhs = adj[i - 1][j - 1] * adj[p - 1][q - 1] \
        - adj[i - 1][q - 1] * adj[p - 1][j - 1]
    det = grid_det(g, Scalar(1))
    naive = det * grid_det(grid_minor(g, (i, p), (j, q)), Scalar(1))
    assert lhs != naive


def test_matrix_tuple_validation_and_diagonal():
    with pytest.raises(ValueError):
        MatrixTuple([])
    with pytest.raises(ValueError):
        MatrixTuple([[[1, 2], [3, 4]], [[1]]])
    diag = MatrixTuple([[[1, 0], [0, 2]], [[3, 0], [0, 4]]])
    assert diag.is_diagonal
    assert not MatrixTuple.matrix_units(2).is_diagonal


def test_poly_matrix_partial_and_trace():
    t = MatrixTuple.matrix_units(2)
    p = t.pencil()
    for j in range(1, 5):
        assert p.partial(j) == PolyMatrix.constant(4, t.matrix(j))
    assert p.trace() == MultiPoly.parse("z1+z4", 4)


def test_trace_of_product_matches_formed_product():
    rng = random.Random(211)
    n = 3

    def rand_ratfn():
        den = MultiPoly.variable(n, rng.randint(1, n)) + rng.randint(1, 3)
        return RatFn(rand_poly(rng, n, max_deg=1, nterms=2), den)

    makers = (lambda: rand_scalar(rng),
              lambda: rand_poly(rng, n, max_deg=1, nterms=3),
              rand_ratfn)
    for make in makers:
        for k in (2, 3):
            for inner in (1, k, k + 1):  # k x inner times inner x k
                a = tuple(tuple(make() for _ in range(inner))
                          for _ in range(k))
                b = tuple(tuple(make() for _ in range(k))
                          for _ in range(inner))
                assert grid_trace(a, b) == grid_trace(grid_mul(a, b))
                assert grid_trace(b, a) == grid_trace(grid_mul(b, a))
    for k in (2, 3):
        a = PolyMatrix(n, [[rand_poly(rng, n) for _ in range(k)]
                           for _ in range(k)])
        b = PolyMatrix(n, [[rand_poly(rng, n) for _ in range(k)]
                           for _ in range(k)])
        assert a.trace(b) == (a * b).trace()
        assert b.trace(a) == (b * a).trace()
        assert a.trace(None) == a.trace()
    with pytest.raises(ValueError):
        grid_trace(rand_scalar_grid(rng, 2), rand_scalar_grid(rng, 3))
    with pytest.raises(ValueError):
        PolyMatrix.identity(2, 2).trace(PolyMatrix.identity(2, 3))


def _rand_entry_grid(rng, n, k, kind):
    """A k x k grid of MultiPoly entries, about a third of them zero."""
    def entry():
        if rng.random() < 0.3:
            return MultiPoly.zero(n)
        if kind == "int":
            return MultiPoly.from_terms(n, {
                tuple(rng.randint(0, 2) for _ in range(n)):
                rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(4)})
        return rand_poly(rng, n, nterms=rng.randint(1, 6))

    return tuple(tuple(entry() for _ in range(k)) for _ in range(k))


def test_fused_poly_matrix_products_match_generic_grids():
    rng = random.Random(1404)
    n = 3
    for kind in ("int", "gauss"):
        for k in (1, 2, 3, 4):
            for _ in range(3):
                a = _rand_entry_grid(rng, n, k, kind)
                b = _rand_entry_grid(rng, n, k, kind)
                pa, pb = PolyMatrix(n, a), PolyMatrix(n, b)
                assert (pa * pb).rows == grid_mul(a, b)
                assert pa.trace(pb) == grid_trace(a, b)
                assert pb.trace(pa) == grid_trace(b, a)
    zero = PolyMatrix.zero(n, 3)
    assert (zero * zero).is_zero and zero.trace(zero).is_zero
    for other in (PolyMatrix.identity(n, 2), PolyMatrix.identity(n + 1, 3)):
        with pytest.raises(ValueError):
            PolyMatrix.identity(n, 3) * other
        with pytest.raises(ValueError):
            PolyMatrix.identity(n, 3).trace(other)


def test_fused_poly_matrix_products_make_one_kernel_sum_per_entry(
        monkeypatch):
    # a fall-back to the generic grid loop would show as poly_mul and
    # poly_add calls
    calls = Counter()

    def counting(name):
        inner = getattr(ring, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in ("poly_dot", "poly_mul", "poly_add"):
        monkeypatch.setattr(ring, name, counting(name))
    rng = random.Random(1405)
    for k in (1, 2, 3, 4):
        a = PolyMatrix(3, _rand_entry_grid(rng, 3, k, "gauss"))
        b = PolyMatrix(3, _rand_entry_grid(rng, 3, k, "int"))
        calls.clear()
        a * b
        assert calls == {"poly_dot": k * k}
        a.trace(b)
        assert calls == {"poly_dot": k * k + 1}
