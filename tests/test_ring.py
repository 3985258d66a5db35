"""Exact scalar, polynomial, and rational-function arithmetic."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (convolve, cyclo_dense, cyclo_dense_str,
                     exact_divide_reference, multipoly_str_reference,
                     poly_power_reference, poly_sub_reference, poly_value,
                     ratfn_partial, ratfn_value, terms_reference)
from pencilforms import _core, ring
from pencilforms._core import (Q_ONE, Q_ZERO, poly_add, poly_mul, poly_pack,
                               poly_unpack, qadd, qinv, qmul, qneg, qnorm)
from pencilforms.ring import CycloElement, I, MultiPoly, RatFn, Scalar, _as_q4


def rand_scalar(rng, imag_prob=0.4):
    re = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
    im = Fraction(0)
    if rng.random() < imag_prob:
        im = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
    return Scalar(re, im)


def parts(s: Scalar) -> tuple:
    """The real and imaginary parts of s as Fractions."""
    an, ad, bn, bd = s._v
    return Fraction(an, ad), Fraction(bn, bd)


def rand_poly(rng, n, max_deg=2, nterms=4):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, max_deg) for _ in range(n))
        terms[exps] = terms.get(exps, Scalar(0)) + rand_scalar(rng)
    return MultiPoly.from_terms(n, terms)


# -- Scalar ------------------------------------------------------------------


def test_scalar_ops_match_fraction_oracle():
    rng = random.Random(101)
    for _ in range(200):
        a, b = rand_scalar(rng), rand_scalar(rng)
        (ar, ai), (br, bi) = parts(a), parts(b)
        assert parts(a + b) == (ar + br, ai + bi)
        assert parts(a * b) == (ar * br - ai * bi, ar * bi + ai * br)
        if not b.is_zero:
            q = a * b.inverse()
            assert q * b == a


def test_scalar_inverse_and_zero_division():
    assert Scalar(2, 3).inverse() * Scalar(2, 3) == Scalar(1)
    with pytest.raises(ZeroDivisionError):
        Scalar(0).inverse()
    with pytest.raises(ZeroDivisionError):
        1 / Scalar(0)


def test_scalar_text_round_trip():
    rng = random.Random(102)
    for _ in range(200):
        a = rand_scalar(rng, imag_prob=0.6)
        assert Scalar.parse(str(a)) == a
    for text, value in [
        ("0", Scalar(0)),
        ("-3", Scalar(-3)),
        ("3/2", Scalar(Fraction(3, 2))),
        ("i", I),
        ("-i", -I),
        ("2*i", Scalar(0, 2)),
        ("1/2+1/2*i", Scalar(Fraction(1, 2), Fraction(1, 2))),
        ("1/2-i", Scalar(Fraction(1, 2), -1)),
    ]:
        assert Scalar.parse(text) == value


def test_scalar_parse_rejects_garbage():
    for text in ["", "1+2", "i*i", "1//2", "2i+3i", "1/2+1/2", "x"]:
        with pytest.raises(ValueError):
            Scalar.parse(text)


# -- CycloElement ------------------------------------------------------------


def test_root_of_unity_power_wraps():
    t = CycloElement.root(4)
    assert t * t * t * t == CycloElement.one(4)
    assert t * t * t * t * t == t


def test_cyclo_constructors_match_validated_ones():
    for q in (1, 3, 4):
        assert CycloElement.zero(q) == CycloElement(q, [0] * q)
        for power in (-1, 0, 1, q + 2):
            coeffs = [0] * q
            coeffs[power % q] = 1
            assert CycloElement.root(q, power) == CycloElement(q, coeffs)
        assert CycloElement.one(q) == CycloElement(q, [1] + [0] * (q - 1))
    for make in (CycloElement.zero, CycloElement.one, CycloElement.root):
        with pytest.raises(ValueError):
            make(0)


def test_cyclo_ring_axioms():
    rng = random.Random(103)
    for q in (3, 4, 5):
        for _ in range(40):
            a = CycloElement(q, [rand_scalar(rng) for _ in range(q)])
            b = CycloElement(q, [rand_scalar(rng) for _ in range(q)])
            c = CycloElement(q, [rand_scalar(rng) for _ in range(q)])
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_cyclo_scalar_promotion():
    t = CycloElement.root(3)
    assert Scalar(2) * t + 1 == CycloElement(3, [Scalar(1), Scalar(2), Scalar(0)])


fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
gaussians = st.builds(Scalar, fractions, fractions)
host_scalars = st.one_of(st.integers(-4, 4), fractions, gaussians)


@st.composite
def cyclo_pairs(draw):
    """q and two dense coefficient lists; y is -x on a drawn set of slots,
    so x + y cancels there, and everywhere when that set covers both."""
    q = draw(st.sampled_from((1, 2, 3, 5, 8, 64)))

    def sparse():
        dense = [Scalar(0)] * q
        for e in draw(st.sets(st.integers(0, q - 1), max_size=min(q, 6))):
            dense[e] = draw(gaussians)
        return dense

    xs, ys = sparse(), sparse()
    for e in draw(st.sets(st.integers(0, q - 1))):
        ys[e] = -xs[e]
    return q, xs, ys


@settings(max_examples=300, deadline=None)
@given(cyclo_pairs(), host_scalars, st.integers(-200, 200),
       st.integers(-3, 3))
def test_cyclo_ops_match_dense_oracle(pair, s, power, scale):
    q, xs, ys = pair
    x, y = CycloElement(q, xs), CycloElement(q, ys)
    dx, dy = tuple(v._v for v in xs), tuple(v._v for v in ys)
    ds = (_as_q4(s),) + (Q_ZERO,) * (q - 1)
    zero = (Q_ZERO,) * q
    assert cyclo_dense(x) == dx and cyclo_dense(y) == dy
    assert cyclo_dense(x + y) == tuple(map(qadd, dx, dy))
    assert cyclo_dense(-x) == tuple(map(qneg, dx))
    assert cyclo_dense(x + (-x)) == zero
    assert cyclo_dense(x * y) == convolve(dx, dy)
    assert cyclo_dense(x * s) == cyclo_dense(s * x) == convolve(dx, ds)
    rotation = [Q_ZERO] * q
    rotation[power % q] = (scale, 1, 0, 1) if scale else Q_ZERO
    assert cyclo_dense(x.mul_rotate(y, power, scale)) == \
        convolve(convolve(dx, dy), tuple(rotation))
    for value, dense in ((x, dx), (x + y, tuple(map(qadd, dx, dy))),
                         (x * y, convolve(dx, dy))):
        rebuilt = CycloElement(q, [Scalar.from_q4(c) for c in dense])
        assert value == rebuilt
        assert bool(value) == (dense != zero)
        assert str(value) == cyclo_dense_str(dense)
    assert (x == y) == (dx == dy)
    assert (x == s) == (dx == ds)


nonzero_gaussians = gaussians.filter(lambda s: not s.is_zero)


@st.composite
def one_term_pairs(draw):
    """q and two elements of at most one term each. The second is drawn
    freely, at the first one's exponent, or as its negation, so a sum of
    the two cancels."""
    q = draw(st.sampled_from((1, 2, 5, 64)))

    def dense(exponent, coeff):
        out = [Scalar(0)] * q
        out[exponent % q] = coeff
        return out

    def one_term():
        if draw(st.integers(0, 9)) == 0:
            return [Scalar(0)] * q
        return dense(draw(st.integers(-3 * q, 3 * q)), draw(nonzero_gaussians))

    xs = one_term()
    how = draw(st.sampled_from(("free", "same exponent", "cancel")))
    if how == "free":
        ys = one_term()
    else:
        e = next((e for e, c in enumerate(xs) if not c.is_zero), 0)
        ys = dense(e, -xs[e] if how == "cancel" else draw(nonzero_gaussians))
    return q, CycloElement(q, xs), CycloElement(q, ys)


@settings(max_examples=300, deadline=None)
@given(one_term_pairs(), st.integers(-200, 200), st.integers(-3, 3),
       st.integers(-4, 4))
@example(pair=(1, CycloElement(1, [Scalar(Fraction(1, 2), -3)]),
               CycloElement(1, [Scalar(Fraction(-1, 2), 3)])),
         power=-7, scale=0, n=0)
@example(pair=(64, CycloElement.root(64, 63) * Scalar(Fraction(2, 3), 1),
               CycloElement.root(64, 5) * Scalar(0, Fraction(-1, 4))),
         power=130, scale=-3, n=-2)
def test_one_term_fast_paths_match_the_general_route(pair, power, scale, n):
    q, x, y = pair
    tx, ty = x._terms, y._terms
    assert len(tx) <= 1 and len(ty) <= 1

    def convolved(*factors):
        # the general route: convolution term pair by term pair, with no
        # one-term shortcut; an empty factor is zero
        out = ((0, Q_ONE),)
        for f in factors:
            out = ring._cyclic_product(out, f, q)
        return out

    def terms_of(dense):
        return CycloElement(q, [Scalar.from_q4(c) for c in dense])._terms

    twist = ((power % q, (scale, 1, 0, 1)),) if scale else ()
    rotated = x.mul_rotate(y, power, scale)
    assert rotated.q == q
    assert rotated._terms == ring._product(tx, ty, q, power,
                                           (scale, 1, 0, 1)) \
        == convolved(tx, ty, twist)
    assert x.mul_rotate(y, power)._terms == x.mul_rotate(y, power, 1)._terms
    factor = ((0, (n, 1, 0, 1)),) if n else ()
    assert (x * n)._terms == (n * x)._terms \
        == ring._product(tx, factor, q, 0, Q_ONE) == convolved(tx, factor)
    assert (x * y)._terms == ring._product(tx, ty, q, 0, Q_ONE) \
        == convolved(tx, ty)
    dx, dy = cyclo_dense(x), cyclo_dense(y)
    assert (x + y)._terms == (y + x)._terms == terms_of(map(qadd, dx, dy))
    assert (-x)._terms == terms_of(map(qneg, dx))
    assert (x + (-x))._terms == ()
    assert (x == y) == (tx == ty) and (x != y) == (tx != ty)
    assert (x == n) == (tx == factor)
    assert CycloElement.zero(q)._terms == ()


@settings(max_examples=200, deadline=None)
@given(cyclo_pairs(), st.integers(-6, 6))
def test_int_product_matches_the_general_route(pair, c):
    q, xs, _ = pair
    x = CycloElement(q, xs)
    # the general route: c coerced to a one-term element, one product step
    factor = ((0, (c, 1, 0, 1)),) if c else ()
    want = ring._product(x._terms, factor, q, 0, Q_ONE)
    for got in (x * c, c * x):
        assert got.q == q and got._terms == want
    assert x * c == x * Scalar(c) == x * Fraction(c)


def test_cyclo_mixed_orders_raise_on_every_path():
    # one-term operands take the fast paths, two-term ones the general route
    for x, y in ((CycloElement.root(3), CycloElement.root(4)),
                 (CycloElement(3, [1, 2, 0]), CycloElement(4, [1, 0, 2, 0]))):
        for op in (lambda a, b: a + b,
                   lambda a, b: a * b, lambda a, b: a == b,
                   lambda a, b: a != b, lambda a, b: a.mul_rotate(b, 1, 2)):
            with pytest.raises(ValueError, match="mixed orders"):
                op(x, y)



# -- the operand rule of Scalar and CycloElement ------------------------------

OPERAND_LEFT = {"Scalar": Scalar(Fraction(3, 2), -1),
                "CycloElement": CycloElement(4, [1, I, 0, Fraction(-1, 2)])}
OPERAND_RIGHT = {"int": 2, "Fraction": Fraction(1, 2),
                 "Scalar": Scalar(-1, Fraction(1, 2)),
                 "CycloElement": CycloElement(4, [0, 2, 0, 1]),
                 "CycloElement q=3": CycloElement(3, [1, 1, 0]),
                 "float": 1.5, "str": "x"}
OPERAND_OPS = {"x + y": lambda x, y: x + y, "x * y": lambda x, y: x * y,
               "y + x": lambda x, y: y + x, "y * x": lambda x, y: y * x,
               "y / x": lambda x, y: y / x}
_S, _C, _C3 = "Scalar('{}')", "CycloElement(q=4, '{}')", \
    "CycloElement(q=3, '{}')"
# repr of each result in OPERAND_OPS order, recorded from the per-type
# operator branches that the one operand rule replaced; TypeError and
# ValueError name what is raised
OPERAND_TABLE = {
    ("Scalar", "int"): [_S.format(v) for v in (
        "7/2-i", "3-2*i", "7/2-i", "3-2*i", "12/13+8/13*i")],
    ("Scalar", "Fraction"): [_S.format(v) for v in (
        "2-i", "3/4-1/2*i", "2-i", "3/4-1/2*i", "3/13+2/13*i")],
    # y / x: a Scalar divides values of other types only (`__rtruediv__`)
    ("Scalar", "Scalar"): [_S.format(v) for v in (
        "1/2-1/2*i", "-1+7/4*i", "1/2-1/2*i", "-1+7/4*i")] + [TypeError],
    ("Scalar", "CycloElement"): [
        _C.format("t^3+2*t+(3/2-i)"), _C.format("(3/2-i)*t^3+(3-2*i)*t"),
        _C.format("t^3+2*t+(3/2-i)"), _C.format("(3/2-i)*t^3+(3-2*i)*t"),
        TypeError],
    ("Scalar", "CycloElement q=3"): [
        _C3.format("t+(5/2-i)"), _C3.format("(3/2-i)*t+(3/2-i)"),
        _C3.format("t+(5/2-i)"), _C3.format("(3/2-i)*t+(3/2-i)"), TypeError],
    ("CycloElement", "int"): [
        _C.format("-1/2*t^3+i*t+3"), _C.format("-t^3+2*i*t+2"),
        _C.format("-1/2*t^3+i*t+3"), _C.format("-t^3+2*i*t+2"), TypeError],
    ("CycloElement", "Fraction"): [
        _C.format("-1/2*t^3+i*t+3/2"), _C.format("-1/4*t^3+1/2*i*t+1/2"),
        _C.format("-1/2*t^3+i*t+3/2"), _C.format("-1/4*t^3+1/2*i*t+1/2"),
        TypeError],
    ("CycloElement", "Scalar"): [
        _C.format("-1/2*t^3+i*t+1/2*i"),
        _C.format("(1/2-1/4*i)*t^3+(-1/2-i)*t+(-1+1/2*i)"),
        _C.format("-1/2*t^3+i*t+1/2*i"),
        _C.format("(1/2-1/4*i)*t^3+(-1/2-i)*t+(-1+1/2*i)"), TypeError],
    ("CycloElement", "CycloElement"): [
        _C.format("1/2*t^3+(2+i)*t+1"),
        _C.format("t^3+(-1/2+2*i)*t^2+2*t+(-1+i)"),
        _C.format("1/2*t^3+(2+i)*t+1"),
        _C.format("t^3+(-1/2+2*i)*t^2+2*t+(-1+i)"), TypeError],
    ("CycloElement", "CycloElement q=3"): [
        ValueError, ValueError, ValueError, ValueError, TypeError],
}


@pytest.mark.parametrize("left", OPERAND_LEFT)
@pytest.mark.parametrize("right", OPERAND_RIGHT)
def test_operand_rule_of_each_binary_operator(left, right):
    x, y = OPERAND_LEFT[left], OPERAND_RIGHT[right]
    expected = OPERAND_TABLE.get((left, right), [TypeError] * 5)
    for (name, op), want in zip(OPERAND_OPS.items(), expected):
        if isinstance(want, str):
            assert repr(op(x, y)) == want, name
        else:
            with pytest.raises(want) as raised:
                op(x, y)
            if want is ValueError:
                assert str(raised.value).startswith("mixed orders: "), name


# each pair is one value on both sides, read through the operand rule
EQUAL_OPERANDS = [
    (Scalar(2), 2), (Scalar(Fraction(1, 2)), Fraction(1, 2)),
    (Scalar(1, 1), Scalar(1, 1)), (Scalar(2), CycloElement.from_scalar(4, 2)),
    (CycloElement.from_scalar(4, 2), 2),
    (CycloElement.from_scalar(4, Fraction(1, 2)), Fraction(1, 2)),
    (CycloElement.from_scalar(4, I), I),
    (CycloElement(4, [1, I, 0, 2]), CycloElement(4, [1, I, 0, 2])),
]


@pytest.mark.parametrize("left", OPERAND_LEFT)
@pytest.mark.parametrize("right", OPERAND_RIGHT)
def test_operand_rule_of_equality(left, right):
    # every table operand differs from every other; an unsupported type
    # compares unequal, and another order raises
    x, y = OPERAND_LEFT[left], OPERAND_RIGHT[right]
    if (left, right) == ("CycloElement", "CycloElement q=3"):
        for op in (lambda: x == y, lambda: y == x, lambda: x != y):
            with pytest.raises(ValueError, match="mixed orders: "):
                op()
    else:
        assert not x == y and not y == x and x != y and y != x


def test_operand_rule_reads_one_value_as_equal_on_both_sides():
    for a, b in EQUAL_OPERANDS:
        assert a == b and b == a and not a != b, (a, b)


# -- MultiPoly ---------------------------------------------------------------


def test_poly_ring_axioms():
    rng = random.Random(105)
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        p, q, r = (rand_poly(rng, n) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + (-p) == MultiPoly.zero(n)


def test_poly_text_round_trip_and_grlex_order():
    rng = random.Random(106)
    for _ in range(150):
        n = rng.choice([2, 3, 4])
        p = rand_poly(rng, n)
        assert MultiPoly.parse(str(p), n) == p
    assert str(MultiPoly.parse("z2+z1", 2)) == "z1+z2"
    assert str(MultiPoly.parse("1+z1+z2^2+z1*z2+z1^2", 2)) \
        == "z1^2+z1*z2+z2^2+z1+1"
    assert str(MultiPoly.parse("z1*z4-z2*z3", 4)) == "z1*z4-z2*z3"


def test_poly_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        MultiPoly.parse("z5", 4)
    with pytest.raises(ValueError):
        MultiPoly.parse("z1++z2", 3)
    with pytest.raises(ValueError):
        MultiPoly.parse("", 2)


def test_partial_derivative_product_rule():
    rng = random.Random(107)
    for _ in range(100):
        n = rng.choice([2, 3])
        p, q = rand_poly(rng, n), rand_poly(rng, n)
        for var in range(1, n + 1):
            lhs = (p * q).partial(var)
            rhs = p.partial(var) * q + p * q.partial(var)
            assert lhs == rhs


def test_euler_identity_for_homogeneous():
    rng = random.Random(108)
    for _ in range(60):
        n = rng.choice([2, 3, 4])
        deg = rng.choice([1, 2, 3])
        terms = {}
        for _ in range(4):
            exps = [0] * n
            for _ in range(deg):
                exps[rng.randrange(n)] += 1
            terms[tuple(exps)] = rand_scalar(rng)
        p = MultiPoly.from_terms(n, terms)
        if p.is_zero:
            continue
        assert p.homogeneity_degree() == deg
        total = MultiPoly.zero(n)
        for var in range(1, n + 1):
            total = total + MultiPoly.variable(n, var) * p.partial(var)
        assert total == p * deg


def test_homogeneity_detection():
    assert MultiPoly.parse("z1*z4-z2*z3", 4).homogeneity_degree() == 2
    assert MultiPoly.parse("z1^2+z2", 2).homogeneity_degree() is None
    with pytest.raises(ValueError):
        MultiPoly.zero(3).homogeneity_degree()


def test_exact_divide_round_trip():
    rng = random.Random(109)
    done = 0
    while done < 100:
        n = rng.choice([2, 3, 4])
        p, d = rand_poly(rng, n), rand_poly(rng, n)
        if d.is_zero or d.is_constant:
            continue
        assert (p * d).exact_divide(d) == p
        # p*d + 1 is never divisible by a nonconstant d when p*d is
        if not p.is_zero:
            assert (p * d + 1).exact_divide(d) is None
        done += 1


def test_exact_divide_pinned_cases():
    s = MultiPoly.parse("z1+z2", 2)
    assert (s * s).exact_divide(s) == s
    assert MultiPoly.parse("z1^2+z2^2", 2).exact_divide(s) is None
    with pytest.raises(ZeroDivisionError):
        s.exact_divide(MultiPoly.zero(2))


def test_poly_evaluate():
    det = MultiPoly.parse("z1*z4-z2*z3", 4)
    assert poly_value(det, [1, 2, 3, 4]) == pytest.approx(-2 + 0j)
    rng = random.Random(110)
    for _ in range(50):
        p = rand_poly(rng, 3)
        q = rand_poly(rng, 3)
        z = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
        lhs = poly_value(p * q, z)
        rhs = poly_value(p, z) * poly_value(q, z)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


# -- RatFn -------------------------------------------------------------------


def test_ratfn_equality_cross_multiplied():
    rng = random.Random(111)
    for _ in range(100):
        n = rng.choice([2, 3])
        p, d = rand_poly(rng, n), rand_poly(rng, n)
        g = rand_poly(rng, n)
        if d.is_zero or g.is_zero:
            continue
        assert RatFn(p, d) == RatFn(p * g, d * g)
        if not p.is_zero:
            assert RatFn(p, d) != RatFn(p * g + d, d * g)


def test_ratfn_field_ops():
    rng = random.Random(112)
    for _ in range(80):
        n = 2
        p, q, d = rand_poly(rng, n), rand_poly(rng, n), rand_poly(rng, n)
        if d.is_zero:
            continue
        a, b = RatFn(p, d), RatFn(q, d)
        assert a + b == RatFn(p + q, d)
        assert a * b == RatFn(p * q, d * d)
        if not q.is_zero:
            assert (a / b) * b == a


def test_ratfn_partial_quotient_rule_numeric():
    rng = random.Random(113)
    checked = 0
    while checked < 30:
        p, d = rand_poly(rng, 2), rand_poly(rng, 2)
        if d.is_zero:
            continue
        r = RatFn(p, d)
        dr = ratfn_partial(r, 1)
        z = [complex(rng.uniform(0.5, 1.5), rng.uniform(0.2, 0.8)),
             complex(rng.uniform(0.5, 1.5), rng.uniform(0.2, 0.8))]
        try:
            h = 1e-6
            fd = (ratfn_value(r, [z[0] + h, z[1]])
                  - ratfn_value(r, [z[0] - h, z[1]])) / (2 * h)
            exact = ratfn_value(dr, z)
        except ZeroDivisionError:
            continue
        assert exact == pytest.approx(fd, rel=1e-4, abs=1e-4)
        checked += 1


def test_ratfn_power_tracking_and_reduce():
    det = MultiPoly.parse("z1*z4-z2*z3", 4)
    r = RatFn.over_power(det * det * MultiPoly.variable(4, 1), det, 3)
    reduced = r.reduce()
    assert reduced.den_pow == 1
    assert reduced == r
    assert reduced.num == MultiPoly.variable(4, 1)
    dr = ratfn_partial(RatFn.over_power(MultiPoly.one(4), det, 1), 1)
    assert dr == RatFn(-det.partial(1), det * det)


def test_ratfn_as_polynomial():
    det = MultiPoly.parse("z1*z4-z2*z3", 4)
    r = RatFn.over_power(det ** 3, det, 2)
    assert r.as_polynomial() == det
    assert RatFn.over_power(MultiPoly.variable(4, 1), det, 1).as_polynomial() is None


# -- kernel against a Fraction reference -------------------------------------


def _ref(c):
    return Fraction(c[0], c[1]), Fraction(c[2], c[3])


def _ref_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _ref_poly_add(p, q):
    out = dict(p)
    for e, c in q.items():
        s = _ref_add(out[e], c) if e in out else c
        if s == (0, 0):
            del out[e]
        else:
            out[e] = s
    return out


def _ref_poly_mul(p, q):
    """Schoolbook product; a cancelled sum leaves the dict at once."""
    if len(p) > len(q):
        p, q = q, p
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out = _ref_poly_add(out, {tuple(a + b for a, b in zip(e1, e2)):
                                      _ref_mul(c1, c2)})
    return out


def _rand_q4(rng, dens):
    while True:
        re = Fraction(rng.randint(-5, 5), rng.choice(dens))
        im = Fraction(rng.randint(-5, 5), rng.choice(dens)) \
            if rng.random() < 0.6 else Fraction(0)
        if re or im:
            return (re.numerator, re.denominator, im.numerator, im.denominator)


def _rand_kernel_poly(rng, dens, nterms):
    return {tuple(rng.randint(0, 2) for _ in range(3)): _rand_q4(rng, dens)
            for _ in range(nterms)}


def _check_lowest(c):
    an, ad, bn, bd = c
    assert ad > 0 and bd > 0
    assert gcd(an, ad) == 1 and gcd(bn, bd) == 1


def _check_canonical(p):
    for c in p.values():
        assert c[0] != 0 or c[2] != 0
        _check_lowest(c)


def _cancelling_pairs():
    z1, z2 = (1, 0), (0, 1)
    one, neg, half, i = (1, 1, 0, 1), (-1, 1, 0, 1), (1, 2, 0, 1), (0, 1, 1, 1)
    third, neg_third = (1, 3, 0, 1), (-1, 3, 0, 1)
    neg_i = (0, 1, -1, 1)
    return [
        ({z1: one, z2: one}, {z1: one, z2: neg}),          # z1^2 - z2^2
        ({z1: one, z2: i}, {z1: one, z2: neg_i}),          # z1^2 + z2^2
        ({z1: half, z2: third}, {z1: half, z2: neg_third}),
        ({z1: one, z2: half}, {z1: one, z2: neg_i}),
        ({(0, 0): one, z1: neg}, {(0, 0): one, z1: one, (2, 0): one}),
        # z1^2 cancels, then comes back: it is stored after z1^4
        ({(0, 0): one, z1: one, (2, 0): one},
         {(2, 0): one, z1: neg, (0, 0): one}),
        ({}, {z1: half}),
        # exponent sums of 255, 256 and beyond: packed fields of 8, 9, 10 bits
        ({(254, 0): one, (0, 254): i}, {(0, 0): half, (1, 1): one}),
        ({(255, 0): one, (0, 255): i}, {(0, 0): half, (1, 1): one}),
        ({(300, 2): one, z2: neg}, {(200, 0): i, (0, 300): half, z2: one}),
        ({z1: one}, {(255, 0): i, (0, 3): half}),
    ]


def _packed_mul(p, q):
    """p*q as a one-pair `poly_dot` sum, as MultiPoly takes large products,
    read back as a term dict."""
    return poly_unpack(_core.poly_dot(((poly_pack(p), poly_pack(q)),)))


def test_kernel_matches_fraction_reference():
    rng = random.Random(114)
    # Gaussian-integer, rational, and mixed-denominator operands
    kinds = (((1,), (1,)), ((1, 2, 3, 4, 6),) * 2, ((1,), (1, 2, 3)))
    cases = list(_cancelling_pairs())
    for dens_p, dens_q in kinds:
        for _ in range(60):
            p = _rand_kernel_poly(rng, dens_p, rng.randint(1, 5))
            q = _rand_kernel_poly(rng, dens_q, rng.randint(1, 9))
            cases.append((p, q))
            cases.append((q, p))
    # every product packed, then every product coefficient by coefficient
    for product in (_packed_mul, poly_mul):
        for p, q in cases:
            rp = {e: _ref(c) for e, c in p.items()}
            rq = {e: _ref(c) for e, c in q.items()}
            got, want = product(p, q), _ref_poly_mul(rp, rq)
            _check_canonical(got)
            assert {e: _ref(c) for e, c in got.items()} == want
            # the dict path's term order is part of the result, as float
            # evaluation sums in it; these are far under `_DENSE_MIN_PAIRS`
            assert list(got) == list(want)
    for p, q in cases:
        rp = {e: _ref(c) for e, c in p.items()}
        rq = {e: _ref(c) for e, c in q.items()}
        neg_q = {e: qneg(c) for e, c in q.items()}
        for got, want in ((poly_add(p, q), _ref_poly_add(rp, rq)),
                          (poly_add(q, neg_q), {})):
            _check_canonical(got)
            assert {e: _ref(c) for e, c in got.items()} == want
            assert list(got) == list(want)
        for a in p.values():
            for b in q.values():
                for got, want in ((qadd(a, b), _ref_add(_ref(a), _ref(b))),
                                  (qmul(a, b), _ref_mul(_ref(a), _ref(b))),
                                  (qadd(a, qneg(a)), (0, 0))):
                    _check_lowest(got)
                    assert _ref(got) == want
            re, im = _ref(a)
            norm = re * re + im * im
            inv = qinv(a)
            _check_lowest(inv)
            assert _ref(inv) == (re / norm, -im / norm)
    assert poly_mul(*_cancelling_pairs()[0]) == {(2, 0): Q_ONE,
                                                 (0, 2): qneg(Q_ONE)}
    for _ in range(200):
        an, bn = rng.randint(-9, 9), rng.randint(-9, 9)
        ad, bd = rng.choice([-6, -4, -1, 1, 3, 4]), rng.choice([-2, 1, 6])
        got = qnorm(an, ad, bn, bd)
        _check_lowest(got)
        assert _ref(got) == (Fraction(an, ad), Fraction(bn, bd))


# -- fused sums of products against the Fraction reference -------------------


def _ref_poly_dot(pairs):
    """Every term pair of every product in turn, the shorter operand of each
    pair outside; a cancelled sum leaves the dict at once."""
    out = {}
    for p, q in pairs:
        if len(p) > len(q):
            p, q = q, p
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                out = _ref_poly_add(out, {tuple(a + b for a, b in zip(e1, e2)):
                                          _ref_mul(c1, c2)})
    return out


def _q4(re, im):
    return (re.numerator, re.denominator, im.numerator, im.denominator)


_nonzero = st.integers(-5, 5).filter(bool)
_small_fractions = st.builds(Fraction, st.integers(-5, 5),
                             st.sampled_from((1, 2, 3, 4, 6)))
# operand kinds: real integers, Gaussian integers, real rationals, and
# Gaussian rationals
_KIND_COEFFS = {
    "int": st.builds(lambda a: (a, 1, 0, 1), _nonzero),
    "gauss": st.tuples(st.integers(-5, 5), st.integers(-5, 5))
    .filter(any).map(lambda c: (c[0], 1, c[1], 1)),
    "rational": st.builds(lambda r: _q4(r, Fraction(0)),
                          _small_fractions.filter(bool)),
    "mixed": st.tuples(_small_fractions, _small_fractions)
    .filter(any).map(lambda c: _q4(*c)),
}
# small exponents, and large ones whose sums with them reach 255 and 256,
# the last sum of an 8-bit packed field and the first of a 9-bit one
_dot_exponents = st.one_of(st.integers(0, 3),
                           st.sampled_from((252, 253, 255, 256)))


@st.composite
def dot_pairs(draw):
    """Operand pairs in two variables. Each operand draws its kind from a set
    drawn per sum, so some sums are all real integers and some mix kinds.
    A drawn prefix of the pairs comes back with the second factor negated,
    so the sum cancels there, and everywhere when that prefix is all."""
    kinds = sorted(draw(st.sets(st.sampled_from(sorted(_KIND_COEFFS)),
                                min_size=1)))

    def poly():
        coeffs = _KIND_COEFFS[draw(st.sampled_from(kinds))]
        return draw(st.dictionaries(st.tuples(_dot_exponents, _dot_exponents),
                                    coeffs, max_size=5))

    pairs = [(poly(), poly()) for _ in range(draw(st.integers(1, 5)))]
    cancel = draw(st.integers(0, len(pairs)))
    return pairs + [(p, {e: qneg(c) for e, c in q.items()})
                    for p, q in pairs[:cancel]]


@settings(max_examples=300, deadline=None)
@given(dot_pairs())
@example([({(255, 0): (1, 1, 0, 1), (0, 3): (2, 1, 0, 1)},
           {(0, 0): (3, 1, 0, 1), (1, 1): (-1, 1, 0, 1)}),
          ({(252, 0): (1, 2, 0, 1)}, {(3, 0): (1, 1, 0, 1), (4, 0): (1, 1, 0, 1)})])
@example([({(253, 1): (0, 1, 1, 1)}, {(3, 0): (1, 3, 2, 1), (0, 0): (1, 1, 0, 1)}),
          ({}, {(1, 1): (1, 1, 0, 1)})])
def test_poly_dot_matches_fraction_reference(pairs):
    ref = [({e: _ref(c) for e, c in p.items()},
            {e: _ref(c) for e, c in q.items()}) for p, q in pairs]
    got = poly_unpack(_core.poly_dot([(poly_pack(p), poly_pack(q))
                                      for p, q in pairs]))
    _check_canonical(got)
    want = _ref_poly_dot(ref)
    assert {e: _ref(c) for e, c in got.items()} == want
    # the dict path's term order is part of the result, as float
    # evaluation sums in it; these are far under `_DENSE_MIN_PAIRS`
    assert list(got) == list(want)
    want_sum = {}
    for rp, rq in ref:
        want_sum = _ref_poly_add(want_sum, _ref_poly_mul(rp, rq))
    assert {e: _ref(c) for e, c in got.items()} == want_sum
    for (p, q), (rp, rq) in zip(pairs, ref):
        # one pair alone keeps poly_mul's term order, which
        # test_kernel_matches_fraction_reference pins to the same reference
        alone = _packed_mul(p, q)
        _check_canonical(alone)
        assert [(e, _ref(c)) for e, c in alone.items()] == \
            list(_ref_poly_mul(rp, rq).items())
    if all(not p or not q for p, q in pairs):
        assert got == {}


@st.composite
def reused_operands(draw):
    """A pool of polynomials in two variables, each next to its negation,
    and several sums over pairs drawn from it, so operands enter more than
    one sum. Sums mix lanes, denominators and exponent widths as their
    operands come. Each sum repeats a drawn prefix of its pairs with the
    second factor negated, so it cancels there, and then draws more pairs,
    which may insert a cancelled key again."""
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = _KIND_COEFFS[draw(st.sampled_from(sorted(_KIND_COEFFS)))]
        p = draw(st.dictionaries(st.tuples(_dot_exponents, _dot_exponents),
                                 coeffs, min_size=1, max_size=5))
        pool += [p, {e: qneg(c) for e, c in p.items()}]
    pairs = st.lists(st.tuples(st.integers(0, len(pool) - 1),
                               st.integers(0, len(pool) - 1)), max_size=4)
    sums = []
    for _ in range(draw(st.integers(2, 4))):
        head = draw(pairs)
        cancel = draw(st.integers(0, len(head)))
        sums.append(head + [(i, j ^ 1) for i, j in head[:cancel]]
                    + draw(pairs))
    return pool, sums


@settings(max_examples=200, deadline=None)
@given(reused_operands())
@example(([{(0, 0): (1, 1, 0, 1), (1, 0): (1, 2, 0, 1)},
           {(0, 0): (-1, 1, 0, 1), (1, 0): (-1, 2, 0, 1)},
           {(255, 1): (0, 1, 1, 1)}, {(255, 1): (0, 1, -1, 1)}],
          [[(0, 0), (0, 1), (0, 0)], [(2, 0), (0, 0)], [(2, 2), (2, 3)]]))
def test_dot_of_reused_multipoly_operands_matches_reference(case):
    pool, sums = case
    polys = [MultiPoly(2, dict(p)) for p in pool]
    packed = None
    for _ in range(2):  # the second round reads every operand packed before
        for pairs in sums:
            got = MultiPoly.dot(2, [(polys[i], polys[j])
                                    for i, j in pairs])._terms
            _check_canonical(got)
            want = _ref_poly_dot([({e: _ref(c) for e, c in pool[i].items()},
                                   {e: _ref(c) for e, c in pool[j].items()})
                                  for i, j in pairs])
            assert {e: _ref(c) for e, c in got.items()} == want
            # the dict path's term order is part of the result, as float
            # evaluation sums in it; these are far under `_DENSE_MIN_PAIRS`
            assert list(got) == list(want)
        if packed is None:
            packed = [x._packed for x in polys]
    # each operand kept the packed form of its first sum, and its terms
    assert all(x._packed is kept for x, kept in zip(polys, packed))
    assert [x._terms for x in polys] == pool


def _check_packed_as_poly_pack(x):
    """x's packed form is what `poly_pack` builds from its terms: equal den,
    keys and numerators, im None for a real x, and top at least x's largest
    exponent."""
    packed = x._packed
    exact = poly_pack(x._terms)
    assert packed[2:] == exact[2:]
    assert packed[1] >= exact[1]


@settings(max_examples=200, deadline=None)
@given(reused_operands())
@example(([{(1, 0): (1, 2, 0, 1)}, {(1, 0): (-1, 2, 0, 1)},
           {(0, 1): (2, 1, 0, 1), (1, 1): (4, 3, 0, 1)},
           {(0, 1): (-2, 1, 0, 1), (1, 1): (-4, 3, 0, 1)}],
          [[(0, 2)], [(0, 2), (1, 2)]]))
@example(([{(1, 0): (0, 1, 1, 1), (0, 0): (1, 2, 1, 3)},
           {(1, 0): (0, 1, -1, 1), (0, 0): (-1, 2, -1, 3)},
           {(0, 1): (0, 1, 1, 1)}, {(0, 1): (0, 1, -1, 1)}],
          [[(0, 2)], [(2, 2), (3, 3)]]))
@example(([{(254, 0): (1, 1, 0, 1), (0, 0): (1, 1, 0, 1)},
           {(254, 0): (-1, 1, 0, 1), (0, 0): (-1, 1, 0, 1)},
           {(1, 0): (1, 3, 0, 1), (2, 0): (0, 1, 1, 1)},
           {(1, 0): (-1, 3, 0, 1), (2, 0): (0, 1, -1, 1)}],
          [[(0, 2)], [(0, 0)], [(0, 2), (1, 2)]]))
def test_dot_results_stay_packed_as_poly_pack_packs_them(case):
    pool, sums = case
    polys = [MultiPoly(2, dict(p)) for p in pool]
    refs = [{e: _ref(c) for e, c in p.items()} for p in pool]
    got, want = [], []
    for pairs in sums:
        operands = [(polys[i], polys[j]) for i, j in pairs]
        ref = [(refs[i], refs[j]) for i, j in pairs]
        if got:  # chained: the last result, its terms unread, is an operand
            operands += [(got[-1], polys[j]) for _, j in pairs]
            ref += [(want[-1], refs[j]) for _, j in pairs]
        got.append(MultiPoly.dot(2, operands))
        want.append(_ref_poly_dot(ref))
    for x, ref in zip(got, want):
        assert x._dict is None
        _check_packed_as_poly_pack(x)
        # values and term order: float evaluation sums in that order
        assert [(e, _ref(c)) for e, c in x._terms.items()] == \
            list(ref.items())


def test_dot_result_fields_on_edge_cases():
    half_z1 = MultiPoly(2, {(1, 0): (1, 2, 0, 1)})
    two_z2 = MultiPoly(2, {(0, 1): (2, 1, 0, 1)})
    i_z1 = MultiPoly(2, {(1, 0): (0, 1, 1, 1)})
    i_z2 = MultiPoly(2, {(0, 1): (0, 1, 1, 1)})
    # a denominator 2 that the gcd of den and the numerators cancels
    x = MultiPoly.dot(2, [(half_z1, two_z2)])
    assert x._packed[2] == 1 and x._packed[4] == [1]
    # i*z1 * i*z2 is real: im is None, not a list of zeros
    x = MultiPoly.dot(2, [(i_z1, i_z2), (i_z1, two_z2), (-i_z1, two_z2)])
    assert x._packed[4:] == ([-1], None)
    assert x._terms == {(1, 1): (-1, 1, 0, 1)}
    # exponent sums of 255 and 256: the last 8-bit key, then a 9-bit sum
    # unpacked at once, with its exact top and 8-bit keys when that fits
    z1_254 = MultiPoly(2, {(254, 0): Q_ONE, (0, 0): Q_ONE})
    z1 = MultiPoly.variable(2, 1)
    for x, top in ((MultiPoly.dot(2, [(z1_254, z1)]), 255),
                   (MultiPoly.dot(2, [(z1_254, z1 * z1)]), 256)):
        assert x._packed[1] == top
        _check_packed_as_poly_pack(x)
    cancelled = MultiPoly.dot(2, [(z1_254, z1 * z1), (-z1_254, z1 * z1),
                                  (z1_254, z1)])
    assert cancelled._packed[1] == 255
    assert cancelled._packed[3] == poly_pack(cancelled._terms)[3]


# -- the dense accumulator of large sums --------------------------------------


def _dense_hits(monkeypatch):
    """A list that gets True for each sum the dense accumulator takes and
    False for each whose box it declines, from here on."""
    hits = []
    dense = _core._dense_dot

    def counted(*args):
        out = dense(*args)
        hits.append(out is not None)
        return out

    monkeypatch.setattr(_core, "_dense_dot", counted)
    return hits


def _dict_path_dot(monkeypatch, packed_pairs):
    """`poly_dot` of packed pairs with the dense accumulator switched off."""
    with monkeypatch.context() as m:
        m.setattr(_core, "_DENSE_MIN_PAIRS", float("inf"))
        return _core.poly_dot(packed_pairs)


def _ref_dot_values(pairs):
    """The exact sum of p*q over term-dict pairs, as a dict of nonzero
    Fraction pairs: the reference for values, in no particular order."""
    out = {}
    for p, q in pairs:
        for e1, c1 in p.items():
            r1 = _ref(c1)
            for e2, c2 in q.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = _ref_add(out.get(e, (0, 0)), _ref_mul(r1, _ref(c2)))
    return {e: v for e, v in out.items() if v != (0, 0)}


_DENSE_COEFFS = {
    "int": lambda rng: (rng.choice((-3, -2, -1, 1, 2, 3)), 1, 0, 1),
    "rational": lambda rng: _rand_q4(rng, (1, 2, 3, 4, 6))[:2] + (0, 1),
    "gauss": lambda rng: _rand_q4(rng, (1,)),
    "mixed": lambda rng: _rand_q4(rng, (1, 2, 3)),
}


def _dense_operand(rng, kind, n, top, nterms, degree=None):
    """nterms terms in n variables with exponents up to top, of one
    coefficient kind, all of one degree when degree is given."""
    terms = {}
    while len(terms) < nterms:
        e = [rng.randint(0, top) for _ in range(n)]
        if degree is not None:
            e[-1] = degree - sum(e[:-1])
            if not 0 <= e[-1] <= top:
                continue
        c = _DENSE_COEFFS[kind](rng)
        if c[0] or c[2]:
            terms[tuple(e)] = c
    return terms


def _dense_cases():
    """Named sums of at least `_DENSE_MIN_PAIRS` term pairs whose boxes
    fit: every coefficient lane, homogeneous and mixed-degree products, a
    sum that cancels to 0 and one whose imaginary part cancels."""
    rng = random.Random(144)
    cases = {}
    for kind in ("int", "rational", "gauss", "mixed"):
        # mixed degrees: 3 variables, radix 13 each, 2,197 slots
        cases[kind] = [(_dense_operand(rng, kind, 3, 6, 60),
                        _dense_operand(rng, "int" if kind == "rational"
                                       else kind, 3, 6, 80))
                       for _ in range(2)]
    # homogeneous of one degree: the last variable leaves the box
    cases["homogeneous"] = [
        (_dense_operand(rng, kind, 4, 4, 30, degree=4),
         _dense_operand(rng, kind, 4, 4, 30, degree=4))
        for kind in ("int", "mixed") * 5]
    p = _dense_operand(rng, "mixed", 3, 6, 60)
    q = _dense_operand(rng, "rational", 3, 6, 80)
    cases["cancels"] = [(p, q), (p, {e: qneg(c) for e, c in q.items()})]
    g = _dense_operand(rng, "gauss", 3, 6, 60)
    conj = {e: (a, ad, -b, bd) for e, (a, ad, b, bd) in g.items()}
    cases["real-part"] = [(g, q), (conj, q)]  # g q + conj(g) q = 2 Re(g) q
    return cases


@pytest.mark.parametrize("name", sorted(_dense_cases()))
def test_dense_accumulator_matches_reference_and_dict_path(name,
                                                           monkeypatch):
    pairs = _dense_cases()[name]
    packed = [(poly_pack(p), poly_pack(q)) for p, q in pairs]
    assert sum(len(p) * len(q) for p, q in pairs) >= _core._DENSE_MIN_PAIRS
    hits = _dense_hits(monkeypatch)
    got = _core.poly_dot(packed)
    assert hits == [True]
    slow = _dict_path_dot(monkeypatch, packed)
    assert hits == [True]
    terms = poly_unpack(got)
    _check_canonical(terms)
    want = _ref_dot_values(pairs)
    assert {e: _ref(c) for e, c in terms.items()} == want
    assert terms == poly_unpack(slow)  # equal values, maybe another order
    # the dense path's order: ascending packed keys
    assert got[3] == sorted(got[3])
    # normalized as poly_pack packs its terms, with the dict path's top
    assert got[2:] == poly_pack(terms)[2:]
    assert got[:3] == slow[:3]
    assert got[1] >= poly_pack(terms)[1]
    if name == "cancels":
        assert not terms and got == slow
    if name in ("int", "rational", "real-part"):
        assert got[5] is None and want
    if name in ("gauss", "mixed"):
        assert got[5] is not None


def _dict_path_cases():
    """Sums that keep the dict path, each with the dense accumulator's
    verdict: a box over a quarter of the term pairs, a box over
    `_DENSE_MAX_SLOTS`, 9-bit keys, and one pair under the threshold."""
    rng = random.Random(145)
    wide = _dense_operand(rng, "int", 3, 40, 100)
    small = _dense_operand(rng, "gauss", 3, 6, 90)
    spread = _dense_operand(rng, "int", 5, 3, 300)
    nine_bit = dict(_dense_operand(rng, "mixed", 3, 6, 100))
    nine_bit[(300, 0, 0)] = Q_ONE
    z1 = {(1, 0, 0): Q_ONE}
    return {
        "box over a quarter of the pairs": ([(wide, small)], [False]),
        "box over the slot cap": ([(spread, spread)], [False]),
        "9-bit keys": ([(nine_bit, small)], []),
        "under the threshold": ([(_dense_operand(rng, "int", 3, 6, 91),
                                  small), (z1, z1)], []),
    }


def _box(pairs):
    """The slots of the mixed-degree box of a sum of term-dict pairs."""
    n = len(next(iter(pairs[0][0])))
    slots = 1
    for v in range(n):
        slots *= 1 + max(max(e[v] for e in p) + max(e[v] for e in q)
                         for p, q in pairs)
    return slots


@pytest.mark.parametrize("name", sorted(_dict_path_cases()))
def test_sums_outside_the_dense_rules_keep_the_dict_path(name, monkeypatch):
    pairs, verdicts = _dict_path_cases()[name]
    size = sum(len(p) * len(q) for p, q in pairs)
    if name == "under the threshold":
        assert size == _core._DENSE_MIN_PAIRS - 1
    else:
        assert size >= _core._DENSE_MIN_PAIRS
    if name == "box over the slot cap":
        assert _core._DENSE_MAX_SLOTS < _box(pairs) <= size // 4
    packed = [(poly_pack(p), poly_pack(q)) for p, q in pairs]
    hits = _dense_hits(monkeypatch)
    got = _core.poly_dot(packed)
    assert hits == verdicts
    slow = _dict_path_dot(monkeypatch, packed)
    # the dict path's result, fields and term order alike
    assert got == slow
    assert {e: _ref(c) for e, c in poly_unpack(got).items()} == \
        _ref_dot_values(pairs)


def test_parity_and_theorem33_sums_on_the_dense_accumulator(monkeypatch):
    from pencilforms.jacobi import trace_power_form
    from pencilforms.sampling import random_matrix_tuple, rng_for
    from pencilforms.suites import suite_cubic_trace

    hits = _dense_hits(monkeypatch)
    f = random_matrix_tuple(rng_for(1, "parity", 3, 5, 0), 5, 3).pencil()
    assert trace_power_form(f, 4).is_zero
    # tr(omega^2 ^ omega^2) at (k, n) = (3, 5): five sums, each in 6,561
    # slots, the last of the five variables left out by homogeneity
    assert hits == [True] * 5
    del hits[:]
    assert all(r.passed for r in suite_cubic_trace(1, 6))
    assert hits.count(True) == 0


def _ref_partial(terms, k):
    """The dict reference for d/dz of terms in variable k (0-based): each
    term with a positive exponent there, in order, times that exponent."""
    out = {}
    for exps, c in terms.items():
        e = exps[k]
        if e:
            out[exps[:k] + (e - 1,) + exps[k + 1:]] = \
                _ref_mul(_ref(c), (Fraction(e), Fraction(0)))
    return out


@st.composite
def partial_cases(draw):
    """A polynomial in two variables, with small exponents and ones whose
    fields take 8 or 9 bits, of one coefficient kind, and a variable."""
    coeffs = _KIND_COEFFS[draw(st.sampled_from(sorted(_KIND_COEFFS)))]
    terms = draw(st.dictionaries(st.tuples(_dot_exponents, _dot_exponents),
                                 coeffs, max_size=6))
    return terms, draw(st.sampled_from((1, 2)))


@settings(max_examples=300, deadline=None)
@given(partial_cases())
@example(({(2, 0): (1, 2, 0, 1)}, 1))  # (1/2) z1^2 -> z1: den 2 cancels
@example(({(256, 0): (1, 1, 0, 1), (0, 1): (0, 1, 1, 1)}, 1))  # 9 -> 8 bits
@example(({(1, 3): (1, 3, 0, 1), (0, 2): (0, 1, 1, 2)}, 1))  # im cancels
def test_packed_partial_matches_the_dict_reference(case):
    terms, var = case
    x = MultiPoly(2, dict(terms))
    z1, one = MultiPoly.variable(2, 1), MultiPoly.one(2)
    # the same polynomial as a kernel result, its top a bound past its
    # largest exponent while that fits 8 bits
    bound = MultiPoly.dot(2, [(x, z1), (x, -z1), (x, one)])
    want = _ref_partial(terms, var - 1)
    for y in (x, bound):
        got = y.partial(var)
        assert got._dict is None  # returned packed
        _check_packed_as_poly_pack(got)
        # values and term order: float evaluation sums in that order
        assert [(e, _ref(c)) for e, c in got._terms.items()] == \
            list(want.items())


def test_packed_partial_edge_cases():
    half_sq = MultiPoly(2, {(2, 0): (1, 2, 0, 1)})
    assert half_sq.partial(1)._packed == (2, 2, 1, [1], [1], None)
    assert half_sq.partial(1) == MultiPoly.variable(2, 1)
    # a variable that does not occur gives the zero polynomial
    for p in (half_sq, MultiPoly.zero(2), MultiPoly.one(2)):
        d = p.partial(2)
        assert d.is_zero and d._packed == poly_pack({})
    for var in (0, 3):
        with pytest.raises(ValueError):
            half_sq.partial(var)


def _fresh_results():
    """Kernel results whose terms were never read, each with the same
    polynomial built from its term dict: mixed, homogeneous, constant, zero
    and Gaussian-rational sums, in three variables."""
    rng = random.Random(133)
    p, q, r = (rand_poly(rng, 3, nterms=7) for _ in range(3))
    z = [MultiPoly.variable(3, v) for v in (1, 2, 3)]
    h = z[0] * z[1] + Fraction(1, 2) * z[2] * z[2]
    c = MultiPoly.constant(3, Fraction(2, 3))
    for pairs in ([(p, q), (q, r)], [(p, p)], [(h, h), (h, z[0] * z[1])],
                  [(c, c)], [(p, q), (-p, q)], [(q, r)]):
        yield (lambda pairs=pairs: MultiPoly.dot(3, pairs),
               MultiPoly(3, dict(MultiPoly.dot(3, pairs)._terms)))


def _items(x):
    """x's terms in their order, or None when x is None."""
    return None if x is None else list(x._terms.items())


def test_unread_kernel_results_behave_like_term_dicts():
    point = (0.5 + 0.25j, -1.5, 2.0 - 1j)
    divisor = MultiPoly.parse("z1+(1/2)*z2", 3)
    checks = (
        hash, str, _items, lambda y: _items(-y),
        lambda y: [_items(y.partial(v)) for v in (1, 2, 3)],
        lambda y: _items(y.exact_divide(divisor)),
        lambda y: _items((y * divisor).exact_divide(divisor)),
        lambda y: _items(y * divisor),
        lambda y: poly_value(y, point),  # equal floats: one summing order
        lambda y: list(terms_reference(y)), lambda y: y.is_constant,
        lambda y: None if y.is_zero else y.homogeneity_degree())
    for fresh, eager in _fresh_results():
        x = fresh()
        assert (len(x), bool(x), x.is_zero) == \
            (len(eager), bool(eager), eager.is_zero)
        assert x._dict is None  # length and truth read the packed form
        neg = -x
        assert neg._dict is None and neg._packed[3] is x._packed[3]
        assert fresh() == eager and eager == fresh()
        for check in checks:
            assert check(fresh()) == check(eager)
        if eager:
            assert _items(eager.exact_divide(fresh())) == [((0, 0, 0), Q_ONE)]


@st.composite
def power_cases(draw):
    """(p, m): p in three variables with integer or Gaussian-rational
    coefficients, its term count at most 5 or above `_DIRECT_MAX_PAIRS`,
    so that one * p ran as a direct product or as a packed sum, and m in
    0..4."""
    coeffs = _KIND_COEFFS[draw(st.sampled_from(("int", "mixed")))]
    size = draw(st.one_of(
        st.integers(1, 5),
        st.integers(ring._DIRECT_MAX_PAIRS + 1, ring._DIRECT_MAX_PAIRS + 8)))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), coeffs,
                                 min_size=size, max_size=size))
    return MultiPoly(3, terms), draw(st.integers(0, 4))


@settings(max_examples=60, deadline=None)
@given(power_cases())
def test_power_matches_products_from_one(case):
    p, m = case
    got, want = p ** m, poly_power_reference(p, m)
    # terms and their order: float evaluation sums in that order
    assert list(got._terms.items()) == list(want._terms.items())
    if m == 1:
        assert got is p


@st.composite
def packed_operands(draw):
    """Terms in two variables of one coefficient kind, with small exponents
    and ones whose fields take 8 or 9 bits, and whether the kernel result
    built from them (`_kernel_result`) carries a bound as its top."""
    coeffs = _KIND_COEFFS[draw(st.sampled_from(sorted(_KIND_COEFFS)))]
    terms = draw(st.dictionaries(st.tuples(_dot_exponents, _dot_exponents),
                                 coeffs, max_size=6))
    return terms, draw(st.booleans())


def _kernel_result(terms, bound):
    """The polynomial of terms as a kernel result whose term dict is unread;
    with bound, its top is a bound past its largest exponent while that
    fits 8 bits."""
    x = MultiPoly(2, dict(terms))
    pairs = [(x, MultiPoly.one(2))]
    if bound:
        z1 = MultiPoly.variable(2, 1)
        pairs += [(x, z1), (x, -z1)]
    out = MultiPoly.dot(2, pairs)
    assert out._dict is None
    return out


@settings(max_examples=200, deadline=None)
@given(packed_operands(), st.integers(-6, 6))
@example(({(1, 0): (1, 2, 0, 1), (0, 1): (0, 1, 1, 3)}, False), 6)  # den 6
@example(({(256, 0): (1, 1, 0, 1), (0, 1): (0, 1, 1, 1)}, True), -2)
def test_packed_int_scale_matches_the_dict_path(operand, c):
    terms, bound = operand
    x = _kernel_result(terms, bound)
    eager = MultiPoly(2, dict(_kernel_result(terms, bound)._terms))
    want = eager * c
    assert want._dict is not None
    for got in (x * c, c * x):
        assert got._dict is None  # scaled on the packed form
        _check_packed_as_poly_pack(got)
        # values and term order: float evaluation sums in that order
        assert list(got._terms.items()) == list(want._terms.items())
    # a polynomial whose terms were read keeps the dict path
    read = _kernel_result(terms, bound)
    assert read._terms is not None and (read * c)._dict is not None


@settings(max_examples=200, deadline=None)
@given(packed_operands(), packed_operands(),
       st.sampled_from(("other", "reordered", "bound", "changed")))
def test_packed_equality_matches_the_dict_path(left, right, how):
    terms, bound = left
    other, other_bound = right
    if how == "reordered":
        other, other_bound = dict(reversed(list(terms.items()))), bound
    elif how == "bound":
        other, other_bound = terms, not bound
    elif how == "changed" and terms:
        other, other_bound = dict(terms), bound
        first = next(iter(other))
        other[first] = qadd(other[first], (0, 1, 1, 1))
        if other[first] == Q_ZERO:
            del other[first]
    want = MultiPoly(2, dict(terms)) == MultiPoly(2, dict(other))
    assert want or how not in ("reordered", "bound")
    x, y = _kernel_result(terms, bound), _kernel_result(other, other_bound)
    assert (x == y) == want and (y == x) == want
    assert x._dict is None and y._dict is None  # compared packed
    assert (x == MultiPoly(2, dict(other))) == want


def _held(terms, how):
    """The polynomial of terms in two variables, held as a term dict
    ("dict") or as a kernel result whose term dict is unread ("packed")."""
    if how == "dict":
        return MultiPoly(2, dict(terms))
    return _kernel_result(terms, False)


@settings(max_examples=200, deadline=None)
@given(packed_operands(), packed_operands(),
       st.sampled_from(("dict", "packed")), st.sampled_from(("dict", "packed")))
@example(({}, False), ({}, False), "dict", "packed")  # zero operands
@example(({}, False), ({(1, 0): (1, 2, 0, 1)}, False), "packed", "dict")
@example(({(1, 0): (0, 1, 1, 1)}, False), ({}, False), "dict", "dict")
@example(({(256, 0): (1, 1, 0, 1), (0, 1): (1, 3, 0, 1)}, False),
         ({(0, 1): (1, 3, 0, 1), (2, 0): (0, 1, 1, 1)}, False),
         "packed", "dict")  # a 9-bit key; one term cancels
def test_negation_and_difference_are_packed(left, right, left_how, right_how):
    x, y = _held(left[0], left_how), _held(right[0], right_how)
    # the references read the terms of copies, so x and y stay as held
    xt, yt = _held(left[0], left_how)._terms, _held(right[0], right_how)._terms
    neg, diff = -x, x - y
    # values, and the term order of poly_add: -x in x's order, x - y with
    # x's surviving terms first, then y's new ones
    assert list(neg._terms.items()) == list(poly_sub_reference({}, xt).items())
    assert list(diff._terms.items()) == list(poly_sub_reference(xt,
                                                                yt).items())
    # both come back packed, and a negation shares its operand's keys
    neg, diff = -x, x - y
    assert neg._dict is None and neg._packed[3] is x._packed[3]
    assert diff._dict is None and (-diff)._packed[3] is diff._packed[3]


def test_difference_needs_polynomials_in_one_variable_count():
    with pytest.raises(ValueError):
        MultiPoly.zero(2) - MultiPoly.zero(3)


def _count_division_steps(monkeypatch):
    """Count the steps of `exact_divide`: its `poly_mul_term` calls,
    through `ring`'s binding."""
    steps = [0]
    inner = ring.poly_mul_term

    def counting(p, exps, c):
        steps[0] += 1
        return inner(p, exps, c)

    monkeypatch.setattr(ring, "poly_mul_term", counting)
    return steps


def test_exact_divide_fails_on_the_trailing_monomial_without_a_step(
        monkeypatch):
    steps = _count_division_steps(monkeypatch)
    d = MultiPoly.parse("z1+z2", 2)  # leading z1, trailing z2
    # z1 divides the leading z1^2, but z2 does not divide the trailing 1
    for how in ("dict", "packed"):
        p = _held({(2, 0): Q_ONE, (0, 0): Q_ONE}, how)
        assert p.exact_divide(d) is None
        assert steps[0] == 0
        assert (p._dict is None) == (how == "packed")  # still as held
    # the leading test alone: z1 does not divide z2^2
    assert MultiPoly.parse("z2^2+z2", 2).exact_divide(d) is None
    assert steps[0] == 0
    # the reference takes steps before it finds the same answer
    assert exact_divide_reference(
        MultiPoly.parse("z1^2+1", 2), MultiPoly.parse("z1+z2", 2)) is None
    assert steps[0] == 0  # it calls `_core`'s binding, not ring's


@st.composite
def division_cases(draw):
    """(dividend terms, divisor terms): two variables, Gaussian-rational
    coefficients, small exponents and ones whose keys take 9 bits. The
    dividend is q*d, or q*d with a drawn term added to it or one of its
    coefficients changed."""
    coeffs = _KIND_COEFFS[draw(st.sampled_from(("gauss", "mixed")))]
    exps = st.tuples(_dot_exponents, _dot_exponents)
    d = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=4))
    q = draw(st.dictionaries(exps, coeffs, max_size=4))
    p = dict((MultiPoly(2, q) * MultiPoly(2, d))._terms)
    how = draw(st.sampled_from(("product", "added", "changed")))
    if how == "added":
        e, c = draw(exps), draw(coeffs)
        p[e] = qadd(p.get(e, Q_ZERO), c)
    elif how == "changed" and p:
        e = draw(st.sampled_from(sorted(p)))
        p[e] = qadd(p[e], draw(coeffs))
    return {e: c for e, c in p.items() if c != Q_ZERO}, d


@settings(max_examples=300, deadline=None)
@given(division_cases(), st.sampled_from(("dict", "packed")),
       st.sampled_from(("dict", "packed")))
@example(({(2, 0): Q_ONE, (0, 0): Q_ONE}, {(1, 0): Q_ONE, (0, 1): Q_ONE}),
         "packed", "dict")  # only the trailing monomial fails
@example(({(512, 1): (1, 1, 2, 1), (256, 2): (0, 1, 1, 1)},
          {(256, 0): (1, 2, 0, 1), (0, 1): (0, 1, 1, 1)}),
         "packed", "packed")  # keys wider than 8 bits
def test_exact_divide_matches_the_stepwise_reference(case, p_how, d_how):
    p_terms, d_terms = case
    got = _held(p_terms, p_how).exact_divide(_held(d_terms, d_how))
    want = exact_divide_reference(MultiPoly(2, dict(p_terms)),
                                  MultiPoly(2, dict(d_terms)))
    # the quotient or None, and the quotient's term order
    assert _items(got) == _items(want)


_print_exponents = st.one_of(st.integers(0, 3),
                             st.sampled_from((255, 256, 300, 1000)))
_print_coeffs = st.one_of(
    st.sampled_from(((1, 1, 0, 1), (-1, 1, 0, 1), (0, 1, 1, 1),
                     (0, 1, -1, 1))),
    st.builds(lambda r: _q4(r, Fraction(0)), _small_fractions.filter(bool)),
    st.builds(lambda r: _q4(Fraction(0), r), _small_fractions.filter(bool)),
    st.tuples(_small_fractions, _small_fractions).filter(all)
    .map(lambda c: _q4(*c)),
    st.builds(lambda a: (a, 1, 0, 1), st.integers(-10**6, 10**6).filter(bool)))


@st.composite
def printed_polys(draw):
    """A polynomial in 1 to 8 variables with real, imaginary, complex,
    unit and fractional coefficients and exponents up to 1000, zero
    included, held as a term dict or as an unread kernel result."""
    n = draw(st.integers(1, 8))
    terms = draw(st.dictionaries(st.tuples(*[_print_exponents] * n),
                                 _print_coeffs, max_size=6))
    p = MultiPoly(n, terms)
    if draw(st.booleans()):
        p = MultiPoly.dot(n, [(p, MultiPoly.one(n))])
    return p


@settings(max_examples=300, deadline=None)
@given(printed_polys())
@example(MultiPoly.zero(3))
@example(MultiPoly(2, {(256, 0): (-1, 1, 0, 1), (0, 0): (1, 2, -1, 3),
                       (1, 1): (0, 1, -3, 4)}))
def test_text_form_matches_the_scalar_reference(p):
    text = str(p)
    assert text == multipoly_str_reference(p)
    assert MultiPoly.parse(text, p.n) == p
