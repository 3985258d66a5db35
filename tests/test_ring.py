"""Exact scalar, polynomial, and rational-function arithmetic."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import convolve, cyclo_dense, cyclo_dense_str, ratfn_partial
from pencilforms import _core
from pencilforms._core import (Q_ONE, Q_ZERO, poly_add, poly_mul, qadd, qinv,
                               qmul, qneg, qnorm, qsub)
from pencilforms.ring import CycloElement, I, MultiPoly, RatFn, Scalar, _as_q4


def rand_scalar(rng, imag_prob=0.4):
    re = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
    im = Fraction(0)
    if rng.random() < imag_prob:
        im = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
    return Scalar(re, im)


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
        ar, ai, br, bi = a.real, a.imag, b.real, b.imag
        s = a + b
        assert (s.real, s.imag) == (ar + br, ai + bi)
        p = a * b
        assert (p.real, p.imag) == (ar * br - ai * bi, ar * bi + ai * br)
        if not b.is_zero:
            q = a / b
            assert q * b == a


def test_scalar_inverse_and_zero_division():
    assert Scalar(2, 3).inverse() * Scalar(2, 3) == Scalar(1)
    with pytest.raises(ZeroDivisionError):
        Scalar(0).inverse()
    with pytest.raises(ZeroDivisionError):
        Scalar(1) / Scalar(0)


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
    assert cyclo_dense(x - y) == tuple(map(qsub, dx, dy))
    assert cyclo_dense(-x) == tuple(map(qneg, dx))
    assert cyclo_dense(x - x) == cyclo_dense(x + (-x)) == zero
    assert cyclo_dense(x * y) == convolve(dx, dy)
    assert cyclo_dense(x * s) == cyclo_dense(s * x) == convolve(dx, ds)
    rotation = [Q_ZERO] * q
    rotation[power % q] = (scale, 1, 0, 1) if scale else Q_ZERO
    assert cyclo_dense(x.mul_rotate(y, power, scale)) == \
        convolve(convolve(dx, dy), tuple(rotation))
    for value, dense in ((x, dx), (x + y, tuple(map(qadd, dx, dy))),
                         (x * y, convolve(dx, dy))):
        rebuilt = CycloElement(q, [Scalar.from_q4(c) for c in dense])
        assert value == rebuilt and hash(value) == hash(rebuilt)
        assert bool(value) == (dense != zero)
        assert str(value) == cyclo_dense_str(dense)
    assert (x == y) == (dx == dy)
    assert (x == s) == (dx == ds)


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
        assert p - p == MultiPoly.zero(n)


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
    assert det.evaluate([1, 2, 3, 4]) == pytest.approx(-2 + 0j)
    rng = random.Random(110)
    for _ in range(50):
        p = rand_poly(rng, 3)
        q = rand_poly(rng, 3)
        z = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
        lhs = (p * q).evaluate(z)
        rhs = p.evaluate(z) * q.evaluate(z)
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
            fd = (r.evaluate([z[0] + h, z[1]]) - r.evaluate([z[0] - h, z[1]])) / (2 * h)
            exact = dr.evaluate(z)
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


def test_kernel_matches_fraction_reference(monkeypatch):
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
    for direct_max in (0, 10 ** 9):
        monkeypatch.setattr(_core, "_DIRECT_MAX_PAIRS", direct_max)
        for p, q in cases:
            rp = {e: _ref(c) for e, c in p.items()}
            rq = {e: _ref(c) for e, c in q.items()}
            got, want = poly_mul(p, q), _ref_poly_mul(rp, rq)
            _check_canonical(got)
            assert {e: _ref(c) for e, c in got.items()} == want
            # term order is part of the result: float evaluation sums in it
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
    got = _core.poly_dot(pairs)
    _check_canonical(got)
    want = _ref_poly_dot(ref)
    assert {e: _ref(c) for e, c in got.items()} == want
    # term order is part of the result: float evaluation sums in it
    assert list(got) == list(want)
    want_sum = {}
    for rp, rq in ref:
        want_sum = _ref_poly_add(want_sum, _ref_poly_mul(rp, rq))
    assert {e: _ref(c) for e, c in got.items()} == want_sum
    for (p, q), (rp, rq) in zip(pairs, ref):
        # one pair alone keeps poly_mul's term order, which
        # test_kernel_matches_fraction_reference pins to the same reference
        alone = _core.poly_dot(((p, q),))
        _check_canonical(alone)
        assert [(e, _ref(c)) for e, c in alone.items()] == \
            list(_ref_poly_mul(rp, rq).items())
    if all(not p or not q for p, q in pairs):
        assert got == {}
