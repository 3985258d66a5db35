"""Twisted torus algebra: products, derivations, cocycles, resolvents."""

import itertools
from fractions import Fraction

import pytest

from oracles import box, convolve, cyclo_dense, zero_sum_tuples
from pencilforms import ring, torus
from pencilforms._core import Q_ZERO
from pencilforms.cochains import FunctionalCochain, TraceWord
from pencilforms.ring import CycloElement, Scalar
from pencilforms.sampling import rng_for
from pencilforms.suites import torus_cocycle_checks
from pencilforms.torus import (
    FactorizationSample,
    TorusConfig,
    TorusElement,
    coboundary_check,
    cyclicity_check,
    factorization_report,
    format_element,
    neumann_resolvent,
    phi_cochain,
    psi1_cochain,
    psi2_cochain,
    torus_cocycle,
)

EXACT_ORDERS = ((3, 1), (4, 1), (5, 2))


def rand_exact_element(rng, config, radius=2, terms=3):
    out = TorusElement.zero(config)
    for _ in range(terms):
        m = rng.randrange(-radius, radius + 1)
        n = rng.randrange(-radius, radius + 1)
        coeff = CycloElement.root(config.q, rng.randrange(config.q)) \
            * Scalar(rng.randrange(-2, 3), rng.randrange(-2, 3))
        out = out + TorusElement.monomial(config, m, n, coeff)
    return out


def rand_numeric_element(rng, config, radius=2, terms=3):
    out = TorusElement.zero(config)
    for _ in range(terms):
        m = rng.randrange(-radius, radius + 1)
        n = rng.randrange(-radius, radius + 1)
        coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        out = out + TorusElement.monomial(config, m, n, coeff)
    return out


def test_config_validation():
    with pytest.raises(ValueError):
        TorusConfig.exact(0, 1)
    with pytest.raises(ValueError):
        TorusConfig("exact", q=4)
    with pytest.raises(ValueError):
        TorusConfig.numeric(0.0)
    with pytest.raises(ValueError):
        TorusConfig.numeric(1.5)
    with pytest.raises(ValueError):
        TorusConfig("diagonal")
    with pytest.raises(ValueError, match="order q"):
        TorusConfig.exact(torus.MAX_ORDER + 1, 1)
    for q, p in ((3.9, 1), (True, 1), (3, 1.5), (3, False)):
        with pytest.raises(ValueError, match="must be an integer"):
            TorusConfig.exact(q, p)
    with pytest.raises(ValueError, match="theta must be a number"):
        TorusConfig.numeric(True)
    assert TorusConfig.exact(torus.MAX_ORDER, 1).q == torus.MAX_ORDER
    cfg = TorusConfig.exact(4, 1)
    assert cfg.lambda_power(1) == CycloElement.root(4, 1)
    assert cfg.lambda_power(-1) == CycloElement.root(4, 3)
    assert cfg.lambda_power(4) == CycloElement.one(4)


def test_twist_pins():
    for q, p in EXACT_ORDERS:
        cfg = TorusConfig.exact(q, p)
        u, v = TorusElement.u(cfg), TorusElement.v(cfg)
        lam = cfg.lambda_power(1)
        uv = u * v
        assert uv == TorusElement.monomial(cfg, 1, 1)
        assert v * u == uv * cfg.lambda_power(-1)
        assert uv == (v * u) * lam
        assert u * TorusElement.u(cfg, -1) == TorusElement.one(cfg)
        both = u + v
        assert both * TorusElement.one(cfg) == both


def test_no_stored_zeros():
    cfg = TorusConfig.exact(4, 1)
    u = TorusElement.u(cfg)
    assert (u - u).is_zero
    assert (u - u).coeffs == {}
    assert TorusElement.monomial(cfg, 2, 1, 0).is_zero


def test_associativity_random():
    count = 0
    for q, p in EXACT_ORDERS:
        cfg = TorusConfig.exact(q, p)
        rng = rng_for(11, "assoc", q)
        for _ in range(34):
            x = rand_exact_element(rng, cfg)
            y = rand_exact_element(rng, cfg)
            z = rand_exact_element(rng, cfg)
            assert (x * y) * z == x * (y * z)
            count += 1
    assert count >= 100


def test_trace_pins_and_symmetry():
    cfg = TorusConfig.exact(5, 2)
    assert TorusElement.one(cfg).trace() == CycloElement.one(5)
    assert TorusElement.monomial(cfg, 2, -1).trace() == CycloElement.zero(5)
    rng = rng_for(12, "trace")
    for _ in range(25):
        x = rand_exact_element(rng, cfg)
        y = rand_exact_element(rng, cfg)
        assert (x * y).trace() == (y * x).trace()


def test_derivations():
    cfg = TorusConfig.exact(4, 1)
    u, v = TorusElement.u(cfg), TorusElement.v(cfg)
    uuv = TorusElement.monomial(cfg, 2, 1)
    assert uuv.delta(1) == uuv * 2
    assert TorusElement.monomial(cfg, 2, 0).delta(2).is_zero
    assert (u * v).delta(1) == u.delta(1) * v + u * v.delta(1)
    with pytest.raises(ValueError):
        u.delta(3)
    rng = rng_for(13, "leibniz")
    for _ in range(15):
        x = rand_exact_element(rng, cfg)
        y = rand_exact_element(rng, cfg)
        for j in (1, 2):
            prod = x * y
            assert prod.delta(j) == x.delta(j) * y + x * y.delta(j)
        assert x.delta(1).delta(2) == x.delta(2).delta(1)


def test_cocycle_pins():
    cfg = TorusConfig.exact(4, 1)
    one = TorusElement.one(cfg)
    u, v = TorusElement.u(cfg), TorusElement.v(cfg)
    assert torus_cocycle("phi1", (TorusElement.u(cfg, -1), u)) == \
        CycloElement.one(4)
    rng = rng_for(14, "pins")
    for _ in range(10):
        c = rand_exact_element(rng, cfg)
        assert torus_cocycle("phi1", (one, c)) == CycloElement.zero(4)
        assert torus_cocycle("phi2", (one, c)) == CycloElement.zero(4)
    assert torus_cocycle("psi2", (one, u, v)) == CycloElement.zero(4)
    assert torus_cocycle("psi1", (u, TorusElement.u(cfg, -1), one)) == \
        CycloElement.one(4)
    with pytest.raises(ValueError):
        torus_cocycle("phi3", (u, v))
    with pytest.raises(ValueError):
        torus_cocycle("phi1", (u, v, one))


def test_psi1_matches_trace_word():
    word = TraceWord(3)
    psi1 = psi1_cochain()
    for q, p in EXACT_ORDERS:
        cfg = TorusConfig.exact(q, p)
        rng = rng_for(15, "psi1", q)
        for _ in range(10):
            args = [rand_exact_element(rng, cfg) for _ in range(3)]
            assert psi1(args) == word(args)


def _psi2_by_derivation_products(x0, x1, x2):
    """psi_2 as written: four derivatives, two products, one difference."""
    return x0.trace(x1.delta(1) * x2.delta(2) - x1.delta(2) * x2.delta(1))


def _parallel_terms(cfg, rng, rand_coeff):
    # (1, 1), (2, 2), (-1, -1) and (0, 0) are pairwise parallel, so every
    # pair drawn from them has weight a d - b c = 0
    degrees = [(1, 1), (2, 2), (-1, -1), (0, 0), (0, 1), (1, -2)]
    rng.shuffle(degrees)
    return [TorusElement(cfg, {deg: rand_coeff() for deg in degrees[k:k + 3]})
            for k in (0, 3)]


def test_psi2_matches_derivation_products():
    psi2 = psi2_cochain()
    for q, p in EXACT_ORDERS:
        cfg = TorusConfig.exact(q, p)
        rng = rng_for(18, "psi2-oracle", q)

        def rand_coeff():
            return CycloElement.root(q, rng.randrange(q)) \
                * Scalar(rng.randrange(1, 3), rng.randrange(-2, 3))

        weightless = nonzero = 0
        for trial in range(24):
            if trial % 3 == 0:
                x1, x2 = _parallel_terms(cfg, rng, rand_coeff)
            else:
                x1 = rand_exact_element(rng, cfg, terms=4)
                x2 = rand_exact_element(rng, cfg, terms=4)
            weightless += sum(a * d == b * c for a, b in x1.coeffs
                              for c, d in x2.coeffs)
            inner = x1.delta(1) * x2.delta(2) - x1.delta(2) * x2.delta(1)
            assert x1._delta_commutator(x2) == inner
            # a random x0, and monomials that pick out each term of inner
            x0s = [rand_exact_element(rng, cfg, terms=4)] + [
                TorusElement.monomial(cfg, -m, -n) for m, n in inner.coeffs]
            for x0 in x0s:
                value = psi2([x0, x1, x2])
                assert value == x0.trace(inner)
                nonzero += bool(value)
        assert weightless > 0 and nonzero > 0


def test_psi2_numeric_matches_derivation_products():
    # Both routes round each term of the sum through at most 5 complex
    # products (relative error at most sqrt(5) u each, u = 2^-53) and at
    # most 32 additions, so each is within 64 u times the sum of the term
    # magnitudes of the exact value, and they differ by at most twice that.
    psi2 = psi2_cochain()
    cfg = TorusConfig.numeric(0.37)
    rng = rng_for(18, "psi2-oracle", "numeric")

    def rand_coeff():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    def magnitude(x0, x1, x2):
        return sum(abs(c0 * c1 * c2) * (abs(a * d) + abs(b * c))
                   for (a, b), c1 in x1.coeffs.items()
                   for (c, d), c2 in x2.coeffs.items()
                   for (m, n), c0 in x0.coeffs.items()
                   if (m + a + c, n + b + d) == (0, 0))

    checked = 0
    for trial in range(30):
        if trial % 3 == 0:
            x1, x2 = _parallel_terms(cfg, rng, rand_coeff)
        else:
            x1 = rand_numeric_element(rng, cfg, terms=4)
            x2 = rand_numeric_element(rng, cfg, terms=4)
        x0 = rand_numeric_element(rng, cfg, terms=4)
        value = psi2([x0, x1, x2])
        bound = 2 * 64 * 2.0 ** -53 * magnitude(x0, x1, x2)
        assert abs(value - _psi2_by_derivation_products(x0, x1, x2)) <= bound
        checked += bound > 0
    assert checked > 0


def test_twist_free_delta_commutator_of_sums_is_the_derivation_products():
    # each term pair of _delta_commutator is one weighted twisted step; on
    # operands of several terms it equals the definition over the
    # twist-free coefficient too (test_psi2_matches_derivation_products
    # checks it at q in {3, 4, 5}). The left degrees are multiples of 10
    # and the right ones small, so each pair reaches a degree of its own
    # and no sum mixes lambda exponents; (0, 0), and (10, 10) with (1, 1),
    # have weight 0
    free = torus._TWIST_FREE
    rng = rng_for(39, "delta-commutator", "twist-free")

    def rand_free(degrees):
        return TorusElement(free, {
            deg: torus._TwistFree(rng.choice((-2, -1, 1, 3)),
                                  rng.randrange(-3, 4))
            for deg in rng.sample(degrees, 3)})

    several = 0
    for _ in range(20):
        x = rand_free([(0, 0), (10, 0), (0, 10), (10, 10), (-10, 10)])
        y = rand_free([(1, 1), (2, -1), (-1, 3), (0, 2), (3, 0)])
        got = x._delta_commutator(y)
        assert got == x.delta(1) * y.delta(2) - x.delta(2) * y.delta(1)
        assert all(type(v) is torus._TwistFree for v in got.coeffs.values())
        several += len(got.coeffs) > 1
    assert several > 10


# The complete zero-sum boxes the checks ran on before the degree grid:
# radius 3 for cyclicity, and per cocycle for the coboundary.
CYCLICITY_BOX = 3
SPANNING_RUNS = (("phi1", 3), ("phi2", 3), ("psi1", 2), ("psi2", 2))


def test_cyclicity_spanning():
    # the twist-free grid check, and every zero-sum tuple of the radius-3
    # box at each exact order
    for name in ("phi1", "phi2", "psi1", "psi2"):
        checked, failure = cyclicity_check(name)
        assert checked > 0 and failure is None
    for q, p in EXACT_ORDERS:
        cfg = TorusConfig.exact(q, p)
        monomials = torus._box_monomials(cfg, CYCLICITY_BOX)
        for name in ("phi1", "phi2", "psi1", "psi2"):
            phi = torus.cocycle(name)
            negate = phi.arity % 2 == 0
            for degrees in zero_sum_tuples(CYCLICITY_BOX, phi.arity):
                args = [monomials[d] for d in degrees]
                turned = phi(args[-1:] + args[:-1])
                assert phi(args) == (-turned if negate else turned), \
                    (name, q, degrees)


def test_coboundary_spanning():
    # the twist-free grid check, and every zero-sum tuple of the cocycle's
    # box at each exact order
    for name, _ in SPANNING_RUNS:
        checked, failure = coboundary_check(name)
        assert checked > 0 and failure is None
    for q, p in EXACT_ORDERS:
        cfg = TorusConfig.exact(q, p)
        monomials = torus._box_monomials(cfg, 3)
        zero = cfg.zero_coeff()
        for name, radius in SPANNING_RUNS:
            b_phi = torus.cocycle(name).coboundary()
            for degrees in zero_sum_tuples(radius, b_phi.arity):
                assert b_phi([monomials[d] for d in degrees]) == zero, \
                    (name, q, degrees)


def test_zero_sum_tuples_are_the_filtered_product():
    # the plain enumeration: every tuple of the box for the later slots,
    # the first slot solved from them and kept when it lands in the box
    for radius, arity in ((0, 2), (1, 2), (3, 2), (1, 3), (3, 3), (2, 4)):
        expected = []
        for rest in itertools.product(box(radius), repeat=arity - 1):
            m0 = -sum(d[0] for d in rest)
            n0 = -sum(d[1] for d in rest)
            if abs(m0) <= radius and abs(n0) <= radius:
                expected.append(((m0, n0),) + rest)
        assert list(zero_sum_tuples(radius, arity)) == expected


def test_grid_tuples_are_zero_sum_and_in_the_box():
    # 4^(arity - 1) distinct tuples: free slot i with both coordinates in
    # {0, 1} (even i) or {0, -1} (odd i), the first slot solved, so every
    # grid tuple is a zero-sum tuple of the radius-2 box
    for arity in (2, 3, 4):
        grid = list(torus._grid_tuples(arity))
        assert len(grid) == len(set(grid)) == 4 ** (arity - 1)
        assert set(grid) <= set(zero_sum_tuples(2, arity))
        for degrees in grid:
            for i, (m, n) in enumerate(degrees[1:], 1):
                assert {m, n} <= ({0, 1} if i % 2 == 0 else {0, -1})


def test_psi2_unit_first_slot_vanishes():
    # tr picks the zero-degree part, where the derivation weights cancel:
    # psi2(1, x1, x2) is identically zero, hence symmetric in (x1, x2).
    psi2 = psi2_cochain()
    for q, p in EXACT_ORDERS:
        cfg = TorusConfig.exact(q, p)
        one = TorusElement.one(cfg)
        zero = CycloElement.zero(q)
        rng = rng_for(16, "psi2-unit", q)
        for _ in range(12):
            x1 = rand_exact_element(rng, cfg, terms=4)
            x2 = rand_exact_element(rng, cfg, terms=4)
            assert psi2([one, x1, x2]) == zero
            assert psi2([one, x1, x2]) == psi2([one, x2, x1])


def test_psi2_repeated_slot():
    # With y a monomial the two derivation orders agree termwise, so
    # psi2(x, y, y) = 0; a two-term y leaves cross terms behind.
    psi2 = psi2_cochain()
    cfg = TorusConfig.exact(4, 1)
    rng = rng_for(17, "psi2-repeat")
    for _ in range(10):
        x = rand_exact_element(rng, cfg, terms=3)
        m = rng.randrange(-3, 4)
        n = rng.randrange(-3, 4)
        y = TorusElement.monomial(cfg, m, n,
                                  CycloElement.root(4, rng.randrange(4)))
        assert psi2([x, y, y]) == CycloElement.zero(4)
    lam = cfg.lambda_power(1)
    x = TorusElement.monomial(cfg, -1, -1)
    y = TorusElement.u(cfg) + TorusElement.v(cfg)
    value = psi2([x, y, y])
    assert value == lam - 1
    assert value
    # consistent with cyclic invariance of psi2
    assert psi2([y, x, y]) == value


def test_trace_of_product_matches_full_product():
    cfg = TorusConfig.exact(5, 2)
    rng = rng_for(23, "fast-trace")
    for _ in range(12):
        x = rand_exact_element(rng, cfg, terms=4)
        y = rand_exact_element(rng, cfg, terms=2)
        assert x.trace(y) == (x * y).trace()
    numeric = TorusConfig.numeric(0.41)
    for _ in range(8):
        x = rand_numeric_element(rng, numeric, terms=4)
        y = rand_numeric_element(rng, numeric, terms=3)
        assert abs(x.trace(y) - (x * y).trace()) < 1e-12


def test_l1_norm_submultiplicative():
    cfg = TorusConfig.numeric(0.3183098861837907)
    rng = rng_for(18, "l1")
    for _ in range(15):
        x = rand_numeric_element(rng, cfg)
        y = rand_numeric_element(rng, cfg)
        assert (x * y).l1_norm() <= x.l1_norm() * y.l1_norm() + 1e-12


def test_mode_and_config_mismatch():
    exact = TorusConfig.exact(4, 1)
    numeric = TorusConfig.numeric(0.25)
    with pytest.raises(ValueError):
        TorusElement.u(exact) + TorusElement.u(numeric)
    with pytest.raises(ValueError):
        TorusElement.u(TorusConfig.exact(4, 1)) * TorusElement.u(
            TorusConfig.exact(5, 1))
    with pytest.raises(TypeError):
        TorusElement.monomial(exact, 0, 0, 0.5)
    with pytest.raises(TypeError):
        TorusElement.monomial(numeric, 0, 0, CycloElement.one(4))
    with pytest.raises(ValueError):
        TorusElement.monomial(exact, 0, 0, CycloElement.one(5))


def numeric_pencil(theta=0.3183098861837907):
    cfg = TorusConfig.numeric(theta)
    return cfg, [TorusElement.one(cfg), TorusElement.u(cfg),
                 TorusElement.v(cfg)]


def content_pencil(config=None):
    """(1, U + V^-1, V + U^-1), the pencil of the factorization checks."""
    cfg = TorusConfig.numeric(0.37) if config is None else config
    return [TorusElement.one(cfg),
            TorusElement.u(cfg) + TorusElement.v(cfg, -1),
            TorusElement.v(cfg) + TorusElement.u(cfg, -1)]


def sampled_pencil(theta=0.37):
    cfg = TorusConfig.numeric(theta)
    return [TorusElement.one(cfg),
            TorusElement.u(cfg) + TorusElement.u(cfg, -1),
            TorusElement.v(cfg)]


def test_neumann_trivial_pencil():
    cfg = TorusConfig.numeric(0.3)
    mats = [TorusElement.one(cfg), TorusElement.zero(cfg),
            TorusElement.zero(cfg)]
    z = (2 + 0j, 0.7, 0.7)
    for order in (1, 5, 40):
        res = neumann_resolvent(mats, z, order)
        assert res == TorusElement.monomial(cfg, 0, 0, 0.5 + 0j)


def test_neumann_inverse_quality():
    cfg, mats = numeric_pencil()
    z = (1 + 0j, 0.1 + 0j, 0.1 + 0j)
    order = 12
    # contraction ratio ||z2 A2 + z3 A3||_1 / |z1| of the series
    rho = (mats[1] * z[1] + mats[2] * z[2]).l1_norm() / abs(z[0])
    assert rho == pytest.approx(0.2)
    res = neumann_resolvent(mats, z, order)
    pencil = mats[0] * z[0] + mats[1] * z[1] + mats[2] * z[2]
    err = pencil * res - TorusElement.one(cfg)
    assert err.l1_norm() <= rho ** (order + 1) + 1e-12
    total = TorusElement.zero(cfg)
    for zi, ai in zip(z, mats):
        total = total + (res * ai) * zi
    assert (total - TorusElement.one(cfg)).l1_norm() \
        <= rho ** (order + 1) + 1e-12


def test_neumann_preconditions():
    cfg, mats = numeric_pencil()
    exact_cfg = TorusConfig.exact(4, 1)
    exact_mats = [TorusElement.one(exact_cfg), TorusElement.u(exact_cfg),
                  TorusElement.v(exact_cfg)]
    # each refusal in full; a malformed pencil or point is named before
    # z1 = 0, and the order before anything else
    cases = [
        (mats, (0, 0.1, 0.1), 10, "z1 must be nonzero"),
        (exact_mats, (Scalar(0), Scalar(1), Scalar(1)), 2,
         "z1 must be nonzero"),
        (mats, (1, 0.1, 0.1), 0, "order must be >= 1"),
        (mats[:2], (0, 0.1, 0.1), 0, "order must be >= 1"),
        (mats[:2], (0, 0.1, 0.1), 10,
         "expected three elements and a three-component point"),
        (mats, (0, 0.1), 10,
         "expected three elements and a three-component point"),
        ([mats[0], mats[1], TorusElement.v(TorusConfig.numeric(0.21))],
         (0, 0.1, 0.1), 10, "torus elements carry different configurations"),
        ([mats[0], mats[1], exact_mats[2]], (0, 0.1, 0.1), 10,
         "torus elements carry different configurations"),
        ([mats[1], mats[1], mats[2]], (0, 0.1, 0.1), 10,
         "the first element of the pencil must be 1"),
    ]
    for pencil, z, order, message in cases:
        with pytest.raises(ValueError) as info:
            neumann_resolvent(pencil, z, order)
        assert str(info.value) == message, (z, order)
    # rho >= 1 is no refusal: R_M is defined there, in either mode
    for pencil, z in ((mats, (0.05, 1, 1)),
                      (exact_mats, (Scalar(1, 2), Scalar(1), Scalar(0, 1)))):
        resolvent = neumann_resolvent(pencil, z, 3)
        assert resolvent.config == pencil[0].config and not resolvent.is_zero


def test_factorization_refuses_a_malformed_pencil():
    # a malformed pencil or point raises, at z1 = 1 and z1 = 0 alike
    cfg, mats = numeric_pencil()
    cases = [
        (mats[:2], "expected three elements"),
        (mats + [mats[1]], "expected three elements"),
        ([mats[0], mats[1], TorusElement.v(TorusConfig.numeric(0.21))],
         "different configurations"),
        ([TorusElement.u(cfg), mats[1], mats[2]], "must be 1"),
    ]
    for pencil, why in cases:
        for z in ((1, 0.1, 0.1), (0, 0.1, 0.1)):
            with pytest.raises(ValueError, match=why):
                factorization_report(pencil, [(1, 0.1, 0.1), z])
    with pytest.raises(ValueError, match="three-component"):
        factorization_report(mats, [(0, 0.1)])
    with pytest.raises(ValueError, match="z1 must be nonzero"):
        factorization_report(mats, [(1, 0.1, 0.1), (0, 0.1, 0.1)])


NON_FINITE_POINTS = [(float("inf"), 0.1, 0.1), (float("nan"), 0.1, 0.1),
                     (0.5, float("nan"), 0.1)]


@pytest.mark.parametrize("z", NON_FINITE_POINTS, ids=["inf", "nan", "nan-z2"])
def test_non_finite_points_are_refused(z):
    # z1 = inf would give R = 0, and a nan coordinate nan residuals and
    # bounds; both are refused, by name
    point = tuple(complex(c) for c in z)
    message = f"point {point} has a non-finite coordinate"
    mats = content_pencil()
    with pytest.raises(ValueError) as info:
        neumann_resolvent(mats, z, 10)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        factorization_report(mats, [(1, 0.1, 0.1), z])
    assert str(info.value) == message


def residuals(samples):
    return [abs(r) for sample in samples for r in sample.residuals()]


def within_bounds(sample):
    """Each residual within its rounding bound, and phi_j(W1, W2) above
    both bounds of its j."""
    bounds = sample.rounding_bounds()
    return (all(abs(r) <= b for r, b in zip(sample.residuals(), bounds))
            and all(abs(values[0]) > max(bounds[2 * j:2 * j + 2])
                    for j, values in enumerate(sample.values)))


def test_factorization_pinned_point():
    # the suite's pinned point on its pencil: content, and residuals within
    # their bounds; on (1, U, V) every phi_j(W_x, W_y) vanishes by degree,
    # which is why the checks do not use that pencil
    samples = factorization_report(content_pencil(), [(1, 0.5, 0.25j)])
    assert isinstance(samples, list)
    sample, = samples
    assert isinstance(sample, FactorizationSample)
    assert sample.point == (1, 0.5, 0.25j)
    assert within_bounds(sample)
    assert max(sample.rounding_bounds()) < 1e-11
    _, mats = numeric_pencil()
    sample, = factorization_report(mats, [(1, 0.5, 0.25j)])
    assert all(value == 0 for values in sample.values for value in values)


def test_factorization_random_samples():
    # the suite's sampling region: real and imaginary parts in [-0.5, 0.5]
    mats = content_pencil()
    rng = rng_for(19, "factor-samples")
    points = [(1 + 0j,
               complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
               complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
              for _ in range(10)]
    samples = factorization_report(mats, points)
    assert [sample.point for sample in samples] == points
    assert all(within_bounds(sample) for sample in samples)
    assert max(residuals(samples)) <= 1e-12


def test_factorization_nonzero_coefficients():
    # two-sided support in both gradings keeps the paired traces alive
    cfg = TorusConfig.numeric(0.37)
    mats = [TorusElement.one(cfg),
            TorusElement.u(cfg) + TorusElement.v(cfg),
            TorusElement.u(cfg, -1) + TorusElement.v(cfg, -1)]
    sample, = factorization_report(mats, [(1, 0.08, 0.06)])
    assert within_bounds(sample)
    # phi_j(W1, W2) and phi_j(W2, W3)
    assert all(abs(value) > 1e-3 for values in sample.values
               for value in values[:2])


def test_factorization_divergent_handling():
    # points where the series diverges, ||z2 A2 + z3 A3||_1 >= |z1|, are
    # checked like any other: the equalities use no convergence
    mats = content_pencil()
    points = [(0.05, 1, 1), (1, 0.5 + 0.5j, -0.5 + 0.5j), (1, 0.1, 0.1)]
    ratios = [(mats[1] * z2 + mats[2] * z3).l1_norm() / abs(z1)
              for z1, z2, z3 in points]
    assert ratios[0] > 1 and ratios[1] > 1 and ratios[2] < 1
    samples = factorization_report(mats, points)
    assert len(samples) == 3
    assert all(within_bounds(sample) for sample in samples)
    for q, p in EXACT_ORDERS:
        exact = content_pencil(TorusConfig.exact(q, p))
        point = (Scalar(Fraction(1, 20)), Scalar(1), Scalar(1, -1))
        sample, = factorization_report(exact, [point])
        assert not any(sample.residuals())
        assert all(values[0] for values in sample.values)


def test_factorization_tolerance_precondition():
    # the numeric lines judge each residual against its own rounding bound:
    # on the suite's region, at four twists, every residual is far inside
    # its bound and every phi_j(W1, W2) far above both bounds of its j, so
    # neither judgement sits near its edge
    rng = rng_for(37, "torus", "own-bound-margin")
    points = [(1.0, complex(a, b), complex(c, d))
              for a, b, c, d in itertools.product((-0.5, 0.5), repeat=4)]
    points += [(1.0,) + tuple(complex(rng.uniform(-0.5, 0.5),
                                      rng.uniform(-0.5, 0.5))
                              for _ in range(2))
               for _ in range(10)]
    for theta in (0.37, 0.3183098861837907, 1.0, 1e-3):
        mats = content_pencil(TorusConfig.numeric(theta))
        for sample in factorization_report(mats, points):
            bounds = sample.rounding_bounds()
            assert all(abs(r) <= 1e-2 * b
                       for r, b in zip(sample.residuals(), bounds)), theta
            assert all(abs(values[0]) > 1e6 * max(bounds[2 * j:2 * j + 2])
                       for j, values in enumerate(sample.values)), theta
    # K grows with the point: at |z2| = |z3| = 1.4 a bound passes 1e-10,
    # the fixed tolerance the lines once took, and the residual is still
    # within its own bound
    sample, = factorization_report(content_pencil(TorusConfig.numeric(1.0)),
                                   [(1.0, 1 + 1j, -1 + 1j)])
    assert max(sample.rounding_bounds()) > 1e-10
    assert within_bounds(sample)


def test_element_text_round_trip():
    cfg = TorusConfig.exact(4, 1)
    x = TorusElement(cfg, {
        (1, 0): CycloElement.root(4, 2) * Scalar(1, 2),
        (-2, 3): CycloElement.one(4) + CycloElement.root(4, 1),
        (0, 0): CycloElement.from_scalar(4, Scalar(0, 1)),
    })
    assert format_element(x) == (
        "(t+1)*U^-2*V^3 + (i)*U^0*V^0 + ((1+2*i)*t^2)*U^1*V^0")

    numeric = TorusConfig.numeric(0.25)
    y = TorusElement(numeric, {(2, -1): 1.5 + 0.25j, (0, 1): -2.0 + 0j})
    assert format_element(y) == "(-2.0+0.0j)*U^0*V^1 + (1.5+0.25j)*U^2*V^-1"

    assert format_element(TorusElement.zero(cfg)) == "0"


def test_text_format_is_sorted_and_stable():
    cfg = TorusConfig.exact(3, 1)
    x = TorusElement(cfg, {(1, -1): CycloElement.one(3),
                           (-1, 1): CycloElement.root(3, 2)})
    assert format_element(x) == "(t^2)*U^-1*V^1 + (1)*U^1*V^-1"


# -- fast product paths against plain references --------------------------


def _dense_cyclo_product(x, y):
    """Reference: the full q^2 convolution over (real, imag) Fraction pairs."""
    q = x.q
    xs = [(c.real, c.imag) for c in map(Scalar.from_q4, cyclo_dense(x))]
    ys = [(c.real, c.imag) for c in map(Scalar.from_q4, cyclo_dense(y))]
    out = [(Fraction(0), Fraction(0))] * q
    for a, (p, r) in enumerate(xs):
        for b, (u, v) in enumerate(ys):
            re, im = out[(a + b) % q]
            out[(a + b) % q] = (re + p * u - r * v, im + p * v + r * u)
    return CycloElement(q, [(re.numerator, re.denominator,
                             im.numerator, im.denominator) for re, im in out])


def test_cyclo_products_match_dense_convolution():
    rng = rng_for(0, "test", "cyclo-fast-paths")

    def rand_cyclo(q, density):
        return CycloElement(q, [
            Scalar(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)),
                   Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)))
            if rng.random() < density else Scalar(0) for _ in range(q)])

    scalars = [0, 1, -3, Fraction(0), Fraction(-2, 3), Scalar(0),
               Scalar(1), Scalar(Fraction(1, 2), -1), Scalar(0, 1)]
    checked = 0
    for q in (1, 3, 4, 5):
        ones = CycloElement(q, [1] * q)
        # (1 - t)(1 + t + ... + t^(q-1)) = 1 - t^q = 0
        factors = [(CycloElement.one(q) - CycloElement.root(q, 1), ones)]
        for _ in range(30):
            x = rand_cyclo(q, rng.choice([0.3, 0.6, 1.0]))
            y = rand_cyclo(q, rng.choice([0.3, 0.6, 1.0]))
            root = CycloElement.root(q, rng.randrange(-q, 2 * q))
            factors += [(x, y), (root, x), (x, root), (root, root),
                        (x, CycloElement.from_scalar(q, rng.choice(scalars)))]
            for s in scalars:
                assert x * s == s * x == _dense_cyclo_product(
                    x, CycloElement.from_scalar(q, s))
                checked += 2
        for x, y in factors:
            product = x * y
            expected = _dense_cyclo_product(x, y)
            assert product == expected, (q, x, y)
            assert (not product) == all(
                c == Q_ZERO for c in cyclo_dense(expected))
            checked += 1
        assert not factors[0][0] * factors[0][1]
        with pytest.raises(ValueError, match="mixed orders"):
            CycloElement.root(q) * CycloElement.root(q + 1)
    assert checked > 1000


def _naive_torus_product(x, y):
    """Reference: every term pair as (ca * cb) * lambda^(-b c), added in
    left-major order to the degree it reaches, then zero sums dropped in
    key order."""
    config = x.config
    out = {}
    for (a, b), ca in x.coeffs.items():
        for (c, d), cb in y.coeffs.items():
            term = ca * cb * config.lambda_power(-b * c)
            key = (a + c, b + d)
            out[key] = out[key] + term if key in out else term
    return [(key, value) for key, value in out.items() if value != 0]


def _bits(items):
    """(degree, real part, imaginary part) of each term, the parts in hex,
    so that two lists are equal only bit for bit (0.0 == -0.0 is not)."""
    return [(key, value.real.hex(), value.imag.hex()) for key, value in items]


def test_numeric_torus_products_match_naive_loop():
    # bit for bit: another order of the products or of the sums moves the
    # last bits
    rng = rng_for(0, "test", "torus-fast-paths")
    cfg = TorusConfig.numeric(0.37)
    u, one = TorusElement.u(cfg), TorusElement.one(cfg)
    # (U + 1)(U - 1): the two U terms cancel exactly
    cancelling = (u + one) * (u - one)
    assert list(cancelling.coeffs) == [(2, 0), (0, 0)]
    assert _bits(_naive_torus_product(u + one, u - one)) == \
        _bits(cancelling.coeffs.items())
    shared = 0
    for _ in range(60):
        x = rand_numeric_element(rng, cfg, terms=rng.randrange(0, 6))
        y = rand_numeric_element(rng, cfg, terms=rng.randrange(0, 6))
        for left, right in ((x, y), (y, x), (x + one, x - one)):
            product = left * right
            assert _bits(product.coeffs.items()) == \
                _bits(_naive_torus_product(left, right))
            assert all(v != 0 for v in product.coeffs.values())
            # some degree sums more than one term pair
            pairs = len(left.coeffs) * len(right.coeffs)
            shared += len(product.coeffs) < pairs
        for which in (1, 2):
            assert list(x.delta(which).coeffs.items()) == [
                (key, value * key[which - 1])
                for key, value in x.coeffs.items()
                if value * key[which - 1] != 0]
        for s in (0, 2, -0.5, 1.5 - 2j, Fraction(1, 3)):
            assert list((x * s).coeffs.items()) == list((s * x).coeffs.items()) \
                == [(key, value * complex(s))
                    for key, value in x.coeffs.items()
                    if value * complex(s) != 0]
    assert shared > 60


def test_exact_torus_fast_paths_match_naive_loop():
    rng = rng_for(0, "test", "exact-torus-fast-paths")
    for q, p in EXACT_ORDERS:
        cfg = TorusConfig.exact(q, p)
        zero = TorusElement.zero(cfg)
        one_minus_t = CycloElement.one(q) - CycloElement.root(q, 1)
        ones = CycloElement(q, [1] * q)

        def rand_monomial(coeff=None):
            if coeff is None:
                coeff = CycloElement.root(q, rng.randrange(q)) \
                    * Scalar(rng.randrange(1, 4), rng.randrange(-2, 3))
            return TorusElement.monomial(cfg, rng.randrange(-3, 4),
                                         rng.randrange(-3, 4), coeff)

        # coefficients (1 - t) and (1 + t + ... + t^(q-1)) multiply to 0
        dividing = (rand_monomial(one_minus_t), rand_monomial(ones))
        assert (dividing[0] * dividing[1]).is_zero
        pairs = [dividing]
        for _ in range(25):
            x = rand_monomial()
            y = rand_monomial(rng.choice([1, Scalar(-2, 1), one_minus_t]))
            many = rand_exact_element(rng, cfg, radius=3,
                                      terms=rng.randrange(2, 5))
            pairs += [(x, y), (y, x), (x, many), (many, x)]
        for left, right in pairs:
            assert list((left * right).coeffs.items()) == \
                _naive_torus_product(left, right)
            assert left.trace(right) == (left * right).trace()
        for x, _ in pairs[1::4]:
            for product in (zero * x, x * zero):
                assert product.config is cfg and product.is_zero
        for m, n in ((0, 2), (-3, 0), (0, 0), (1, -2)):
            x = TorusElement.monomial(cfg, m, n, Scalar(3, -1))
            for which in (1, 2):
                assert list(x.delta(which).coeffs.items()) == [
                    (key, value * key[which - 1])
                    for key, value in x.coeffs.items()
                    if value * key[which - 1] != 0]
        unmatched = TorusElement.monomial(cfg, 1, 2).trace(
            TorusElement.monomial(cfg, 1, -2))
        assert unmatched == CycloElement.zero(q)
        assert rand_monomial().trace(zero) == CycloElement.zero(q)


# Operation counts of the torus suite's cocycle checks at seed 1 (one
# twist-free run for every order q). They depend on the code alone, so
# exceeding one flags work that runs more often than one step per term
# pair, or a check that left the degree grid, without any timing.
# Coefficient products, counted as CycloElement.__mul__ calls: 529,514
# with convolved monomial twists, 300,821 once monomial torus products
# became one coefficient product twisted by rotation, 214,866 once psi2
# took its inner difference in one pass over term pairs. That pass also
# cut the torus products from 161,248 and the derivatives, which phi1 and
# phi2 still take, from 135,302. Since the product, the weight and the
# twist are one step (CycloElement.mul_rotate), the budget counts those
# steps plus the remaining CycloElement.__mul__ calls. The checks now run
# once over the twist-free coefficient, whose product steps (the config's
# twisted_product) and integer scalings are counted in place of the
# CycloElement ones: again 190,970, and no CycloElement arithmetic at all.
# On the degree grid in place of the complete boxes (20,104 tuples became
# 280) the counts went 190,970 -> 1,864 coefficient steps, 97,852 -> 1,096
# TorusElement products and 8,510 -> 212 derivatives. Every term pair of a
# product or of the psi2 commutator, and every matched pair of a trace, is
# one twisted step, whatever the number of terms.
COCYCLE_CHECKS_BUDGET = 1_900
COCYCLE_CHECKS_TORUS_MUL_BUDGET = 1_100
COCYCLE_CHECKS_DELTA_BUDGET = 220


def _count_calls(monkeypatch, calls, key, owner, name):
    """Count the calls of owner.name in calls[key]."""
    inner = getattr(owner, name)
    calls[key] = 0

    def counting(*args):
        calls[key] += 1
        return inner(*args)

    monkeypatch.setattr(owner, name, counting)


def test_cocycle_checks_coefficient_product_budget(monkeypatch):
    calls = {}
    for key, owner, name in (("mul", torus._TwistFree, "__mul__"),
                             ("twisted", torus._TWIST_FREE, "twisted_product"),
                             ("cyclo_mul", CycloElement, "__mul__"),
                             ("mul_rotate", CycloElement, "mul_rotate"),
                             ("convolve", ring, "_cyclic_product"),
                             ("product", ring, "_product"),
                             ("torus_mul", TorusElement, "__mul__"),
                             ("delta", TorusElement, "delta")):
        _count_calls(monkeypatch, calls, key, owner, name)
    results = torus_cocycle_checks(1)
    assert [r.passed for r in results] == [True] * 3
    assert calls["convolve"] == 0
    assert calls["product"] == 0
    assert calls["cyclo_mul"] == calls["mul_rotate"] == 0
    assert 0 < calls["mul"] + calls["twisted"] <= COCYCLE_CHECKS_BUDGET
    assert 0 < calls["torus_mul"] <= COCYCLE_CHECKS_TORUS_MUL_BUDGET
    assert 0 < calls["delta"] <= COCYCLE_CHECKS_DELTA_BUDGET


def test_cocycle_checks_do_the_same_work_at_every_order(monkeypatch):
    # The checks run once over the twist-free coefficient whatever order
    # the config names, so the coefficient steps do not depend on q, and
    # no kernel operation runs.
    def counts(q, p):
        with monkeypatch.context() as patch:
            calls = {}
            for name in ("qadd", "qmul", "qneg", "qsub"):
                _count_calls(patch, calls, name, ring, name)
            for name in ("__mul__", "__add__", "__sub__", "__neg__"):
                _count_calls(patch, calls, name, torus._TwistFree, name)
            _count_calls(patch, calls, "twisted", torus._TWIST_FREE,
                         "twisted_product")
            results = torus_cocycle_checks(1, TorusConfig.exact(q, p))
        assert [r.passed for r in results] == [True]
        return calls

    small = counts(3, 1)
    assert small["__mul__"] > 0 and small["twisted"] > 0
    assert small["qmul"] == small["qadd"] == 0
    assert counts(64, 5) == small


def _coboundary_terms(phi, args):
    """The a + 1 unsigned terms of (b phi)(x_0..x_a): phi with slots j and
    j + 1 merged for each j < a, then with x_a x_0 in the first slot."""
    a = phi.arity
    terms = [phi(args[:j] + [args[j] * args[j + 1]] + args[j + 2:])
             for j in range(a)]
    terms.append(phi([args[a] * args[0]] + args[1:a]))
    return terms


def test_twist_free_values_specialise_to_the_exact_ones():
    # lambda^e read as t^(e p') in Q(i)[t]/(t^q - 1) turns each twist-free
    # value into the exact one at (q, p'), on the suite's grid tuples and a
    # seeded sample of the complete boxes with the suite's random tuples:
    # the cocycle on its cyclicity tuples, and b phi and each of its terms
    # on its coboundary tuples
    free = torus._TWIST_FREE
    free_monomials = torus._box_monomials(free, 3)
    rng = rng_for(26, "test", "twist-free-specialise")
    orders = ((1, 0), (3, 1), (7, 3), (64, 5))
    exact = {qp: torus._box_monomials(TorusConfig.exact(*qp), 3)
             for qp in orders}

    def specialise(value, q, p):
        return CycloElement.root(q, value.e * p) * value.c

    nonzero = 0
    for which, radius in SPANNING_RUNS:
        phi = torus.cocycle(which)
        b_phi = phi.coboundary()
        cases = []
        for arity, size in ((phi.arity, CYCLICITY_BOX),
                            (phi.arity + 1, radius)):
            tuples = _box_tuples_with_samples(size, arity, which)
            cases += rng.sample(tuples, 40) + list(torus._grid_tuples(arity))
        for degrees in cases:
            def values(monomials):
                args = [monomials[d] for d in degrees]
                if len(args) == phi.arity:
                    return [phi(args)]
                return [b_phi(args)] + _coboundary_terms(phi, args)

            got = values(free_monomials)
            assert all(type(v) is torus._TwistFree for v in got)
            nonzero += sum(map(bool, got))
            for (q, p), monomials in exact.items():
                want = values(monomials)
                assert [specialise(v, q, p) for v in got] == want, \
                    (which, degrees, q, p)
    assert nonzero > 0


def test_twist_free_products_of_sums_specialise_to_the_exact_ones():
    # products of sums take one twisted step per term pair; a sum of
    # monomials of one degree keeps one exponent per key
    free = torus._TWIST_FREE
    x = TorusElement(free, {(1, 2): 2, (-1, 0): -3})
    y = TorusElement(free, {(2, -1): 5, (0, 1): 1})
    for q, p in ((3, 1), (7, 3)):
        cfg = TorusConfig.exact(q, p)
        xe = TorusElement(cfg, {(1, 2): 2, (-1, 0): -3})
        ye = TorusElement(cfg, {(2, -1): 5, (0, 1): 1})
        got = x * y
        assert {key: CycloElement.root(q, v.e * p) * v.c
                for key, v in got.coeffs.items()} == (xe * ye).coeffs


def test_twist_free_sums_refuse_different_exponents():
    a = torus._TwistFree(2, 1)
    b = torus._TwistFree(3, 4)
    zero = torus._TwistFree(0, 7)
    with pytest.raises(torus._MixedTwist):
        a + b
    with pytest.raises(torus._MixedTwist):
        a - b
    assert a != b and a != torus._TwistFree(2, 4)
    assert a + zero == a and zero - a == -a
    assert zero == torus._TwistFree(0, 0) and not zero
    assert a + torus._TwistFree(-2, 1) == zero
    assert torus._TwistFree.twisted_product(a, b, -3, 2) == \
        torus._TwistFree(12, 2)
    assert 3 * a == a * 3 == torus._TwistFree(6, 1)


def _box_tuples_with_samples(radius, arity, which):
    """The complete zero-sum box and the suite's seed-1 random tuples: what
    the checks ran on before the degree grid."""
    return (list(zero_sum_tuples(radius, arity))
            + list(torus._sampled_tuples(arity, 1, which)))


# Coboundary tuples on which some term of b phi is not 0, of all looked at,
# in the complete boxes plus the suite's random tuples (seed 1); a check
# whose terms all vanish would pass with no content.
COBOUNDARY_NONTRIVIAL = {"phi1": (1_332, 1_379), "phi2": (1_332, 1_379),
                         "psi1": (7_225, 7_235), "psi2": (6_816, 7_235)}
# The same on the degree grid the checks run on, and the grid's cyclicity
# tuples with phi != 0.
GRID_COBOUNDARY_NONTRIVIAL = {"phi1": (12, 16), "phi2": (12, 16),
                              "psi1": (64, 64), "psi2": (42, 64)}
GRID_CYCLICITY_NONZERO = {"phi1": (2, 4), "phi2": (2, 4), "psi1": (16, 16),
                          "psi2": (6, 16)}
# The lambda exponents of the nonzero values on the grid, cyclicity sides
# and coboundary terms of all four cocycles together
GRID_EXPONENTS = {-1, 0, 1, 2, 3}


def test_cocycle_checks_have_content():
    free = torus._TWIST_FREE
    monomials = torus._box_monomials(free, 3)
    exponents = set()
    for which, radius in SPANNING_RUNS:
        phi = torus.cocycle(which)
        counts = [0, 0]
        for degrees in _box_tuples_with_samples(radius, phi.arity + 1, which):
            args = [monomials[d] for d in degrees]
            counts[0] += any(_coboundary_terms(phi, args))
            counts[1] += 1
        assert 0 < counts[0]
        assert tuple(counts) == COBOUNDARY_NONTRIVIAL[which]
        assert any(phi([monomials[d] for d in degrees])
                   for degrees in _box_tuples_with_samples(
                       CYCLICITY_BOX, phi.arity, which))
        grid = [0, 0]
        for degrees in torus._grid_tuples(phi.arity + 1):
            terms = _coboundary_terms(phi, [monomials[d] for d in degrees])
            grid[0] += any(terms)
            grid[1] += 1
            exponents.update(v.e for v in terms if v)
        assert tuple(grid) == GRID_COBOUNDARY_NONTRIVIAL[which]
        grid = [0, 0]
        for degrees in torus._grid_tuples(phi.arity):
            args = [monomials[d] for d in degrees]
            sides = [phi(args), phi(args[-1:] + args[:-1])]
            grid[0] += bool(sides[0])
            grid[1] += 1
            exponents.update(v.e for v in sides if v)
        assert tuple(grid) == GRID_CYCLICITY_NONZERO[which]
    # terms with a nonzero exponent, so a mixed twist has something to hit
    assert exponents == GRID_EXPONENTS


def _affine_failure(terms, arity):
    """Where some term's integer weight c, or its exponent e where c != 0,
    is not affine along a free degree coordinate, or None.

    `terms(args)` gives twist-free values on a tuple of unit monomials.
    On seeded zero-sum tuples with free coordinates up to +-8 (the first
    slot solved from them), each free coordinate is stepped twice; a
    nonzero second difference of c, or of e at three nonzero c, fails.
    """
    free = torus._TWIST_FREE
    one = free.one_coeff()
    rng = rng_for(1, "test", "affine-weights", arity)

    def values(rest):
        first = (-sum(m for m, _ in rest), -sum(n for _, n in rest))
        return terms([TorusElement._of(free, {d: one})
                      for d in (first,) + rest])

    for _ in range(50):
        rest = [[rng.randrange(-8, 7), rng.randrange(-8, 7)]
                for _ in range(arity - 1)]
        for slot in range(arity - 1):
            for coord in (0, 1):
                line = []
                for step in range(3):
                    moved = [list(d) for d in rest]
                    moved[slot][coord] += step
                    line.append(values(tuple(map(tuple, moved))))
                for k, (v0, v1, v2) in enumerate(zip(*line)):
                    if v0.c - 2 * v1.c + v2.c or (
                            v0.c and v1.c and v2.c
                            and v0.e - 2 * v1.e + v2.e):
                        return rest, slot + 1, coord, k
    return None


def test_weights_and_exponents_are_affine_in_each_free_coordinate():
    # the premise of the degree grid: with the first slot solved, both
    # sides of cyclicity and every term of b phi are c lambda^e with c
    # affine in each free coordinate (and e too where c != 0), so two
    # values per coordinate decide the identities at every degree
    for which in ("phi1", "phi2", "psi1", "psi2"):
        phi = torus.cocycle(which)

        def sides(args):
            return [phi(args), phi(args[-1:] + args[:-1])]

        assert _affine_failure(sides, phi.arity) is None, which
        assert _affine_failure(lambda args: _coboundary_terms(phi, args),
                               phi.arity + 1) is None, which
    # a weight quadratic in one coordinate: tr(x0 d1(d1 x1)) weighs a1^2
    squared = FunctionalCochain(
        2, lambda args: args[0].trace(args[1].delta(1).delta(1)))
    assert _affine_failure(lambda args: [squared(args)], 2) is not None


def test_cyclo_int_products_match_convolution():
    rng = rng_for(0, "test", "cyclo-int-products")
    for q, p in EXACT_ORDERS:
        xs = [CycloElement.zero(q), CycloElement.one(q),
              CycloElement.one(q) - CycloElement.root(q, 1)]
        for _ in range(8):
            xs.append(CycloElement(q, [
                Scalar(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)),
                       rng.randrange(-2, 3))
                if rng.random() < 0.6 else 0 for _ in range(q)]))
        for x in xs:
            for n in (0, 1, -1, 2, -3):
                expected = convolve(
                    cyclo_dense(x),
                    cyclo_dense(CycloElement.from_scalar(q, n)))
                for product in (x * n, n * x, x * Scalar(n)):
                    assert product.q == q
                    assert cyclo_dense(product) == expected, (q, x, n)


def test_torus_subtraction_matches_adding_the_negation():
    rng = rng_for(0, "test", "torus-subtraction")
    for cfg, rand in ([(TorusConfig.exact(q, p), rand_exact_element)
                       for q, p in EXACT_ORDERS]
                      + [(TorusConfig.numeric(0.37), rand_numeric_element)]):
        for _ in range(20):
            x = rand(rng, cfg, terms=4)
            y = rand(rng, cfg, terms=3)
            (m, n), value = next(iter(x.coeffs.items()))
            # the first term of x cancels, so its key leaves the result
            cancelling = TorusElement._of(cfg, {(m, n): value, **{
                key: v for key, v in y.coeffs.items() if key != (m, n)}})
            for left, right in ((x, y), (y, x), (x, cancelling), (x, x)):
                difference = left - right
                assert list(difference.coeffs.items()) == \
                    list((left + (-right)).coeffs.items())
                assert all(difference.coeffs.values())
            assert (m, n) not in (x - cancelling).coeffs
    with pytest.raises(ValueError):
        TorusElement.u(TorusConfig.exact(4, 1)) \
            - TorusElement.u(TorusConfig.exact(5, 1))
    with pytest.raises(ValueError):
        TorusElement.u(TorusConfig.exact(4, 1)) \
            - TorusElement.u(TorusConfig.numeric(0.25))




# -- the factorization identity against the plain computation --------------


def _naive_element_product(x, y):
    return TorusElement._of(x.config, dict(_naive_torus_product(x, y)))


def _reference_resolvent(mats, z, order):
    """Every power by the term-pair loop, summed as acc = acc + power; the
    step is returned too."""
    z1, z2, z3 = z
    step = (mats[1] * z2 + mats[2] * z3) * (-1 / z1)
    acc = power = TorusElement.one(mats[0].config)
    for _ in range(order):
        power = _naive_element_product(power, step)
        acc = acc + power
    return acc * (1 / z1), step


def _reference_sample(mats, point, order):
    """phi_j values and residuals of both equalities, written out."""
    z1, z2, z3 = point
    resolvent, step = _reference_resolvent(mats, point, order)
    remainder = step
    for _ in range(order):
        remainder = _naive_element_product(remainder, step)
    w1, w2, w3 = (_naive_element_product(resolvent, a) for a in mats)
    values, sums = [], []
    for j in (1, 2):
        phi = phi_cochain(j)
        v12, v23, ve2, v13, v1e = (phi([x, y]) for x, y in (
            (w1, w2), (w2, w3), (remainder, w2), (w1, w3), (w1, remainder)))
        values.append((v12, v23, ve2, v13, v1e))
        sums += [z1 * v12 + -z3 * v23 + 1 * ve2, z2 * v12 + z3 * v13 + v1e]
    return values, sums


CONTENT_POINTS = [(1, 0.1, 0.12), (1, -0.09 + 0.03j, 0.13),
                  (1, 0.12 - 0.03j, -0.1 + 0.04j), (0.9, 0.1, 0.12),
                  (1, 0.45, 0.4j), (1.0, 0.5, 0.25j)]


def test_factorization_is_bitwise_the_reference():
    mats = content_pencil()
    samples = factorization_report(mats, CONTENT_POINTS)
    for sample, point in zip(samples, CONTENT_POINTS):
        values, sums = _reference_sample(mats, point, 2)
        # repr tells the sign of a zero and every bit of a float
        assert repr(sample.values) == repr(tuple(map(tuple, values)))
        assert [abs(r) for r in sample.residuals()] == [abs(r) for r in sums]
    for z in CONTENT_POINTS:
        assert list(neumann_resolvent(mats, z, 6).coeffs.items()) == \
            list(_reference_resolvent(mats, z, 6)[0].coeffs.items()), z


def test_neumann_sum_readds_a_cancelled_key_at_the_end():
    # step = -(1/2 + U/4) is dyadic, so the U coefficient of the sum is
    # exactly -1/4 + 1/4 = 0 after two powers and comes back with the third
    cfg = TorusConfig.numeric(0.37)
    one = TorusElement.one(cfg)
    mats = [one, one + TorusElement.u(cfg) * 0.5, TorusElement.v(cfg)]
    z = (1, 0.5, 0)
    resolvent = list(neumann_resolvent(mats, z, 6).coeffs.items())
    assert resolvent == \
        list(_reference_resolvent(mats, z, 6)[0].coeffs.items())
    assert [key for key, _ in resolvent[:3]] == [(0, 0), (2, 0), (1, 0)]


def test_factorization_calls_the_resolvent_through_the_module(monkeypatch):
    # the tracer counts neumann_resolvent by replacing the module global
    points = []
    inner = torus.neumann_resolvent

    def counting(mats, z, order):
        points.append(z)
        return inner(mats, z, order)

    monkeypatch.setattr(torus, "neumann_resolvent", counting)
    samples = factorization_report(content_pencil(), CONTENT_POINTS[:3])
    assert len(samples) == 3
    assert points == [sample.point for sample in samples]


# TorusElement.__mul__ and TorusElement.delta calls, and twisted steps (the
# config's twisted_product), per point of factorization_report at M = 2 on
# the suite's pencil, with its rounding bounds: 6 products for R (the step's
# two scalings and its own, two powers, 1/z1), 3 more for the step, 2 for E
# and 3 for W; 10 derivations for the phi values and 12 for the bounds.
# Recorded when the equalities replaced the truncation bounds, whose Neumann
# plans made about 50 products and 1,800 lambda_power calls over ten points
# at orders 22-29. Each term pair of a product and each matched pair of a
# trace is one twisted step: 209 per point.
FACTORIZATION_TORUS_MUL_PER_POINT = 14
FACTORIZATION_DELTA_PER_POINT = 22
FACTORIZATION_TWISTED_STEPS_PER_POINT = 209


def test_factorization_operation_counts(monkeypatch):
    mats = content_pencil()
    calls = {"delta": 0, "twisted": 0, "mul": 0}
    inner_delta = TorusElement.delta
    inner_twisted = mats[0].config.twisted_product
    inner_mul = TorusElement.__mul__

    def counting(name, inner):
        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    monkeypatch.setattr(TorusElement, "delta", counting("delta", inner_delta))
    monkeypatch.setattr(mats[0].config, "twisted_product",
                        counting("twisted", inner_twisted))
    monkeypatch.setattr(TorusElement, "__mul__", counting("mul", inner_mul))
    samples = factorization_report(mats, CONTENT_POINTS)
    assert all(within_bounds(sample) for sample in samples)
    points = len(CONTENT_POINTS)
    assert calls["mul"] == FACTORIZATION_TORUS_MUL_PER_POINT * points
    assert calls["delta"] == FACTORIZATION_DELTA_PER_POINT * points
    assert calls["twisted"] == FACTORIZATION_TWISTED_STEPS_PER_POINT * points


@pytest.mark.parametrize("order", [1, 2, 3, 6])
def test_the_equalities_hold_exactly_at_every_order(order):
    # no order rule: the identity is exact at each M, inside the region
    # where the series converges and outside it (|z2| + |z3| > 1/2)
    points = [(Scalar(1), Scalar(Fraction(1, 10), Fraction(1, 50)),
               Scalar(Fraction(3, 40), Fraction(-1, 60))),
              (Scalar(1), Scalar(Fraction(1, 2)), Scalar(0, Fraction(1, 4)))]
    for q, p in EXACT_ORDERS:
        mats = content_pencil(TorusConfig.exact(q, p))
        for point in points[:1] if order == 6 else points:
            sample = torus._factorization_sample(mats, point, order)
            assert not any(sample.residuals()), (q, order, point)
            assert all(values[0] for values in sample.values)


def test_residuals_stay_within_their_rounding_bound():
    # every residual within gamma_N K, with a margin: over these instances
    # none passed u K, against N = 155
    rng = rng_for(36, "torus", "rounding-bound")
    worst = 0.0
    for theta in (0.37, 0.3183098861837907, 1.0, 1e-3):
        mats = content_pencil(TorusConfig.numeric(theta))
        points = [(complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)),)
                  + tuple(complex(rng.uniform(-0.5, 0.5),
                                  rng.uniform(-0.5, 0.5)) for _ in range(2))
                  for _ in range(25)]
        for sample in factorization_report(mats, points):
            assert within_bounds(sample), sample.point
            worst = max([worst] + [
                abs(r) / b for r, b in zip(sample.residuals(),
                                           sample.rounding_bounds())])
    assert worst * torus._ROUNDINGS < 1


def _kept_test_elements():
    """An exact, a numeric and a twist-free element, each with terms off
    both axes and on them, so each derivation drops some terms."""
    rng = rng_for(43, "torus", "kept")
    exact_cfg, numeric_cfg = TorusConfig.exact(5, 2), TorusConfig.numeric(0.37)
    exact = (rand_exact_element(rng, exact_cfg, terms=5)
             + TorusElement.monomial(exact_cfg, 0, -2, 3)
             + TorusElement.u(exact_cfg, 2))
    numeric = (rand_numeric_element(rng, numeric_cfg, terms=5)
               + TorusElement.monomial(numeric_cfg, 0, 1, 0.5j)
               + TorusElement.u(numeric_cfg, -1))
    free = torus._TWIST_FREE
    twist_free = TorusElement._of(free, {(0, 1): torus._TwistFree(2, 1),
                                         (-1, 2): torus._TwistFree(-3, 0),
                                         (2, 0): torus._TwistFree(1, 4)})
    return exact, numeric, twist_free


def test_delta_and_l1_norm_are_computed_once():
    for x in _kept_test_elements():
        key, twin = hash(x), TorusElement._of(x.config, dict(x.coeffs))
        for which in (1, 2):
            first = x.delta(which)
            assert 0 < len(first.coeffs) < len(x.coeffs)
            assert x.delta(which) is first
            # the kept delta is the element the public constructor builds
            fresh = TorusElement(x.config, {
                degree: value * degree[which - 1]
                for degree, value in x.coeffs.items() if degree[which - 1]})
            assert first == fresh and hash(first) == hash(fresh)
            assert list(first.coeffs) == list(fresh.coeffs)
        # filling the slots changes neither == nor hash
        assert x == twin and hash(x) == key == hash(twin)
        assert x.delta(1).delta(2) is x.delta(1).delta(2)
        assert x.delta(1).delta(2) == x.delta(2).delta(1)
        assert x._delta1 is x.delta(1) and x._delta2 is x.delta(2)
    numeric = _kept_test_elements()[1]
    with pytest.raises(ValueError):
        numeric.delta(3)
    norm = numeric.l1_norm()
    assert numeric.l1_norm() is norm
    assert norm == sum(abs(c) for c in numeric.coeffs.values())


def test_numeric_twisted_step_is_the_product_times_the_kept_power():
    x, y = 0.3 - 1.25j, -0.7 + 0.1j
    for theta in (0.37, 0.3183098861837907, 1.0):
        config = TorusConfig.numeric(theta)
        reference = TorusConfig.numeric(theta)
        step = config.twisted_product
        config.lambda_power(-3)  # an exponent already in the table
        for power in (-3, 5, 0):  # 5 and 0 are not
            assert (power in config._lam_cache) == (power == -3)
            lam = reference.lambda_power(power)
            got = [(power, step(x, y, power)), (power, step(x, y, power, 2))]
            assert power in config._lam_cache
            assert _bits(got) == _bits([(power, x * y * lam),
                                        (power, x * y * 2 * lam)])
