"""Twisted torus algebra: products, derivations, cocycles, resolvents."""

import dataclasses
import itertools
import tracemalloc
from fractions import Fraction

import pytest

from oracles import box, convolve, cyclo_dense, zero_sum_tuples
from pencilforms import ring, suites, torus
from pencilforms._core import Q_ZERO
from pencilforms.cochains import FunctionalCochain, TraceWord
from pencilforms.ring import CycloElement, Scalar
from pencilforms.sampling import rng_for
from pencilforms.suites import (suite_torus, torus_cocycle_checks,
                                torus_factorization_checks)
from pencilforms.torus import (
    FactorizationReport,
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


# The complete zero-sum boxes the checks ran on before the degree grid:
# radius 3 for cyclicity, and per cocycle for the coboundary.
CYCLICITY_BOX = 3
SPANNING_RUNS = (("phi1", 3), ("phi2", 3), ("psi1", 2), ("psi2", 2))


def test_cyclicity_spanning():
    # the grid check, and every zero-sum tuple of the radius-3 box
    for q, p in EXACT_ORDERS:
        cfg = TorusConfig.exact(q, p)
        monomials = torus._box_monomials(cfg, CYCLICITY_BOX)
        for name in ("phi1", "phi2", "psi1", "psi2"):
            checked, failure = cyclicity_check(name, cfg)
            assert checked > 0 and failure is None
            phi = torus.cocycle(name)
            negate = phi.arity % 2 == 0
            for degrees in zero_sum_tuples(CYCLICITY_BOX, phi.arity):
                args = [monomials[d] for d in degrees]
                turned = phi(args[-1:] + args[:-1])
                assert phi(args) == (-turned if negate else turned), \
                    (name, q, degrees)


def test_coboundary_spanning():
    # the grid check, and every zero-sum tuple of the cocycle's box
    for q, p in EXACT_ORDERS:
        cfg = TorusConfig.exact(q, p)
        monomials = torus._box_monomials(cfg, 3)
        zero = cfg.zero_coeff()
        for name, radius in SPANNING_RUNS:
            checked, failure = coboundary_check(name, cfg)
            assert checked > 0 and failure is None
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


def test_spanning_checks_require_exact_mode():
    cfg = TorusConfig.numeric(0.3)
    with pytest.raises(ValueError):
        cyclicity_check("phi1", cfg)
    with pytest.raises(ValueError):
        coboundary_check("psi2", cfg)


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


DIVERGENT = "Neumann series divergent at this point"


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
    with pytest.raises(ValueError, match="divergent"):
        neumann_resolvent(mats, (0.05, 1, 1), 10)
    with pytest.raises(ValueError, match="divergent"):
        neumann_resolvent(mats, (0, 0.1, 0.1), 10)
    with pytest.raises(ValueError):
        neumann_resolvent(mats, (1, 0.1, 0.1), 0)
    with pytest.raises(ValueError, match="must be 1"):
        neumann_resolvent([TorusElement.u(cfg), mats[1], mats[2]],
                          (1, 0.1, 0.1), 10)
    with pytest.raises(ValueError, match="numeric mode"):
        exact_cfg = TorusConfig.exact(4, 1)
        neumann_resolvent([TorusElement.one(exact_cfg),
                           TorusElement.u(exact_cfg),
                           TorusElement.v(exact_cfg)], (1, 0.1, 0.1), 10)
    # each refusal in full; a malformed pencil or point is named before a
    # divergent z1 = 0, and the order before anything else
    cases = [
        (mats, (0.05, 1, 1), 10, DIVERGENT),
        (mats, (0, 0.1, 0.1), 10, DIVERGENT),
        (mats, (1, 0.1, 0.1), 0, "order must be >= 1"),
        (mats[:2], (0, 0.1, 0.1), 0, "order must be >= 1"),
        (mats[:2], (0, 0.1, 0.1), 10,
         "expected three elements and a three-component point"),
        (mats, (0, 0.1), 10,
         "expected three elements and a three-component point"),
        ([TorusElement.one(exact_cfg), TorusElement.u(exact_cfg),
          TorusElement.v(exact_cfg)], (0, 0.1, 0.1), 10,
         "numeric mode required for resolvent computations"),
        ([mats[0], mats[1], TorusElement.v(TorusConfig.numeric(0.21))],
         (0, 0.1, 0.1), 10, "torus elements carry different configurations"),
        ([mats[1], mats[1], mats[2]], (0, 0.1, 0.1), 10,
         "the first element of the pencil must be 1"),
    ]
    for pencil, z, order, message in cases:
        with pytest.raises(ValueError) as info:
            neumann_resolvent(pencil, z, order)
        assert str(info.value) == message, (z, order)


def test_neumann_parts_reads_z1_zero_as_an_infinite_ratio():
    # z1 = 0 gives rho = inf rather than an error, so it meets the one
    # rho >= 1 test of each caller, with the message of any divergent point
    cfg, mats = numeric_pencil()
    for z in ((0, 0.1, 0.1), (0, 0, 0)):
        s, rho, z1 = torus._neumann_parts(mats, z)
        assert rho == float("inf") and z1 == 0
        assert s == mats[1] * z[1] + mats[2] * z[2]
    points = [(0, 0.1, 0.1), (0.05, 1, 1), (0, 0, 0), (1, 0.1, 0.1)]
    report = factorization_report(mats, points)
    assert [sample.point for sample in report.samples] == [(1, 0.1, 0.1)]
    assert report.skipped == [(tuple(complex(c) for c in z), DIVERGENT)
                              for z in points[:3]]


def test_factorization_refuses_a_malformed_pencil():
    # a malformed pencil or point raises, at a convergent point and at
    # z1 = 0 alike: only divergence is skipped
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


NON_FINITE_POINTS = [(float("inf"), 0.1, 0.1), (float("nan"), 0.1, 0.1),
                     (0.5, float("nan"), 0.1)]


@pytest.mark.parametrize("z", NON_FINITE_POINTS, ids=["inf", "nan", "nan-z2"])
def test_non_finite_points_are_refused(z):
    # z1 = nan would be summed to the cap with nan residuals, and z1 = inf
    # give R = 0 and a sample with nan residuals; both are refused, by name
    point = tuple(complex(c) for c in z)
    message = f"point {point} has a non-finite coordinate"
    mats = sampled_pencil()
    with pytest.raises(ValueError) as info:
        neumann_resolvent(mats, z, 10)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        factorization_report(mats, [(1, 0.1, 0.1), z])
    assert str(info.value) == message


def residuals(report):
    return [r for sample in report.samples for r in sample.residuals]


def test_factorization_pinned_point():
    cfg, mats = numeric_pencil()
    report = factorization_report(mats, [(1, 0.1, 0.1)])
    assert isinstance(report, FactorizationReport)
    assert not report.skipped
    assert max(residuals(report)) <= 1e-10
    sample = report.samples[0]
    assert sample.rho == pytest.approx(0.2)
    assert max(sample.propagated_bounds) < 1e-10
    q1, q2 = sample.q_values
    assert q1 is not None and q2 is not None
    # every monomial of this resolvent sits in the quarter plane m, n >= 0,
    # so each paired trace vanishes outright and both q values are zero
    assert q1 == 0 and q2 == 0


def test_factorization_random_samples():
    cfg = TorusConfig.numeric(0.37)
    mats = [TorusElement.one(cfg),
            TorusElement.u(cfg) + TorusElement.u(cfg, -1),
            TorusElement.v(cfg)]
    rng = rng_for(19, "factor-samples")
    points = []
    for _ in range(10):
        points.append((1 + 0j,
                       complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)),
                       complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))))
    report = factorization_report(mats, points)
    assert len(report.samples) == 10
    assert max(residuals(report)) <= 1e-9
    assert max(max(s.propagated_bounds) for s in report.samples) < 1e-9


def test_factorization_nonzero_coefficients():
    # two-sided support in both gradings keeps the paired traces alive
    cfg = TorusConfig.numeric(0.37)
    mats = [TorusElement.one(cfg),
            TorusElement.u(cfg) + TorusElement.v(cfg),
            TorusElement.u(cfg, -1) + TorusElement.v(cfg, -1)]
    report = factorization_report(mats, [(1, 0.08, 0.06)])
    sample = report.samples[0]
    assert max(sample.residuals) <= 1e-9
    assert max(sample.propagated_bounds) < 1e-9
    assert abs(sample.q_values[0]) > 1
    assert abs(sample.q_values[1]) > 1


def test_factorization_divergent_handling():
    cfg, mats = numeric_pencil()
    report = factorization_report(mats, [(0.05, 1, 1), (1, 0.1, 0.1)])
    assert len(report.samples) == 1
    assert len(report.skipped) == 1
    assert "divergent" in report.skipped[0][1]
    # z1 = 0 diverges too; a point set with no convergent point is no error
    report = factorization_report(mats, [(0.05, 1, 1), (0, 0.1, 0.1)])
    assert report.samples == []
    assert [why for _, why in report.skipped] == [
        "Neumann series divergent at this point"] * 2


def test_factorization_tolerance_precondition():
    # rho = 0.9: the terms left out of the series keep the propagated bound
    # far above any tolerance a residual check could use
    cfg, mats = numeric_pencil()
    sample, = factorization_report(mats, [(1, 0.45, 0.45)]).samples
    assert sample.rho == pytest.approx(0.9)
    assert max(sample.propagated_bounds) > 1e-10


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
    """Reference: every term pair, then zero sums dropped in key order."""
    config = x.config
    out = {}
    for (a, b), ca in x.coeffs.items():
        for (c, d), cb in y.coeffs.items():
            term = ca * cb * config.lambda_power(-b * c)
            key = (a + c, b + d)
            out[key] = out[key] + term if key in out else term
    return [(key, value) for key, value in out.items() if value != 0]


def test_numeric_torus_products_match_naive_loop():
    rng = rng_for(0, "test", "torus-fast-paths")
    cfg = TorusConfig.numeric(0.37)
    u, one = TorusElement.u(cfg), TorusElement.one(cfg)
    # (U + 1)(U - 1): the two U terms cancel exactly
    cancelling = (u + one) * (u - one)
    assert list(cancelling.coeffs) == [(2, 0), (0, 0)]
    assert _naive_torus_product(u + one, u - one) == \
        list(cancelling.coeffs.items())
    for _ in range(60):
        x = rand_numeric_element(rng, cfg, terms=rng.randrange(0, 6))
        y = rand_numeric_element(rng, cfg, terms=rng.randrange(0, 6))
        for left, right in ((x, y), (y, x), (x + one, x - one)):
            product = left * right
            assert list(product.coeffs.items()) == \
                _naive_torus_product(left, right)
            assert all(v != 0 for v in product.coeffs.values())
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
# exceeding one flags a lost fast path, or a check that left the degree
# grid, without any timing.
# Coefficient products, counted as CycloElement.__mul__ calls: 529,514
# with convolved monomial twists, 300,821 once monomial torus products
# became one coefficient product twisted by rotation, 214,866 once psi2
# took its inner difference in one pass over term pairs. That pass also
# cut the torus products from 161,248 and the derivatives, which phi1 and
# phi2 still take, from 135,302. Since the product, the weight and the
# twist are one step (CycloElement.mul_rotate), the budget counts those
# steps plus the remaining CycloElement.__mul__ calls. Every coefficient
# in the checks has one term, and since a one-term step no longer runs
# through ring._product, none of them reaches it: the counts below were
# measured again then and did not move, since the fast paths change how
# a step runs, not how many run. The checks now run once over the
# twist-free coefficient, whose product steps (the config's
# twisted_product) and integer scalings are counted in place of the
# CycloElement ones: again 190,970, and no CycloElement arithmetic at all.
# On the degree grid in place of the complete boxes (20,104 tuples became
# 280) the counts went 190,970 -> 1,864 coefficient steps, 97,852 -> 1,096
# TorusElement products and 8,510 -> 212 derivatives.
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
    # the general product path looks each twist up through lambda_power;
    # a sum of monomials of one degree keeps one exponent per key
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


def test_a_factorization_request_builds_each_schedule_once():
    # the pinned pencil (1, U, V) runs before the sampled one, so both
    # schedules and both factorization plans are kept, for the suite and
    # for the next request alike
    suite_torus(1)
    torus_factorization_checks(1, trials=75)
    for memo in (torus._neumann_schedule, torus._factorization_plan):
        info = memo.cache_info()
        assert info.misses == 2 and info.hits > 0, memo


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


# -- the numeric factorization against the plain computation ---------------


def _naive_element_product(x, y):
    return TorusElement._of(x.config, dict(_naive_torus_product(x, y)))


def _reference_resolvent(mats, z, order):
    """Every power by the term-pair loop, summed as acc = acc + power."""
    s, rho, z1 = torus._neumann_parts(mats, z)
    assert rho < 1
    step = s * (-1 / z1)
    acc = power = TorusElement.one(mats[0].config)
    for _ in range(order):
        power = _naive_element_product(power, step)
        acc = acc + power
    return acc * (1 / z1)


def _reference_err_phi(mats, point, order, w_norm, dw_norm):
    """err_phi(j, x, y) at this order, from the norms ||W_x|| = w_norm(x)
    and ||delta_j W_y|| = dw_norm(j, y)."""
    s, rho, z1 = torus._neumann_parts(mats, point)
    az1 = abs(z1)
    tail0 = rho ** (order + 1) / (1 - rho)
    tail1 = ((order + 2) * rho ** (order + 1)
             - (order + 1) * rho ** (order + 2)) / (1 - rho) ** 2
    sum_t = tail1 - tail0
    r_s = s.degree_radius()
    a_norms = [x.l1_norm() for x in mats]
    radii = [x.degree_radius() for x in mats]

    def err_phi(j, x, y):
        e_ax = tail0 / az1 * a_norms[x]
        d_ey = a_norms[y] / az1 * (r_s * sum_t + radii[y] * tail0)
        return e_ax * dw_norm(j, y) + (w_norm(x) + e_ax) * d_ey

    return err_phi


def _reference_bounds(point, err_phi, j):
    """The two residual bounds of phi_j from err_phi."""
    z1, z2, z3 = (abs(c) for c in point)
    return (z1 * err_phi(j, 0, 1) + z3 * err_phi(j, 1, 2),
            z2 * err_phi(j, 0, 1) + z3 * err_phi(j, 0, 2))


def _a_priori_bound(mats, point, order):
    """The worst residual bound with ||W_x|| replaced by
    ||A_x|| / (|z1| (1 - rho)) and ||delta_j W_y|| by
    (order r_s + r_y) ||A_y|| / (|z1| (1 - rho))."""
    point = tuple(complex(c) for c in point)
    s, rho, z1 = torus._neumann_parts(mats, point)
    scale = abs(z1) * (1 - rho)

    def w_norm(x):
        return mats[x].l1_norm() / scale

    def dw_norm(j, y):
        return (order * s.degree_radius() + mats[y].degree_radius()) \
            * w_norm(y)

    err_phi = _reference_err_phi(mats, point, order, w_norm, dw_norm)
    return max(_reference_bounds(point, err_phi, 1))


def _reference_order(mats, point, tolerance):
    """The smallest order whose dropped tail is at most 2^-53 and whose
    a-priori bound is within the tolerance, there and at the cap."""
    cap = torus.NEUMANN_ORDER
    _, rho, _ = torus._neumann_parts(mats, tuple(complex(c) for c in point))
    if tolerance is None or _a_priori_bound(mats, point, cap) > tolerance:
        return cap
    return min((m for m in range(1, cap + 1)
                if rho ** (m + 1) / (1 - rho) <= 2 ** -53
                and _a_priori_bound(mats, point, m) <= tolerance),
               default=cap)


def _reference_samples(mats, points, orders=None):
    """Each phi_j through its cochain, and one delta per err_phi call, with
    each point's series cut at its order (default NEUMANN_ORDER).

    Returns the samples and every phi value, for a content check.
    """
    if orders is None:
        orders = [torus.NEUMANN_ORDER] * len(points)
    phis = (phi_cochain(1), phi_cochain(2))
    samples, values = [], []
    for raw, order in zip(points, orders):
        point = tuple(complex(c) for c in raw)
        _, rho, _ = torus._neumann_parts(mats, point)
        resolvent = _reference_resolvent(mats, point, order)
        w = [_naive_element_product(resolvent, a) for a in mats]
        err_phi = _reference_err_phi(
            mats, point, order, lambda x: w[x].l1_norm(),
            lambda j, y: w[y].delta(j).l1_norm())

        residuals, bounds, q_values = [], [], []
        for j, phi in zip((1, 2), phis):
            v12 = phi(w[0], w[1])
            v23 = phi(w[1], w[2])
            v13 = phi(w[0], w[2])
            values += [v12, v23, v13]
            residuals.append(abs(point[0] * v12 - point[2] * v23))
            residuals.append(abs(point[1] * v12 + point[2] * v13))
            bounds.extend(_reference_bounds(point, err_phi, j))
            q_values.append(2 * v12 / point[2] if point[2] != 0 else None)
        samples.append(FactorizationSample(
            point=point, rho=rho, order=order, q_values=tuple(q_values),
            residuals=tuple(residuals), propagated_bounds=tuple(bounds)))
    return samples, values


# (1, U + V^-1, V + U^-1) has two-sided support in both gradings, so no
# phi_j(W_x, W_y) vanishes by degree: here each lies in 0.08-1.5.
CONTENT_POINTS = [(1, 0.1, 0.12), (1, -0.09 + 0.03j, 0.13),
                  (1, 0.12 - 0.03j, -0.1 + 0.04j), (0.9, 0.1, 0.12),
                  (1, 0.15, 0.1j), (1, 0.14 + 0.05j, -0.11)]


# The same pencil nearer the origin: rho is 0.1-0.3, where the series is cut
# below the cap at 1e-10, and each phi_j(W_x, W_y) lies in 0.02-1.1. At
# CONTENT_POINTS rho is 0.44-0.52, whose tails stay above 2^-53 up to the
# cap, so those points are summed to it at every tolerance.
CUT_CONTENT_POINTS = [(1, 0.05, 0.06), (1, -0.04 + 0.02j, 0.05),
                      (1, 0.03, -0.02 + 0.01j), (1, 0.08, 0.07j),
                      (1.2, 0.06 - 0.03j, -0.05), (1, 0.1, 0.02)]


def content_pencil():
    cfg = TorusConfig.numeric(0.37)
    return [TorusElement.one(cfg),
            TorusElement.u(cfg) + TorusElement.v(cfg, -1),
            TorusElement.v(cfg) + TorusElement.u(cfg, -1)]


def sampled_pencil(theta=0.37):
    cfg = TorusConfig.numeric(theta)
    return [TorusElement.one(cfg),
            TorusElement.u(cfg) + TorusElement.u(cfg, -1),
            TorusElement.v(cfg)]


def suite_resolvent_cases():
    """The torus suite's pinned and sampled pencils at seeded points.

    A point with z2 = 0 or z3 = 0 comes before each, so the step's support
    changes between neighbours and a kept Neumann schedule must not be
    reused; the sampled pencil comes again at another theta, with the same
    support, so its schedule is.
    """
    rng = rng_for(25, "torus", "bitwise-resolvent")
    cases = []
    for mats in (numeric_pencil()[1], sampled_pencil(), sampled_pencil(0.21)):
        for _ in range(2):
            z2 = complex(rng.uniform(0.05, 0.1), rng.uniform(-0.02, 0.02))
            z3 = complex(rng.uniform(0.05, 0.1), rng.uniform(-0.02, 0.02))
            cases += [(mats, (1.0, 0, z3)), (mats, (1.0, z2, z3)),
                      (mats, (1.0, z2, 0)), (mats, (1.0, z2, z3))]
    return cases


def suite_factorization_cases():
    """The torus suite's pinned pencil at its point and its sampled pencil
    at seeded points of the suite's range."""
    rng = rng_for(28, "torus", "bitwise-factorization")
    points = [(1.0, complex(rng.uniform(0.05, 0.1), rng.uniform(-0.02, 0.02)),
               complex(rng.uniform(0.05, 0.1), rng.uniform(-0.02, 0.02)))
              for _ in range(3)]
    return [(numeric_pencil()[1], [(1.0, 0.1, 0.1)] + points[:1]),
            (sampled_pencil(), points)]


def assert_samples_bitwise(samples, expected):
    assert len(samples) == len(expected)
    for sample, ref in zip(samples, expected):
        for field in dataclasses.fields(FactorizationSample):
            got, want = getattr(sample, field.name), getattr(ref, field.name)
            # repr tells the sign of a zero and every bit of a float
            assert got == want and repr(got) == repr(want), field.name


def test_factorization_is_bitwise_the_reference(monkeypatch):
    # no coefficient of these points cancels, so every one of them is
    # replayed from a Neumann schedule, none summed again by products
    fallbacks = []
    by_products = torus._neumann_sum_by_products

    def counting_by_products(step, order):
        fallbacks.append(step)
        return by_products(step, order)

    traces = []
    by_plan = torus._trace_by_plan

    def recording_trace(config, x, y, plan):
        # the walk `_trace_by_plan` takes, and the pairs inside both lists
        swap = len(y) < len(x)
        walked, other = (y, x) if swap else (x, y)
        first, second, _ = plan[swap]
        traces.append((swap, sum(i < len(walked) and k < len(other)
                                 for i, k in zip(first, second))))
        return by_plan(config, x, y, plan)

    monkeypatch.setattr(torus, "_neumann_sum_by_products",
                        counting_by_products)
    monkeypatch.setattr(torus, "_trace_by_plan", recording_trace)
    mats = content_pencil()
    # each point is cut at its own order, replaying a prefix of the plan
    # at the cap; CONTENT_POINTS run at the cap itself
    points = CONTENT_POINTS + CUT_CONTENT_POINTS
    report = factorization_report(mats, points, 1e-10)
    orders = [sample.order for sample in report.samples]
    cut = 6 * len(CONTENT_POINTS)
    assert set(orders[:len(CONTENT_POINTS)]) == {torus.NEUMANN_ORDER}
    assert max(orders[len(CONTENT_POINTS):]) < torus.NEUMANN_ORDER
    expected, values = _reference_samples(mats, points, orders)
    assert min(abs(v) for v in values[:cut]) > 0.08
    assert min(abs(v) for v in values[cut:]) > 0.02
    assert max(residuals(report)) <= 1e-9 and not report.skipped
    assert all(max(s.propagated_bounds) <= 1e-9 for s in report.samples)
    assert len(report.samples) == len(expected) == len(points)
    assert_samples_bitwise(report.samples, expected)
    assert max(residuals(report)) == max(max(s.residuals) for s in expected)
    # the content pencil walks a derivative shorter than its W, and the
    # suite's pencils have traces that match no pair (the zero of the mode)
    assert any(swap and pairs for swap, pairs in traces)
    traces.clear()
    for suite_mats, points in suite_factorization_cases():
        for tolerance in (None, 1e-10):
            samples = factorization_report(suite_mats, points,
                                           tolerance).samples
            assert_samples_bitwise(samples, _reference_samples(
                suite_mats, points, [s.order for s in samples])[0])
    assert any(not pairs for _, pairs in traces)
    cases = [(mats, z) for z in CONTENT_POINTS] + suite_resolvent_cases()
    for case_mats, z in cases:
        assert list(neumann_resolvent(case_mats, z, 40).coeffs.items()) == \
            list(_reference_resolvent(case_mats, z, 40).coeffs.items()), z
    assert fallbacks == []


def test_neumann_sum_readds_a_cancelled_key_at_the_end():
    # step = -(1/2 + U/4) is dyadic, so the U coefficient of the sum is
    # exactly -1/4 + 1/4 = 0 after two powers and comes back with the third
    cfg = TorusConfig.numeric(0.37)
    one = TorusElement.one(cfg)
    mats = [one, one + TorusElement.u(cfg) * 0.5, TorusElement.v(cfg)]
    z = (1, 0.5, 0)
    resolvent = list(neumann_resolvent(mats, z, 6).coeffs.items())
    assert resolvent == list(_reference_resolvent(mats, z, 6).coeffs.items())
    assert [key for key, _ in resolvent[:3]] == [(0, 0), (2, 0), (1, 0)]


def test_neumann_power_that_cancels_falls_back():
    # step = 1/4 + U/8 - U^-1/4 is dyadic, and its square has the constant
    # term 1/16 - 1/32 - 1/32 = 0 exactly, so the second power drops (0, 0)
    # and the schedule of the step's support no longer fits the point
    cfg = TorusConfig.numeric(0.37)
    mats = [TorusElement.one(cfg),
            TorusElement(cfg, {(0, 0): -0.25, (1, 0): -0.125, (-1, 0): 0.25}),
            TorusElement.v(cfg)]
    z = (1, 1, 0)
    step = mats[1] * -1
    assert (0, 0) not in (step * step).coeffs
    assert torus._neumann_sum_by_schedule(step, 6) is None
    for order in (2, 6, 40):
        assert list(neumann_resolvent(mats, z, order).coeffs.items()) == \
            list(_reference_resolvent(mats, z, order).coeffs.items())


def test_factorization_product_that_cancels_falls_back(monkeypatch):
    # at z = (1, 1/2, 0) the resolvent is sum_t (-U/2)^t, dyadic, and
    # R (1 + U/2) telescopes: every coefficient but those of U^0 and U^41
    # is exactly 0, which the factorization plan does not model, so W_3 is
    # formed by products and delta_j and the traces are planned on its keys
    cfg = TorusConfig.numeric(0.37)
    one, u = TorusElement.one(cfg), TorusElement.u(cfg)
    mats = [one, u, one + u * 0.5]
    z = (1, 0.5, 0)
    planned = []
    inner = torus._phi_plan

    def recording(w_keys):
        planned.append([list(keys) for keys in w_keys])
        return inner(w_keys)

    monkeypatch.setattr(torus, "_phi_plan", recording)
    report = factorization_report(mats, [z])
    expected, _ = _reference_samples(mats, [z])
    assert_samples_bitwise(report.samples, expected)
    # the plan of the term-pair keys, then the one of the product's keys
    assert len(planned[0][2]) == 42
    assert planned[1:] == [[list(_naive_element_product(
        neumann_resolvent(mats, z, torus.NEUMANN_ORDER), a).coeffs)
        for a in mats]]
    assert planned[1][2] == [(0, 0), (41, 0)]


def test_a_cold_factorization_plan_fits_its_memory_ceiling():
    # the plan of the sampled pencil at order 40 holds index arrays only;
    # measured at 0.17 MB kept and 0.59 MB peak while built (Python 3.11).
    # It is keyed on the step's support and built on the keys of the step's
    # Neumann schedule, which the resolvent has built first, as in a request
    mats = sampled_pencil()
    point = (1, 0.07, 0.08)
    resolvent = neumann_resolvent(mats, point, torus.NEUMANN_ORDER)
    step_support = tuple(torus._neumann_parts(mats, point)[0].coeffs)
    supports = tuple(tuple(a.coeffs) for a in mats)
    tracemalloc.start()
    try:
        plan = torus._factorization_plan(step_support, supports)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(resolvent.coeffs) == 1681
    assert [count for _, _, count in plan.products] == [1681, 1762, 1681]
    assert kept <= FACTORIZATION_PLAN_KEPT_BYTES
    assert peak <= FACTORIZATION_PLAN_PEAK_BYTES


def test_factorization_calls_the_resolvent_through_the_module(monkeypatch):
    # the tracer counts neumann_resolvent by replacing the module global
    points = []
    inner = torus.neumann_resolvent

    def counting(mats, z, order):
        points.append(z)
        return inner(mats, z, order)

    monkeypatch.setattr(torus, "neumann_resolvent", counting)
    report = factorization_report(sampled_pencil(), [
        (1, 0.06, 0.07), (0.05, 1, 1), (1, 0.08j, 0.05), (0, 0.1, 0.1)])
    assert len(report.samples) == 2 and len(report.skipped) == 2
    assert points == [sample.point for sample in report.samples]


# lambda_power and TorusElement.__mul__ calls in factorization_report on
# the sampled pencil of the torus suite (seed 1, ten points, tolerance
# 1e-10). The counts depend on the code alone. Recorded when the Neumann
# powers were replayed from a schedule, which takes each point's twists once
# per left V-degree for all 40 powers (before: 26,240 lambda_power calls,
# with a budget of 27,040, and 490 products, 40 of them per point for the
# powers), and lowered when W = R A was replayed from the factorization plan
# (before: 90 products, 9 per point). The 5 left per point scale the pencil
# twice for s and once for the step, in `_neumann_parts` (run twice) and
# `neumann_resolvent`. Lowered again when the Neumann sum was scaled by
# 1/z1 as a coefficient list (before: 60 products, 6 per point) and the
# Neumann powers took the twists of the schedule rows their order reaches
# only (before: 2,840 lambda_power calls), and again when W = R A took the
# twists of the plan rows its R reaches only, M + 1 of the 41 at the cap
# (before: 2,400 for 2,396 calls, 1,640 of them for the W rows).
FACTORIZATION_LAMBDA_POWER_BUDGET = 1_810
FACTORIZATION_TORUS_MUL_BUDGET = 50
# Term pairs replayed by `_replay_product` for the Neumann powers and
# W = R A at those ten points, recorded when each point's series was cut at
# the order of its rule (orders 22-29: 120,286 pairs; the same points at
# order 40 replay 411,640).
FACTORIZATION_PAIR_SLOT_BUDGET = 121_000

# tracemalloc ceilings on one cold factorization plan of the sampled pencil
# at order 40, which the factorization request keeps next to its schedule.
FACTORIZATION_PLAN_KEPT_BYTES = 250_000
FACTORIZATION_PLAN_PEAK_BYTES = 750_000


def suite_sampled_points(seed=1, count=10):
    """The sample points `torus_factorization_checks` draws."""
    rng = rng_for(seed, "torus", "factor-points")
    return [(1.0,
             complex(rng.uniform(0.05, 0.1), rng.uniform(-0.02, 0.02)),
             complex(rng.uniform(0.05, 0.1), rng.uniform(-0.02, 0.02)))
            for _ in range(count)]


def test_factorization_operation_counts(monkeypatch):
    mats = sampled_pencil()
    points = suite_sampled_points()
    calls = {"delta": 0, "lambda_power": 0, "mul": 0, "pairs": 0}
    over_budget = []
    inner_delta = torus._delta_by_plan
    inner_lambda_power = TorusConfig.lambda_power
    inner_mul = TorusElement.__mul__
    inner_replay = torus._replay_product

    def counting_delta(values, delta):
        calls["delta"] += 1
        return inner_delta(values, delta)

    def counting_lambda_power(self, exponent):
        calls["lambda_power"] += 1
        return inner_lambda_power(self, exponent)

    def budgeted_mul(self, other):
        calls["mul"] += 1
        before = calls["lambda_power"]
        product = inner_mul(self, other)
        if isinstance(other, TorusElement):
            rows = len({b for _, b in self.coeffs})
            used = calls["lambda_power"] - before
            if used > rows * len(other.coeffs):
                over_budget.append((used, rows, len(other.coeffs)))
        return product

    def counting_replay(plan, left, twist_rows):
        # every row of the table holds one pair per right term
        right = len(twist_rows[0]) if twist_rows else 0
        calls["pairs"] += min(len(left), len(plan[0])) * right
        return inner_replay(plan, left, twist_rows)

    monkeypatch.setattr(torus, "_delta_by_plan", counting_delta)
    monkeypatch.setattr(TorusConfig, "lambda_power", counting_lambda_power)
    monkeypatch.setattr(TorusElement, "__mul__", budgeted_mul)
    monkeypatch.setattr(torus, "_replay_product", counting_replay)
    report = factorization_report(mats, points, 1e-10)
    assert len(report.samples) == 10 and max(residuals(report)) <= 1e-10
    assert all(max(s.propagated_bounds) <= 1e-10 for s in report.samples)
    assert max(s.order for s in report.samples) <= 30
    assert calls["delta"] == 4 * len(report.samples)
    assert over_budget == []
    assert 0 < calls["lambda_power"] <= FACTORIZATION_LAMBDA_POWER_BUDGET
    assert 0 < calls["mul"] <= FACTORIZATION_TORUS_MUL_BUDGET
    assert 0 < calls["pairs"] <= FACTORIZATION_PAIR_SLOT_BUDGET
    # a tolerance no cut series can meet keeps every point at the cap
    capped = factorization_report(mats, points, 1e-30)
    assert [s.order for s in capped.samples] == [torus.NEUMANN_ORDER] * 10


# -- the order each point's series is cut at --------------------------------


def order_rule_cases():
    """The suite's pinned and sampled pencils at their points, and the
    content pencil at its points, some of them cut below the cap."""
    return [(numeric_pencil()[1], [(1.0, 0.1, 0.1)], 1),
            (sampled_pencil(), suite_sampled_points(), 10),
            (content_pencil(), CONTENT_POINTS + CUT_CONTENT_POINTS,
             len(CONTENT_POINTS + CUT_CONTENT_POINTS))]


def test_each_point_is_cut_at_the_order_of_its_rule():
    cap = torus.NEUMANN_ORDER
    seen = set()
    for mats, points, _ in order_rule_cases():
        for tolerance in (None, 1e-10, 1e-14, 1e-30):
            report = factorization_report(mats, points, tolerance)
            for sample, point in zip(report.samples, points):
                order = sample.order
                seen.add(order)
                assert order == _reference_order(mats, point, tolerance)
                if order < cap:
                    assert sample.rho ** (order + 1) / (1 - sample.rho) \
                        <= 2 ** -53
                    assert _a_priori_bound(mats, point, order) <= tolerance
                if tolerance is None:
                    assert order == cap
    # the suite's points are cut at 22-30, the cut content points lower
    assert min(seen) < 20 and cap in seen and len(seen) > 5


def test_cut_series_judge_as_the_cap(monkeypatch):
    # a verdict at the order of the rule is the verdict at the cap: on all
    # points at the suite's tolerance and below every bound, and on each
    # point just either side of its worst bound at the cap
    for mats, points, needed in order_rule_cases():
        at_cap = {sample.point: sample
                  for sample in factorization_report(mats, points).samples}
        runs = [(points, needed, tolerance) for tolerance in (1e-10, 1e-30)]
        runs += [([point], 1, max(sample.propagated_bounds) * f)
                 for point, sample in zip(points, at_cap.values())
                 for f in (1 - 1e-6, 1 + 1e-6)]
        verdicts = set()
        for run_points, run_needed, tolerance in runs:
            reports = []

            def cut_report(*args):
                reports.append(factorization_report(*args))
                return reports[-1]

            def cap_report(mats, points, tolerance):
                return FactorizationReport([at_cap[tuple(map(complex, z))]
                                            for z in points], [])

            verdict = {}
            for name, report in (("cut", cut_report), ("cap", cap_report)):
                with monkeypatch.context() as patch:
                    patch.setattr(suites, "factorization_report", report)
                    verdict[name] = suites._factorization_check(
                        name, "{}", mats, run_points, tolerance,
                        run_needed).passed
            assert verdict["cut"] == verdict["cap"], tolerance
            verdicts.add(verdict["cut"])
            for sample in reports[0].samples:
                assert max(sample.propagated_bounds) <= _a_priori_bound(
                    mats, sample.point, sample.order)
        assert verdicts == {True, False}
        for sample in at_cap.values():
            assert max(sample.propagated_bounds) <= _a_priori_bound(
                mats, sample.point, torus.NEUMANN_ORDER)


def test_cut_phi_values_stay_within_their_bound():
    # the suite's pencils give phi = 0 by degree; here every phi_j(W_x, W_y)
    # is nonzero, and at its order it stays within the sample's propagated
    # bound, plus rounding, of its value at the cap
    mats = content_pencil()
    points = CONTENT_POINTS + CUT_CONTENT_POINTS
    samples = factorization_report(mats, points, 1e-10).samples
    orders = [sample.order for sample in samples]
    assert min(orders) < torus.NEUMANN_ORDER
    _, cut = _reference_samples(mats, points, orders)
    _, capped = _reference_samples(mats, points)
    for k, (value, at_cap) in enumerate(zip(cut, capped)):
        sample = samples[k // 6]
        assert abs(at_cap) > 0.02
        assert abs(value - at_cap) <= max(sample.propagated_bounds) \
            + 64 * 2 ** -53 * abs(at_cap), (sample.point, sample.order)
