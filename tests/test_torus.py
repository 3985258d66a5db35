"""Twisted torus algebra: products, derivations, cocycles, resolvents."""

import dataclasses
from fractions import Fraction

import pytest

from oracles import convolve, cyclo_dense
from pencilforms import ring, torus
from pencilforms._core import Q_ZERO
from pencilforms.cochains import TraceWord
from pencilforms.ring import CycloElement, Scalar
from pencilforms.sampling import rng_for
from pencilforms.suites import torus_cocycle_checks
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


def test_cyclicity_spanning():
    for q, p in EXACT_ORDERS:
        cfg = TorusConfig.exact(q, p)
        for name in ("phi1", "phi2", "psi1", "psi2"):
            checked, failure = cyclicity_check(name, cfg)
            assert checked > 0 and failure is None


def test_coboundary_spanning():
    for q, p in EXACT_ORDERS:
        cfg = TorusConfig.exact(q, p)
        for name, radius in (("phi1", 3), ("phi2", 3), ("psi1", 2),
                             ("psi2", 2)):
            checked, failure = coboundary_check(name, cfg, radius)
            assert checked > 0 and failure is None


def test_spanning_checks_require_exact_mode():
    cfg = TorusConfig.numeric(0.3)
    with pytest.raises(ValueError):
        cyclicity_check("phi1", cfg)
    with pytest.raises(ValueError):
        coboundary_check("psi2", cfg, 2)


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


# Operation counts of the q = 3 cocycle checks. They depend on the code
# alone, so exceeding one flags a lost fast path without any timing.
# Coefficient products, counted as CycloElement.__mul__ calls: 529,514
# with convolved monomial twists, 300,821 once monomial torus products
# became one coefficient product twisted by rotation, 214,866 once psi2
# took its inner difference in one pass over term pairs. That pass also
# cut the torus products from 161,248 and the derivatives, which phi1 and
# phi2 still take, from 135,302. Since the product, the weight and the
# twist are one step (CycloElement.mul_rotate), the budget counts those
# steps plus the remaining CycloElement.__mul__ calls.
COCYCLE_CHECKS_Q3_BUDGET = 190_970
COCYCLE_CHECKS_Q3_TORUS_MUL_BUDGET = 97_852
COCYCLE_CHECKS_Q3_DELTA_BUDGET = 8_510


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
    for key, owner, name in (("mul", CycloElement, "__mul__"),
                             ("mul_rotate", CycloElement, "mul_rotate"),
                             ("convolve", ring, "_cyclic_product"),
                             ("torus_mul", TorusElement, "__mul__"),
                             ("delta", TorusElement, "delta")):
        _count_calls(monkeypatch, calls, key, owner, name)
    results = torus_cocycle_checks(1, TorusConfig.exact(3, 1))
    assert [r.passed for r in results] == [True]
    assert calls["convolve"] == 0
    assert 0 < calls["mul"] + calls["mul_rotate"] <= COCYCLE_CHECKS_Q3_BUDGET
    assert 0 < calls["torus_mul"] <= COCYCLE_CHECKS_Q3_TORUS_MUL_BUDGET
    assert 0 < calls["delta"] <= COCYCLE_CHECKS_Q3_DELTA_BUDGET


def test_cocycle_checks_do_the_same_work_at_every_order(monkeypatch):
    # Every coefficient in the checks is one term, so the kernel operations
    # and coefficient products do not depend on the order q.
    def counts(q, p):
        with monkeypatch.context() as patch:
            calls = {}
            for name in ("qadd", "qmul", "qneg", "qsub"):
                _count_calls(patch, calls, name, ring, name)
            for name in ("__mul__", "mul_rotate", "__add__", "__neg__"):
                _count_calls(patch, calls, name, CycloElement, name)
            results = torus_cocycle_checks(1, TorusConfig.exact(q, p))
        assert [r.passed for r in results] == [True]
        return calls

    small = counts(3, 1)
    assert small["qmul"] > 0 and small["mul_rotate"] > 0
    assert counts(64, 5) == small


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


def _reference_samples(mats, points):
    """Each phi_j through its cochain, and one delta per err_phi call.

    Returns the samples and every phi value, for a content check.
    """
    order = torus.NEUMANN_ORDER
    phis = (phi_cochain(1), phi_cochain(2))
    samples, values = [], []
    for raw in points:
        point = tuple(complex(c) for c in raw)
        s, rho, z1 = torus._neumann_parts(mats, point)
        resolvent = _reference_resolvent(mats, point, order)
        w = [_naive_element_product(resolvent, a) for a in mats]
        az1 = abs(z1)
        tail0 = rho ** (order + 1) / (1 - rho)
        tail1 = ((order + 2) * rho ** (order + 1)
                 - (order + 1) * rho ** (order + 2)) / (1 - rho) ** 2
        sum_t = tail1 - tail0
        r_s = s.degree_radius()
        a_norms = [x.l1_norm() for x in mats]
        radii = [x.degree_radius() for x in mats]
        w_norms = [x.l1_norm() for x in w]

        def err_phi(j, x, y):
            e_ax = tail0 / az1 * a_norms[x]
            d_ey = a_norms[y] / az1 * (r_s * sum_t + radii[y] * tail0)
            dw_y = w[y].delta(j).l1_norm()
            return e_ax * dw_y + (w_norms[x] + e_ax) * d_ey

        residuals, bounds, q_values = [], [], []
        for j, phi in zip((1, 2), phis):
            v12 = phi(w[0], w[1])
            v23 = phi(w[1], w[2])
            v13 = phi(w[0], w[2])
            values += [v12, v23, v13]
            residuals.append(abs(point[0] * v12 - point[2] * v23))
            residuals.append(abs(point[1] * v12 + point[2] * v13))
            bounds.append(abs(point[0]) * err_phi(j, 0, 1)
                          + abs(point[2]) * err_phi(j, 1, 2))
            bounds.append(abs(point[1]) * err_phi(j, 0, 1)
                          + abs(point[2]) * err_phi(j, 0, 2))
            q_values.append(2 * v12 / point[2] if point[2] != 0 else None)
        samples.append(FactorizationSample(
            point=point, rho=rho, q_values=tuple(q_values),
            residuals=tuple(residuals), propagated_bounds=tuple(bounds)))
    return samples, values


# (1, U + V^-1, V + U^-1) has two-sided support in both gradings, so no
# phi_j(W_x, W_y) vanishes by degree: here each lies in 0.08-1.5.
CONTENT_POINTS = [(1, 0.1, 0.12), (1, -0.09 + 0.03j, 0.13),
                  (1, 0.12 - 0.03j, -0.1 + 0.04j), (0.9, 0.1, 0.12),
                  (1, 0.15, 0.1j), (1, 0.14 + 0.05j, -0.11)]


def content_pencil():
    cfg = TorusConfig.numeric(0.37)
    return [TorusElement.one(cfg),
            TorusElement.u(cfg) + TorusElement.v(cfg, -1),
            TorusElement.v(cfg) + TorusElement.u(cfg, -1)]


def test_factorization_is_bitwise_the_reference():
    mats = content_pencil()
    report = factorization_report(mats, CONTENT_POINTS)
    expected, values = _reference_samples(mats, CONTENT_POINTS)
    assert min(abs(v) for v in values) > 0.08
    assert max(residuals(report)) <= 1e-9 and not report.skipped
    assert all(max(s.propagated_bounds) <= 1e-9 for s in report.samples)
    assert len(report.samples) == len(expected) == len(CONTENT_POINTS)
    for sample, ref in zip(report.samples, expected):
        for field in dataclasses.fields(FactorizationSample):
            got, want = getattr(sample, field.name), getattr(ref, field.name)
            # repr tells the sign of a zero and every bit of a float
            assert got == want and repr(got) == repr(want), field.name
    assert max(residuals(report)) == max(max(s.residuals) for s in expected)
    for z in CONTENT_POINTS:
        assert list(neumann_resolvent(mats, z, 40).coeffs.items()) == \
            list(_reference_resolvent(mats, z, 40).coeffs.items())


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


# lambda_power calls in factorization_report on the sampled pencil of
# the torus suite (seed 1, ten points, order 40). The count depends on
# the code alone. Recorded when the twists of the general product loop
# were taken once per left V-degree row (before: one per term pair, 412,440).
FACTORIZATION_LAMBDA_POWER_BUDGET = 27_040


def test_factorization_operation_counts(monkeypatch):
    cfg = TorusConfig.numeric(0.37)
    mats = [TorusElement.one(cfg),
            TorusElement.u(cfg) + TorusElement.u(cfg, -1),
            TorusElement.v(cfg)]
    rng = rng_for(1, "torus", "factor-points")
    points = [(1.0,
               complex(rng.uniform(0.05, 0.1), rng.uniform(-0.02, 0.02)),
               complex(rng.uniform(0.05, 0.1), rng.uniform(-0.02, 0.02)))
              for _ in range(10)]
    calls = {"delta": 0, "lambda_power": 0}
    over_budget = []
    inner_delta = TorusElement.delta
    inner_lambda_power = TorusConfig.lambda_power
    inner_mul = TorusElement.__mul__

    def counting_delta(self, which):
        calls["delta"] += 1
        return inner_delta(self, which)

    def counting_lambda_power(self, exponent):
        calls["lambda_power"] += 1
        return inner_lambda_power(self, exponent)

    def budgeted_mul(self, other):
        before = calls["lambda_power"]
        product = inner_mul(self, other)
        if isinstance(other, TorusElement):
            rows = len({b for _, b in self.coeffs})
            used = calls["lambda_power"] - before
            if used > rows * len(other.coeffs):
                over_budget.append((used, rows, len(other.coeffs)))
        return product

    monkeypatch.setattr(TorusElement, "delta", counting_delta)
    monkeypatch.setattr(TorusConfig, "lambda_power", counting_lambda_power)
    monkeypatch.setattr(TorusElement, "__mul__", budgeted_mul)
    report = factorization_report(mats, points)
    assert len(report.samples) == 10 and max(residuals(report)) <= 1e-10
    assert all(max(s.propagated_bounds) <= 1e-10 for s in report.samples)
    assert calls["delta"] == 4 * len(report.samples)
    assert over_budget == []
    assert 0 < calls["lambda_power"] <= FACTORIZATION_LAMBDA_POWER_BUDGET
