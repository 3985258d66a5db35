"""Twisted torus algebra: products, derivations, cocycles, resolvents."""

from fractions import Fraction

import pytest

from pencilforms import ring
from pencilforms.cochains import TraceWord
from pencilforms.ring import CycloElement, Scalar
from pencilforms.sampling import rng_for
from pencilforms.suites import torus_cocycle_checks
from pencilforms.torus import (
    FactorizationReport,
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


def test_cyclicity_spanning():
    for q, p in EXACT_ORDERS:
        cfg = TorusConfig.exact(q, p)
        for name in ("phi1", "phi2", "psi1", "psi2"):
            assert cyclicity_check(name, cfg) > 0


def test_coboundary_spanning():
    for q, p in EXACT_ORDERS:
        cfg = TorusConfig.exact(q, p)
        for name in ("phi1", "phi2"):
            assert coboundary_check(name, cfg, 3) > 0
        for name in ("psi1", "psi2"):
            assert coboundary_check(name, cfg, 2) > 0


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
    assert not value.is_zero
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


def test_factorization_pinned_point():
    cfg, mats = numeric_pencil()
    report = factorization_report(mats, [(1, 0.1, 0.1)], order=40, tol=1e-10)
    assert isinstance(report, FactorizationReport)
    assert report.all_within
    assert not report.skipped
    assert report.max_residual <= 1e-10
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
    report = factorization_report(mats, points, order=40, tol=1e-9)
    assert len(report.samples) == 10
    assert report.all_within
    assert report.max_residual <= 1e-9


def test_factorization_nonzero_coefficients():
    # two-sided support in both gradings keeps the paired traces alive
    cfg = TorusConfig.numeric(0.37)
    mats = [TorusElement.one(cfg),
            TorusElement.u(cfg) + TorusElement.v(cfg),
            TorusElement.u(cfg, -1) + TorusElement.v(cfg, -1)]
    report = factorization_report(mats, [(1, 0.08, 0.06)], order=40, tol=1e-9)
    assert report.all_within
    sample = report.samples[0]
    assert abs(sample.q_values[0]) > 1
    assert abs(sample.q_values[1]) > 1


def test_factorization_divergent_handling():
    cfg, mats = numeric_pencil()
    report = factorization_report(mats, [(0.05, 1, 1), (1, 0.1, 0.1)],
                                  order=40, tol=1e-10)
    assert len(report.samples) == 1
    assert len(report.skipped) == 1
    assert "divergent" in report.skipped[0][1]
    with pytest.raises(ValueError, match="every sample"):
        factorization_report(mats, [(0.05, 1, 1), (0.1, 2, 2)], order=40,
                             tol=1e-10)


def test_factorization_tolerance_precondition():
    cfg, mats = numeric_pencil()
    with pytest.raises(ValueError, match="propagated"):
        factorization_report(mats, [(1, 0.45, 0.45)], order=3, tol=1e-10)


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
    xs = [(c.real, c.imag) for c in map(x.coefficient, range(q))]
    ys = [(c.real, c.imag) for c in map(y.coefficient, range(q))]
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
            assert product.is_zero == (not product) == all(
                c.is_zero for c in map(expected.coefficient, range(q)))
            checked += 1
        assert (factors[0][0] * factors[0][1]).is_zero
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


# CycloElement products in the q = 3 cocycle checks. The count depends on
# the code alone, so exceeding it flags lost fast paths without any timing.
# Recorded when monomial torus products became one coefficient product with
# the lambda twist as a rotation (before: 529,514).
COCYCLE_CHECKS_Q3_BUDGET = 300_821


def test_cocycle_checks_coefficient_product_budget(monkeypatch):
    calls = {"mul": 0, "convolve": 0}
    inner_mul, inner_convolve = CycloElement.__mul__, ring._convolve

    def counting_mul(self, other):
        calls["mul"] += 1
        return inner_mul(self, other)

    def counting_convolve(x, y):
        calls["convolve"] += 1
        return inner_convolve(x, y)

    monkeypatch.setattr(CycloElement, "__mul__", counting_mul)
    monkeypatch.setattr(ring, "_convolve", counting_convolve)
    results = torus_cocycle_checks(1, TorusConfig.exact(3, 1))
    assert [r.passed for r in results] == [True]
    assert calls["convolve"] == 0
    assert 0 < calls["mul"] <= COCYCLE_CHECKS_Q3_BUDGET
