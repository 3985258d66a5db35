"""Named verification suites: seeded, deterministic, self-reporting.

Each suite draws every random object through rng_for(seed, ...) with fixed
labels, so one seed pins the entire run. Reports carry no timestamps or
timings; identical inputs give identical bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import serialize
from .cochains import DenseCochain, TraceWord, cyclic_symmetrize, functional_product
from .forms import ScalarForm, maurer_cartan
from .jacobi import (TopFormFactorization, anchored_trace_power,
                     calibrated_sign, cubic_trace_data, entry_matrix_constant,
                     factorize_top_form, trace_power_form)
from .linalg import MatrixTuple, PolyMatrix
from .ring import CycloElement, MultiPoly, Scalar
from .sampling import (random_diagonal_tuple, random_matrix_tuple,
                       random_poly_matrix, rng_for)
from .torus import (NEUMANN_ORDER, TorusConfig, TorusElement,
                    coboundary_check, cyclicity_check, factorization_report)
from .transgression import (hyperplane_decomposition, tau, transgression_report)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    counterexample: Optional[str] = None

    def to_dict(self) -> dict:
        data = {"name": self.name, "passed": self.passed, "detail": self.detail}
        if self.counterexample is not None:
            data["counterexample"] = self.counterexample
        return data


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    results: Tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def text(self) -> str:
        lines = [f"suite: {self.suite}", f"seed: {self.seed}"]
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{status} {r.name}: {r.detail}")
            if r.counterexample is not None:
                for sub in r.counterexample.splitlines():
                    lines.append(f"  {sub}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"result: {verdict} ({len(self.results)} checks)")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "results": [r.to_dict() for r in self.results],
        }

    def json(self) -> str:
        return serialize.canonical_json(self.to_dict())


def _tuple_counterexample(label: str, t: MatrixTuple) -> str:
    return label + "\n" + serialize.canonical_json(
        serialize.tuple_to_json(t)).rstrip("\n")


def _poly_counterexample(label: str, f: PolyMatrix) -> str:
    return label + "\n" + serialize.canonical_json(
        serialize.poly_matrix_to_json(f)).rstrip("\n")


# ---------------------------------------------------------------------------
# flatness


def suite_flatness(seed: int, trials: Optional[int] = None,
                   tol: Optional[float] = None) -> List[CheckResult]:
    """d omega + omega wedge omega = 0 for linear and quadratic inputs."""
    count = 20 if trials is None else max(1, trials)
    quad_count = max(1, count // 4)
    combos = [(k, n) for k in (2, 3) for n in (2, 3, 4)]

    results: List[CheckResult] = []
    bad: Optional[str] = None
    checked = 0
    for i in range(count):
        k, n = combos[i % len(combos)]
        t = random_matrix_tuple(rng_for(seed, "flatness", "linear", i), n, k)
        checked += 1
        om = maurer_cartan(t.pencil())
        if not (om.exterior_derivative() + om.wedge(om)).is_zero:
            bad = _tuple_counterexample(f"trial {i} (k={k}, n={n})", t)
            break
    results.append(CheckResult(
        "flatness.linear", bad is None,
        f"{checked} pencils flat across k in {{2,3}}, n in {{2,3,4}}", bad))

    bad = None
    checked = 0
    for i in range(quad_count):
        n = (2, 3)[i % 2]
        f = random_poly_matrix(
            rng_for(seed, "flatness", "quadratic", i), n, 2, degree=2)
        checked += 1
        om = maurer_cartan(f)
        if not (om.exterior_derivative() + om.wedge(om)).is_zero:
            bad = _poly_counterexample(f"trial {i} (n={n})", f)
            break
    results.append(CheckResult(
        "flatness.quadratic", bad is None,
        f"{checked} quadratic-entry matrices flat", bad))
    return results


# ---------------------------------------------------------------------------
# theorem29


def suite_transgression(seed: int, trials: Optional[int] = None,
                        tol: Optional[float] = None) -> List[CheckResult]:
    """The transgression identity and both of its sub-identities.

    For cyclic phi of arity a: (a/(a+1)) kappa(b phi) + d kappa(phi) = 0,
    with the permutation-block decomposition of kappa(b phi) and the
    cyclic-shift correction term checked separately on the same inputs.
    """
    per_cell = 2 if trials is None else max(1, trials // 6)
    pairs = 0
    fails = {"main": None, "decomposition": None, "correction": None}

    for n in (3, 4):
        t = random_matrix_tuple(rng_for(seed, "theorem29", "pencil", n), n, 2)
        f = t.pencil()
        cochains = [("traceword", TraceWord(1)), ("traceword", TraceWord(3))]
        for arity in (1, 2, 3):
            dense_count = per_cell if (arity, n) != (3, 4) else max(
                1, per_cell // 2)
            for i in range(dense_count):
                rng = rng_for(seed, "theorem29", "dense", n, arity, i)
                density = 0.5 if arity < 3 else 0.35
                phi = cyclic_symmetrize(
                    DenseCochain.random(rng, arity, 2, density=density))
                cochains.append((f"dense-a{arity}", phi))
        for label, phi in cochains:
            rep = transgression_report(phi, f)
            pairs += 1
            a = rep.arity
            kb, dk, cor = rep.kappa_b, rep.d_kappa, rep.correction
            for part, held in (
                    ("main", kb * Fraction(a, a + 1) == -dk),
                    ("decomposition", kb == -dk - cor),
                    ("correction", cor == kb * Fraction(-1, a + 1))):
                if not held and fails[part] is None:
                    fails[part] = _tuple_counterexample(
                        f"{label} arity {a}, n={n}", t)

    return [
        CheckResult("theorem29.main", fails["main"] is None,
                    f"(a/(a+1)) kappa(b phi) + d kappa(phi) = 0 for "
                    f"{pairs} cochain/pencil pairs, arities 1-3",
                    fails["main"]),
        CheckResult("theorem29.decomposition", fails["decomposition"] is None,
                    "permutation-block decomposition of kappa(b phi) holds "
                    f"on all {pairs} pairs", fails["decomposition"]),
        CheckResult("theorem29.correction", fails["correction"] is None,
                    "cyclic-shift correction term matches on all "
                    f"{pairs} pairs", fails["correction"]),
    ]


# ---------------------------------------------------------------------------
# jacobi-classic


def suite_jacobi_classic(seed: int, trials: Optional[int] = None,
                         tol: Optional[float] = None) -> List[CheckResult]:
    """tr(adj(f) d_i f) = d_i det f as polynomials, every variable."""
    count = 20 if trials is None else max(1, trials)
    bad: Optional[str] = None
    checked = 0
    for i in range(count):
        k = (2, 3, 4)[i % 3]
        n = (2, 3)[i % 2]
        degree = 1 if i % 4 < 2 else 2
        f = random_poly_matrix(
            rng_for(seed, "jacobi-classic", i), n, k, degree=degree)
        checked += 1
        adj = f.adjugate()
        det = f.det()
        for v in range(1, n + 1):
            if (adj * f.partial(v)).trace() != det.partial(v):
                bad = _poly_counterexample(
                    f"trial {i} (k={k}, n={n}, variable {v})", f)
                break
        if bad is not None:
            break
    return [CheckResult(
        "jacobi.cross-multiplied", bad is None,
        f"tr(adj(f) d_i f) = d_i det f for {checked} matrices, k up to 4", bad)]


# ---------------------------------------------------------------------------
# parity


def suite_parity(seed: int, trials: Optional[int] = None,
                 tol: Optional[float] = None) -> List[CheckResult]:
    """Even trace powers of the connection form vanish identically."""
    per_combo = 2 if trials is None else max(1, trials // 4)
    combos = [(k, n) for k in (2, 3) for n in (4, 5)]
    checked = 0
    bad: Optional[str] = None
    for k, n in combos:
        for i in range(per_combo):
            t = random_matrix_tuple(
                rng_for(seed, "parity", k, n, i), n, k)
            f = t.pencil()
            for m in (2, 4):
                if not trace_power_form(f, m).is_zero:
                    bad = _tuple_counterexample(
                        f"trial {i} (k={k}, n={n}, power {m})", t)
                    break
            checked += 1
            if bad is not None:
                break
        if bad is not None:
            break
    return [CheckResult(
        "parity.even-powers", bad is None,
        f"tr(omega^2) = 0 and tr(omega^4) = 0 for {checked} pencils, "
        "k in {2,3}, n in {4,5}", bad)]


# ---------------------------------------------------------------------------
# theorem33


def suite_cubic_trace(seed: int, trials: Optional[int] = None,
                      tol: Optional[float] = None) -> List[CheckResult]:
    """Structure of tr(omega^3) for four-matrix tuples.

    Exact division of the antisymmetrized resolvent traces by det with a
    zero residual, the degree of p, the factorization of the top-degree
    form through the coordinate-simplex form with its cross relations, and
    agreement of the two routes to tr(omega^3): the traced wedge power and
    the anchored trace-word sum. Each check counts the tuples it checked
    and stops only at its own first failure.
    """
    k2_count = 100 if trials is None else max(1, trials)
    k3_count = max(1, k2_count // 5)
    results: List[CheckResult] = []

    division_bad: Optional[str] = None
    divisions = 0
    for k, count, name, claim in (
            (2, k2_count, "theorem33.p-constant-k2",
             "p is a constant for {} tuples of 2x2 matrices"),
            (3, k3_count, "theorem33.p-quadratic-k3",
             "p is homogeneous of degree 2 for {} tuples of 3x3 matrices")):
        bad: Optional[str] = None
        checked = 0
        for i in range(count):
            if bad is not None and division_bad is not None:
                break
            t = random_matrix_tuple(rng_for(seed, "theorem33", f"k{k}", i),
                                    4, k)
            fact, p = cubic_trace_data(t)
            if division_bad is None:
                divisions += 1
                why = _division_failure(fact)
                if why is not None:
                    division_bad = _tuple_counterexample(
                        f"trial {i} (k={k}): {why}", t)
            if bad is None:
                checked += 1
                why = _p_degree_failure(p, k)
                if why is not None:
                    bad = _tuple_counterexample(f"trial {i} (k={k}): {why}", t)
        results.append(CheckResult(name, bad is None, claim.format(checked),
                                   bad))

    results.append(CheckResult(
        "theorem33.divisibility", division_bad is None,
        "every antisymmetrized resolvent trace divides exactly by det "
        f"({divisions} tuples)", division_bad))

    tops = [(k, random_matrix_tuple(rng_for(seed, "theorem33", "top", k),
                                    4, k))
            for k in (2, 3)]
    facts = [factorize_top_form(t.pencil()) for _, t in tops]
    bad = None
    for (k, t), fact in zip(tops, facts):
        if not fact.residual.is_zero:
            bad = _tuple_counterexample(f"k={k}: nonzero residual", t)
            break
    if bad is None:
        f = random_poly_matrix(
            rng_for(seed, "theorem33", "top-quadratic"), 4, 2, degree=2)
        fact = factorize_top_form(f)
        if not fact.residual.is_zero:
            bad = _poly_counterexample("quadratic input: nonzero residual", f)
    results.append(CheckResult(
        "theorem33.top-factorization", bad is None,
        "tr(omega^3) = q s with zero residual and cross relations, "
        "k in {2,3} plus one quadratic input", bad))
    results.append(_trace_routes_check(
        [(k, t, fact.top_form) for (k, t), fact in zip(tops, facts)]))
    return results


def _division_failure(fact: TopFormFactorization) -> Optional[str]:
    """Why det fails to divide a resolvent trace, or tr(omega^3) != q s.

    I = trace / det^3 comes reduced, so det divides the trace exactly
    when at most det^2 is left in the denominator of I. bar_i[j - 1] is
    the I of the triple that leaves out j, so walking j = 4, 3, 2, 1
    takes the triples in increasing order.
    """
    for j in (4, 3, 2, 1):
        if fact.bar_i[j - 1].den_pow >= 3:
            triple = ",".join(str(v) for v in range(1, 5) if v != j)
            return f"trace difference at ({triple}) is not divisible by det"
    if not fact.residual.is_zero:
        return "tr(omega^3) is not q s: nonzero residual"
    return None


def _p_degree_failure(p: Optional[MultiPoly], k: int) -> Optional[str]:
    """Why p is neither 0 nor homogeneous of degree 2k-4, for k = 2 or 3."""
    if p is None:
        return "q det^2 / 3 is not a polynomial"
    if not p.is_zero and p.homogeneity_degree() != 2 * k - 4:
        return "p not constant" if k == 2 else "p not homogeneous of degree 2"
    return None


def _trace_routes_check(
        tops: List[Tuple[int, MatrixTuple, ScalarForm]]) -> CheckResult:
    """tr(omega^3) by wedge power = anchored sum on each tuple, given with
    the wedge-route top form that factorize_top_form split."""
    bad: Optional[str] = None
    nonzero = 0
    for k, t, wedge in tops:
        if anchored_trace_power(t.pencil(), 3) != wedge:
            bad = _tuple_counterexample(f"k={k}: anchored sum != wedge", t)
            break
        if not wedge.is_zero:
            nonzero += 1
    if bad is None and nonzero == 0:
        bad = "tr(omega^3) is 0 on every tuple: the check has no content"
    return CheckResult(
        "theorem33.trace-routes", bad is None,
        f"tr(omega^3) by wedge = anchored sum, k in {{2,3}}; "
        f"{nonzero} of {len(tops)} tuples nonzero", bad)


# ---------------------------------------------------------------------------
# example35


def suite_entry_matrix(seed: int, trials: Optional[int] = None,
                       tol: Optional[float] = None) -> List[CheckResult]:
    """p equals the calibrated sign times the 4x4 entry-matrix constant."""
    count = 100 if trials is None else max(1, trials)
    eps = calibrated_sign()
    bad: Optional[str] = None
    checked = 0
    for i in range(count):
        t = random_matrix_tuple(rng_for(seed, "example35", i), 4, 2)
        checked += 1
        _, p = cubic_trace_data(t)
        why = _p_degree_failure(p, 2)
        if why is not None:
            bad = _tuple_counterexample(f"trial {i}: {why}", t)
            break
        if p.constant_value() != entry_matrix_constant(t) * eps:
            bad = _tuple_counterexample(f"trial {i}", t)
            break
    return [CheckResult(
        "example35.entry-matrix", bad is None,
        f"epsilon = {eps}; p = epsilon * C for {checked} tuples of "
        "2x2 matrices", bad)]


# ---------------------------------------------------------------------------
# tau


def suite_tau(seed: int, trials: Optional[int] = None,
              tol: Optional[float] = None) -> List[CheckResult]:
    """tau is multiplicative over functional products and lands in
    closed forms."""
    count = 3 if trials is None else max(1, trials)
    tw1, tw3 = TraceWord(1), TraceWord(3)
    pairs = [(tw1, tw1), (tw1, tw3), (tw3, tw1)]

    bad: Optional[str] = None
    checked = 0
    for i in range(count):
        f1, f2 = pairs[i % len(pairs)]
        n = 4 if (f1.arity + f2.arity) >= 4 else 3
        t = random_matrix_tuple(rng_for(seed, "tau", "product", i), n, 2)
        f = t.pencil()
        checked += 1
        lhs = tau(functional_product(f1, f2), f)
        rhs = tau(f1, f).wedge(tau(f2, f))
        if lhs != rhs:
            bad = _tuple_counterexample(
                f"trial {i} (arities {f1.arity} and {f2.arity})", t)
            break
    results = [CheckResult(
        "tau.multiplicative", bad is None,
        f"tau(F1 x F2) = tau(F1) wedge tau(F2) for {checked} pairs", bad)]

    bad = None
    closed = 0
    for n in (3, 4):
        t = random_matrix_tuple(rng_for(seed, "tau", "closed", n), n, 2)
        f = t.pencil()
        for functional in (tw1, tw3):
            if not tau(functional, f).exterior_derivative().is_zero:
                bad = _tuple_counterexample(
                    f"arity {functional.arity}, n={n}", t)
                break
            closed += 1
        if bad is not None:
            break
    results.append(CheckResult(
        "tau.closed", bad is None,
        f"d tau(F) = 0 for trace words of arity 1 and 3 on {closed} "
        "invariant inputs", bad))
    return results


# ---------------------------------------------------------------------------
# hyperplane


def suite_hyperplane(seed: int, trials: Optional[int] = None,
                     tol: Optional[float] = None) -> List[CheckResult]:
    """Diagonal pencils split into hyperplane lines with matching kappa."""
    count = 6 if trials is None else max(1, trials)
    combos = [(2, 2), (3, 3), (2, 4), (3, 2), (4, 3), (2, 3)]

    # Repeated line z1, z1, z1 + 2 z2: multiplicities must group it.
    pinned = MatrixTuple([
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 2]],
    ])
    tuples = [("pinned", pinned)]
    for i in range(count):
        n, k = combos[i % len(combos)]
        rng = rng_for(seed, "hyperplane", i)
        while True:
            t = random_diagonal_tuple(rng, n, k)
            if not t.pencil().det().is_zero:
                break
        tuples.append((f"trial {i}", t))

    det_bad: Optional[str] = None
    kappa_bad: Optional[str] = None
    decs = [hyperplane_decomposition(t) for _, t in tuples]
    for (label, t), dec in zip(tuples, decs):
        if dec.line_product != dec.det and det_bad is None:
            det_bad = _tuple_counterexample(label, t)
        if dec.kappa_forms != dec.coordinate_forms and kappa_bad is None:
            kappa_bad = _tuple_counterexample(label, t)
    mults = sorted(m for _, m in decs[0].multiplicities)
    if mults != [1, 2] and det_bad is None:
        det_bad = _tuple_counterexample("pinned: wrong multiplicities", pinned)

    return [
        CheckResult("hyperplane.det-product", det_bad is None,
                    f"det = product of lines with grouped multiplicities "
                    f"for {len(tuples)} diagonal tuples", det_bad),
        CheckResult("hyperplane.kappa-lines", kappa_bad is None,
                    "kappa(coordinate functional) = d(ell)/ell for every "
                    f"line of {len(tuples)} tuples", kappa_bad),
    ]


# ---------------------------------------------------------------------------
# torus


def _random_torus_element(rng: random.Random,
                          config: TorusConfig) -> TorusElement:
    total = TorusElement.zero(config)
    for _ in range(3):
        coeff = CycloElement.root(config.q, rng.randrange(config.q)) * Scalar(
            rng.randrange(-2, 3), rng.randrange(-2, 3))
        total = total + TorusElement.monomial(
            config, rng.randrange(-2, 3), rng.randrange(-2, 3), coeff)
    return total


_EXACT_ORDERS = ((3, 1), (4, 1), (5, 2))


def torus_cocycle_checks(seed: int,
                         config: Optional[TorusConfig] = None
                         ) -> List[CheckResult]:
    """Cyclicity and vanishing coboundary for all four cocycles.

    One result per algebra order: complete monomial boxes plus seeded
    random degree tuples. Exact mode only; a numeric config raises
    ValueError. The result counts the tuples looked at up to the first
    failure.
    """
    configs = ([config] if config is not None
               else [TorusConfig.exact(q, p) for q, p in _EXACT_ORDERS])
    runs = ([(which, None) for which in ("phi1", "phi2", "psi1", "psi2")]
            + [("phi1", 3), ("phi2", 3), ("psi1", 2), ("psi2", 2)])
    results: List[CheckResult] = []
    for cfg in configs:
        bad: Optional[str] = None
        count = 0
        for which, radius in runs:
            if radius is None:
                checked, failure = cyclicity_check(which, cfg, seed=seed)
                claim = "cyclicity fails for {} on degrees {}"
            else:
                checked, failure = coboundary_check(which, cfg, radius,
                                                    seed=seed)
                claim = "coboundary of {} does not vanish on degrees {}"
            count += checked
            if failure is not None:
                bad = claim.format(which, failure)
                break
        results.append(CheckResult(
            f"torus.cocycles.q{cfg.q}", bad is None,
            "cyclicity and vanishing coboundary for phi1, phi2, psi1, "
            f"psi2 on {count} monomial tuples (q={cfg.q}, "
            f"p'={cfg.p_prime})", bad))
    return results


def _factorization_check(name: str, where: str, mats: List[TorusElement],
                         points: list, tolerance: float,
                         needed: int) -> CheckResult:
    """The tolerance against each point's worst propagated bound, each
    residual against the tolerance, and at least `needed` usable points."""
    samples = factorization_report(mats, points).samples
    residuals = [r for sample in samples for r in sample.residuals]
    max_residual = max([0.0] + residuals)
    bad: Optional[str] = None
    for sample in samples:
        worst = max(sample.propagated_bounds)
        if tolerance < worst:
            bad = (f"tolerance {tolerance} is below the propagated "
                   f"truncation bound {worst} at {sample.point}")
            break
    if bad is None and not all(r <= tolerance for r in residuals):
        bad = f"residual {max_residual:.3e} above {tolerance:.1e}"
    elif bad is None and len(samples) < needed:
        bad = f"only {len(samples)} usable sample points"
    return CheckResult(
        name, bad is None,
        f"{where.format(len(samples))}, order {NEUMANN_ORDER}: residuals "
        f"within {tolerance:.1e} (max {max_residual:.3e})", bad)


def torus_factorization_checks(seed: int, trials: Optional[int] = None,
                               tol: Optional[float] = None,
                               theta: Optional[float] = None
                               ) -> List[CheckResult]:
    """Truncated-resolvent residuals at the pinned point and seeded samples.

    trials below 10 is raised to 10. A tolerance below a point's propagated
    truncation bound fails the check with that bound, as does a residual
    above the tolerance or too few convergent points (1 pinned, 10
    sampled).
    """
    sample_count = 10 if trials is None else max(10, trials)
    tolerance = 1e-10 if tol is None else tol

    pinned_cfg = TorusConfig.numeric(0.3183098861837907 if theta is None
                                     else theta)
    pinned_mats = [TorusElement.one(pinned_cfg), TorusElement.u(pinned_cfg),
                   TorusElement.v(pinned_cfg)]

    sampled_cfg = TorusConfig.numeric(0.37 if theta is None else theta)
    mats = [TorusElement.one(sampled_cfg),
            TorusElement.u(sampled_cfg) + TorusElement.u(sampled_cfg, -1),
            TorusElement.v(sampled_cfg)]
    rng = rng_for(seed, "torus", "factor-points")
    points = []
    for _ in range(sample_count):
        z2 = complex(rng.uniform(0.05, 0.1), rng.uniform(-0.02, 0.02))
        z3 = complex(rng.uniform(0.05, 0.1), rng.uniform(-0.02, 0.02))
        points.append((1.0, z2, z3))
    return [
        _factorization_check(
            "torus.factorization.pinned", "A = (1, U, V) at z = (1, 0.1, 0.1)",
            pinned_mats, [(1.0, 0.1, 0.1)], tolerance, 1),
        _factorization_check(
            "torus.factorization.sampled",
            "A = (1, U + U^-1, V) at {} seeded points", mats, points,
            tolerance, 10),
    ]


def suite_torus(seed: int, trials: Optional[int] = None,
                tol: Optional[float] = None) -> List[CheckResult]:
    """Exact twisted-algebra laws, the four cocycles, and the numeric
    factorization of the resolvent traces."""
    algebra_bad: Optional[str] = None
    algebra_checks = 0
    for q, p_prime in _EXACT_ORDERS:
        cfg = TorusConfig.exact(q, p_prime)
        rng = rng_for(seed, "torus", "algebra", q)
        for i in range(12):
            x = _random_torus_element(rng, cfg)
            y = _random_torus_element(rng, cfg)
            z = _random_torus_element(rng, cfg)
            if (x * y) * z != x * (y * z):
                algebra_bad = f"associativity fails at q={q}, trial {i}"
                break
            if (x * y).trace() != (y * x).trace():
                algebra_bad = f"trace symmetry fails at q={q}, trial {i}"
                break
            for which in (1, 2):
                lhs = (x * y).delta(which)
                rhs = x.delta(which) * y + x * y.delta(which)
                if lhs != rhs:
                    algebra_bad = (f"Leibniz fails for delta_{which} at "
                                   f"q={q}, trial {i}")
                    break
            if algebra_bad is not None:
                break
            if x.delta(1).delta(2) != x.delta(2).delta(1):
                algebra_bad = f"derivations do not commute at q={q}, trial {i}"
                break
            algebra_checks += 1
        if algebra_bad is not None:
            break

    results = [CheckResult(
        "torus.algebra", algebra_bad is None,
        "associativity, trace symmetry, Leibniz, commuting derivations "
        f"on {algebra_checks} exact triples, q in {{3,4,5}}", algebra_bad)]
    results.extend(torus_cocycle_checks(seed))
    results.extend(torus_factorization_checks(seed, trials=trials, tol=tol))
    return results


# ---------------------------------------------------------------------------
# registry


SUITES: Dict[str, Callable[..., List[CheckResult]]] = {
    "flatness": suite_flatness,
    "theorem29": suite_transgression,
    "jacobi-classic": suite_jacobi_classic,
    "parity": suite_parity,
    "theorem33": suite_cubic_trace,
    "example35": suite_entry_matrix,
    "tau": suite_tau,
    "hyperplane": suite_hyperplane,
    "torus": suite_torus,
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suite(name: str, seed: int, trials: Optional[int] = None,
              tol: Optional[float] = None) -> SuiteReport:
    if name == "all":
        results: List[CheckResult] = []
        for key in SUITES:
            results.extend(SUITES[key](seed, trials=trials, tol=tol))
        return SuiteReport("all", seed, tuple(results))
    if name not in SUITES:
        known = ", ".join(SUITE_NAMES)
        raise ValueError(f"unknown suite {name!r}; expected one of {known}")
    return SuiteReport(name, seed, tuple(SUITES[name](seed, trials=trials,
                                                      tol=tol)))
