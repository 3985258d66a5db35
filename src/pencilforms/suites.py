"""Named verification suites: seeded, deterministic, self-reporting.

Each suite draws every random object through rng_for(seed, ...) with fixed
labels, so one seed pins the entire run. Reports carry no timestamps or
timings; identical inputs give identical bytes.

Every report line but the torus cocycle ones is kept by a `_Check`: it
judges instances in turn, counts each one judged, the failing one
included, and keeps the first failure as the line's counterexample. A
line's count is thus the instances judged up to and including its first
failure; lines over a fixed set (theorem29's pairs, hyperplane's tuples,
the torus sample points) state the size of that set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple, Union

from . import serialize
from .cochains import DenseCochain, TraceWord, cyclic_symmetrize, functional_product
from .forms import ScalarForm, maurer_cartan
from .jacobi import (TopFormFactorization, calibrated_sign, cubic_trace_data,
                     entry_matrix_constant, factorize_top_form,
                     trace_power_form)
from .linalg import MatrixTuple, PolyMatrix
from .ring import CycloElement, MultiPoly, Scalar
from .sampling import (random_diagonal_tuple, random_matrix_tuple,
                       random_poly_matrix, rng_for)
from .torus import (FACTORIZATION_ORDER, _ROUNDINGS, TorusConfig,
                    TorusElement, coboundary_check, cyclicity_check,
                    factorization_report)
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


_Witness = Union[MatrixTuple, PolyMatrix, None]


def _counterexample(label: str, witness: _Witness) -> str:
    """label, followed by the witness as canonical JSON if there is one."""
    if witness is None:
        return label
    data = (serialize.tuple_to_json(witness)
            if isinstance(witness, MatrixTuple)
            else serialize.poly_matrix_to_json(witness))
    return label + "\n" + serialize.canonical_json(data).rstrip("\n")


class _Check:
    """One report line: judges instances in turn and builds its result.

    `judge` counts the instance, the failing one included, and keeps the
    first failure as the counterexample; after that it does nothing, so
    the count stops at the check's own first failure.
    """

    __slots__ = ("_name", "_count", "_failure")

    def __init__(self, name: str):
        self._name = name
        self._count = 0
        self._failure: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self._failure is None

    @property
    def count(self) -> int:
        return self._count

    def judge(self, held: bool, label: str, witness: _Witness = None) -> bool:
        """Count one instance; if it failed, keep label and witness.
        Returns ok, so a loop can stop at the first failure."""
        if self._failure is None:
            self._count += 1
            if not held:
                self._failure = _counterexample(label, witness)
        return self._failure is None

    def result(self, detail: str) -> CheckResult:
        return CheckResult(self._name, self.ok, detail, self._failure)


# ---------------------------------------------------------------------------
# flatness


def suite_flatness(seed: int,
                   trials: Optional[int] = None) -> List[CheckResult]:
    """d omega + omega wedge omega = 0 for linear and quadratic inputs,
    each checked as one curvature form (`MatrixForm.curvature`)."""
    count = 20 if trials is None else max(1, trials)
    quad_count = max(1, count // 4)
    combos = [(k, n) for k in (2, 3) for n in (2, 3, 4)]

    linear = _Check("flatness.linear")
    for i in range(count):
        k, n = combos[i % len(combos)]
        t = random_matrix_tuple(rng_for(seed, "flatness", "linear", i), n, k)
        om = maurer_cartan(t.pencil())
        if not linear.judge(om.curvature().is_zero,
                            f"trial {i} (k={k}, n={n})", t):
            break

    quadratic = _Check("flatness.quadratic")
    for i in range(quad_count):
        n = (2, 3)[i % 2]
        f = random_poly_matrix(
            rng_for(seed, "flatness", "quadratic", i), n, 2, degree=2)
        om = maurer_cartan(f)
        if not quadratic.judge(om.curvature().is_zero,
                               f"trial {i} (n={n})", f):
            break
    return [
        linear.result(f"{linear.count} pencils flat across k in {{2,3}}, "
                      "n in {2,3,4}"),
        quadratic.result(f"{quadratic.count} quadratic-entry matrices flat"),
    ]


# ---------------------------------------------------------------------------
# theorem29


def suite_transgression(seed: int,
                        trials: Optional[int] = None) -> List[CheckResult]:
    """The transgression identity and both of its sub-identities.

    For cyclic phi of arity a: (a/(a+1)) kappa(b phi) + d kappa(phi) = 0,
    with the permutation-block decomposition of kappa(b phi) and the
    cyclic-shift correction term checked separately on the same inputs.
    """
    per_cell = 2 if trials is None else max(1, trials // 6)
    main = _Check("theorem29.main")
    decomposition = _Check("theorem29.decomposition")
    correction = _Check("theorem29.correction")
    pairs = 0
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
            where = f"{label} arity {a}, n={n}"
            main.judge(kb * Fraction(a, a + 1) == -dk, where, t)
            decomposition.judge(kb == -dk - cor, where, t)
            correction.judge(cor == kb * Fraction(-1, a + 1), where, t)

    return [
        main.result(f"(a/(a+1)) kappa(b phi) + d kappa(phi) = 0 for "
                    f"{pairs} cochain/pencil pairs, arities 1-3"),
        decomposition.result("permutation-block decomposition of kappa(b phi) "
                             f"holds on all {pairs} pairs"),
        correction.result("cyclic-shift correction term matches on all "
                          f"{pairs} pairs"),
    ]


# ---------------------------------------------------------------------------
# jacobi-classic


def suite_jacobi_classic(seed: int,
                         trials: Optional[int] = None) -> List[CheckResult]:
    """tr(adj(f) d_i f) = d_i det f as polynomials, every variable."""
    count = 20 if trials is None else max(1, trials)
    check = _Check("jacobi.cross-multiplied")
    for i in range(count):
        k = (2, 3, 4)[i % 3]
        n = (2, 3)[i % 2]
        degree = 1 if i % 4 < 2 else 2
        f = random_poly_matrix(
            rng_for(seed, "jacobi-classic", i), n, k, degree=degree)
        adj = f.adjugate()
        det = f.det()
        v = next((v for v in range(1, n + 1)
                  if adj.trace(f.partial(v)) != det.partial(v)), None)
        if not check.judge(v is None,
                           f"trial {i} (k={k}, n={n}, variable {v})", f):
            break
    return [check.result(f"tr(adj(f) d_i f) = d_i det f for {check.count} "
                         "matrices, k up to 4")]


# ---------------------------------------------------------------------------
# parity


def suite_parity(seed: int,
                 trials: Optional[int] = None) -> List[CheckResult]:
    """Even trace powers of the connection form vanish identically."""
    per_combo = 2 if trials is None else max(1, trials // 4)
    combos = [(k, n) for k in (2, 3) for n in (4, 5)]
    check = _Check("parity.even-powers")
    for k, n in combos:
        for i in range(per_combo):
            t = random_matrix_tuple(
                rng_for(seed, "parity", k, n, i), n, k)
            f = t.pencil()
            m = next((m for m in (2, 4)
                      if not trace_power_form(f, m).is_zero), None)
            if not check.judge(m is None,
                               f"trial {i} (k={k}, n={n}, power {m})", t):
                break
        if not check.ok:
            break
    return [check.result(
        f"tr(omega^2) = 0 and tr(omega^4) = 0 for {check.count} pencils, "
        "k in {2,3}, n in {4,5}")]


# ---------------------------------------------------------------------------
# theorem33


def suite_cubic_trace(seed: int,
                      trials: Optional[int] = None) -> List[CheckResult]:
    """Structure of tr(omega^3) for four-matrix tuples.

    Exact division of the antisymmetrized resolvent traces by det with a
    zero residual, the degree of p, the factorization of the top-degree
    form through the coordinate-simplex form with its cross relations, and
    agreement of the two routes to tr(omega^3): the traced wedge power and
    the anchored trace-word sum.
    """
    k2_count = 100 if trials is None else max(1, trials)
    k3_count = max(1, k2_count // 5)
    results: List[CheckResult] = []

    division = _Check("theorem33.divisibility")
    for k, count, name, claim in (
            (2, k2_count, "theorem33.p-constant-k2",
             "p is a constant for {} tuples of 2x2 matrices"),
            (3, k3_count, "theorem33.p-quadratic-k3",
             "p is homogeneous of degree 2 for {} tuples of 3x3 matrices")):
        degree = _Check(name)
        for i in range(count):
            if not (degree.ok or division.ok):
                break
            t = random_matrix_tuple(rng_for(seed, "theorem33", f"k{k}", i),
                                    4, k)
            fact, p = cubic_trace_data(t)
            if division.ok:
                why = _division_failure(fact)
                division.judge(why is None, f"trial {i} (k={k}): {why}", t)
            if degree.ok:
                why = _p_degree_failure(p, k)
                degree.judge(why is None, f"trial {i} (k={k}): {why}", t)
        results.append(degree.result(claim.format(degree.count)))

    results.append(division.result(
        "every antisymmetrized resolvent trace divides exactly by det "
        f"({division.count} tuples)"))

    tops = [(k, random_matrix_tuple(rng_for(seed, "theorem33", "top", k),
                                    4, k))
            for k in (2, 3)]
    facts = [factorize_top_form(t.pencil()) for _, t in tops]
    top = _Check("theorem33.top-factorization")
    for (k, t), fact in zip(tops, facts):
        top.judge(fact.residual.is_zero, f"k={k}: nonzero residual", t)
    if top.ok:
        f = random_poly_matrix(
            rng_for(seed, "theorem33", "top-quadratic"), 4, 2, degree=2)
        top.judge(factorize_top_form(f).residual.is_zero,
                  "quadratic input: nonzero residual", f)
    results.append(top.result(
        "tr(omega^3) = q s with zero residual and cross relations, "
        "k in {2,3} plus one quadratic input"))
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
    the anchored top form that factorize_top_form split; the wedge route,
    omega ^ omega traced against omega, is computed here."""
    check = _Check("theorem33.trace-routes")
    nonzero = 0
    for k, t, anchored in tops:
        omega = maurer_cartan(t.pencil())
        if not check.judge(omega.wedge(omega).trace(omega) == anchored,
                           f"k={k}: anchored sum != wedge", t):
            break
        if not anchored.is_zero:
            nonzero += 1
    check.judge(nonzero > 0,
                "tr(omega^3) is 0 on every tuple: the check has no content")
    return check.result(f"tr(omega^3) by wedge = anchored sum, k in {{2,3}}; "
                        f"{nonzero} of {len(tops)} tuples nonzero")


# ---------------------------------------------------------------------------
# example35


def suite_entry_matrix(seed: int,
                       trials: Optional[int] = None) -> List[CheckResult]:
    """p equals the constant sign -1 (`calibrated_sign`) times the 4x4
    entry-matrix constant."""
    count = 100 if trials is None else max(1, trials)
    eps = calibrated_sign()
    check = _Check("example35.entry-matrix")
    for i in range(count):
        t = random_matrix_tuple(rng_for(seed, "example35", i), 4, 2)
        _, p = cubic_trace_data(t)
        why = _p_degree_failure(p, 2)
        if not check.judge(
                why is None
                and p.constant_value() == entry_matrix_constant(t) * eps,
                f"trial {i}" if why is None else f"trial {i}: {why}", t):
            break
    return [check.result(
        f"epsilon = {eps}; p = epsilon * C for {check.count} tuples of "
        "2x2 matrices")]


# ---------------------------------------------------------------------------
# tau


def suite_tau(seed: int,
              trials: Optional[int] = None) -> List[CheckResult]:
    """tau is multiplicative over functional products and lands in
    closed forms."""
    count = 3 if trials is None else max(1, trials)
    tw1, tw3 = TraceWord(1), TraceWord(3)
    pairs = [(tw1, tw1), (tw1, tw3), (tw3, tw1)]

    multiplicative = _Check("tau.multiplicative")
    for i in range(count):
        f1, f2 = pairs[i % len(pairs)]
        n = 4 if (f1.arity + f2.arity) >= 4 else 3
        t = random_matrix_tuple(rng_for(seed, "tau", "product", i), n, 2)
        f = t.pencil()
        lhs = tau(functional_product(f1, f2), f)
        rhs = tau(f1, f).wedge(tau(f2, f))
        if not multiplicative.judge(
                lhs == rhs, f"trial {i} (arities {f1.arity} and {f2.arity})",
                t):
            break

    closed = _Check("tau.closed")
    for n in (3, 4):
        t = random_matrix_tuple(rng_for(seed, "tau", "closed", n), n, 2)
        f = t.pencil()
        for functional in (tw1, tw3):
            if not closed.judge(
                    tau(functional, f).exterior_derivative().is_zero,
                    f"arity {functional.arity}, n={n}", t):
                break
        if not closed.ok:
            break
    return [
        multiplicative.result("tau(F1 x F2) = tau(F1) wedge tau(F2) for "
                              f"{multiplicative.count} pairs"),
        closed.result("d tau(F) = 0 for trace words of arity 1 and 3 on "
                      f"{closed.count} invariant inputs"),
    ]


# ---------------------------------------------------------------------------
# hyperplane


def suite_hyperplane(seed: int,
                     trials: Optional[int] = None) -> List[CheckResult]:
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
        tuples.append((f"trial {i}", random_diagonal_tuple(
            rng_for(seed, "hyperplane", i), n, k)))

    det = _Check("hyperplane.det-product")
    kappa = _Check("hyperplane.kappa-lines")
    decs = [hyperplane_decomposition(t) for _, t in tuples]
    for (label, t), dec in zip(tuples, decs):
        det.judge(dec.line_product == dec.det, label, t)
        kappa.judge(dec.kappa_forms == dec.coordinate_forms, label, t)
    det.judge(sorted(m for _, m in decs[0].multiplicities) == [1, 2],
              "pinned: wrong multiplicities", pinned)

    return [
        det.result("det = product of lines with grouped multiplicities "
                   f"for {len(tuples)} diagonal tuples"),
        kappa.result("kappa(coordinate functional) = d(ell)/ell for every "
                     f"line of {len(tuples)} tuples"),
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


def _algebra_failure(x: TorusElement, y: TorusElement,
                     z: TorusElement) -> Optional[str]:
    """Which algebra law fails first on x, y, z, or None."""
    xy = x * y
    if xy * z != x * (y * z):
        return "associativity fails"
    if xy.trace() != (y * x).trace():
        return "trace symmetry fails"
    for which in (1, 2):
        if xy.delta(which) != x.delta(which) * y + x * y.delta(which):
            return f"Leibniz fails for delta_{which}"
    if x.delta(1).delta(2) != x.delta(2).delta(1):
        return "derivations do not commute"
    return None


_EXACT_ORDERS = ((3, 1), (4, 1), (5, 2))


def torus_cocycle_checks(seed: int,
                         config: Optional[TorusConfig] = None
                         ) -> List[CheckResult]:
    """Cyclicity and vanishing coboundary for all four cocycles.

    Each check runs on the degree grid (`torus._grid_tuples`) plus 10
    seeded random degree tuples, once over the twist-free coefficient
    (`torus._TWIST_FREE`, the checks' only ring): every value is an
    integer times lambda^E with one E per tuple, so one run decides the
    identities at every twist, and terms with different exponents fail
    the tuple. The integer weights are affine in each free degree
    coordinate, so the grid's two values per coordinate decide them at
    every degree. One result per algebra order, each reading that run
    under its q and p'. Exact mode only; a numeric config raises
    ValueError. The result counts the tuples looked at up to the first
    failure.
    """
    configs = ([config] if config is not None
               else [TorusConfig.exact(q, p) for q, p in _EXACT_ORDERS])
    for cfg in configs:
        if cfg.mode != "exact":
            raise ValueError("exact mode required for spanning-set checks")
    runs = [(check, claim, which)
            for check, claim in (
                (cyclicity_check, "cyclicity fails for {} on degrees {}"),
                (coboundary_check,
                 "coboundary of {} does not vanish on degrees {}"))
            for which in ("phi1", "phi2", "psi1", "psi2")]
    bad: Optional[str] = None
    count = 0
    for check, claim, which in runs:
        checked, failure = check(which, seed=seed)
        count += checked
        if failure is not None:
            bad = claim.format(which, failure)
            break
    return [CheckResult(
        f"torus.cocycles.q{cfg.q}", bad is None,
        "cyclicity and vanishing coboundary for phi1, phi2, psi1, "
        f"psi2 on {count} monomial tuples (q={cfg.q}, "
        f"p'={cfg.p_prime})", bad) for cfg in configs]


def _content_pencil(config: TorusConfig) -> List[TorusElement]:
    """(1, U + V^-1, V + U^-1), the pencil of the factorization checks.

    Its entries reach both signs of both degrees, so phi_j(W1, W2) does
    not vanish by degree: at M = 2 and q in {3, 4, 5} it is z3 times a
    polynomial whose coefficients of the powers of t have no common zero,
    so it is nonzero wherever z3 is.
    """
    u, v = TorusElement.u, TorusElement.v
    return [TorusElement.one(config), u(config) + v(config, -1),
            v(config) + u(config, -1)]


def _factorization_check(name: str, where: str,
                         runs: List[Tuple[TorusConfig, list]]) -> CheckResult:
    """Both equalities of `torus.factorization_report` on the content
    pencil, for phi_1 and phi_2 at each point of each run (config, points).

    An instance is one point and one j. In exact mode it holds when both
    residuals are 0 and phi_j(W1, W2) != 0. In numeric mode each residual
    must be within its own rounding bound gamma_N K
    (`FactorizationSample.rounding_bounds`), and |phi_j(W1, W2)| must
    exceed both bounds of its j, so that it is no rounded zero; the line
    names the largest residual and the largest bound.
    """
    check = _Check(name)
    largest = top_bound = 0.0
    for config, points in runs:
        numeric = config.mode == "numeric"
        at = "" if numeric else f", q={config.q}"
        for sample in factorization_report(_content_pencil(config), points):
            residuals = sample.residuals()
            if numeric:
                residuals = [abs(r) for r in residuals]
                bounds = sample.rounding_bounds()
                largest = max([largest] + residuals)
                top_bound = max((top_bound,) + bounds)
            for j in (1, 2):
                pair = residuals[2 * j - 2:2 * j]
                content = sample.values[j - 1][0]
                label = (f"phi_{j} at z = "
                         f"({', '.join(map(str, sample.point))}){at}")
                if not numeric:
                    check.judge(not any(pair) and bool(content),
                                f"{label}: residuals {pair[0]}, {pair[1]}, "
                                f"phi_{j}(W1, W2) = {content}")
                    continue
                pair_bounds = bounds[2 * j - 2:2 * j]
                # not r <= b, so that a nan residual fails too
                over = [(r, b) for r, b in zip(pair, pair_bounds)
                        if not r <= b]
                if over:
                    check.judge(False, f"residual {over[0][0]:.3e} above its "
                                       f"rounding bound {over[0][1]:.3e} for "
                                       f"{label}")
                else:
                    bound = max(pair_bounds)
                    check.judge(abs(content) > bound,
                                f"|phi_{j}(W1, W2)| = {abs(content):.3e} is "
                                f"within the rounding bound {bound:.3e} of "
                                f"{label}")
    instances = 2 * sum(len(points) for _, points in runs)
    if runs[0][0].mode != "numeric":
        return check.result(
            f"{where}, M = {FACTORIZATION_ORDER}, q in {{3,4,5}}: both "
            f"equalities exact on {instances} instances, each with "
            "phi_j(W1, W2) != 0")
    return check.result(
        f"{where}, M = {FACTORIZATION_ORDER}: each residual within its "
        f"rounding bound gamma_{_ROUNDINGS} K (max {largest:.3e}, bounds up "
        f"to {top_bound:.3e}) on {instances} instances, each with "
        "|phi_j(W1, W2)| above its bounds")


# The pinned point of the factorization checks, in both modes.
_PINNED_POINT = (Scalar(1), Scalar(Fraction(1, 2)), Scalar(0, Fraction(1, 4)))


def _factorization_checks(pinned: List[Tuple[TorusConfig, list]],
                          sampled: List[Tuple[TorusConfig, list]]
                          ) -> List[CheckResult]:
    pencil = "A = (1, U + V^-1, V + U^-1)"
    count = len(sampled[0][1])
    return [
        _factorization_check("torus.factorization.pinned",
                             f"{pencil} at z = (1, 1/2, i/4)", pinned),
        _factorization_check("torus.factorization.sampled",
                             f"{pencil} at {count} seeded points", sampled),
    ]


def torus_factorization_checks(seed: int, trials: Optional[int] = None,
                               theta: Optional[float] = None
                               ) -> List[CheckResult]:
    """The factorization equalities in numeric mode, at the pinned point
    z = (1, 1/2, i/4) and at seeded points, each residual judged against
    its own rounding bound gamma_N K (`_factorization_check`).

    trials below 10 is raised to 10. The sampled points have z1 = 1 and
    real and imaginary parts of z2, z3 in [-0.5, 0.5]; the pinned point
    and most sampled ones lie outside the region where the Neumann series
    converges, ||z2 A2 + z3 A3||_1 < |z1|, which the equalities do not
    need.
    """
    sample_count = 10 if trials is None else max(10, trials)
    pinned_cfg = TorusConfig.numeric(0.3183098861837907 if theta is None
                                     else theta)
    sampled_cfg = TorusConfig.numeric(0.37 if theta is None else theta)
    rng = rng_for(seed, "torus", "factor-points")
    points = [(1.0,) + tuple(complex(rng.uniform(-0.5, 0.5),
                                     rng.uniform(-0.5, 0.5))
                             for _ in range(2))
              for _ in range(sample_count)]
    pinned = tuple(c.to_complex() for c in _PINNED_POINT)
    return _factorization_checks([(pinned_cfg, [pinned])],
                                 [(sampled_cfg, points)])


def _exact_factorization_checks(seed: int,
                                trials: Optional[int]) -> List[CheckResult]:
    """The factorization equalities in exact mode at the orders of
    `torus.algebra`: the pinned point and max(3, trials) seeded
    Gaussian-rational points, whose coordinates have real and imaginary
    parts in {-1/2, -2/5, ..., 1/2}, with Re z3 != 0 so that z3 != 0."""
    rng = rng_for(seed, "torus", "factor-points-exact")
    tenths = [Fraction(k, 10) for k in range(-5, 6)]
    points = [(Scalar(1), Scalar(rng.choice(tenths), rng.choice(tenths)),
               Scalar(rng.choice([x for x in tenths if x]),
                      rng.choice(tenths)))
              for _ in range(3 if trials is None else max(3, trials))]
    configs = [TorusConfig.exact(q, p) for q, p in _EXACT_ORDERS]
    return _factorization_checks([(cfg, [_PINNED_POINT]) for cfg in configs],
                                 [(cfg, points) for cfg in configs])


def suite_torus(seed: int,
                trials: Optional[int] = None) -> List[CheckResult]:
    """Exact twisted-algebra laws, the four cocycles, and the two
    factorization equalities of the truncated resolvent, exactly at the
    same orders (`_exact_factorization_checks`)."""
    algebra = _Check("torus.algebra")
    for q, p_prime in _EXACT_ORDERS:
        cfg = TorusConfig.exact(q, p_prime)
        rng = rng_for(seed, "torus", "algebra", q)
        for i in range(12):
            x, y, z = (_random_torus_element(rng, cfg) for _ in range(3))
            why = _algebra_failure(x, y, z)
            if not algebra.judge(why is None, f"{why} at q={q}, trial {i}"):
                break
        if not algebra.ok:
            break

    results = [algebra.result(
        "associativity, trace symmetry, Leibniz, commuting derivations "
        f"on {algebra.count} exact triples, q in {{3,4,5}}")]
    results.extend(torus_cocycle_checks(seed))
    results.extend(_exact_factorization_checks(seed, trials))
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


def run_suite(name: str, seed: int,
              trials: Optional[int] = None) -> SuiteReport:
    if name == "all":
        results: List[CheckResult] = []
        for key in SUITES:
            results.extend(SUITES[key](seed, trials=trials))
        return SuiteReport("all", seed, tuple(results))
    if name not in SUITES:
        known = ", ".join(SUITE_NAMES)
        raise ValueError(f"unknown suite {name!r}; expected one of {known}")
    return SuiteReport(name, seed, tuple(SUITES[name](seed, trials=trials)))
