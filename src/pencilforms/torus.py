"""Twisted Laurent elements over a two-torus and their cyclic cocycles.

Elements are finitely supported sums sum a_{m,n} U^m V^n with the relation
UV = lambda VU.  Two coefficient modes: exact, over Q(i)[t]/(t^q - 1) with
lambda = t^p, and numeric, over complex doubles with lambda = exp(2*pi*i*theta).
The module also evaluates the degree-one and degree-two cyclic cocycles built
from the trace and the torus derivations, and checks the top-form
factorization numerically through a truncated Neumann resolvent.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .cochains import Cochain, FunctionalCochain
from .ring import CycloElement, Scalar

Degree = Tuple[int, int]


class TorusConfig:
    """Mode tag plus the twist parameter.

    Exact mode stores q and p with lambda = t^p in Q(i)[t]/(t^q - 1); numeric
    mode stores theta in (0, 1] with lambda = exp(2*pi*i*theta).
    """

    __slots__ = ("mode", "q", "p_prime", "theta", "_lam_cache")

    def __init__(self, mode: str, q: Optional[int] = None,
                 p_prime: Optional[int] = None,
                 theta: Optional[float] = None):
        self._lam_cache: Dict[int, object] = {}
        if mode == "exact":
            if q is None or p_prime is None:
                raise ValueError("exact mode needs q and p_prime")
            if q < 1:
                raise ValueError("order q must be >= 1")
            self.q = int(q)
            self.p_prime = int(p_prime) % self.q
            self.theta = None
        elif mode == "numeric":
            if theta is None:
                raise ValueError("numeric mode needs theta")
            if not 0 < theta <= 1:
                raise ValueError("theta must lie in (0, 1]")
            self.q = None
            self.p_prime = None
            self.theta = float(theta)
        else:
            raise ValueError(f"unknown mode: {mode!r}")
        self.mode = mode

    @classmethod
    def exact(cls, q: int, p_prime: int) -> "TorusConfig":
        return cls("exact", q=q, p_prime=p_prime)

    @classmethod
    def numeric(cls, theta: float) -> "TorusConfig":
        return cls("numeric", theta=theta)

    def lambda_power(self, exponent: int):
        """lambda^exponent in the coefficient ring of this mode."""
        if self.mode == "exact":
            key = (exponent * self.p_prime) % self.q
            cached = self._lam_cache.get(key)
            if cached is None:
                cached = CycloElement.root(self.q, key)
                self._lam_cache[key] = cached
            return cached
        cached = self._lam_cache.get(exponent)
        if cached is None:
            cached = cmath.exp(2j * cmath.pi * self.theta * exponent)
            self._lam_cache[exponent] = cached
        return cached

    def zero_coeff(self):
        if self.mode == "exact":
            return CycloElement.zero(self.q)
        return 0j

    def one_coeff(self):
        if self.mode == "exact":
            return CycloElement.one(self.q)
        return 1 + 0j

    def coerce(self, value):
        """Coerce a host value into this mode's coefficient ring."""
        if self.mode == "exact":
            if isinstance(value, CycloElement):
                if value.q != self.q:
                    raise ValueError(f"mixed orders: {value.q} vs {self.q}")
                return value
            if isinstance(value, (Scalar, int, Fraction)):
                return CycloElement.from_scalar(self.q, value)
            raise TypeError(f"cannot use {type(value).__name__} as an exact "
                            "torus coefficient")
        if isinstance(value, (int, float, complex, Fraction)):
            return complex(value)
        raise TypeError(f"cannot use {type(value).__name__} as a numeric "
                        "torus coefficient")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusConfig):
            return NotImplemented
        return (self.mode, self.q, self.p_prime, self.theta) == \
            (other.mode, other.q, other.p_prime, other.theta)

    def __hash__(self) -> int:
        return hash((self.mode, self.q, self.p_prime, self.theta))

    def __repr__(self) -> str:
        if self.mode == "exact":
            return f"TorusConfig.exact(q={self.q}, p_prime={self.p_prime})"
        return f"TorusConfig.numeric(theta={self.theta})"


class TorusElement:
    """Finitely supported map (m, n) -> coefficient, read as sum a U^m V^n."""

    __slots__ = ("config", "coeffs")

    def __init__(self, config: TorusConfig, coeffs: Dict[Degree, object]):
        coerce = config.coerce
        self.config = config
        self.coeffs = TorusElement._make(
            config, (((int(m), int(n)), coerce(value))
                     for (m, n), value in coeffs.items())).coeffs

    @classmethod
    def _make(cls, config: TorusConfig, items) -> "TorusElement":
        """Trusted constructor: (degree, value) pairs already in the ring.

        Both coefficient rings are falsy exactly at zero. Zeros are dropped
        in insertion order, which fixes the order of later float sums.
        """
        self = object.__new__(cls)
        self.config = config
        self.coeffs = {key: value for key, value in items if value}
        return self

    @classmethod
    def zero(cls, config: TorusConfig) -> "TorusElement":
        return cls(config, {})

    @classmethod
    def one(cls, config: TorusConfig) -> "TorusElement":
        return cls(config, {(0, 0): config.one_coeff()})

    @classmethod
    def monomial(cls, config: TorusConfig, m: int, n: int,
                 coeff=1) -> "TorusElement":
        return cls(config, {(m, n): coeff})

    @classmethod
    def u(cls, config: TorusConfig, power: int = 1) -> "TorusElement":
        return cls.monomial(config, power, 0)

    @classmethod
    def v(cls, config: TorusConfig, power: int = 1) -> "TorusElement":
        return cls.monomial(config, 0, power)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _match(self, other: "TorusElement") -> None:
        if self.config is not other.config and self.config != other.config:
            raise ValueError("torus elements carry different configurations")

    def __add__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        self._match(other)
        out = dict(self.coeffs)
        for key, value in other.coeffs.items():
            out[key] = out[key] + value if key in out else value
        return TorusElement._make(self.config, out.items())

    def __sub__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "TorusElement":
        return TorusElement._make(self.config,
                                  ((key, -value)
                                   for key, value in self.coeffs.items()))

    def __mul__(self, other):
        if isinstance(other, TorusElement):
            self._match(other)
            config = self.config
            lambda_power = config.lambda_power
            out: Dict[Degree, object] = {}
            right = other.coeffs.items()
            for (a, b), ca in self.coeffs.items():
                for (c, d), cb in right:
                    # (U^a V^b)(U^c V^d) = lambda^(-b c) U^(a+c) V^(b+d)
                    key = (a + c, b + d)
                    term = ca * cb * lambda_power(-b * c)
                    out[key] = out[key] + term if key in out else term
            return TorusElement._make(config, out.items())
        try:
            scale = self.config.coerce(other)
        except TypeError:
            return NotImplemented
        return TorusElement._make(self.config,
                                  ((key, value * scale)
                                   for key, value in self.coeffs.items()))

    def __rmul__(self, other):
        if isinstance(other, TorusElement):
            return NotImplemented
        # scalar coefficients commute with everything
        return self.__mul__(other)

    def trace(self):
        """Coefficient at (0, 0)."""
        value = self.coeffs.get((0, 0))
        return self.config.zero_coeff() if value is None else value

    def delta(self, which: int) -> "TorusElement":
        """delta_1 scales a_{m,n} by m, delta_2 by n."""
        if which not in (1, 2):
            raise ValueError("derivation index must be 1 or 2")
        pos = which - 1
        return TorusElement._make(self.config,
                                  ((key, value * key[pos])
                                   for key, value in self.coeffs.items()))

    def l1_norm(self) -> float:
        if self.config.mode == "exact":
            return sum(abs(value.to_complex()) for value in self.coeffs.values())
        return sum(abs(value) for value in self.coeffs.values())

    def degree_radius(self) -> int:
        """Largest max(|m|, |n|) over the support; 0 for the zero element."""
        if not self.coeffs:
            return 0
        return max(max(abs(m), abs(n)) for m, n in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self.config == other.config and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.config, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        return f"TorusElement('{format_element(self)}')"


def trace_of_product(x: TorusElement, y: TorusElement):
    """tr(x y) without forming the product.

    Only degree pairs (a, b), (-a, -b) reach the trace, each with the twist
    lambda^(a b): tr(x y) = sum x_{a,b} y_{-a,-b} lambda^(a b).
    """
    x._match(y)
    config = x.config
    if len(y.coeffs) < len(x.coeffs):
        x, y = y, x
    total = config.zero_coeff()
    for (a, b), cx in x.coeffs.items():
        cy = y.coeffs.get((-a, -b))
        if cy is not None:
            total = total + cx * cy * config.lambda_power(a * b)
    return total


# ---------------------------------------------------------------------------
# cyclic cocycles


def phi_cochain(which: int) -> FunctionalCochain:
    """phi_j(x0, x1) = tr(x0 * delta_j(x1)) for j in {1, 2}."""
    if which not in (1, 2):
        raise ValueError("derivation index must be 1 or 2")

    def fn(args):
        return trace_of_product(args[0], args[1].delta(which))

    return FunctionalCochain(2, fn, k=None, label=f"phi{which}")


def psi1_cochain() -> FunctionalCochain:
    """psi_1(x0, x1, x2) = tr(x0 x1 x2)."""

    def fn(args):
        return (args[0] * args[1] * args[2]).trace()

    return FunctionalCochain(3, fn, k=None, label="psi1")


def psi2_cochain() -> FunctionalCochain:
    """psi_2(x0, x1, x2) = tr(x0 (d1(x1) d2(x2) - d2(x1) d1(x2)))."""

    def fn(args):
        x0, x1, x2 = args
        inner = x1.delta(1) * x2.delta(2) - x1.delta(2) * x2.delta(1)
        return trace_of_product(x0, inner)

    return FunctionalCochain(3, fn, k=None, label="psi2")


_COCYCLES: Dict[str, Callable[[], FunctionalCochain]] = {
    "phi1": lambda: phi_cochain(1),
    "phi2": lambda: phi_cochain(2),
    "psi1": psi1_cochain,
    "psi2": psi2_cochain,
}


def cocycle(which: str) -> FunctionalCochain:
    if which not in _COCYCLES:
        raise ValueError(f"unknown cocycle {which!r}; expected one of "
                         f"{sorted(_COCYCLES)}")
    return _COCYCLES[which]()


def torus_cocycle(which: str, args: Sequence[TorusElement]):
    """Evaluate phi1, phi2, psi1, or psi2 on a tuple of torus elements."""
    return cocycle(which)(list(args))


# ---------------------------------------------------------------------------
# spanning-set identity checks (exact mode)
#
# Every cocycle here is built from the trace, so its value on a monomial
# tuple vanishes unless the degrees sum to zero.  Both sides of the
# cyclicity equation, and every term of the coboundary, share a tuple's
# total degree, so zero-sum tuples carry the entire content of the checks.


def _box(radius: int) -> List[Degree]:
    span = range(-radius, radius + 1)
    return [(m, n) for m in span for n in span]


def _zero_sum_tuples(radius: int, arity: int) -> Iterator[Tuple[Degree, ...]]:
    """Degree tuples inside the box whose components sum to zero.

    The first slot is solved from the rest, so the enumeration is complete
    for the box once the dependent slot also lands inside it.
    """
    from itertools import product

    for rest in product(_box(radius), repeat=arity - 1):
        m0 = -sum(d[0] for d in rest)
        n0 = -sum(d[1] for d in rest)
        if abs(m0) <= radius and abs(n0) <= radius:
            yield ((m0, n0),) + rest


def _monomial_tuple(config: TorusConfig,
                    degrees: Sequence[Degree]) -> List[TorusElement]:
    return [TorusElement.monomial(config, m, n) for m, n in degrees]


def _random_degree_tuple(rng, radius: int, arity: int) -> Tuple[Degree, ...]:
    return tuple((rng.randrange(-radius, radius + 1),
                  rng.randrange(-radius, radius + 1)) for _ in range(arity))


def cyclicity_check(which: str, config: TorusConfig, radius: int = 3,
                    samples: int = 25, seed: int = 0) -> int:
    """Verify phi(x_0..x_{a-1}) = (-1)^(a-1) phi(x_{a-1}, x_0, ..) exactly.

    Runs over every zero-sum monomial tuple in the box plus seeded random
    tuples (which exercise the trivially-zero off-grading cases).  Returns
    the number of tuples checked; raises ValueError on the first failure.
    """
    if config.mode != "exact":
        raise ValueError("exact mode required for spanning-set checks")
    phi = cocycle(which)
    a = phi.arity
    sign = -1 if a % 2 == 0 else 1
    checked = 0
    for degrees in _tuples_with_samples(radius, a, samples, seed, which):
        args = _monomial_tuple(config, degrees)
        rotated = [args[-1]] + args[:-1]
        if phi(args) != sign * phi(rotated):
            raise ValueError(f"cyclicity fails for {which} on degrees "
                             f"{degrees}")
        checked += 1
    return checked


def coboundary_check(which: str, config: TorusConfig, radius: int = 2,
                     samples: int = 100, seed: int = 0) -> int:
    """Verify (b phi)(x_0..x_a) = 0 exactly on spanning monomial tuples.

    Zero-sum tuples inside the box are enumerated completely; `samples`
    seeded random tuples from the radius-3 box are added on top.  Returns
    the number of tuples checked; raises ValueError on the first failure.
    """
    if config.mode != "exact":
        raise ValueError("exact mode required for spanning-set checks")
    phi = cocycle(which)
    b_phi = phi.coboundary()
    zero = config.zero_coeff()
    checked = 0
    for degrees in _tuples_with_samples(radius, b_phi.arity, samples, seed,
                                        which):
        args = _monomial_tuple(config, degrees)
        if b_phi(args) != zero:
            raise ValueError(f"coboundary of {which} does not vanish on "
                             f"degrees {degrees}")
        checked += 1
    return checked


def _tuples_with_samples(radius: int, arity: int, samples: int, seed: int,
                         tag: str) -> Iterator[Tuple[Degree, ...]]:
    yield from _zero_sum_tuples(radius, arity)
    if samples > 0:
        from .sampling import rng_for

        rng = rng_for(seed, "torus-span", tag, arity)
        for _ in range(samples):
            yield _random_degree_tuple(rng, 3, arity)


# ---------------------------------------------------------------------------
# truncated Neumann resolvent (numeric mode)


def _neumann_parts(mats: Sequence[TorusElement],
                   z: Sequence[complex]) -> Tuple[TorusElement, float, complex]:
    if len(mats) != 3 or len(z) != 3:
        raise ValueError("expected three elements and a three-component point")
    config = mats[0].config
    if config.mode != "numeric":
        raise ValueError("numeric mode required for resolvent computations")
    for x in mats[1:]:
        if x.config != config:
            raise ValueError("torus elements carry different configurations")
    if mats[0] != TorusElement.one(config):
        raise ValueError("the first element of the pencil must be 1")
    z1 = complex(z[0])
    if z1 == 0:
        raise ValueError("Neumann series divergent at this point")
    s = mats[1] * complex(z[1]) + mats[2] * complex(z[2])
    rho = s.l1_norm() / abs(z1)
    return s, rho, z1


def neumann_rho(mats: Sequence[TorusElement], z: Sequence[complex]) -> float:
    """Contraction ratio ||z2 A2 + z3 A3||_1 / |z1| of the series."""
    return _neumann_parts(mats, z)[1]


def neumann_tail_bound(mats: Sequence[TorusElement], z: Sequence[complex],
                       order: int) -> float:
    """l1 bound on the truncation error: rho^(M+1) / ((1 - rho) |z1|)."""
    _, rho, z1 = _neumann_parts(mats, z)
    if rho >= 1:
        raise ValueError("Neumann series divergent at this point")
    return rho ** (order + 1) / ((1 - rho) * abs(z1))


def neumann_resolvent(mats: Sequence[TorusElement], z: Sequence[complex],
                      order: int) -> TorusElement:
    """Truncated inverse z1^-1 sum_{t<=M} (-(z2 A2 + z3 A3)/z1)^t."""
    if order < 1:
        raise ValueError("order must be >= 1")
    s, rho, z1 = _neumann_parts(mats, z)
    if rho >= 1:
        raise ValueError("Neumann series divergent at this point")
    step = s * (-1 / z1)
    acc = TorusElement.one(mats[0].config)
    power = acc
    for _ in range(order):
        power = power * step
        acc = acc + power
    return acc * (1 / z1)


# ---------------------------------------------------------------------------
# numeric factorization report


@dataclass
class FactorizationSample:
    """One sample point: q values, residuals, and the propagated bound."""

    point: Tuple[complex, complex, complex]
    rho: float
    q_values: Tuple[Optional[complex], Optional[complex]]
    residuals: Tuple[float, float, float, float]
    propagated_bounds: Tuple[float, float, float, float]
    within_tol: bool


@dataclass
class FactorizationReport:
    """Aggregate over sample points; `skipped` lists divergent ones."""

    samples: List[FactorizationSample]
    skipped: List[Tuple[Tuple[complex, complex, complex], str]]
    max_residual: float
    tolerance: float
    order: int
    all_within: bool


def factorization_report(mats: Sequence[TorusElement],
                         points: Sequence[Sequence[complex]],
                         order: int = 40,
                         tol: float = 1e-10) -> FactorizationReport:
    """Check the two linear relations tying phi_j values on W_i = R A_i.

    At each convergent sample the truncated resolvent R gives W_1, W_2, W_3
    and the residuals |z1 phi_j(W1,W2) - z3 phi_j(W2,W3)| and
    |z2 phi_j(W1,W2) + z3 phi_j(W1,W3)| are compared against `tol`, which
    must dominate the truncation error propagated through phi_j.  Reports
    q_j = 2 phi_j(W1,W2)/z3 for each sample.  Divergent samples are skipped;
    if every sample diverges a ValueError is raised.
    """
    if not points:
        raise ValueError("at least one sample point is required")
    phis = (phi_cochain(1), phi_cochain(2))
    samples: List[FactorizationSample] = []
    skipped: List[Tuple[Tuple[complex, complex, complex], str]] = []
    max_residual = 0.0
    for raw in points:
        point = tuple(complex(c) for c in raw)
        try:
            s, rho, z1 = _neumann_parts(mats, point)
        except ValueError as exc:
            if "divergent" not in str(exc):
                raise
            skipped.append((point, str(exc)))
            continue
        if rho >= 1:
            skipped.append((point, "Neumann series divergent at this point"))
            continue
        resolvent = neumann_resolvent(mats, point, order)
        w = [resolvent * a for a in mats]
        az1 = abs(z1)

        # l1 tails of the dropped series terms: sum rho^t and sum t rho^t
        tail0 = rho ** (order + 1) / (1 - rho)
        tail1 = ((order + 2) * rho ** (order + 1)
                 - (order + 1) * rho ** (order + 2)) / (1 - rho) ** 2
        sum_t = tail1 - tail0
        r_s = s.degree_radius()
        a_norms = [x.l1_norm() for x in mats]
        radii = [x.degree_radius() for x in mats]
        w_norms = [x.l1_norm() for x in w]

        def err_phi(j: int, x: int, y: int) -> float:
            # |phi_j(W_x, W_y) - phi_j(What_x, What_y)| with What = R A;
            # the dropped term of degree t carries monomials of height
            # <= r_s t + r_y, so delta_j costs that factor per term.
            e_ax = tail0 / az1 * a_norms[x]
            d_ey = a_norms[y] / az1 * (r_s * sum_t + radii[y] * tail0)
            dw_y = w[y].delta(j).l1_norm()
            return e_ax * dw_y + (w_norms[x] + e_ax) * d_ey

        residuals = []
        bounds = []
        q_values = []
        for j, phi in zip((1, 2), phis):
            v12 = phi(w[0], w[1])
            v23 = phi(w[1], w[2])
            v13 = phi(w[0], w[2])
            residuals.append(abs(point[0] * v12 - point[2] * v23))
            residuals.append(abs(point[1] * v12 + point[2] * v13))
            bounds.append(abs(point[0]) * err_phi(j, 0, 1)
                          + abs(point[2]) * err_phi(j, 1, 2))
            bounds.append(abs(point[1]) * err_phi(j, 0, 1)
                          + abs(point[2]) * err_phi(j, 0, 2))
            q_values.append(2 * v12 / point[2] if point[2] != 0 else None)
        worst_bound = max(bounds)
        if tol < worst_bound:
            raise ValueError(f"tolerance {tol} is below the propagated "
                             f"truncation bound {worst_bound} at {point}")
        within = all(r <= tol for r in residuals)
        max_residual = max(max_residual, *residuals)
        samples.append(FactorizationSample(
            point=point, rho=rho, q_values=tuple(q_values),
            residuals=tuple(residuals), propagated_bounds=tuple(bounds),
            within_tol=within))
    if not samples:
        raise ValueError("Neumann series divergent at every sample point")
    return FactorizationReport(
        samples=samples, skipped=skipped, max_residual=max_residual,
        tolerance=tol, order=order,
        all_within=all(s.within_tol for s in samples))


# ---------------------------------------------------------------------------
# text format: terms "(coefficient)*U^m*V^n" joined by " + "


def format_element(x: TorusElement) -> str:
    if x.is_zero:
        return "0"
    parts = []
    for (m, n) in sorted(x.coeffs):
        value = x.coeffs[(m, n)]
        if x.config.mode == "exact":
            body = str(value)
        else:
            sign = "+" if value.imag >= 0 else "-"
            body = f"{value.real!r}{sign}{abs(value.imag)!r}j"
        parts.append(f"({body})*U^{m}*V^{n}")
    return " + ".join(parts)
