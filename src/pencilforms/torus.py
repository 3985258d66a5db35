"""Twisted Laurent elements over a two-torus and their cyclic cocycles.

Elements are finitely supported sums sum a_{m,n} U^m V^n with the relation
UV = lambda VU.  Two coefficient modes: exact, over Q(i)[t]/(t^q - 1) with
lambda = t^p, and numeric, over complex doubles with lambda = exp(2*pi*i*theta).
The module also evaluates the degree-one and degree-two cyclic cocycles built
from the trace and the torus derivations on spanning monomial tuples, and
computes the residuals of the top-form factorization numerically through a
truncated Neumann resolvent, with their propagated truncation bounds. The
calls return what they found: the first monomial tuple where a cocycle
identity fails, or the residuals and bounds at each point. The torus suite
judges them.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .cochains import FunctionalCochain
from .ring import CycloElement, Scalar
from .sampling import rng_for

Degree = Tuple[int, int]

# Largest exact-mode order q. Coefficients keep only their nonzero terms,
# so the monomial cocycle checks cost the same at every q: `torus --check
# cocycles` took 0.7 s at q = 64 (1.1 s before one-term coefficients took
# one step each), median of 5 runs on a 2 vCPU host with Python 3.11.7.
MAX_ORDER = 64


def _numeric_twist(lambda_power: Callable) -> Callable:
    def twisted_product(x, y, power: int, scale: Optional[int] = None):
        value = x * y if scale is None else x * y * scale
        return value * lambda_power(power)

    return twisted_product


class TorusConfig:
    """Mode tag plus the twist parameter.

    Exact mode stores q and p with lambda = t^p in Q(i)[t]/(t^q - 1); numeric
    mode stores theta in (0, 1] with lambda = exp(2*pi*i*theta). q and p
    must be integers with 1 <= q <= MAX_ORDER, and theta an int or float;
    bools are refused, so JSON `true` is not read as 1.

    `twisted_product(x, y, power, scale)` is x * y * scale * g^power for
    the generator g of the twist, picked once per mode here. In exact mode
    g = t and the step is `CycloElement.mul_rotate` itself, one rotated
    product. In numeric mode g = lambda, and the product runs left to
    right and skips a missing scale, since a factor 1 can flip the sign of
    a zero part. lambda^e is g^(e * twist_unit): twist_unit is p' in exact
    mode and 1 in numeric mode.
    """

    __slots__ = ("mode", "q", "p_prime", "theta", "_lam_cache",
                 "twisted_product", "twist_unit")

    def __init__(self, mode: str, q: Optional[int] = None,
                 p_prime: Optional[int] = None,
                 theta: Optional[float] = None):
        self._lam_cache: Dict[int, object] = {}
        if mode == "exact":
            if q is None or p_prime is None:
                raise ValueError("exact mode needs q and p_prime")
            for name, value in (("q", q), ("p_prime", p_prime)):
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValueError(f"{name} must be an integer, "
                                     f"got {value!r}")
            if not 1 <= q <= MAX_ORDER:
                raise ValueError(f"order q must lie in 1..{MAX_ORDER}, "
                                 f"got {q}")
            self.q = q
            self.p_prime = p_prime % q
            self.theta = None
            self.twisted_product = CycloElement.mul_rotate
            self.twist_unit = self.p_prime
        elif mode == "numeric":
            if theta is None:
                raise ValueError("numeric mode needs theta")
            if isinstance(theta, bool) or not isinstance(theta, (int, float)):
                raise ValueError(f"theta must be a number, got {theta!r}")
            if not 0 < theta <= 1:
                raise ValueError("theta must lie in (0, 1]")
            self.q = None
            self.p_prime = None
            self.theta = float(theta)
            self.twisted_product = _numeric_twist(self.lambda_power)
            self.twist_unit = 1
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
        return cls._of(config, {key: value for key, value in items if value})

    @classmethod
    def _of(cls, config: TorusConfig,
            coeffs: Dict[Degree, object]) -> "TorusElement":
        """Trusted constructor: a dict that already holds no zero."""
        self = object.__new__(cls)
        self.config = config
        self.coeffs = coeffs
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
        self._match(other)
        out = dict(self.coeffs)
        for key, value in other.coeffs.items():
            out[key] = out[key] - value if key in out else -value
        return TorusElement._make(self.config, out.items())

    def __neg__(self) -> "TorusElement":
        return TorusElement._make(self.config,
                                  ((key, -value)
                                   for key, value in self.coeffs.items()))

    def __mul__(self, other):
        """Product by (U^a V^b)(U^c V^d) = lambda^(-b c) U^(a+c) V^(b+d).

        Fast paths: a zero operand gives zero at once, and a monomial times
        a monomial is one coefficient product, twisted by lambda^(-b c)
        (a rotation in exact mode), with no loop over term pairs. Otherwise
        the twists of a left row of V-degree b are looked up once per
        distinct b, and the term pairs are summed in left-major order; the
        sums are the result itself unless one of them cancelled to zero.
        """
        if isinstance(other, TorusElement):
            config = self.config
            if other.config is not config:
                self._match(other)
            left = self.coeffs
            right = other.coeffs
            if not left or not right:
                return TorusElement._of(config, {})
            if len(left) == 1 and len(right) == 1:
                ((a, b), ca), = left.items()
                ((c, d), cb), = right.items()
                value = config.twisted_product(ca, cb,
                                               -b * c * config.twist_unit)
                return TorusElement._of(
                    config, {(a + c, b + d): value} if value else {})
            lambda_power = config.lambda_power
            out: Dict[Degree, object] = {}
            get = out.get
            rows: Dict[int, list] = {}
            for (a, b), ca in left.items():
                row = rows.get(b)
                if row is None:
                    row = rows[b] = [(c, b + d, cb, lambda_power(-b * c))
                                     for (c, d), cb in right.items()]
                for c, bd, cb, lam in row:
                    key = (a + c, bd)
                    term = ca * cb * lam
                    prev = get(key)
                    out[key] = term if prev is None else prev + term
            if all(out.values()):
                return TorusElement._of(config, out)
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

    def trace(self, other: Optional["TorusElement"] = None):
        """Coefficient at (0, 0) of self, or of self * other without
        forming the product.

        Only degree pairs (a, b), (-a, -b) reach the trace of a product,
        each with the twist lambda^(a b):
        tr(x y) = sum x_{a,b} y_{-a,-b} lambda^(a b).
        The twist is a rotation in exact mode, and the sum starts from the
        first matched pair; zero is built only when no pair matches. A
        one-term operand is one lookup in the other.
        """
        config = self.config
        if other is None:
            value = self.coeffs.get((0, 0))
            return config.zero_coeff() if value is None else value
        if other.config is not config:
            self._match(other)
        x, y = (other.coeffs, self.coeffs) \
            if len(other.coeffs) < len(self.coeffs) \
            else (self.coeffs, other.coeffs)
        if len(x) == 1:
            ((a, b), cx), = x.items()
            cy = y.get((-a, -b))
            if cy is None:
                return config.zero_coeff()
            return config.twisted_product(cx, cy, a * b * config.twist_unit)
        twisted_product = config.twisted_product
        unit = config.twist_unit
        total = None
        for (a, b), cx in x.items():
            cy = y.get((-a, -b))
            if cy is not None:
                term = twisted_product(cx, cy, a * b * unit)
                total = term if total is None else total + term
        return config.zero_coeff() if total is None else total

    def _delta_commutator(self, other: "TorusElement") -> "TorusElement":
        """delta_1(self) delta_2(other) - delta_2(self) delta_1(other).

        Two monomials (a, b), (c, d) give the one term
        (a d - b c) x_{a,b} y_{c,d} lambda^(-b c) at (a + c, b + d), or
        none at weight 0, in one step; anything else takes the definition.
        """
        config = self.config
        if other.config is not config:
            self._match(other)
        if len(self.coeffs) == 1 and len(other.coeffs) == 1:
            ((a, b), ca), = self.coeffs.items()
            ((c, d), cb), = other.coeffs.items()
            weight = a * d - b * c
            if not weight:
                return TorusElement._of(config, {})
            value = config.twisted_product(ca, cb, -b * c * config.twist_unit,
                                           weight)
            return TorusElement._of(
                config, {(a + c, b + d): value} if value else {})
        return (self.delta(1) * other.delta(2)
                - self.delta(2) * other.delta(1))

    def delta(self, which: int) -> "TorusElement":
        """delta_1 scales a_{m,n} by m, delta_2 by n.

        Terms whose scaling degree is 0 are skipped, not multiplied by 0,
        so a monomial costs at most one scaling.
        """
        if which not in (1, 2):
            raise ValueError("derivation index must be 1 or 2")
        pos = which - 1
        return TorusElement._of(self.config,
                                {key: value * key[pos]
                                 for key, value in self.coeffs.items()
                                 if key[pos]})

    def l1_norm(self) -> float:
        """Sum of the coefficient moduli (numeric mode)."""
        return sum(map(abs, self.coeffs.values()))

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


# ---------------------------------------------------------------------------
# cyclic cocycles


def phi_cochain(which: int) -> FunctionalCochain:
    """phi_j(x0, x1) = tr(x0 * delta_j(x1)) for j in {1, 2}."""
    if which not in (1, 2):
        raise ValueError("derivation index must be 1 or 2")

    def fn(args):
        return args[0].trace(args[1].delta(which))

    return FunctionalCochain(2, fn, label=f"phi{which}")


def psi1_cochain() -> FunctionalCochain:
    """psi_1(x0, x1, x2) = tr(x0 x1 x2)."""

    def fn(args):
        return (args[0] * args[1]).trace(args[2])

    return FunctionalCochain(3, fn, label="psi1")


def psi2_cochain() -> FunctionalCochain:
    """psi_2(x0, x1, x2) = tr(x0 (d1(x1) d2(x2) - d2(x1) d1(x2))).

    The inner difference of two monomials is one step
    (`TorusElement._delta_commutator`).
    """

    def fn(args):
        x0, x1, x2 = args
        return x0.trace(x1._delta_commutator(x2))

    return FunctionalCochain(3, fn, label="psi2")


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
    for the box once the dependent slot also lands inside it. The slots
    between run over the box (arity >= 2); the last one runs only over the
    degrees that keep the first slot inside it, in box order, so the
    tuples come in the order of filtering all of product(box, repeat=a-1).
    """
    box = _box(radius)
    for middle in product(box, repeat=arity - 2):
        sm = sn = 0
        for m, n in middle:
            sm += m
            sn += n
        ms = range(max(-radius, -radius - sm), min(radius, radius - sm) + 1)
        ns = range(max(-radius, -radius - sn), min(radius, radius - sn) + 1)
        for m in ms:
            for n in ns:
                yield ((-sm - m, -sn - n),) + middle + ((m, n),)


def _box_monomials(config: TorusConfig,
                   radius: int) -> Dict[Degree, TorusElement]:
    """The unit monomial U^m V^n for every degree of the box, built once."""
    one = config.one_coeff()
    return {d: TorusElement._of(config, {d: one}) for d in _box(radius)}


def _random_degree_tuple(rng, radius: int, arity: int) -> Tuple[Degree, ...]:
    return tuple((rng.randrange(-radius, radius + 1),
                  rng.randrange(-radius, radius + 1)) for _ in range(arity))


SpanCheck = Tuple[int, Optional[Tuple[Degree, ...]]]


def cyclicity_check(which: str, config: TorusConfig,
                    seed: int = 0) -> SpanCheck:
    """phi(x_0..x_{a-1}) and (-1)^(a-1) phi(x_{a-1}, x_0, ..), exactly.

    Runs over every zero-sum monomial tuple in the radius-3 box plus 10
    seeded random tuples (which exercise the trivially-zero off-grading
    cases) and stops at the first tuple where the two differ. Returns the
    number of tuples looked at and the degrees of that tuple, or None.
    Raises ValueError only for a numeric config.
    """
    if config.mode != "exact":
        raise ValueError("exact mode required for spanning-set checks")
    phi = cocycle(which)
    a = phi.arity
    negate = a % 2 == 0
    monomials = _box_monomials(config, 3)
    checked = 0
    for degrees in _tuples_with_samples(3, a, seed, which):
        args = [monomials[d] for d in degrees]
        rotated = [args[-1]] + args[:-1]
        checked += 1
        value = phi(args)
        turned = phi(rotated)
        if value != (-turned if negate else turned):
            return checked, degrees
    return checked, None


def coboundary_check(which: str, config: TorusConfig, radius: int,
                     seed: int = 0) -> SpanCheck:
    """(b phi)(x_0..x_a) on spanning monomial tuples, exactly.

    Zero-sum tuples inside the box are enumerated completely; 10 seeded
    random tuples from the radius-3 box are added on top. Stops at the
    first tuple where b phi is not 0 and returns the number of tuples
    looked at and the degrees of that tuple, or None. Raises ValueError
    only for a numeric config.
    """
    if config.mode != "exact":
        raise ValueError("exact mode required for spanning-set checks")
    phi = cocycle(which)
    b_phi = phi.coboundary()
    zero = config.zero_coeff()
    # the seeded samples come from the radius-3 box
    monomials = _box_monomials(config, max(radius, 3))
    checked = 0
    for degrees in _tuples_with_samples(radius, b_phi.arity, seed, which):
        checked += 1
        if b_phi([monomials[d] for d in degrees]) != zero:
            return checked, degrees
    return checked, None


def _tuples_with_samples(radius: int, arity: int, seed: int,
                         tag: str) -> Iterator[Tuple[Degree, ...]]:
    yield from _zero_sum_tuples(radius, arity)
    rng = rng_for(seed, "torus-span", tag, arity)
    for _ in range(10):
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


def neumann_resolvent(mats: Sequence[TorusElement], z: Sequence[complex],
                      order: int) -> TorusElement:
    """Truncated inverse z1^-1 sum_{t<=M} (-(z2 A2 + z3 A3)/z1)^t.

    Each power is added into one dict in place. A key whose sum is exactly
    0 is deleted, so a later power puts it back at the end; the result has
    the bits and the key order of summing the powers with `+`.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    s, rho, z1 = _neumann_parts(mats, z)
    if rho >= 1:
        raise ValueError("Neumann series divergent at this point")
    step = s * (-1 / z1)
    config = mats[0].config
    power = TorusElement.one(config)
    acc = dict(power.coeffs)
    for _ in range(order):
        power = power * step
        for key, value in power.coeffs.items():
            prev = acc.get(key)
            if prev is None:
                acc[key] = value
            else:
                total = prev + value
                if total:
                    acc[key] = total
                else:
                    del acc[key]
    return TorusElement._of(config, acc) * (1 / z1)


# ---------------------------------------------------------------------------
# numeric factorization report


# Terms of the Neumann series beyond the constant one, at every point.
NEUMANN_ORDER = 40


@dataclass
class FactorizationSample:
    """One sample point: q values, residuals, and the propagated bound."""

    point: Tuple[complex, complex, complex]
    rho: float
    q_values: Tuple[Optional[complex], Optional[complex]]
    residuals: Tuple[float, float, float, float]
    propagated_bounds: Tuple[float, float, float, float]


@dataclass
class FactorizationReport:
    """Samples at the convergent points; `skipped` lists divergent ones."""

    samples: List[FactorizationSample]
    skipped: List[Tuple[Tuple[complex, complex, complex], str]]


def factorization_report(mats: Sequence[TorusElement],
                         points: Sequence[Sequence[complex]]
                         ) -> FactorizationReport:
    """Residuals of the two linear relations tying phi_j values on W_i = R A_i.

    At each convergent sample the resolvent R, truncated at NEUMANN_ORDER,
    gives W_1, W_2, W_3, and the residuals
    |z1 phi_j(W1,W2) - z3 phi_j(W2,W3)| and |z2 phi_j(W1,W2) + z3 phi_j(W1,W3)|
    come with the truncation error propagated through phi_j, which a
    tolerance on them must dominate. Reports q_j = 2 phi_j(W1,W2)/z3 for
    each sample. Divergent samples are skipped; if every sample diverges
    the sample list is empty.

    Per point and j, delta_j(W2) and delta_j(W3) and their l1 norms are
    computed once; the three phi_j values are traces against them and the
    bounds read the stored norms.
    """
    order = NEUMANN_ORDER
    samples: List[FactorizationSample] = []
    skipped: List[Tuple[Tuple[complex, complex, complex], str]] = []
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

        def err_phi(x: int, y: int) -> float:
            # |phi_j(W_x, W_y) - phi_j(What_x, What_y)| with What = R A;
            # the dropped term of degree t carries monomials of height
            # <= r_s t + r_y, so delta_j costs that factor per term.
            e_ax = tail0 / az1 * a_norms[x]
            d_ey = a_norms[y] / az1 * (r_s * sum_t + radii[y] * tail0)
            return e_ax * dw_norms[y] + (w_norms[x] + e_ax) * d_ey

        residuals = []
        bounds = []
        q_values = []
        for j in (1, 2):
            # one derivative is alive at a time, so peak memory does not grow
            dw = w[1].delta(j)
            dw_norms = {1: dw.l1_norm()}
            v12 = w[0].trace(dw)
            del dw
            dw = w[2].delta(j)
            dw_norms[2] = dw.l1_norm()
            v23 = w[1].trace(dw)
            v13 = w[0].trace(dw)
            del dw
            residuals.append(abs(point[0] * v12 - point[2] * v23))
            residuals.append(abs(point[1] * v12 + point[2] * v13))
            bounds.append(abs(point[0]) * err_phi(0, 1)
                          + abs(point[2]) * err_phi(1, 2))
            bounds.append(abs(point[1]) * err_phi(0, 1)
                          + abs(point[2]) * err_phi(0, 2))
            q_values.append(2 * v12 / point[2] if point[2] != 0 else None)
        samples.append(FactorizationSample(
            point=point, rho=rho, q_values=tuple(q_values),
            residuals=tuple(residuals), propagated_bounds=tuple(bounds)))
    return FactorizationReport(samples=samples, skipped=skipped)


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
