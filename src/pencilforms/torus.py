"""Twisted Laurent elements over a two-torus and their cyclic cocycles.

Elements are finitely supported sums sum a_{m,n} U^m V^n with the relation
UV = lambda VU.  Two coefficient modes: exact, over Q(i)[t]/(t^q - 1) with
lambda = t^p, and numeric, over complex doubles with
lambda = exp(2*pi*i*theta).
The module also evaluates the degree-one and degree-two cyclic cocycles built
from the trace and the torus derivations on spanning monomial tuples. On a
zero-sum monomial tuple every term of b phi, and both sides of cyclicity, is
an integer times one common lambda^E, so the torus suite runs these checks
once, over a private twist-free coefficient (an integer times lambda^e, e
never reduced): that run decides the identities for every twist, and a sum
of two terms with different exponents fails the tuple. With the first slot
solved from the others, each integer weight has degree at most 1 in every
remaining degree coordinate, so a grid of two values per coordinate
decides the identities for every degree (the Combinatorial
Nullstellensatz); one runner (`_spanning_check`) takes both checks over
that grid, then over seeded tuples. The module also computes the residuals
of the top-form factorization numerically through a truncated Neumann
resolvent R, with their propagated truncation bounds; a point with
rho >= 1 (rho is infinite at z1 = 0) diverges. Given a tolerance, each
point's series is cut at the smallest order M up to the cap NEUMANN_ORDER
whose dropped tail rho^(M+1) / (1 - rho) is below the double rounding
2^-53 and whose a-priori bound (the propagated bound with the W norms
replaced by ones computed from rho and the pencil) is within the tolerance
at M and at the cap; otherwise, and without a tolerance, at the cap. A
point that passes at M passes at the cap, so the order changes no verdict.
Which term pairs of a product meet, and where they land, depends only on
the supports of its operands, so each sample point replays plans of index
arrays and runs only the arithmetic: the Neumann powers are a chain of
product plans per step support, built to the cap (`_neumann_schedule`),
and W_x = R A_x, delta_j and the six phi_j traces are planned per step
support and pencil on that schedule's keys, those of R at the cap
(`_factorization_plan`). A point replays the first M powers and the prefix
of the plan its R reaches, with the twists of the rows that prefix
reaches, so it keeps the bits of summing its own M powers with `+`. A
coefficient that comes out exactly 0 drops its key, which no plan models:
that point sums R, then W, by `TorusElement` products.
The calls return what they found: the first monomial tuple where a cocycle
identity fails, or the residuals and bounds at each point. The torus suite
judges them.
"""

from __future__ import annotations

import cmath
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice, product
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .cochains import FunctionalCochain
from .ring import CycloElement, Scalar
from .sampling import rng_for

Degree = Tuple[int, int]

# Largest exact-mode order q. The monomial cocycle checks run over the
# twist-free coefficient whatever q a config names, so they cost the same at
# every q; q bounds the CycloElement arithmetic of exact-mode elements.
MAX_ORDER = 64


def _numeric_twist(lambda_power: Callable) -> Callable:
    def twisted_product(x, y, power: int, scale: Optional[int] = None):
        value = x * y if scale is None else x * y * scale
        return value * lambda_power(power)

    return twisted_product


class _MixedTwist(ArithmeticError):
    """A sum of two nonzero twist-free values with different exponents."""


class _TwistFree:
    """c * lambda^e with an integer c and an exponent e that is never reduced.

    Products add exponents and multiply the integers, and an integer scales
    c, so a monomial tuple evaluates to one such term at every twist at
    once. `+` and `-` of two nonzero terms with different exponents raise
    `_MixedTwist`, and `==` of them is False: the identity under check then
    holds at some twists only. Zero is falsy, whatever its exponent.
    """

    __slots__ = ("c", "e")

    def __init__(self, c: int, e: int):
        self.c = c
        self.e = e

    def __bool__(self) -> bool:
        return self.c != 0

    def __neg__(self) -> "_TwistFree":
        return _TwistFree(-self.c, self.e)

    def __mul__(self, other):
        if type(other) is int:
            return _TwistFree(self.c * other, self.e)
        if type(other) is _TwistFree:
            return _TwistFree(self.c * other.c, self.e + other.e)
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other: "_TwistFree") -> "_TwistFree":
        if not other.c:
            return self
        if not self.c:
            return other
        if self.e != other.e:
            raise _MixedTwist(f"{self!r} + {other!r}")
        return _TwistFree(self.c + other.c, self.e)

    def __sub__(self, other: "_TwistFree") -> "_TwistFree":
        return self + -other

    def __eq__(self, other) -> bool:
        if type(other) is not _TwistFree:
            return NotImplemented
        return self.c == other.c and (not self.c or self.e == other.e)

    def __hash__(self) -> int:
        return hash((self.c, self.e if self.c else 0))

    def __repr__(self) -> str:
        return f"{self.c}*lambda^{self.e}"

    @staticmethod
    def twisted_product(x: "_TwistFree", y: "_TwistFree", power: int,
                        scale: int = 1) -> "_TwistFree":
        return _TwistFree(x.c * y.c * scale, x.e + y.e + power)


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

    A third, private mode ("twist-free", `_TWIST_FREE`) has no parameter:
    its coefficients are `_TwistFree` terms and g = lambda itself. No JSON
    or CLI input reaches it.
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

    @classmethod
    def _twist_free(cls) -> "TorusConfig":
        self = object.__new__(cls)
        self.mode = "twist-free"
        self.q = self.p_prime = self.theta = None
        self.twisted_product = _TwistFree.twisted_product
        self.twist_unit = 1
        return self

    def lambda_power(self, exponent: int):
        """lambda^exponent in the coefficient ring of this mode."""
        if self.mode == "twist-free":
            return _TwistFree(1, exponent)
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
        if self.mode == "twist-free":
            return _TwistFree(0, 0)
        if self.mode == "exact":
            return CycloElement.zero(self.q)
        return 0j

    def one_coeff(self):
        if self.mode == "twist-free":
            return _TwistFree(1, 0)
        if self.mode == "exact":
            return CycloElement.one(self.q)
        return 1 + 0j

    def coerce(self, value):
        """Coerce a host value into this mode's coefficient ring."""
        if self.mode == "twist-free":
            if isinstance(value, _TwistFree):
                return value
            if type(value) is int:
                return _TwistFree(value, 0)
            raise TypeError(f"cannot use {type(value).__name__} as a "
                            "twist-free torus coefficient")
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
        if self.mode == "twist-free":
            return "TorusConfig._twist_free()"
        if self.mode == "exact":
            return f"TorusConfig.exact(q={self.q}, p_prime={self.p_prime})"
        return f"TorusConfig.numeric(theta={self.theta})"


# The one twist-free configuration; the cocycle checks run over it.
_TWIST_FREE = TorusConfig._twist_free()


class TorusElement:
    """Finitely supported map (m, n) -> coefficient, read as sum a U^m V^n."""

    __slots__ = ("config", "coeffs")

    def __init__(self, config: TorusConfig, coeffs: Dict[Degree, object]):
        coerce = config.coerce
        self.config = config
        items = (((int(m), int(n)), coerce(value))
                 for (m, n), value in coeffs.items())
        self.coeffs = {key: value for key, value in items if value}

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
        return self + -other

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
# spanning-set identity checks (exact and twist-free modes)
#
# Every cocycle here is built from the trace, so its value on a monomial
# tuple vanishes unless the degrees sum to zero.  Both sides of the
# cyclicity equation, and every term of the coboundary, share a tuple's
# total degree, so zero-sum tuples carry the entire content of the checks.
# A chain of monomials (a_i, b_i) multiplies to lambda^E with
# E = -sum_{i<j} b_i a_j; on a zero-sum tuple, rotating the chain or merging
# neighbours leaves E alone and the derivations scale by integers, so every
# value compared is an integer times one lambda^E. Over `_TWIST_FREE` the
# checks assert that common exponent, so a pass holds for every twist.
# Each integer weight is 1, a coordinate of one slot, or a 2x2 determinant
# of two slots' degrees, where a slot may be a merged pair; with the first
# slot solved as minus the sum of the others, that is a polynomial of
# degree at most 1 in every free coordinate. An identity of such
# polynomials that holds on a grid of two values per coordinate holds
# everywhere (Alon, Combin. Probab. Comput. 8, 1999), so the grid of
# `_grid_tuples` decides every degree.


def _grid_tuples(arity: int) -> Iterator[Tuple[Degree, ...]]:
    """The zero-sum degree tuples that decide the identities everywhere.

    Free slot i >= 1 runs over the degrees with both coordinates in
    {0, 1} (even i) or {0, -1} (odd i), later slots fastest, and the
    first slot is solved from the rest: 4^(arity - 1) tuples. The free
    signs alternate, so the solved slot stays within radius
    ceil((arity - 1) / 2) <= 2 of the origin.
    """
    choices = [list(product((0, 1 if i % 2 == 0 else -1), repeat=2))
               for i in range(1, arity)]
    for rest in product(*choices):
        yield ((-sum(m for m, _ in rest), -sum(n for _, n in rest)),) + rest


def _box_monomials(config: TorusConfig,
                   radius: int) -> Dict[Degree, TorusElement]:
    """The unit monomial U^m V^n for every degree of the box, built once."""
    one = config.one_coeff()
    span = range(-radius, radius + 1)
    return {(m, n): TorusElement._of(config, {(m, n): one})
            for m in span for n in span}


def _sampled_tuples(arity: int, seed: int,
                    tag: str) -> Iterator[Tuple[Degree, ...]]:
    """10 seeded degree tuples from the radius-3 box, mostly not zero-sum,
    so they exercise the trivially-zero off-grading cases."""
    rng = rng_for(seed, "torus-span", tag, arity)
    for _ in range(10):
        yield tuple((rng.randrange(-3, 4), rng.randrange(-3, 4))
                    for _ in range(arity))


SpanCheck = Tuple[int, Optional[Tuple[Degree, ...]]]


def _spanning_check(which: str, config: TorusConfig, seed: int,
                    judge: Callable) -> SpanCheck:
    """One identity of the cocycle `which` on unit monomial tuples.

    `judge(phi)` gives the tuples' arity and a test of their monomials,
    True where the identity fails. The run takes the degree grid
    (`_grid_tuples`), which decides the identity at every degree, then 10
    seeded tuples of the radius-3 box, and stops at the first tuple that
    fails the test or, over the twist-free config, mixes lambda exponents.
    Returns the number of tuples looked at and the degrees of that tuple,
    or None. Raises ValueError for a numeric config, before anything else.
    """
    if config.mode == "numeric":
        raise ValueError("exact mode required for spanning-set checks")
    arity, fails = judge(cocycle(which))
    monomials = _box_monomials(config, 3)
    checked = 0
    for degrees in chain(_grid_tuples(arity),
                         _sampled_tuples(arity, seed, which)):
        checked += 1
        try:
            if fails([monomials[d] for d in degrees]):
                return checked, degrees
        except _MixedTwist:
            return checked, degrees
    return checked, None


def cyclicity_check(which: str, config: TorusConfig,
                    seed: int = 0) -> SpanCheck:
    """phi(x_0..x_{a-1}) and (-1)^(a-1) phi(x_{a-1}, x_0, ..), exactly, on
    the 4^(a-1) grid tuples and 10 seeded ones (`_spanning_check`)."""

    def judge(phi):
        negate = phi.arity % 2 == 0

        def fails(args):
            value, turned = phi(args), phi(args[-1:] + args[:-1])
            return value != (-turned if negate else turned)

        return phi.arity, fails

    return _spanning_check(which, config, seed, judge)


def coboundary_check(which: str, config: TorusConfig,
                     seed: int = 0) -> SpanCheck:
    """(b phi)(x_0..x_a) = 0, exactly, on the 4^a grid tuples and 10
    seeded ones (`_spanning_check`)."""

    def judge(phi):
        b_phi = phi.coboundary()
        zero = config.zero_coeff()
        return b_phi.arity, lambda args: b_phi(args) != zero

    return _spanning_check(which, config, seed, judge)


# ---------------------------------------------------------------------------
# truncated Neumann resolvent (numeric mode)


def _neumann_parts(mats: Sequence[TorusElement],
                   z: Sequence[complex]) -> Tuple[TorusElement, float, complex]:
    """s = z2 A2 + z3 A3, rho = ||s||_1 / |z1| (infinite at z1 = 0), z1.

    A point with a nan or infinite coordinate is refused with ValueError.
    """
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
    z = tuple(complex(c) for c in z)
    if not all(map(cmath.isfinite, z)):
        raise ValueError(f"point {z} has a non-finite coordinate")
    z1 = z[0]
    s = mats[1] * z[1] + mats[2] * z[2]
    rho = s.l1_norm() / abs(z1) if z1 != 0 else float("inf")
    return s, rho, z1


def _int_array(values: List[int]) -> array:
    """Ints in the narrowest array that holds them, unsigned if it can."""
    for code in "BbHhIiQq":
        try:
            return array(code, values)
        except OverflowError:
            pass
    raise OverflowError(f"{max(values, key=abs)} does not fit an array")


# Where the term pairs of a product land, for given supports: (rows, slots,
# count). `rows[i]` indexes the V-degree of left term i in a row table kept
# by the caller, which picks the twists of its pairs; `slots` holds the
# output slot of each term pair in left-major order; `count` is the number
# of output terms. No coefficient is stored.
ProductPlan = Tuple[array, array, int]


def _product_plan(left: Sequence[Degree], right: Sequence[Degree],
                  row_of: Dict[int, int]) -> Tuple[ProductPlan, List[Degree]]:
    """The plan of a left * right product and its keys in slot order.

    A left V-degree not yet in `row_of` gets the next row of the table.
    """
    slot_of: Dict[Degree, int] = {}
    rows = []
    slots = []
    for a, b in left:
        rows.append(row_of.setdefault(b, len(row_of)))
        for c, d in right:
            slots.append(slot_of.setdefault((a + c, b + d), len(slot_of)))
    return (_int_array(rows), _int_array(slots), len(slot_of)), list(slot_of)


def _twist_rows(config: TorusConfig, row_degrees: Sequence[int],
                right: Dict[Degree, object]) -> List[list]:
    """Per left V-degree b of the table, the right terms as pairs
    (coefficient, lambda^(-b c))."""
    lambda_power = config.lambda_power
    values = list(right.values())
    return [list(zip(values, [lambda_power(-b * c) for c, _ in right]))
            for b in row_degrees]


def _replay_product(plan: ProductPlan, left: List,
                    twist_rows: List[list]) -> Optional[list]:
    """The coefficients of a planned product, in slot order.

    The products ca * cb * lambda^(-b c) and the sums are those of the
    term-pair loop of `TorusElement.__mul__`, in its order, so the bits
    are too. A `left` shorter than the plan's left operand holds its first
    terms: their pairs come first and land in the first slots, so the
    product of that prefix is the first slots up to the largest one they
    reach. Returns None if a coefficient comes out exactly 0: the product
    drops that key, which the plan does not model.
    """
    rows, slots, count = plan
    terms = [ca * cb * lam for ca, r in zip(left, rows)
             for cb, lam in twist_rows[r]]
    if len(left) < len(rows):
        count = max(islice(slots, len(terms)), default=-1) + 1
    out = [None] * count
    for k, term in zip(slots, terms):
        prev = out[k]
        out[k] = term if prev is None else prev + term
    return out if all(out) else None


# The cap on the terms of the Neumann series beyond the constant one: the
# length of every Neumann schedule, and the order `factorization_report`
# sums a point to when no smaller order meets its rule.
NEUMANN_ORDER = 40


@dataclass(frozen=True)
class _NeumannSchedule:
    """The powers of a step of one support, as a chain of product plans.

    `powers[t]` is (plan, sum_slots) for power t + 1 = (power t) * step:
    the plan's rows index `row_degrees`, and `sum_slots[k]` is the running
    sum's slot for term k of the power. `row_counts[t]` is the number of
    rows the first t + 1 powers reach, a prefix of `row_degrees`. `keys`
    is the running sum's key order; the sum to any order M keeps its first
    keys, since a power adds its new keys after those of the powers before
    it.
    """

    row_degrees: Tuple[int, ...]
    powers: Tuple[Tuple[ProductPlan, array], ...]
    row_counts: Tuple[int, ...]
    keys: Tuple[Degree, ...]


@lru_cache(maxsize=2)
def _neumann_schedule(support: Tuple[Degree, ...],
                      order: int) -> _NeumannSchedule:
    """The schedule of `order` powers of a step with this support.

    It holds as long as no power coefficient and no running-sum entry is
    exactly 0, as `TorusElement.__mul__` and `neumann_resolvent` would
    then drop the key. Callers build it to `NEUMANN_ORDER` (or to a longer
    order they ask for) and replay its first powers, so one schedule per
    support serves every order up to the cap. Two are kept, so a
    factorization request, which runs the pinned pencil and then the
    sampled one, builds each once.
    """
    row_of: Dict[int, int] = {}
    sum_slot: Dict[Degree, int] = {(0, 0): 0}
    left: List[Degree] = [(0, 0)]
    powers = []
    row_counts = []
    for _ in range(order):
        plan, left = _product_plan(left, support, row_of)
        sum_slots = [sum_slot.setdefault(key, len(sum_slot)) for key in left]
        powers.append((plan, _int_array(sum_slots)))
        row_counts.append(len(row_of))
    return _NeumannSchedule(tuple(row_of), tuple(powers), tuple(row_counts),
                            tuple(sum_slot))


def _neumann_sum_by_schedule(step: TorusElement, order: int
                             ) -> Optional[Tuple[Sequence[Degree], list]]:
    """sum_{t<=order} step^t through the cached schedule of its support,
    as the schedule's key order and the sum's coefficients, which are
    those of its first keys.

    The first `order` powers of the schedule are replayed, with the twists
    of the rows they reach. Each power is the replay of its product plan,
    and the running sum adds it in the order of summing with `+`. Returns
    None as soon as a power coefficient or a running-sum entry is exactly
    0.
    """
    config = step.config
    schedule = _neumann_schedule(tuple(step.coeffs),
                                 max(order, NEUMANN_ORDER))
    rows = _twist_rows(config,
                       schedule.row_degrees[:schedule.row_counts[order - 1]],
                       step.coeffs)
    one = config.one_coeff()
    power = [one]
    acc = [one]
    append = acc.append
    for plan, sum_slots in islice(schedule.powers, order):
        power = _replay_product(plan, power, rows)
        if power is None:
            return None
        size = len(acc)
        for k, value in zip(sum_slots, power):
            if k < size:
                acc[k] += value
            else:
                append(value)
        if not all(acc):
            return None
    return schedule.keys, acc


def _neumann_sum_by_products(step: TorusElement, order: int
                             ) -> Tuple[Sequence[Degree], Sequence]:
    """sum_{t<=order} step^t by `TorusElement` `*` and `+`, as its keys and
    coefficients: a key whose sum is exactly 0 drops out, and a later power
    re-adds it last."""
    power = acc = TorusElement.one(step.config)
    for _ in range(order):
        power = power * step
        acc = acc + power
    return acc.coeffs.keys(), acc.coeffs.values()


def neumann_resolvent(mats: Sequence[TorusElement], z: Sequence[complex],
                      order: int) -> TorusElement:
    """Truncated inverse z1^-1 sum_{t<=M} (-(z2 A2 + z3 A3)/z1)^t.

    The powers of the step are replayed from a schedule of its support:
    which term pairs meet, with which twist, and in which slot of the power
    and of the running sum they land. It is built once per support, to
    `NEUMANN_ORDER` powers or to `order` if that is longer, and kept for
    the next points, which replay its first `order` powers. A power
    coefficient or running-sum entry that comes out exactly 0 drops its
    key, which the schedule does not model: that point is summed again by
    `TorusElement` `*` and `+`. Either way the result has the bits and the
    key order of summing the powers with `+`. A point with a nan or
    infinite coordinate raises ValueError.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    s, rho, z1 = _neumann_parts(mats, z)
    if rho >= 1:
        raise ValueError("Neumann series divergent at this point")
    step = s * (-1 / z1)
    keys, values = (_neumann_sum_by_schedule(step, order)
                    or _neumann_sum_by_products(step, order))
    # scaled as `TorusElement.__mul__` scales by a scalar, zeros dropped
    scale = 1 / z1
    return TorusElement._make(mats[0].config,
                              zip(keys, [value * scale for value in values]))


# ---------------------------------------------------------------------------
# numeric factorization report


@dataclass
class FactorizationSample:
    """One sample point: the order its Neumann series was cut at, q values,
    residuals, and the propagated bound."""

    point: Tuple[complex, complex, complex]
    rho: float
    order: int
    q_values: Tuple[Optional[complex], Optional[complex]]
    residuals: Tuple[float, float, float, float]
    propagated_bounds: Tuple[float, float, float, float]


@dataclass
class FactorizationReport:
    """Samples at the convergent points; `skipped` lists divergent ones."""

    samples: List[FactorizationSample]
    skipped: List[Tuple[Tuple[complex, complex, complex], str]]


# A dropped tail of l1 mass at most 2^-53 (the unit roundoff of a double)
# is below the rounding the float sums of a sample already carry.
_ROUNDING_TAIL = 2.0 ** -53


@dataclass(frozen=True)
class _TruncationBound:
    """The propagated truncation bounds of one point's residuals.

    Cutting the series at order M drops the terms t > M, of l1 mass at
    most rho^t / |z1| each, and their products with A_y carry monomials of
    height <= r_s t + r_y, so delta_j costs that factor per term.
    """

    point: Tuple[complex, complex, complex]
    rho: float
    r_s: int
    a_norms: Sequence[float]
    radii: Sequence[int]

    def residual_bounds(self, order: int, w_norms: Sequence[float],
                        dw_norms: Dict[int, float]) -> Tuple[float, float]:
        """Bounds on |z1 v12 - z3 v23| and |z2 v12 + z3 v13| at `order`,
        from the l1 norms of W_0, W_1 and of delta_j W_1, delta_j W_2."""
        rho = self.rho
        az1 = abs(self.point[0])
        # l1 tails of the dropped series terms: sum rho^t and sum t rho^t
        tail0 = rho ** (order + 1) / (1 - rho)
        tail1 = ((order + 2) * rho ** (order + 1)
                 - (order + 1) * rho ** (order + 2)) / (1 - rho) ** 2
        sum_t = tail1 - tail0
        a_norms = self.a_norms
        radii = self.radii

        def err_phi(x: int, y: int) -> float:
            # |phi_j(W_x, W_y) - phi_j(What_x, What_y)| with What = R A
            e_ax = tail0 / az1 * a_norms[x]
            d_ey = a_norms[y] / az1 * (self.r_s * sum_t + radii[y] * tail0)
            return e_ax * dw_norms[y] + (w_norms[x] + e_ax) * d_ey

        z1, z2, z3 = (abs(c) for c in self.point)
        return (z1 * err_phi(0, 1) + z3 * err_phi(1, 2),
                z2 * err_phi(0, 1) + z3 * err_phi(0, 2))

    def a_priori(self, order: int) -> float:
        """The worst residual bound at `order` before any W is formed.

        ||W_x|| becomes ||A_x|| / (|z1| (1 - rho)), since ||R|| is at most
        sum_t rho^t / |z1|, and ||delta_j W_y|| becomes that bound on
        ||W_y|| times order r_s + r_y, the largest height in W_y; each
        dominates the computed norm.
        """
        scale = abs(self.point[0]) * (1 - self.rho)
        w_norms = [a / scale for a in self.a_norms]
        dw_norms = {y: (order * self.r_s + self.radii[y]) * w_norms[y]
                    for y in (1, 2)}
        return max(self.residual_bounds(order, w_norms, dw_norms))

    def order_for(self, tolerance: Optional[float]) -> int:
        """The smallest order M below the cap whose dropped tail
        rho^(M+1) / (1 - rho) is at most 2^-53 and whose a-priori bound is
        within the tolerance, at M and at the cap alike; else the cap.

        A point that passes at M then passes at the cap, whose computed
        bound the a-priori one dominates, and a point that cannot is summed
        to the cap; so the order changes no verdict. No tolerance means
        the cap.
        """
        cap = NEUMANN_ORDER
        if tolerance is None or not self.a_priori(cap) <= tolerance:
            return cap
        rho = self.rho
        for order in range(1, cap):
            if (rho ** (order + 1) / (1 - rho) <= _ROUNDING_TAIL
                    and self.a_priori(order) <= tolerance):
                return order
        return cap


# The phi_j(W_x, W_y) of a sample, in the order the report reads them.
_PHI_PAIRS = ((0, 1), (1, 2), (0, 2))

# tr(x y) as matched term indices, for given key orders: one walk of each
# operand, x's first. A walk (first, second, twists) goes through the walked
# operand in its key order; its term first[k] meets the term second[k] of
# the other with the twist exponent twists[k] = a b of the walked degree
# (a, b). `TorusElement.trace` walks the shorter operand, y when it is
# strictly shorter; operands cut to prefixes of the key orders may compare
# the other way round than the full ones, so both walks are kept.
TraceWalk = Tuple[array, array, array]
TracePlan = Tuple[TraceWalk, TraceWalk]


def _trace_walk(walked: Sequence[Degree],
                other: Sequence[Degree]) -> TraceWalk:
    index = {key: i for i, key in enumerate(other)}
    first, second, twists = [], [], []
    for i, (a, b) in enumerate(walked):
        k = index.get((-a, -b))
        if k is not None:
            first.append(i)
            second.append(k)
            twists.append(a * b)
    return _int_array(first), _int_array(second), _int_array(twists)


def _trace_by_plan(config: TorusConfig, x: List, y: List, plan: TracePlan):
    """tr(x y) for coefficient lists that hold the first terms of the
    planned key orders, with the walk, products, sums and zero of
    `TorusElement.trace`: pairs past either list are left out."""
    swap = len(y) < len(x)
    first, second, twists = plan[swap]
    if swap:
        x, y = y, x
    walked, other = len(x), len(y)
    twisted_product = config.twisted_product
    unit = config.twist_unit
    total = None
    for i, k, e in zip(first, second, twists):
        if i >= walked:
            break
        if k < other:
            term = twisted_product(x[i], y[k], e * unit)
            total = term if total is None else total + term
    return config.zero_coeff() if total is None else total


def _phi_plan(w_keys: Sequence[Sequence[Degree]]) -> tuple:
    """delta_j and the phi_j traces on W_1..W_3 of these key orders.

    Per j: the (indices, weights) of delta_j(W_2) and delta_j(W_3), the
    terms `TorusElement.delta` keeps and its scaling degree, and a trace
    plan per pair of `_PHI_PAIRS` against the derivative.
    """
    plan = []
    for pos in (0, 1):
        deltas = []
        derived = {}
        for y in (1, 2):
            keys = w_keys[y]
            kept = [i for i, key in enumerate(keys) if key[pos]]
            deltas.append((_int_array(kept),
                           _int_array([keys[i][pos] for i in kept])))
            derived[y] = [keys[i] for i in kept]
        traces = tuple((_trace_walk(w_keys[x], derived[y]),
                        _trace_walk(derived[y], w_keys[x]))
                       for x, y in _PHI_PAIRS)
        plan.append((tuple(deltas), traces))
    return tuple(plan)


def _delta_by_plan(values: List, delta: Tuple[array, array]) -> List:
    """delta_j of a coefficient list that holds the first terms of the
    planned key order: `TorusElement.delta`'s products, on the kept
    indices below its length."""
    indices, weights = delta
    kept = bisect_left(indices, len(values))
    return [values[i] * m for i, m in zip(islice(indices, kept), weights)]


@dataclass(frozen=True)
class _FactorizationPlan:
    """W_x = R A_x, delta_j and the phi_j traces for one pencil and step.

    `products[x]` plans R * A_x, R on its step's schedule keys, over the one
    row table `row_degrees`, the V-degrees of R's terms in order of first
    appearance; `phi` is `_phi_plan` of the W key orders.
    """

    row_degrees: Tuple[int, ...]
    products: Tuple[ProductPlan, ...]
    phi: tuple


@lru_cache(maxsize=2)
def _factorization_plan(step_support: Tuple[Degree, ...],
                        supports: Tuple[Tuple[Degree, ...], ...]
                        ) -> _FactorizationPlan:
    """The plan for a step of this support and a pencil of these supports,
    on the keys of the step's Neumann sum at NEUMANN_ORDER.

    Two are kept, like the Neumann schedules: the pinned and the sampled
    pencil of a factorization request.
    """
    r_keys = _neumann_schedule(step_support, NEUMANN_ORDER).keys
    row_of: Dict[int, int] = {}
    products, w_keys = zip(*(_product_plan(r_keys, support, row_of)
                             for support in supports))
    return _FactorizationPlan(tuple(row_of), products, _phi_plan(w_keys))


def factorization_report(mats: Sequence[TorusElement],
                         points: Sequence[Sequence[complex]],
                         tolerance: Optional[float] = None
                         ) -> FactorizationReport:
    """Residuals of the two linear relations tying phi_j values on W_i = R A_i.

    At each convergent sample the resolvent R, truncated at an order M,
    gives W_1, W_2, W_3, and the residuals
    |z1 phi_j(W1,W2) - z3 phi_j(W2,W3)| and |z2 phi_j(W1,W2) + z3 phi_j(W1,W3)|
    come with the truncation error propagated through phi_j, which a
    tolerance on them must dominate. M is the smallest order whose dropped
    tail is below rounding and whose a-priori bound meets `tolerance` at M
    and at NEUMANN_ORDER (`_TruncationBound.order_for`), else, and without
    a tolerance, NEUMANN_ORDER; so a tolerance check on the sample judges
    as at NEUMANN_ORDER. Reports q_j = 2 phi_j(W1,W2)/z3 for each sample.
    Divergent samples are skipped; if every sample diverges the sample
    list is empty. A point with a nan or infinite coordinate raises
    ValueError.

    Which term pairs of R A_x meet, which terms delta_j keeps, and which
    terms each trace matches depend only on R's key order and the
    pencil's supports, so they are planned once per step support and
    pencil (`_factorization_plan`) on the keys of the series at
    NEUMANN_ORDER, of which R at M holds the first ones. Each point
    replays the prefix its R reaches, with the twists of the rows it
    reaches, and the products and sums of `TorusElement` in its order. A
    point whose R was summed by products, so that its keys need not be
    that prefix, or whose W has a coefficient that is exactly 0, forms W by
    `TorusElement` products and plans delta_j and the traces on its keys.
    """
    supports = tuple(tuple(a.coeffs) for a in mats)
    a_norms = [x.l1_norm() for x in mats]
    radii = [x.degree_radius() for x in mats]
    samples: List[FactorizationSample] = []
    skipped: List[Tuple[Tuple[complex, complex, complex], str]] = []
    for raw in points:
        point = tuple(complex(c) for c in raw)
        s, rho, z1 = _neumann_parts(mats, point)
        if rho >= 1:
            skipped.append((point, "Neumann series divergent at this point"))
            continue
        bound = _TruncationBound(point, rho, s.degree_radius(), a_norms,
                                 radii)
        order = bound.order_for(tolerance)
        resolvent = neumann_resolvent(mats, point, order)
        config = resolvent.config
        support = tuple(s.coeffs)
        plan = _factorization_plan(support, supports)
        keys = _neumann_schedule(support, NEUMANN_ORDER).keys
        r_values = list(resolvent.coeffs.values())
        w = [None]  # R summed by products: W by products too
        if keys[:len(r_values)] == tuple(resolvent.coeffs):
            reached = max(islice(plan.products[0][0], len(r_values)),
                          default=-1) + 1
            w = [_replay_product(product, r_values, _twist_rows(
                     config, plan.row_degrees[:reached], a.coeffs))
                 for product, a in zip(plan.products, mats)]
        phi_plan = plan.phi
        if None in w:
            products = [resolvent * a for a in mats]
            phi_plan = _phi_plan([tuple(x.coeffs) for x in products])
            w = [list(x.coeffs.values()) for x in products]
        # the bounds read the norms of W_1 and W_2 only
        w_norms = [sum(map(abs, x)) for x in w[:2]]

        residuals = []
        bounds = []
        q_values = []
        for deltas, traces in phi_plan:
            dw = {y: _delta_by_plan(w[y], delta)
                  for y, delta in zip((1, 2), deltas)}
            dw_norms = {y: sum(map(abs, x)) for y, x in dw.items()}
            v12, v23, v13 = (_trace_by_plan(config, w[x], dw[y], trace)
                             for (x, y), trace in zip(_PHI_PAIRS, traces))
            residuals.append(abs(point[0] * v12 - point[2] * v23))
            residuals.append(abs(point[1] * v12 + point[2] * v13))
            bounds.extend(bound.residual_bounds(order, w_norms, dw_norms))
            q_values.append(2 * v12 / point[2] if point[2] != 0 else None)
        samples.append(FactorizationSample(
            point=point, rho=rho, order=order, q_values=tuple(q_values),
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
        if x.config.mode != "numeric":
            body = str(value)
        else:
            sign = "+" if value.imag >= 0 else "-"
            body = f"{value.real!r}{sign}{abs(value.imag)!r}j"
        parts.append(f"({body})*U^{m}*V^{n}")
    return " + ".join(parts)
