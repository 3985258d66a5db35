"""Twisted Laurent elements over a two-torus and their cyclic cocycles.

Elements are finitely supported sums sum a_{m,n} U^m V^n with the relation
UV = lambda VU.  Two coefficient modes: exact, over Q(i)[t]/(t^q - 1) with
lambda = t^p, and numeric, over complex doubles with
lambda = exp(2*pi*i*theta). Every term pair of a product, each matched pair
of a trace, and each term pair of the psi2 commutator is one twisted step
of the configuration (`TorusConfig.twisted_product`); the numeric step
reads lambda^e from the configuration's table of powers. An element is
never changed after construction, so it keeps delta_1, delta_2 and its l1
norm once they are computed: the cocycle values, the rounding bounds and
the algebra checks share one derivation per element.
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
that grid, then over seeded tuples.
Last, it computes the truncated Neumann resolvent R_M of a pencil
(1, A2, A3) by plain products and sums, in either mode, and the two
equalities that tie phi_j(W_x, W_y) on W_i = R_M A_i to the remainder
E = (-(z2 A2 + z3 A3)/z1)^(M+1). They hold exactly at every order and at
every point with z1 != 0, whether the series converges there or not: exact
mode checks them as equalities, and numeric mode against a rounding bound
gamma_N K.
The calls return what they found: the first monomial tuple where a cocycle
identity fails, or both sides of the equalities at each point. The torus
suite judges them.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .cochains import FunctionalCochain
from .ring import CycloElement, Scalar
from .sampling import rng_for

Degree = Tuple[int, int]

# Largest exact-mode order q. The monomial cocycle checks run over the
# twist-free coefficient whatever q a config names, so they cost the same at
# every q; q bounds the CycloElement arithmetic of exact-mode elements.
MAX_ORDER = 64


def _numeric_twist(config: "TorusConfig") -> Callable:
    """The numeric twisted step of config: lambda^power is read straight
    from the config's table of powers, and `lambda_power` is called only
    for a power not yet in it."""
    powers = config._lam_cache
    lambda_power = config.lambda_power

    def twisted_product(x, y, power: int, scale: Optional[int] = None):
        value = x * y if scale is None else x * y * scale
        lam = powers.get(power)
        return value * (lambda_power(power) if lam is None else lam)

    return twisted_product


class _MixedTwist(ArithmeticError):
    """A sum of two nonzero twist-free values with different exponents."""


class _TwistFree:
    """c * lambda^e with an integer c and an exponent e that is never reduced.

    Products add exponents and multiply the integers, and an integer scales
    c, so a monomial tuple evaluates to one such term at every twist at
    once. `+` of two nonzero terms with different exponents raises
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

    def __eq__(self, other) -> bool:
        if type(other) is not _TwistFree:
            return NotImplemented
        return self.c == other.c and (not self.c or self.e == other.e)

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
    the generator g of the twist, picked once per mode here: the one step
    that torus products, traces and the psi2 commutator take per term
    pair. In exact mode g = t and the step is `CycloElement.mul_rotate`
    itself, one rotated product. In numeric mode g = lambda, and the
    product runs left to right and skips a missing scale, since a factor
    1 can flip the sign of a zero part. lambda^e is g^(e * twist_unit):
    twist_unit is p' in exact mode and 1 in numeric mode.

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
            self.twisted_product = _numeric_twist(self)
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
        """lambda^exponent in the coefficient ring of this mode. Numeric
        mode keeps each power it computes in a table, which its twisted
        step reads directly for each term pair."""
        if self.mode == "numeric":
            cached = self._lam_cache.get(exponent)
            if cached is None:
                cached = cmath.exp(2j * cmath.pi * self.theta * exponent)
                self._lam_cache[exponent] = cached
            return cached
        if self.mode == "exact":
            return CycloElement.root(self.q, exponent * self.p_prime)
        return _TwistFree(1, exponent)

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

    def __repr__(self) -> str:
        if self.mode == "twist-free":
            return "TorusConfig._twist_free()"
        if self.mode == "exact":
            return f"TorusConfig.exact(q={self.q}, p_prime={self.p_prime})"
        return f"TorusConfig.numeric(theta={self.theta})"


# The one twist-free configuration; the cocycle checks run over it.
_TWIST_FREE = TorusConfig._twist_free()


class TorusElement:
    """Finitely supported map (m, n) -> coefficient, read as sum a U^m V^n.

    An element is never changed after construction, by this class or by
    whoever built it, so it keeps delta_1, delta_2 and its l1 norm in three
    slots that the first call of `delta` or `l1_norm` fills: every check
    that reads them for one element shares one computation.
    """

    __slots__ = ("config", "coeffs", "_delta1", "_delta2", "_l1")

    def __init__(self, config: TorusConfig, coeffs: Dict[Degree, object]):
        coerce = config.coerce
        self.config = config
        items = (((int(m), int(n)), coerce(value))
                 for (m, n), value in coeffs.items())
        self.coeffs = {key: value for key, value in items if value}
        self._delta1 = self._delta2 = self._l1 = None

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
        self._delta1 = self._delta2 = self._l1 = None
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

    def __mul__(self, other):
        """Product by (U^a V^b)(U^c V^d) = lambda^(-b c) U^(a+c) V^(b+d),
        one twisted step per term pair (`_pair_sum`); a scalar scales each
        coefficient."""
        if isinstance(other, TorusElement):
            return self._pair_sum(other, weighted=False)
        try:
            scale = self.config.coerce(other)
        except TypeError:
            return NotImplemented
        return TorusElement._make(self.config,
                                  ((key, value * scale)
                                   for key, value in self.coeffs.items()))

    def trace(self, other: Optional["TorusElement"] = None):
        """Coefficient at (0, 0) of self, or of self * other without
        forming the product.

        Only degree pairs (a, b), (-a, -b) reach the trace of a product,
        each with the twist lambda^(a b):
        tr(x y) = sum x_{a,b} y_{-a,-b} lambda^(a b).
        Each matched pair is one twisted step (`config.twisted_product`),
        and the sum starts from the first of them; zero is built only when
        no pair matches.
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
        twisted_product = config.twisted_product
        unit = config.twist_unit
        total = None
        for (a, b), cx in x.items():
            cy = y.get((-a, -b))
            if cy is not None:
                term = twisted_product(cx, cy, a * b * unit)
                total = term if total is None else total + term
        return config.zero_coeff() if total is None else total

    def _pair_sum(self, other: "TorusElement",
                  weighted: bool) -> "TorusElement":
        """sum x_{a,b} y_{c,d} lambda^(-b c) U^(a+c) V^(b+d) over the term
        pairs, each pair one twisted step (`config.twisted_product`),
        summed in left-major order; zero sums are dropped. Weighted, each
        pair is also scaled by a d - b c, and a pair of weight 0 is
        skipped.
        """
        config = self.config
        if other.config is not config:
            self._match(other)
        twisted_product = config.twisted_product
        unit = config.twist_unit
        right = other.coeffs.items()
        out: Dict[Degree, object] = {}
        get = out.get
        for (a, b), ca in self.coeffs.items():
            for (c, d), cb in right:
                if weighted:
                    weight = a * d - b * c
                    if not weight:
                        continue
                    term = twisted_product(ca, cb, -b * c * unit, weight)
                else:
                    term = twisted_product(ca, cb, -b * c * unit)
                key = (a + c, b + d)
                prev = get(key)
                out[key] = term if prev is None else prev + term
        return TorusElement._make(config, out.items())

    def _delta_commutator(self, other: "TorusElement") -> "TorusElement":
        """delta_1(self) delta_2(other) - delta_2(self) delta_1(other).

        A term pair (a, b), (c, d) contributes
        (a d - b c) x_{a,b} y_{c,d} lambda^(-b c) at (a + c, b + d), one
        weighted twisted step (`_pair_sum`).
        """
        return self._pair_sum(other, weighted=True)

    def delta(self, which: int) -> "TorusElement":
        """delta_1 scales a_{m,n} by m, delta_2 by n.

        Terms whose scaling degree is 0 are skipped, not multiplied by 0,
        so a monomial costs at most one scaling. Built on the first call
        for each j and kept, since the element never changes: a second
        call returns the same element.
        """
        if which not in (1, 2):
            raise ValueError("derivation index must be 1 or 2")
        kept = self._delta1 if which == 1 else self._delta2
        if kept is None:
            pos = which - 1
            kept = TorusElement._of(self.config,
                                    {key: value * key[pos]
                                     for key, value in self.coeffs.items()
                                     if key[pos]})
            if which == 1:
                self._delta1 = kept
            else:
                self._delta2 = kept
        return kept

    def l1_norm(self) -> float:
        """Sum of the coefficient moduli (numeric mode), computed on the
        first call and kept, since the element never changes."""
        if self._l1 is None:
            self._l1 = sum(map(abs, self.coeffs.values()))
        return self._l1

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self.config == other.config and self.coeffs == other.coeffs

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

    The inner difference takes one weighted twisted step per term pair
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


# ---------------------------------------------------------------------------
# spanning-set identity checks (over the twist-free coefficient)
#
# Every cocycle here is built from the trace, so its value on a monomial
# tuple vanishes unless the degrees sum to zero.  Both sides of the
# cyclicity equation, and every term of the coboundary, share a tuple's
# total degree, so zero-sum tuples carry the entire content of the checks.
# A chain of monomials (a_i, b_i) multiplies to lambda^E with
# E = -sum_{i<j} b_i a_j; on a zero-sum tuple, rotating the chain or merging
# neighbours leaves E alone and the derivations scale by integers, so every
# value compared is an integer times one lambda^E. The checks run over
# `_TWIST_FREE` only and assert that exponent, so a pass holds at any twist.
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


def _spanning_check(which: str, seed: int, judge: Callable) -> SpanCheck:
    """One identity of the cocycle `which` on twist-free monomial tuples.

    `judge(phi)` gives the tuples' arity and a test of their monomials,
    True where the identity fails. The run takes the degree grid
    (`_grid_tuples`), which decides the identity at every degree, then 10
    seeded tuples of the radius-3 box, and stops at the first tuple that
    fails the test or mixes lambda exponents. Returns the number of tuples
    looked at and the degrees of that tuple, or None.
    """
    arity, fails = judge(cocycle(which))
    monomials = _box_monomials(_TWIST_FREE, 3)
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


def cyclicity_check(which: str, seed: int = 0) -> SpanCheck:
    """phi(x_0..x_{a-1}) and (-1)^(a-1) phi(x_{a-1}, x_0, ..), at every
    twist, on the 4^(a-1) grid tuples and 10 seeded ones
    (`_spanning_check`)."""

    def judge(phi):
        negate = phi.arity % 2 == 0

        def fails(args):
            value, turned = phi(args), phi(args[-1:] + args[:-1])
            return value != (-turned if negate else turned)

        return phi.arity, fails

    return _spanning_check(which, seed, judge)


def coboundary_check(which: str, seed: int = 0) -> SpanCheck:
    """(b phi)(x_0..x_a) = 0 at every twist, on the 4^a grid tuples and 10
    seeded ones (`_spanning_check`)."""

    def judge(phi):
        b_phi = phi.coboundary()
        zero = _TWIST_FREE.zero_coeff()
        return b_phi.arity, lambda args: b_phi(args) != zero

    return _spanning_check(which, seed, judge)


# ---------------------------------------------------------------------------
# truncated Neumann resolvent and the factorization identity
#
# Take the pencil (1, A2, A3), S = z2 A2 + z3 A3 and, at order M,
# R_M = z1^-1 sum_{t<=M} (-S/z1)^t, W_i = R_M A_i and E = (-S/z1)^(M+1).
# The sum telescopes: R_M (z1 + S) = 1 - E, that is sum_i z_i W_i = 1 - E.
# Each phi_j vanishes with a unit in either slot and is cyclic, so
# phi_j(W, W) = 0, and pairing that sum with W2 on the right and W1 on the
# left gives, for j = 1, 2,
#     z1 phi_j(W1, W2) - z3 phi_j(W2, W3) + phi_j(E, W2) = 0,
#     z2 phi_j(W1, W2) + z3 phi_j(W1, W3) + phi_j(W1, E) = 0.
# They hold exactly at every order M, at every point with z1 != 0 and at
# every twist: no convergence of the series is used.


def neumann_resolvent(mats: Sequence[TorusElement], z: Sequence,
                      order: int) -> TorusElement:
    """R_M = z1^-1 sum_{t<=M} (-(z2 A2 + z3 A3)/z1)^t, by `TorusElement`
    `*` and `+`, in exact or numeric mode.

    Exact mode takes the coordinates as Gaussian rationals (`Scalar`),
    numeric mode as complex numbers. R_M is defined wherever z1 != 0,
    inside the region where the series converges or not. Raises ValueError
    for an order below 1, a pencil that is not three elements of one
    configuration starting with 1, a point that is not three coordinates,
    a nan or infinite coordinate, and z1 = 0.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if len(mats) != 3 or len(z) != 3:
        raise ValueError("expected three elements and a three-component point")
    config = mats[0].config
    for x in mats[1:]:
        if x.config != config:
            raise ValueError("torus elements carry different configurations")
    if mats[0] != TorusElement.one(config):
        raise ValueError("the first element of the pencil must be 1")
    if config.mode == "numeric":
        z = tuple(complex(c) for c in z)
        if not all(map(cmath.isfinite, z)):
            raise ValueError(f"point {z} has a non-finite coordinate")
    if z[0] == 0:
        raise ValueError("z1 must be nonzero")
    step = (mats[1] * z[1] + mats[2] * z[2]) * (-1 / z[0])
    power = acc = TorusElement.one(config)
    for _ in range(order):
        power = power * step
        acc = acc + power
    return acc * (1 / z[0])


# The order M of the resolvent that `factorization_report` checks.
FACTORIZATION_ORDER = 2

# N of the rounding bound gamma_N K at order M (see
# `FactorizationSample.rounding_bounds`), and the unit roundoff u of a double.
_ROUNDINGS = (48 * FACTORIZATION_ORDER + 35
              + 2 * (FACTORIZATION_ORDER + 1) * (FACTORIZATION_ORDER + 2))
_UNIT_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class FactorizationSample:
    """The two equalities at one point, for phi_1 and phi_2.

    `pairs` holds the element pairs (x, y) of the terms,
    (W1, W2), (W2, W3), (E, W2), (W1, W3), (W1, E), and `rows` the
    coefficient of each pair in the first and the second equality:
    (z1, -z3, 1, 0, 0) and (z2, 0, 0, z3, 1). `values[j - 1]` holds
    phi_j of each pair, so `values[j - 1][0]` is phi_j(W1, W2).
    """

    point: tuple
    pairs: tuple
    rows: tuple
    values: tuple

    def residuals(self) -> tuple:
        """Each equality's sum of terms, for j = 1 then 2: zero exactly in
        exact mode, up to rounding in numeric mode."""
        return tuple(sum(c * v for c, v in zip(row, values) if c)
                     for values in self.values for row in self.rows)

    def rounding_bounds(self) -> Tuple[float, ...]:
        """gamma_N K for each residual, in the order of `residuals`
        (numeric mode), with gamma_N = N u / (1 - N u).

        K sums |c| ||x||_1 ||delta_j y||_1 over the terms c phi_j(x, y) of
        the equality, from the computed norms: a first-order bound in the
        sense of Higham (Accuracy and Stability of Numerical Algorithms,
        ch. 3). N = 48 M + 35 + 2 (M + 1)(M + 2), 155 at M = 2, counts
        the roundings on the longest path to a term, each complex product
        counting 3 and each quotient 6 (Higham, lemma 3.5): 13 for the
        step, 24 for each further power of it (two products, a twist, the
        step, and a sum of the at most four term pairs that meet in a
        slot), 1 for the sum R, 9 for scaling it by 1/z1 and 9 for W = R A,
        1 for delta_j, 8 per matched pair of a trace plus its sum of at
        most 2 (M + 1)(M + 2) + 1 pairs, and 5 for the weights and the sum
        of the equality. It holds where every term of A2 and A3 is a
        monomial U^m V^n with |m| + |n| = 1, two at most each, as in the
        suite's pencil: then every twist exponent e has |e| <= 2 at M = 2,
        so lambda^e = exp(e fl(2 pi i theta)) rounds once.
        """
        gamma = (_ROUNDINGS * _UNIT_ROUNDOFF
                 / (1 - _ROUNDINGS * _UNIT_ROUNDOFF))
        return tuple(
            gamma * sum(abs(c) * x.l1_norm() * y.delta(j).l1_norm()
                        for c, (x, y) in zip(row, self.pairs) if c)
            for j in (1, 2) for row in self.rows)


def _factorization_sample(mats: Sequence[TorusElement], point: Sequence,
                          order: int) -> FactorizationSample:
    """Both equalities for phi_1 and phi_2 at one point and order M, in
    either mode: R_M from `neumann_resolvent`, W_i = R_M A_i, and
    E = (-S/z1)^(M+1) as a power of the step, independent of R_M."""
    resolvent = neumann_resolvent(mats, point, order)
    z1, z2, z3 = point
    step = (mats[1] * z2 + mats[2] * z3) * (-1 / z1)
    remainder = step
    for _ in range(order):
        remainder = remainder * step
    w1, w2, w3 = (resolvent * a for a in mats)
    pairs = ((w1, w2), (w2, w3), (remainder, w2), (w1, w3), (w1, remainder))
    phis = (phi_cochain(1), phi_cochain(2))
    return FactorizationSample(
        point=tuple(point), pairs=pairs,
        rows=((z1, -z3, 1, 0, 0), (z2, 0, 0, z3, 1)),
        values=tuple(tuple(phi(list(pair)) for pair in pairs)
                     for phi in phis))


def factorization_report(mats: Sequence[TorusElement],
                         points: Sequence[Sequence]
                         ) -> List[FactorizationSample]:
    """Both equalities of the truncated resolvent at each point, at order
    FACTORIZATION_ORDER, for the pencil (1, A2, A3) in exact or numeric
    mode: one sample per point, in the order of the points. The suite
    judges them: exactly in exact mode, each residual against its
    `FactorizationSample.rounding_bounds` entry in numeric mode. A
    malformed pencil or point raises ValueError (`neumann_resolvent`).
    """
    return [_factorization_sample(mats, point, FACTORIZATION_ORDER)
            for point in points]


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
