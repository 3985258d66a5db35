"""Exact scalars, multivariate polynomials, and rational functions.

Three coefficient domains cover everything downstream:

- ``Scalar``: a Gaussian rational ``a/b + (c/d)*i``, stored in lowest terms
  with positive denominators. Text form: ``"3/2"``, ``"-i"``, ``"1/2+1/3*i"``.
- ``CycloElement``: an element of Q(i)[t] / (t^q - 1), stored as its nonzero
  coefficients by t-power; the coefficient ring used by the
  noncommutative-torus module.
- ``MultiPoly``: a polynomial in variables z1..zn over Scalar, stored as a
  dict from exponent tuples to nonzero coefficients, or packed for the
  kernel until that dict is read. Text form is graded-lex descending with
  z1 > z2 > ... > zn, e.g. ``"z1*z4-z2*z3"``.

``RatFn`` is a quotient num/den of MultiPoly where den is tracked as
``base**pow``. There is no multivariate GCD: fractions are only reduced by
exact division against the tracked base (in practice a pencil determinant),
and equality is decided by cross-multiplication.

Variable indices in the public API are 1-based, matching the z1..zn naming.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from functools import lru_cache
from operator import ge
from typing import Iterator, Optional, Sequence

from pencilforms._core import (
    Q_ONE,
    Q_ZERO,
    packed_equal,
    packed_exponents,
    packed_neg,
    packed_partial,
    packed_scale,
    packed_sub,
    poly_add,
    poly_dot,
    poly_mul,
    poly_mul_term,
    poly_pack,
    poly_scale,
    poly_unpack,
    qadd,
    qinv,
    qmul,
    qneg,
    qnorm,
)

Exponents = tuple  # exponent tuple of length n; one entry per variable


def grlex_key(exps: Exponents) -> tuple:
    """Sort key for graded lexicographic order with z1 > z2 > ... > zn."""
    return (sum(exps), exps)


def _as_q4(value) -> tuple:
    """Coerce an int, Fraction, or Scalar into the kernel 4-tuple form;
    TypeError for any other type. Pencil building runs it on every entry,
    so it calls nothing further."""
    if isinstance(value, Scalar):
        return value._v
    if isinstance(value, int):
        return (value, 1, 0, 1)
    if isinstance(value, Fraction):
        return (value.numerator, value.denominator, 0, 1)
    raise TypeError(f"cannot coerce {type(value).__name__} to a scalar")


class Scalar:
    """An exact Gaussian rational.

    `+`, `*`, `==` and the division of another value by a Scalar read
    their operand through `_as_q4`; another type gives NotImplemented, so
    a `CycloElement` operand takes over and any other raises TypeError or
    compares unequal.

    >>> Scalar(Fraction(1, 2), 1)
    Scalar('1/2+i')
    """

    __slots__ = ("_v",)

    def __init__(self, real=0, imag=0):
        rn, rd = _as_frac_pair(real)
        bn, bd = _as_frac_pair(imag)
        self._v = qnorm(rn, rd, bn, bd)

    @classmethod
    def from_q4(cls, v: tuple) -> "Scalar":
        s = object.__new__(cls)
        s._v = v
        return s

    @property
    def is_zero(self) -> bool:
        return self._v[0] == 0 and self._v[2] == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other):
        try:
            return Scalar.from_q4(qadd(self._v, _as_q4(other)))
        except TypeError:
            return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar.from_q4(qneg(self._v))

    def __mul__(self, other):
        try:
            return Scalar.from_q4(qmul(self._v, _as_q4(other)))
        except TypeError:
            return NotImplemented

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        try:
            return Scalar.from_q4(qmul(_as_q4(other), qinv(self._v)))
        except TypeError:
            return NotImplemented

    def inverse(self) -> "Scalar":
        return Scalar.from_q4(qinv(self._v))

    def __eq__(self, other) -> bool:
        try:
            return self._v == _as_q4(other)
        except TypeError:
            return NotImplemented

    def to_complex(self) -> complex:
        an, ad, bn, bd = self._v
        return complex(an / ad, bn / bd)

    def __str__(self) -> str:
        return _q4_str(self._v)

    def __repr__(self) -> str:
        return f"Scalar('{self}')"

    @classmethod
    def parse(cls, text: str) -> "Scalar":
        """Parse ``"a/b"``, ``"c/d*i"``, or ``"a/b+c/d*i"`` (signs allowed)."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty scalar literal")
        re_part = Fraction(0)
        im_part = Fraction(0)
        seen_re = seen_im = False
        for chunk in _split_signed(s):
            if chunk in ("i", "+i", "-i"):
                part, is_im = Fraction(-1 if chunk == "-i" else 1), True
            elif chunk.endswith("*i"):
                part, is_im = _parse_fraction(chunk[:-2]), True
            elif chunk.endswith("i"):
                part, is_im = _parse_fraction(chunk[:-1]), True
            else:
                part, is_im = _parse_fraction(chunk), False
            if is_im:
                if seen_im:
                    raise ValueError(f"malformed scalar literal: {text!r}")
                im_part, seen_im = part, True
            else:
                if seen_re:
                    raise ValueError(f"malformed scalar literal: {text!r}")
                re_part, seen_re = part, True
        return cls(re_part, im_part)


def _as_frac_pair(value) -> tuple:
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _frac_str(n: int, d: int) -> str:
    return str(n) if d == 1 else f"{n}/{d}"


def _q4_str(v: tuple) -> str:
    """The text form of the Gaussian rational of a kernel 4-tuple."""
    an, ad, bn, bd = v
    if bn == 0:
        return _frac_str(an, ad)
    imag = _frac_str(bn, bd)
    if imag == "1":
        imag = "i"
    elif imag == "-1":
        imag = "-i"
    else:
        imag += "*i"
    if an == 0:
        return imag
    sign = "+" if bn > 0 else ""
    return _frac_str(an, ad) + sign + imag


def _parse_fraction(text: str) -> Fraction:
    if not _re.fullmatch(r"[+-]?\d+(/\d+)?", text):
        raise ValueError(f"malformed rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {text!r}")


def _split_signed(s: str) -> Iterator[str]:
    """Split a parenthesis-free expression into signed top-level chunks."""
    start = 0
    for k in range(1, len(s)):
        if s[k] in "+-" and s[k - 1] not in "+-*/^(":
            yield s[start:k]
            start = k
    yield s[start:]


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


class CycloElement:
    """An element of Q(i)[t] / (t^q - 1), stored sparsely by t-power.

    The coefficients are a tuple of (exponent, kernel 4-tuple) pairs sorted
    by exponent, holding only the nonzero ones, so the zero element has no
    terms. Multiplication is cyclic convolution: exponents reduce mod q. The
    class serves as the exact coefficient ring of the noncommutative torus,
    where the deformation parameter is t^p for a chosen power p.

    `+`, `*` and `==` read their operand through `_coerce`, except that
    `*` scales by an int directly.
    """

    __slots__ = ("q", "_terms")

    def __init__(self, q: int, coeffs: Sequence):
        """Build from a dense sequence of q coefficients, t^0 first."""
        if q < 1:
            raise ValueError("order q must be >= 1")
        if len(coeffs) != q:
            raise ValueError(f"expected {q} coefficients, got {len(coeffs)}")
        self.q = q
        values = (c if isinstance(c, tuple) else _as_q4(c) for c in coeffs)
        self._terms = tuple((e, v) for e, v in enumerate(values)
                            if v != Q_ZERO)

    @classmethod
    def _make(cls, q: int, terms: tuple) -> "CycloElement":
        """Trusted constructor: sorted (exponent, nonzero 4-tuple) pairs."""
        self = object.__new__(cls)
        self.q = q
        self._terms = terms
        return self

    @classmethod
    def zero(cls, q: int) -> "CycloElement":
        return cls.from_scalar(q, 0)

    @classmethod
    def one(cls, q: int) -> "CycloElement":
        return cls.root(q, 0)

    @classmethod
    def root(cls, q: int, power: int = 1) -> "CycloElement":
        """The monomial t^power (power taken mod q)."""
        if q < 1:
            raise ValueError("order q must be >= 1")
        return cls._make(q, ((power % q, Q_ONE),))

    @classmethod
    def from_scalar(cls, q: int, s) -> "CycloElement":
        if q < 1:
            raise ValueError("order q must be >= 1")
        v = _as_q4(s)
        return cls._make(q, ((0, v),) if v != Q_ZERO else ())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def _coerce(self, other) -> Optional["CycloElement"]:
        """other if it has this order (ValueError if not), a scalar that
        `_as_q4` reads as a constant, or None for any other type."""
        if isinstance(other, CycloElement):
            if other.q != self.q:
                raise ValueError(f"mixed orders: {self.q} vs {other.q}")
            return other
        try:
            return CycloElement.from_scalar(self.q, other)
        except TypeError:
            return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycloElement._make(self.q, _sum_terms(self._terms,
                                                     other._terms))

    __radd__ = __add__

    def __neg__(self) -> "CycloElement":
        return CycloElement._make(self.q, _neg_terms(self._terms))

    def __mul__(self, other):
        """Product, one `_product` step; a scalar is a one-term element,
        except an int, which scales each coefficient."""
        if type(other) is int:
            c = (other, 1, 0, 1)
            return CycloElement._make(self.q, tuple(
                (e, qmul(v, c)) for e, v in self._terms) if other else ())
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycloElement._make(self.q, _product(self._terms, other._terms,
                                                   self.q, 0, Q_ONE))

    __rmul__ = __mul__

    def mul_rotate(self, other: "CycloElement", power: int,
                   scale: int = 1) -> "CycloElement":
        """self * other * scale * t^power as one `_product` step.

        The torus twists each term pair of a product by a power of
        lambda = t^p, and psi2 weights it by an integer, so both go into
        the one result.
        """
        q = self.q
        if other.q != q:
            raise ValueError(f"mixed orders: {q} vs {other.q}")
        return CycloElement._make(q, _product(self._terms, other._terms, q,
                                              power, (scale, 1, 0, 1)))

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __str__(self) -> str:
        parts = []
        for e, c in reversed(self._terms):
            mono = "" if e == 0 else ("t" if e == 1 else f"t^{e}")
            parts.append(_term_str(c, mono, first=not parts))
        return "".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"CycloElement(q={self.q}, '{self}')"


def _sum_terms(x: tuple, y: tuple) -> tuple:
    """Terms of x + y for sparse term tuples; a sum that cancels is dropped."""
    if not y:
        return x
    if not x:
        return y
    out = dict(x)
    for e, c in y:
        prev = out.get(e)
        if prev is None:
            out[e] = c
            continue
        total = qadd(prev, c)
        if total == Q_ZERO:
            del out[e]
        else:
            out[e] = total
    return tuple(sorted(out.items()))


def _neg_terms(x: tuple) -> tuple:
    return tuple((e, qneg(c)) for e, c in x)


def _product(x: tuple, y: tuple, q: int, shift: int, c: tuple) -> tuple:
    """Terms of x * y * c * t^shift for sparse terms x, y and a 4-tuple c.

    This is the one product step of `CycloElement`: `*` takes it with
    c = 1 and no shift, and `mul_rotate` with the torus twist and weight.
    Products of nonzero Gaussian rationals are nonzero, so a one-term
    operand b*t^s rotates the other by s and scales it by b*c once; only
    two operands with several terms each are convolved.
    """
    if not x or not y or c == Q_ZERO:
        return ()
    if len(x) == 1:
        x, y = y, x
    if len(y) > 1:
        x, y = _cyclic_product(x, y, q), ((0, Q_ONE),)
    (b, cb), = y
    if c != Q_ONE:
        cb = qmul(cb, c)
    shift += b
    if len(x) == 1:
        (a, ca), = x
        return (((a + shift) % q, qmul(ca, cb)),)
    return tuple(sorted(((e + shift) % q, v if cb == Q_ONE else qmul(v, cb))
                        for e, v in x))


def _cyclic_product(x: tuple, y: tuple, q: int) -> tuple:
    """Cyclic convolution of two sparse term tuples."""
    out = {}
    for a, ca in x:
        for b, cb in y:
            k = (a + b) % q
            term = qmul(ca, cb)
            out[k] = qadd(out[k], term) if k in out else term
    return tuple(sorted((k, v) for k, v in out.items() if v != Q_ZERO))


# Above this many term pairs a product of two polynomials is a one-pair
# `poly_dot` sum; below it, setting up a packed product costs more than it
# saves, and `poly_mul` multiplies coefficient by coefficient. The kernel's
# other size rule, `_core._DENSE_MIN_PAIRS`, picks a sum's accumulator.
_DIRECT_MAX_PAIRS = 32


class MultiPoly:
    """A polynomial in z1..zn with Gaussian-rational coefficients.

    Internally a dict from exponent tuples to kernel 4-tuples (`_terms`);
    zero coefficients are never stored, so the zero polynomial has no
    terms. Its packed form (`_core.poly_pack`) holds the same polynomial
    for kernel sums. A polynomial starts from either form: a term dict,
    packed the first time the polynomial enters a `poly_dot` sum, or the
    packed result of a sum, whose term dict is a view built on the first
    read of `_terms`, in the packed term order. Neither form is changed
    after construction, by this class or by whoever built it, so each is
    kept for the polynomial's lifetime, as is the hash. Sums (`dot`),
    large products, `-x`, `x - y`, int scaling of a polynomial with no
    term dict yet and `partial` work on the packed form and return packed
    results; `-x` shares x's keys. `==` of two polynomials with no term
    dict yet compares their packed forms. `grlex_ends` reads the packed
    keys of a polynomial with no term dict yet, so a division that the
    monomial test refuses builds none. Adding, other scaling and the steps
    of `exact_divide` read the term dicts. Only `_core` and this class see
    the packed form.
    """

    __slots__ = ("n", "_dict", "_hash", "_packed")

    def __init__(self, n: int, terms: Optional[dict] = None):
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = n
        self._dict = terms if terms is not None else {}
        self._hash = None
        self._packed = None

    @classmethod
    def _of_packed(cls, n: int, packed: tuple) -> "MultiPoly":
        """The polynomial of a packed form; its term dict waits for a read."""
        p = cls.__new__(cls)
        p.n, p._dict, p._hash, p._packed = n, None, None, packed
        return p

    @property
    def _terms(self) -> dict:
        if self._dict is None:
            self._dict = poly_unpack(self._packed)
        return self._dict

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "MultiPoly":
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> "MultiPoly":
        return cls.constant(n, ONE)

    @classmethod
    def constant(cls, n: int, value) -> "MultiPoly":
        v = _as_q4(value)
        if v == Q_ZERO:
            return cls.zero(n)
        return cls(n, {(0,) * n: v})

    @classmethod
    def variable(cls, n: int, var: int) -> "MultiPoly":
        """The monomial z_var (var is 1-based)."""
        if not 1 <= var <= n:
            raise ValueError(f"variable index {var} outside 1..{n}")
        exps = tuple(1 if k == var - 1 else 0 for k in range(n))
        return cls(n, {exps: Q_ONE})

    @classmethod
    def from_terms(cls, n: int, terms: dict) -> "MultiPoly":
        """Build from {exponent tuple: Scalar/int/Fraction}, dropping zeros."""
        out = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != n or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for n={n}")
            v = _as_q4(coeff)
            if v != Q_ZERO:
                out[exps] = v
        return cls(n, out)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not len(self)

    def __len__(self) -> int:  # truth testing reads it as well
        if self._dict is None:
            return len(self._packed[4])
        return len(self._dict)

    def constant_value(self) -> Scalar:
        """The scalar value of a constant polynomial; error otherwise."""
        if self.is_zero:
            return ZERO
        if len(self._terms) == 1 and (0,) * self.n in self._terms:
            return Scalar.from_q4(self._terms[(0,) * self.n])
        raise ValueError(f"not a constant polynomial: {self}")

    @property
    def is_constant(self) -> bool:
        return self.is_zero or self._terms.keys() == {(0,) * self.n}

    def homogeneity_degree(self) -> Optional[int]:
        """The common total degree of all monomials, or None if mixed.

        The zero polynomial is an error: it is homogeneous of every degree.
        """
        if self.is_zero:
            raise ValueError("zero polynomial has no homogeneity degree")
        degrees = {sum(e) for e in self._terms}
        return degrees.pop() if len(degrees) == 1 else None

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.n != other.n:
            raise ValueError(f"mixed variable counts: {self.n} vs {other.n}")

    def __add__(self, other):
        if isinstance(other, MultiPoly):
            self._check(other)
            return MultiPoly(self.n, poly_add(self._terms, other._terms))
        if isinstance(other, (Scalar, int, Fraction)):
            return self + MultiPoly.constant(self.n, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._of_packed(self.n, packed_neg(self.packed()))

    def __sub__(self, other):
        if isinstance(other, MultiPoly):
            self._check(other)
            return MultiPoly._of_packed(self.n, packed_sub(self.packed(),
                                                           other.packed()))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            self._check(other)
            if len(self) * len(other) > _DIRECT_MAX_PAIRS:
                return MultiPoly._of_packed(self.n, poly_dot(
                    ((self.packed(), other.packed()),)))
            return MultiPoly(self.n, poly_mul(self._terms, other._terms))
        if type(other) is int and self._dict is None:
            return MultiPoly._of_packed(self.n,
                                        packed_scale(self._packed, other))
        if isinstance(other, (Scalar, int, Fraction)):
            return MultiPoly(self.n, poly_scale(self._terms, _as_q4(other)))
        return NotImplemented

    __rmul__ = __mul__

    def packed(self) -> tuple:
        """The packed form of this polynomial for `_core.poly_dot`,
        built on the first call and kept."""
        if self._packed is None:
            self._packed = poly_pack(self._dict)
        return self._packed

    @classmethod
    def dot(cls, n: int, pairs) -> "MultiPoly":
        """The sum of x*y over the (x, y) pairs of polynomials in n
        variables, taken in one kernel pass (`_core.poly_dot`)."""
        operands = []
        for x, y in pairs:
            if x.n != n or y.n != n:
                raise ValueError(f"mixed variable counts: {x.n}, {y.n} vs {n}")
            operands.append((x.packed(), y.packed()))
        return cls._of_packed(n, poly_dot(operands))

    def __pow__(self, m: int) -> "MultiPoly":
        if m < 0:
            raise ValueError("negative power of a polynomial")
        if m == 0:
            return MultiPoly.one(self.n)
        # the term dict is never changed, so self**1 may be self itself
        out = self
        for _ in range(m - 1):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            if self._dict is None and other._dict is None:
                return self.n == other.n and packed_equal(self._packed,
                                                          other._packed)
            return self.n == other.n and self._terms == other._terms
        if isinstance(other, (Scalar, int, Fraction)):
            return self == MultiPoly.constant(self.n, other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, frozenset(self._terms.items())))
        return self._hash

    # -- calculus and division ---------------------------------------------

    def partial(self, var: int) -> "MultiPoly":
        """Partial derivative with respect to z_var (1-based), taken on the
        packed form (`_core.packed_partial`) and returned packed, in this
        polynomial's term order; so a partial that enters a kernel sum is
        never unpacked and packed again."""
        if not 1 <= var <= self.n:
            raise ValueError(f"variable index {var} outside 1..{self.n}")
        return MultiPoly._of_packed(self.n,
                                    packed_partial(self.packed(), var - 1))

    def grlex_ends(self) -> tuple:
        """(lead, trail): the largest and smallest exponent tuples of a
        nonzero polynomial in graded-lex order, read from the term dict or,
        when there is none yet, from the packed keys, which stay packed
        (`_core.packed_exponents`)."""
        exps = (packed_exponents(self._packed) if self._dict is None
                else self._dict)
        graded = [(sum(e), e) for e in exps]
        return max(graded)[1], min(graded)[1]

    def ends_divisible_by(self, ends: tuple) -> bool:
        """Whether the monomials of ends, a divisor's `grlex_ends`, divide
        this polynomial's leading and trailing monomials; true of zero.

        In a monomial order the leading and the trailing monomial of a
        product are the products of its factors' (Cox, Little & O'Shea,
        Ideals, Varieties, and Algorithms, ch. 2), so False proves that the
        divisor does not divide this polynomial.
        """
        if self.is_zero:
            return True
        lead, trail = self.grlex_ends()
        return all(map(ge, lead, ends[0])) and all(map(ge, trail, ends[1]))

    def exact_divide(self, d: "MultiPoly") -> Optional["MultiPoly"]:
        """Return q with self == q*d, or None when no such polynomial exists.

        When d's graded-lex leading or trailing monomial does not divide
        self's, the result is None before any division step, and a packed
        dividend builds no term dict (`ends_divisible_by`). Otherwise
        leading-term cancellation in graded-lex order; with a single
        divisor the first non-divisible leading term proves
        non-divisibility.
        """
        if not isinstance(d, MultiPoly):
            raise TypeError("divisor must be a MultiPoly")
        self._check(d)
        if d.is_zero:
            raise ZeroDivisionError("exact division by the zero polynomial")
        ends = d.grlex_ends()
        if not self.ends_divisible_by(ends):
            return None
        d_lead = ends[0]
        d_lead_inv = qinv(d._terms[d_lead])
        rem = dict(self._terms)
        quo: dict = {}
        while rem:
            r_lead = max(rem, key=grlex_key)
            exps = tuple(a - b for a, b in zip(r_lead, d_lead))
            if any(e < 0 for e in exps):
                return None
            coeff = qmul(rem[r_lead], d_lead_inv)
            quo[exps] = coeff
            rem = poly_add(rem, poly_mul_term(d._terms, exps, qneg(coeff)))
        return MultiPoly(self.n, quo)

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        """The terms in descending graded-lex order, each coefficient
        formatted from its kernel 4-tuple (`_term_str`)."""
        terms = self._terms
        if not terms:
            return "0"
        order = sorted([(sum(e), e) for e in terms], reverse=True)
        return "".join([_term_str(terms[e], _mono_str(e), not i)
                        for i, (_, e) in enumerate(order)])

    def __repr__(self) -> str:
        return f"MultiPoly(n={self.n}, '{self}')"

    @classmethod
    def parse(cls, text: str, n: int) -> "MultiPoly":
        """Parse the text form produced by ``__str__`` (round-trip exact).

        A variable's exponent in one factor may not exceed `MAX_EXPONENT`.
        """
        return _parse_poly(text, n)


@lru_cache(maxsize=1024)
def _mono_str(exps: Exponents) -> str:
    """The text of the monomial z^exps, "" for the constant one."""
    return "*".join(f"z{k + 1}" if e == 1 else f"z{k + 1}^{e}"
                    for k, e in enumerate(exps) if e)


def _term_str(coeff: tuple, mono: str, first: bool) -> str:
    """Render one term of the kernel 4-tuple coeff; elides unit
    coefficients, pulls real signs out front."""
    an, ad, bn, bd = coeff
    if bn == 0:
        sign = "-" if an < 0 else ("" if first else "+")
        mag = _frac_str(abs(an), ad)
        if mono:
            return sign + (mono if mag == "1" else f"{mag}*{mono}")
        return sign + mag
    if an == 0:
        sign = "-" if bn < 0 else ("" if first else "+")
        mag = _frac_str(abs(bn), bd)
        imag = "i" if mag == "1" else f"{mag}*i"
        return sign + (f"{imag}*{mono}" if mono else imag)
    body = f"({_q4_str(coeff)})"
    lead = "" if first else "+"
    return lead + (f"{body}*{mono}" if mono else body)


_VAR_RE = _re.compile(r"z(\d+)(?:\^(\d+))?\Z")

# Largest exponent of a variable in one factor of a polynomial literal; a
# larger one is rejected while parsing, before any arithmetic.
MAX_EXPONENT = 1000


def _split_top(s: str, seps: str) -> list:
    """Split on separators at parenthesis depth zero, keeping sign splits."""
    chunks, depth, start = [], 0, 0
    for k, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {s!r}")
        elif depth == 0 and ch in seps and k > start:
            chunks.append(s[start:k])
            start = k if ch in "+-" else k + 1
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {s!r}")
    chunks.append(s[start:])
    return chunks


def _parse_poly(text: str, n: int) -> MultiPoly:
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial literal")
    total = MultiPoly.zero(n)
    for chunk in _split_top(s, "+-"):
        if chunk in ("+", "-") or not chunk:
            raise ValueError(f"malformed polynomial literal: {text!r}")
        sign = 1
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign, chunk = -1, chunk[1:]
        term = MultiPoly.constant(n, sign)
        for factor in _split_top(chunk, "*"):
            term = term * _parse_factor(factor, n)
        total = total + term
    return total


def _parse_factor(factor: str, n: int) -> MultiPoly:
    if not factor:
        raise ValueError("empty factor in polynomial literal")
    if factor.startswith("(") and factor.endswith(")"):
        return MultiPoly.constant(n, Scalar.parse(factor[1:-1]))
    if factor == "i":
        return MultiPoly.constant(n, I)
    m = _VAR_RE.match(factor)
    if m:
        var = int(m.group(1))
        if not 1 <= var <= n:
            raise ValueError(f"variable z{var} outside z1..z{n}")
        exp = int(m.group(2)) if m.group(2) else 1
        if exp > MAX_EXPONENT:
            raise ValueError(f"exponent {exp} of z{var} exceeds the limit "
                             f"of {MAX_EXPONENT}")
        exps = tuple(exp if k == var - 1 else 0 for k in range(n))
        return MultiPoly(n, {exps: Q_ONE})
    return MultiPoly.constant(n, Scalar.parse(factor))


class RatFn:
    """A quotient num / base**pow of multivariate polynomials.

    Keeping the denominator factored as a tracked power makes reduction
    cheap: ``reduce`` strips base factors from the numerator by exact
    division, and for a fixed base its result is unique. Equality is
    cross-multiplication, so unreduced representations still compare
    correctly.
    """

    __slots__ = ("num", "den_base", "den_pow", "_den")

    def __init__(self, num: MultiPoly, den: Optional[MultiPoly] = None):
        if den is None:
            self._init_parts(num, MultiPoly.one(num.n), 0)
        else:
            num._check(den)
            if den.is_zero:
                raise ZeroDivisionError("zero denominator")
            self._init_parts(num, den, 1)

    @classmethod
    def over_power(cls, num: MultiPoly, base: MultiPoly, pow: int) -> "RatFn":
        r = object.__new__(cls)
        if pow < 0:
            raise ValueError("negative denominator power")
        if pow > 0 and base.is_zero:
            raise ZeroDivisionError("zero denominator")
        r._init_parts(num, base, pow)
        return r

    def _init_parts(self, num: MultiPoly, base: MultiPoly, pow: int) -> None:
        if num.is_zero:
            base, pow = MultiPoly.one(num.n), 0
        elif pow > 0 and base.is_constant:
            num = num * (base ** pow).constant_value().inverse()
            base, pow = MultiPoly.one(num.n), 0
        self.num = num
        self.den_base = base
        self.den_pow = pow
        self._den = None

    @classmethod
    def zero(cls, n: int) -> "RatFn":
        return cls(MultiPoly.zero(n))

    @property
    def n(self) -> int:
        return self.num.n

    @property
    def den(self) -> MultiPoly:
        if self._den is None:
            self._den = self.den_base ** self.den_pow
        return self._den

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.is_zero

    def _same_base(self, other: "RatFn") -> bool:
        return (self.den_base == other.den_base
                or self.den_pow == 0 or other.den_pow == 0)

    def _aligned(self, other: "RatFn") -> tuple:
        """Numerators over a common base**pow denominator (same base only)."""
        base = self.den_base if self.den_pow else other.den_base
        hi = max(self.den_pow, other.den_pow)
        a = self.num * base ** (hi - self.den_pow)
        b = other.num * base ** (hi - other.den_pow)
        return a, b, base, hi

    def __add__(self, other):
        other = _as_ratfn(other, self.n)
        if other is None:
            return NotImplemented
        if self._same_base(other):
            a, b, base, hi = self._aligned(other)
            return RatFn.over_power(a + b, base, hi)
        return RatFn(self.num * other.den + other.num * self.den,
                     self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_ratfn(other, self.n)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> "RatFn":
        return RatFn.over_power(-self.num, self.den_base, self.den_pow)

    def __mul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return RatFn.over_power(self.num * other, self.den_base,
                                    self.den_pow)
        other = _as_ratfn(other, self.n)
        if other is None:
            return NotImplemented
        if self._same_base(other):
            base = self.den_base if self.den_pow else other.den_base
            return RatFn.over_power(self.num * other.num, base,
                                    self.den_pow + other.den_pow)
        return RatFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfn(other, self.n)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return self * RatFn(other.den, other.num)

    def __rtruediv__(self, other):
        other = _as_ratfn(other, self.n)
        if other is None:
            return NotImplemented
        return other / self

    def __eq__(self, other) -> bool:
        other = _as_ratfn(other, self.n)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None  # cross-multiplied equality is not hash-compatible

    def reduce(self) -> "RatFn":
        """Strip base factors from the numerator by exact division."""
        num, pow = self.num, self.den_pow
        while pow > 0:
            q = num.exact_divide(self.den_base)
            if q is None:
                break
            num, pow = q, pow - 1
        return RatFn.over_power(num, self.den_base, pow)

    def as_polynomial(self) -> Optional[MultiPoly]:
        """The polynomial self equals, or None when the division is inexact."""
        return self.num.exact_divide(self.den)

    def __str__(self) -> str:
        if self.den_pow == 0:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFn('{self}')"


def _as_ratfn(value, n: int) -> Optional[RatFn]:
    if isinstance(value, RatFn):
        if value.n != n:
            raise ValueError(f"mixed variable counts: {n} vs {value.n}")
        return value
    if isinstance(value, MultiPoly):
        return RatFn(value)
    if isinstance(value, (Scalar, int, Fraction)):
        return RatFn(MultiPoly.constant(n, value))
    return None
