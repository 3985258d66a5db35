"""Exact scalars, multivariate polynomials, and rational functions.

Three coefficient domains cover everything downstream:

- ``Scalar``: a Gaussian rational ``a/b + (c/d)*i``, stored in lowest terms
  with positive denominators. Text form: ``"3/2"``, ``"-i"``, ``"1/2+1/3*i"``.
- ``CycloElement``: an element of Q(i)[t] / (t^q - 1), stored as its nonzero
  coefficients by t-power; the coefficient ring used by the
  noncommutative-torus module.
- ``MultiPoly``: a polynomial in variables z1..zn over Scalar, stored as a
  dict from exponent tuples to nonzero coefficients. Text form is graded-lex
  descending with z1 > z2 > ... > zn, e.g. ``"z1*z4-z2*z3"``.

``RatFn`` is a quotient num/den of MultiPoly where den is tracked as
``base**pow``. There is no multivariate GCD: fractions are only reduced by
exact division against the tracked base (in practice a pencil determinant),
and equality is decided by cross-multiplication.

Variable indices in the public API are 1-based, matching the z1..zn naming.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from pencilforms._core import (
    Q_ONE,
    Q_ZERO,
    poly_add,
    poly_dot,
    poly_mul,
    poly_mul_term,
    poly_neg,
    poly_scale,
    poly_sub,
    qadd,
    qinv,
    qmul,
    qneg,
    qnorm,
    qsub,
)

Exponents = tuple  # exponent tuple of length n; one entry per variable


def grlex_key(exps: Exponents) -> tuple:
    """Sort key for graded lexicographic order with z1 > z2 > ... > zn."""
    return (sum(exps), exps)


def _as_q4(value) -> tuple:
    """Coerce an int, Fraction, or Scalar into the kernel 4-tuple form."""
    if isinstance(value, Scalar):
        return value._v
    if isinstance(value, int):
        return (value, 1, 0, 1)
    if isinstance(value, Fraction):
        return (value.numerator, value.denominator, 0, 1)
    raise TypeError(f"cannot coerce {type(value).__name__} to a scalar")


class Scalar:
    """An exact Gaussian rational.

    >>> Scalar(1, 2) + Scalar.i()
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

    @classmethod
    def i(cls) -> "Scalar":
        return cls(0, 1)

    @property
    def real(self) -> Fraction:
        return Fraction(self._v[0], self._v[1])

    @property
    def imag(self) -> Fraction:
        return Fraction(self._v[2], self._v[3])

    @property
    def is_zero(self) -> bool:
        return self._v[0] == 0 and self._v[2] == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other):
        if isinstance(other, Scalar):
            return Scalar.from_q4(qadd(self._v, other._v))
        if isinstance(other, (int, Fraction)):
            return Scalar.from_q4(qadd(self._v, _as_q4(other)))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Scalar):
            return Scalar.from_q4(qsub(self._v, other._v))
        if isinstance(other, (int, Fraction)):
            return Scalar.from_q4(qsub(self._v, _as_q4(other)))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar.from_q4(qsub(_as_q4(other), self._v))
        return NotImplemented

    def __neg__(self) -> "Scalar":
        return Scalar.from_q4(qneg(self._v))

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return Scalar.from_q4(qmul(self._v, other._v))
        if isinstance(other, (int, Fraction)):
            return Scalar.from_q4(qmul(self._v, _as_q4(other)))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if isinstance(other, Scalar):
            return Scalar.from_q4(qmul(self._v, qinv(other._v)))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar.from_q4(qmul(_as_q4(other), qinv(self._v)))
        return NotImplemented

    def inverse(self) -> "Scalar":
        return Scalar.from_q4(qinv(self._v))

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self._v == other._v
        if isinstance(other, (int, Fraction)):
            return self._v == _as_q4(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._v)

    def to_complex(self) -> complex:
        an, ad, bn, bd = self._v
        return complex(an / ad, bn / bd)

    def __str__(self) -> str:
        an, ad, bn, bd = self._v
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
I = Scalar.i()


class CycloElement:
    """An element of Q(i)[t] / (t^q - 1), stored sparsely by t-power.

    The coefficients are a tuple of (exponent, kernel 4-tuple) pairs sorted
    by exponent, holding only the nonzero ones, so the zero element has no
    terms. Multiplication is cyclic convolution: exponents reduce mod q. The
    class serves as the exact coefficient ring of the noncommutative torus,
    where the deformation parameter is t^p for a chosen power p.
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
        if isinstance(other, CycloElement):
            if other.q != self.q:
                raise ValueError(f"mixed orders: {self.q} vs {other.q}")
            return other
        if isinstance(other, (Scalar, int, Fraction)):
            return CycloElement.from_scalar(self.q, other)
        return None

    def __add__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        if not w._terms:
            return self
        if not self._terms:
            return w
        out = dict(self._terms)
        for e, c in w._terms:
            prev = out.get(e)
            if prev is None:
                out[e] = c
                continue
            total = qadd(prev, c)
            if total == Q_ZERO:
                del out[e]
            else:
                out[e] = total
        return CycloElement._make(self.q, tuple(sorted(out.items())))

    __radd__ = __add__

    def __sub__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return self + (-w)

    def __rsub__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return w + (-self)

    def __neg__(self) -> "CycloElement":
        return CycloElement._make(self.q, tuple((e, qneg(c))
                                                for e, c in self._terms))

    def __mul__(self, other):
        """Product; an operand that is one term c*t^a rotates and scales
        the other, so scalars and powers of lambda need no convolution."""
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return CycloElement._make(self.q, _product(self._terms, w._terms,
                                                   self.q, 0, Q_ONE))

    __rmul__ = __mul__

    def mul_rotate(self, other: "CycloElement", power: int,
                   scale: int) -> "CycloElement":
        """self * other * scale * t^power as one product.

        The torus twists each monomial product by a power of lambda = t^p
        and psi2 weights it by an integer, so both go into the one result.
        """
        q = self.q
        if other.q != q:
            raise ValueError(f"mixed orders: {q} vs {other.q}")
        return CycloElement._make(q, _product(self._terms, other._terms, q,
                                              power, (scale, 1, 0, 1)))

    def __eq__(self, other) -> bool:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return self._terms == w._terms

    def __hash__(self) -> int:
        return hash((self.q, self._terms))

    def __str__(self) -> str:
        parts = []
        for e, c in reversed(self._terms):
            mono = "" if e == 0 else ("t" if e == 1 else f"t^{e}")
            parts.append(_term_str(Scalar.from_q4(c), mono, first=not parts))
        return "".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"CycloElement(q={self.q}, '{self}')"


def _product(x: tuple, y: tuple, q: int, shift: int, c: tuple) -> tuple:
    """Terms of x * y * c * t^shift for sparse terms x, y and a 4-tuple c.

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


class MultiPoly:
    """A polynomial in z1..zn with Gaussian-rational coefficients.

    Internally a dict from exponent tuples to kernel 4-tuples; zero
    coefficients are never stored, so the zero polynomial has no terms.
    """

    __slots__ = ("n", "_terms", "_hash")

    def __init__(self, n: int, terms: Optional[dict] = None):
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = n
        self._terms = terms if terms is not None else {}
        self._hash = None

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
                out[exps] = qadd(out[exps], v) if exps in out else v
                if out[exps] == Q_ZERO:
                    del out[exps]
        return cls(n, out)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple]:
        """Yield (exponent tuple, Scalar) pairs in descending graded-lex order."""
        for exps in sorted(self._terms, key=grlex_key, reverse=True):
            yield exps, Scalar.from_q4(self._terms[exps])

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

    def __sub__(self, other):
        if isinstance(other, MultiPoly):
            self._check(other)
            return MultiPoly(self.n, poly_sub(self._terms, other._terms))
        if isinstance(other, (Scalar, int, Fraction)):
            return self - MultiPoly.constant(self.n, other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.n, poly_neg(self._terms))

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            self._check(other)
            return MultiPoly(self.n, poly_mul(self._terms, other._terms))
        if isinstance(other, (Scalar, int, Fraction)):
            return MultiPoly(self.n, poly_scale(self._terms, _as_q4(other)))
        return NotImplemented

    __rmul__ = __mul__

    @classmethod
    def dot(cls, n: int, pairs) -> "MultiPoly":
        """The sum of x*y over the (x, y) pairs of polynomials in n
        variables, taken in one kernel pass (`_core.poly_dot`)."""
        terms = []
        for x, y in pairs:
            if x.n != n or y.n != n:
                raise ValueError(f"mixed variable counts: {x.n}, {y.n} vs {n}")
            terms.append((x._terms, y._terms))
        return cls(n, poly_dot(terms))

    def __pow__(self, m: int) -> "MultiPoly":
        if m < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.one(self.n)
        for _ in range(m):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
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
        """Partial derivative with respect to z_var (1-based)."""
        if not 1 <= var <= self.n:
            raise ValueError(f"variable index {var} outside 1..{self.n}")
        k = var - 1
        out = {}
        for exps, c in self._terms.items():
            e = exps[k]
            if e == 0:
                continue
            new = exps[:k] + (e - 1,) + exps[k + 1:]
            v = qmul(c, (e, 1, 0, 1))
            out[new] = qadd(out[new], v) if new in out else v
        return MultiPoly(self.n, {e: c for e, c in out.items() if c != Q_ZERO})

    def evaluate(self, point: Sequence[complex]) -> complex:
        """Numeric evaluation at a complex point of length n."""
        if len(point) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(point)}")
        total = 0j
        for exps, c in self._terms.items():
            term = Scalar.from_q4(c).to_complex()
            for z, e in zip(point, exps):
                if e:
                    term *= z ** e
            total += term
        return total

    def exact_divide(self, d: "MultiPoly") -> Optional["MultiPoly"]:
        """Return q with self == q*d, or None when no such polynomial exists.

        Leading-term cancellation in graded-lex order; with a single divisor
        the first non-divisible leading term proves non-divisibility.
        """
        if not isinstance(d, MultiPoly):
            raise TypeError("divisor must be a MultiPoly")
        self._check(d)
        if d.is_zero:
            raise ZeroDivisionError("exact division by the zero polynomial")
        d_lead = max(d._terms, key=grlex_key)
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
            rem = poly_sub(rem, poly_mul_term(d._terms, exps, coeff))
        return MultiPoly(self.n, quo)

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for exps, coeff in self.terms():
            mono = "*".join(
                f"z{k + 1}" if e == 1 else f"z{k + 1}^{e}"
                for k, e in enumerate(exps) if e
            )
            parts.append(_term_str(coeff, mono, first=not parts))
        return "".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly(n={self.n}, '{self}')"

    @classmethod
    def parse(cls, text: str, n: int) -> "MultiPoly":
        """Parse the text form produced by ``__str__`` (round-trip exact).

        A variable's exponent in one factor may not exceed `MAX_EXPONENT`.
        """
        return _parse_poly(text, n)


def _term_str(coeff: Scalar, mono: str, first: bool) -> str:
    """Render one term; elides unit coefficients, pulls real signs out front."""
    an, ad, bn, bd = coeff._v
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
    body = f"({coeff})"
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

    Keeping the denominator factored as a tracked power makes derivative and
    reduction steps cheap: differentiation raises pow by one instead of
    squaring the denominator, and ``reduce`` strips base factors from the
    numerator by exact division. Equality is cross-multiplication, so
    unreduced representations still compare correctly.
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
            num = num * (base.constant_value().inverse() ** pow)
            base, pow = MultiPoly.one(num.n), 0
        self.num = num
        self.den_base = base
        self.den_pow = pow
        self._den = None

    @classmethod
    def zero(cls, n: int) -> "RatFn":
        return cls(MultiPoly.zero(n))

    @classmethod
    def one(cls, n: int) -> "RatFn":
        return cls(MultiPoly.one(n))

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

    def partial(self, var: int) -> "RatFn":
        """Quotient-rule derivative; raises the tracked power by one."""
        if self.den_pow == 0:
            return RatFn(self.num.partial(var))
        num = (self.num.partial(var) * self.den_base
               - self.num * self.den_base.partial(var) * self.den_pow)
        return RatFn.over_power(num, self.den_base, self.den_pow + 1).reduce()

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

    def evaluate(self, point: Sequence[complex]) -> complex:
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {list(point)}")
        return self.num.evaluate(point) / d

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
