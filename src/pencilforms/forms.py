"""Differential forms with exact rational-function coefficients.

A multi-index is a strictly increasing tuple of 1-based variable indices;
``dz^I`` stands for dz_{i1} ^ ... ^ dz_{ir}. `ScalarForm` maps multi-indices
to RatFn coefficients. `MatrixForm` maps multi-indices to PolyMatrix
numerators over a single shared denominator ``base**pow``; keeping the
denominator factored this way makes the exterior derivative raise the power
by one instead of squaring, and lets reduction strip whole powers when every
numerator entry is divisible by the base.

The Maurer-Cartan form of a pencil map f is
``omega_f = f^{-1} df = sum_i adjugate(f) (df/dz_i) / det(f) dz_i``;
`maurer_cartan` builds it with base det(f) and pow 1.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from pencilforms.linalg import PolyMatrix
from pencilforms.ring import MultiPoly, RatFn, Scalar

MultiIndex = Tuple[int, ...]


def check_multi_index(index, n: int) -> MultiIndex:
    idx = tuple(index)
    if any(not 1 <= v <= n for v in idx):
        raise ValueError(f"multi-index {idx} outside 1..{n}")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError(f"multi-index {idx} is not strictly increasing")
    return idx


def sort_index(seq: Sequence[int]) -> Optional[Tuple[MultiIndex, int]]:
    """Sort dz factors into increasing order; None when a factor repeats.

    Returns (sorted tuple, sign), the sign being the parity of the sort.
    """
    if len(set(seq)) != len(seq):
        return None
    sign = 1
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                sign = -sign
    return tuple(sorted(seq)), sign


def _wedge_sums(left: Dict, right: Dict, product) -> Dict:
    """Sum sign * product(a, b) per merged index over the pairs of terms
    of `left` and `right` whose multi-indices are disjoint."""
    out: Dict = {}
    for i_idx, a in left.items():
        for j_idx, b in right.items():
            merged = sort_index(i_idx + j_idx)
            if merged is None:
                continue
            index, sign = merged
            contrib = product(a, b)
            if sign < 0:
                contrib = -contrib
            out[index] = out[index] + contrib if index in out else contrib
    return out


class ScalarForm:
    """A homogeneous-degree form with RatFn coefficients."""

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n: int, degree: int, terms: Optional[Dict] = None):
        if degree < 0:
            raise ValueError("negative form degree")
        self.n = n
        self.degree = degree
        self.terms: Dict[MultiIndex, RatFn] = {}
        for index, coeff in (terms or {}).items():
            index = check_multi_index(index, n)
            if len(index) != degree:
                raise ValueError(f"index {index} has wrong length for degree {degree}")
            if not isinstance(coeff, RatFn):
                coeff = RatFn(coeff) if isinstance(coeff, MultiPoly) \
                    else RatFn(MultiPoly.constant(n, coeff))
            if not coeff.is_zero:
                self.terms[index] = coeff

    @classmethod
    def zero(cls, n: int, degree: int) -> "ScalarForm":
        return cls(n, degree)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, index) -> RatFn:
        return self.terms.get(check_multi_index(index, self.n), RatFn.zero(self.n))

    def _check(self, other: "ScalarForm", same_degree: bool = True) -> None:
        if self.n != other.n:
            raise ValueError("mixed variable counts")
        if same_degree and self.degree != other.degree:
            raise ValueError(f"mixed degrees: {self.degree} vs {other.degree}")

    def __add__(self, other):
        if not isinstance(other, ScalarForm):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for index, coeff in other.terms.items():
            out[index] = out[index] + coeff if index in out else coeff
        return ScalarForm(self.n, self.degree, out)

    def __sub__(self, other):
        if not isinstance(other, ScalarForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ScalarForm":
        return ScalarForm(self.n, self.degree,
                          {i: -c for i, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (RatFn, MultiPoly, Scalar, int, Fraction)):
            return ScalarForm(self.n, self.degree,
                              {i: c * other for i, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def wedge(self, other: "ScalarForm") -> "ScalarForm":
        self._check(other, same_degree=False)
        out = _wedge_sums(self.terms, other.terms, operator.mul)
        return ScalarForm(self.n, self.degree + other.degree, out)

    def exterior_derivative(self) -> "ScalarForm":
        out: Dict[MultiIndex, RatFn] = {}
        for index, coeff in self.terms.items():
            for v in range(1, self.n + 1):
                placed = sort_index((v,) + index)
                if placed is None:
                    continue
                new_index, sign = placed
                contrib = coeff.partial(v) * sign
                if contrib.is_zero:
                    continue
                out[new_index] = out[new_index] + contrib \
                    if new_index in out else contrib
        return ScalarForm(self.n, self.degree + 1, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarForm):
            return NotImplemented
        if self.n != other.n or self.degree != other.degree:
            return False
        for index in self.terms.keys() | other.terms.keys():
            a = self.terms.get(index)
            b = other.terms.get(index)
            if a is None or b is None:
                present = b if a is None else a
                if not present.is_zero:
                    return False
            elif a != b:
                return False
        return True

    __hash__ = None

    def evaluate_at(self, point: Sequence[complex]) -> Dict[MultiIndex, complex]:
        """All coefficients at a point; raises at poles of any coefficient."""
        return {index: coeff.evaluate(point)
                for index, coeff in sorted(self.terms.items())}

    def __repr__(self) -> str:
        if self.is_zero:
            return f"ScalarForm(n={self.n}, degree={self.degree}, 0)"
        body = " + ".join(
            f"[{coeff}] dz{list(index)}" for index, coeff in sorted(self.terms.items())
        )
        return f"ScalarForm({body})"


class MatrixForm:
    """A matrix-valued form: PolyMatrix numerators over a shared base**pow."""

    __slots__ = ("n", "k", "degree", "terms", "den_base", "den_pow")

    def __init__(self, n: int, k: int, degree: int, terms: Dict,
                 den_base: Optional[MultiPoly] = None, den_pow: int = 0):
        self.n = n
        self.k = k
        self.degree = degree
        if den_pow < 0:
            raise ValueError("negative denominator power")
        if den_base is None:
            den_base = MultiPoly.one(n)
        if den_pow > 0 and den_base.is_zero:
            raise ZeroDivisionError("zero denominator")
        if den_pow == 0:
            den_base = MultiPoly.one(n)
        self.den_base = den_base
        self.den_pow = den_pow
        self.terms: Dict[MultiIndex, PolyMatrix] = {}
        for index, mat in terms.items():
            index = check_multi_index(index, n)
            if len(index) != degree:
                raise ValueError(f"index {index} has wrong length for degree {degree}")
            if mat.n != n or mat.k != k:
                raise ValueError("numerator shape mismatch")
            if not mat.is_zero:
                self.terms[index] = mat

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def den(self) -> MultiPoly:
        return self.den_base ** self.den_pow

    def coefficient_num(self, index) -> PolyMatrix:
        """Numerator matrix for dz^index (over den_base**den_pow)."""
        index = check_multi_index(index, self.n)
        return self.terms.get(index, PolyMatrix.zero(self.n, self.k))

    def _join_base(self, other: "MatrixForm") -> MultiPoly:
        if self.n != other.n or self.k != other.k:
            raise ValueError("mixed shapes or variable counts")
        if self.den_pow == 0:
            return other.den_base
        if other.den_pow == 0 or self.den_base == other.den_base:
            return self.den_base
        raise ValueError("matrix forms carry different denominator bases")

    def __add__(self, other):
        if not isinstance(other, MatrixForm):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError(f"mixed degrees: {self.degree} vs {other.degree}")
        base = self._join_base(other)
        hi = max(self.den_pow, other.den_pow)
        a_lift = base ** (hi - self.den_pow)
        b_lift = base ** (hi - other.den_pow)
        out: Dict[MultiIndex, PolyMatrix] = {}
        for index, mat in self.terms.items():
            out[index] = mat * a_lift
        for index, mat in other.terms.items():
            lifted = mat * b_lift
            out[index] = out[index] + lifted if index in out else lifted
        return MatrixForm(self.n, self.k, self.degree, out, base, hi)._reduced()

    def __sub__(self, other):
        if not isinstance(other, MatrixForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "MatrixForm":
        return MatrixForm(self.n, self.k, self.degree,
                          {i: -m for i, m in self.terms.items()},
                          self.den_base, self.den_pow)

    def __mul__(self, other):
        if isinstance(other, (MultiPoly, Scalar, int, Fraction)):
            return MatrixForm(self.n, self.k, self.degree,
                              {i: m * other for i, m in self.terms.items()},
                              self.den_base, self.den_pow)._reduced()
        return NotImplemented

    __rmul__ = __mul__

    def wedge(self, other: "MatrixForm") -> "MatrixForm":
        """Wedge with matrix multiplication on the coefficients."""
        base = self._join_base(other)
        out = _wedge_sums(self.terms, other.terms, operator.mul)
        return MatrixForm(self.n, self.k, self.degree + other.degree, out,
                          base, self.den_pow + other.den_pow)._reduced()

    def wedge_power(self, m: int) -> "MatrixForm":
        if m < 1:
            raise ValueError("wedge power must be >= 1")
        out = self
        for _ in range(m - 1):
            out = out.wedge(self)
        return out

    def exterior_derivative(self) -> "MatrixForm":
        """d of each coefficient; the tracked power rises by one."""
        pow_ = self.den_pow
        base = self.den_base
        dbase = [base.partial(v) for v in range(1, self.n + 1)] if pow_ else None
        out: Dict[MultiIndex, PolyMatrix] = {}
        for index, mat in self.terms.items():
            for v in range(1, self.n + 1):
                placed = sort_index((v,) + index)
                if placed is None:
                    continue
                new_index, sign = placed
                if pow_ == 0:
                    num = mat.partial(v)
                else:
                    num = mat.partial(v) * base - mat * (dbase[v - 1] * pow_)
                if num.is_zero:
                    continue
                num = num * sign
                out[new_index] = out[new_index] + num \
                    if new_index in out else num
        new_pow = pow_ + 1 if pow_ else 0
        return MatrixForm(self.n, self.k, self.degree + 1, out,
                          base, new_pow)._reduced()

    def trace(self, other: Optional["MatrixForm"] = None) -> ScalarForm:
        """tr(self), or tr(self ^ other) without forming the wedge."""
        if other is None:
            return ScalarForm(self.n, self.degree, {
                index: RatFn.over_power(mat.trace(), self.den_base,
                                        self.den_pow).reduce()
                for index, mat in self.terms.items()
            })
        base = self._join_base(other)
        nums = _wedge_sums(self.terms, other.terms, PolyMatrix.trace)
        pow_ = self.den_pow + other.den_pow
        return ScalarForm(self.n, self.degree + other.degree, {
            index: RatFn.over_power(num, base, pow_).reduce()
            for index, num in nums.items()
        })

    def _reduced(self) -> "MatrixForm":
        """Strip base powers dividing every entry of every numerator."""
        if self.den_pow == 0 or not self.terms:
            if self.den_pow > 0 and not self.terms:
                return MatrixForm(self.n, self.k, self.degree, {})
            return self
        terms = self.terms
        pow_ = self.den_pow
        while pow_ > 0:
            divided = {}
            for index, mat in terms.items():
                rows = []
                for row in mat.rows:
                    new_row = []
                    for e in row:
                        q = e.exact_divide(self.den_base)
                        if q is None:
                            return MatrixForm(self.n, self.k, self.degree,
                                              terms, self.den_base, pow_)
                        new_row.append(q)
                    rows.append(new_row)
                divided[index] = PolyMatrix(self.n, rows)
            terms, pow_ = divided, pow_ - 1
        return MatrixForm(self.n, self.k, self.degree, terms,
                          self.den_base, pow_)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixForm):
            return NotImplemented
        if (self.n, self.k, self.degree) != (other.n, other.k, other.degree):
            return False
        a_den, b_den = self.den(), other.den()
        for index in self.terms.keys() | other.terms.keys():
            a = self.terms.get(index, PolyMatrix.zero(self.n, self.k))
            b = other.terms.get(index, PolyMatrix.zero(self.n, self.k))
            if a * b_den != b * a_den:
                return False
        return True

    __hash__ = None

    def evaluate_at(self, point: Sequence[complex]) -> Dict[MultiIndex, tuple]:
        d = self.den().evaluate(point)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {list(point)}")
        return {
            index: tuple(tuple(e / d for e in row) for row in mat.evaluate(point))
            for index, mat in sorted(self.terms.items())
        }

    def __repr__(self) -> str:
        return (f"MatrixForm(n={self.n}, k={self.k}, degree={self.degree}, "
                f"{len(self.terms)} terms, den={self.den_base}^{self.den_pow})")


def maurer_cartan(f: PolyMatrix) -> MatrixForm:
    """The form f^{-1} df of an invertible polynomial matrix map.

    Coefficient of dz_i is adjugate(f) * (df/dz_i) over det(f). Requires
    det(f) nonzero as a polynomial; a pencil with identically vanishing
    determinant has an empty resolvent set and no Maurer-Cartan form.
    """
    det = f.det()
    if det.is_zero:
        raise ValueError("det(f) vanishes identically: empty resolvent set")
    adj = f.adjugate()
    terms = {}
    for v in range(1, f.n + 1):
        num = adj * f.partial(v)
        if not num.is_zero:
            terms[(v,)] = num
    return MatrixForm(f.n, f.k, 1, terms, det, 1)._reduced()
