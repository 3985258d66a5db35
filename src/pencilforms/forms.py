"""Differential forms with exact rational-function coefficients.

A multi-index is a strictly increasing tuple of 1-based variable indices;
``dz^I`` stands for dz_{i1} ^ ... ^ dz_{ir}. A form maps multi-indices to
PolyMatrix numerators over one shared denominator ``base**pow``; keeping
it factored makes d raise the power by one instead of squaring, and lets
reduction strip whole powers. There is one algebra, `MatrixForm`'s.
`ScalarForm` is its k = 1 case: it adds a constructor from RatFn
coefficients and `coefficient`, which gives one back reduced.

A wedge, and a trace of one, pairs every term of the left form with every
term of the right form on disjoint indices. The pairs are grouped by
merged index with the wedge sign folded into the left matrix. A form of
positive even degree traced against itself takes each unordered pair once
and doubles the sum (see `MatrixForm.trace`).
`PolyMatrix.dot` then builds each output coefficient, and
`PolyMatrix.trace_dot` each trace, with one kernel sum per entry over all
the entry products landing there. The exterior derivative groups its
quotient-rule products the same way (`MatrixForm._quotient_rule_pairs`).

A form X of odd degree wedged with itself takes each unordered pair {I, J}
of its terms once, as the commutator s [X_I, X_J] (the two orders carry
opposite merge signs s and -s), and since polynomial entries commute each
entry of a commutator skips the products that cancel: on the diagonal the
j = r product pair x_rr y_rr - y_rr x_rr, and off it the four products
with j in {r, c}, which become y_rc (x_rr - x_cc) - x_rc (y_rr - y_cc).
Each gap x_rr - x_cc is formed once per term per call, as a `MultiPoly`
difference (`_commutator_pairs`). `MatrixForm.curvature` gives
d omega + omega ^ omega of a 1-form with each entry one kernel sum over
the quotient-rule pairs of d and the commutator pairs together, over
base^(2 pow), reduced once; so the Maurer-Cartan equation is checked with
no intermediate form, no form addition and no reduction of a nonzero half.
`jacobi.anchored_trace_power` forms its commutators [B_b, B_c] by its own
`PolyMatrix.dot` over (B_b, B_c) and (-B_c, B_b), not by these pairs, so
the suite check that compares it with the wedge route compares two
computations that share no commutator code.

A form is never changed after construction, so it keeps its exterior
derivative: the first `exterior_derivative` call builds d and later calls
return that form. `transgression_report` thus builds d omega once per
pencil, however many cochains it checks there.

Two forms combine over one base; a form without a denominator takes the
other's. Scalar forms over unlike bases combine over the product of their
denominators, as RatFn does; matrix forms over unlike bases only compare.
`==` lifts both to one base and power and compares their numerators.

The Maurer-Cartan form of a pencil map f is
``omega_f = f^{-1} df = sum_i adjugate(f) (df/dz_i) / det(f) dz_i``;
`maurer_cartan` builds it with base det(f) and pow 1, and keeps the last
one it built for the next call about an equal matrix.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Dict, Optional, Sequence, Tuple

from pencilforms.linalg import PolyMatrix
from pencilforms.ring import MultiPoly, RatFn, Scalar, _as_ratfn

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


def _wedge_pairs(left: Dict, right: Dict) -> Dict:
    """The term pairs of `left` and `right` with disjoint multi-indices,
    grouped by merged index (`_group_pairs`)."""
    return _group_pairs((i_idx, a, right.items())
                        for i_idx, a in left.items())


def _self_pairs(terms: Dict, neg=operator.neg) -> Dict:
    """The pairs of ``_wedge_pairs(terms, terms)`` with the left term first
    in `terms`: each unordered pair of disjoint indices once. `neg` negates
    a left term (`_group_pairs`)."""
    items = list(terms.items())
    return _group_pairs(((i_idx, a, items[pos + 1:])
                         for pos, (i_idx, a) in enumerate(items)), neg)


def _group_pairs(rows, neg=operator.neg) -> Dict:
    """Term pairs on disjoint multi-indices, grouped by merged index:
    index -> [(a, b), ..] with the sign of the merge folded into a, which
    is negated, by `neg`, at most once per left term. `rows` gives each
    left term as (index, a, right terms)."""
    out: Dict = {}
    for i_idx, a, right in rows:
        negated = None
        for j_idx, b in right:
            merged = sort_index(i_idx + j_idx)
            if merged is None:
                continue
            index, sign = merged
            if sign < 0:
                if negated is None:
                    negated = neg(a)
                pair = (negated, b)
            else:
                pair = (a, b)
            if index in out:
                out[index].append(pair)
            else:
                out[index] = [pair]
    return out


def _signed_term(mat: PolyMatrix) -> tuple:
    """(X, -X, G, G^T) for a term X of a commutator sum (`_commutator_pairs`):
    G[r][c] = x_rr - x_cc for r != c. Each gap with r < c is formed once,
    and G[c][r] negates it; G^T = -G is then the gap grid of -X. A
    negation shares its operand's keys, so the kernel sums over X and -X,
    or over a gap and its negation, pack their exponents once."""
    k, rows = mat.k, mat.rows
    gaps = [[None] * k for _ in range(k)]
    for r in range(k):
        for c in range(r + 1, k):
            gap = rows[r][r] - rows[c][c]
            gaps[r][c], gaps[c][r] = gap, -gap
    return mat, -mat, gaps, [list(col) for col in zip(*gaps)]


def _flip(term: tuple) -> tuple:
    """The `_signed_term` of -X from that of X."""
    x, neg_x, gaps, gaps_t = term
    return neg_x, x, gaps_t, gaps


def _commutator_pairs(terms: Dict, k: int) -> Dict:
    """The kernel pairs of X ^ X for the k x k terms X_I of a form of odd
    degree: index -> k x k grid of pair lists.

    At odd degree the two orders of a pair of terms carry opposite merge
    signs, so the coefficient of X ^ X at K is the sum of s [X_I, X_J]
    over the unordered pairs {I, J} merging to K with sign s (`_self_pairs`,
    s folded into the left term). Polynomial entries commute, so entry
    (r, c) of [x, y] skips the products that cancel: on the diagonal the
    j = r pair x_rr y_rr - y_rr x_rr is dropped, and off it the four
    products with j in {r, c} are y_rc (x_rr - x_cc) - x_rc (y_rr - y_cc),
    two products against the gaps of `_signed_term`.
    """
    signed = {index: _signed_term(mat) for index, mat in terms.items()}
    out = {}
    for index, group in _self_pairs(signed, _flip).items():
        grid = [[[] for _ in range(k)] for _ in range(k)]
        for (x, neg_x, x_gaps, _), (y, _, y_gaps, _) in group:
            x, neg_x, y = x.rows, neg_x.rows, y.rows
            for r in range(k):
                for c in range(k):
                    pairs = grid[r][c]
                    if r != c:
                        pairs += ((y[r][c], x_gaps[r][c]),
                                  (neg_x[r][c], y_gaps[r][c]))
                    for j in range(k):
                        if j != r and j != c:
                            pairs += ((x[r][j], y[j][c]),
                                      (y[r][j], neg_x[j][c]))
        out[index] = grid
    return out


def _dot_grid(n: int, *grids) -> PolyMatrix:
    """The matrix whose (r, c) entry is one `MultiPoly.dot` over the pairs
    at (r, c) of every grid."""
    k = len(grids[0])
    dot = MultiPoly.dot
    return PolyMatrix(n, [[dot(n, [pair for grid in grids
                                   for pair in grid[r][c]])
                           for c in range(k)] for r in range(k)])


def _root(a: Optional[MultiPoly], b: MultiPoly) -> Optional[MultiPoly]:
    """The polynomial that a and b are both powers of, by Euclid on their
    exponents; None when there is none (or a is None)."""
    while a is not None and a != b:
        q = a.exact_divide(b)
        if q is None:
            a, b = b, a
            q = a.exact_divide(b)
        a = None if q is None or q.is_constant else q
    return a


def _exponent(power: MultiPoly, root: MultiPoly) -> int:
    """e with power == root**e, for a power of root."""
    e = 0
    while not power.is_constant:
        power, e = power.exact_divide(root), e + 1
    return e


def _over_one_base(n: int, coeffs: Dict) -> Tuple[Dict, MultiPoly, int]:
    """(nums, base, pow) with nums[I] / base**pow == coeffs[I] for RatFn
    coefficients. base is the polynomial all the denominators are powers
    of, so a coefficient reduced over it comes back as it was given;
    without one it is the product of the distinct denominators."""
    bases = list(dict.fromkeys(c.den_base for c in coeffs.values()
                               if c.den_pow))
    root = reduce(_root, bases) if bases else MultiPoly.one(n)
    if root is None:
        base = reduce(operator.mul, dict.fromkeys(
            c.den for c in coeffs.values() if c.den_pow))
        return ({i: c.num * base.exact_divide(c.den)
                 for i, c in coeffs.items()}, base, 1)
    pows = {i: c.den_pow and c.den_pow * _exponent(c.den_base, root)
            for i, c in coeffs.items()}
    hi = max(pows.values(), default=0)
    return ({i: c.num * root ** (hi - pows[i]) if pows[i] < hi else c.num
             for i, c in coeffs.items()}, root, hi)


class MatrixForm:
    """A matrix-valued form: PolyMatrix numerators over a shared base**pow.
    Every operation returns a form of its operand's class.

    A form is never changed after construction, by this class or by whoever
    built it, so it keeps its exterior derivative in a slot that the first
    call of `exterior_derivative` fills."""

    __slots__ = ("n", "k", "degree", "terms", "den_base", "den_pow", "_d")

    def __init__(self, n: int, k: int, degree: int, terms: Dict,
                 den_base: Optional[MultiPoly] = None, den_pow: int = 0):
        if den_pow < 0:
            raise ValueError("negative denominator power")
        if den_base is None:
            den_base = MultiPoly.one(n)
        if den_pow > 0 and den_base.is_zero:
            raise ZeroDivisionError("zero denominator")
        if degree < 0:
            raise ValueError("negative form degree")
        self.n, self.k, self.degree = n, k, degree
        self.terms: Dict[MultiIndex, PolyMatrix] = {}
        for index, mat in terms.items():
            index = check_multi_index(index, n)
            if len(index) != degree:
                raise ValueError(f"index {index} has wrong length for degree {degree}")
            if mat.n != n or mat.k != k:
                raise ValueError("numerator shape mismatch")
            if not mat.is_zero:
                self.terms[index] = mat
        if not self.terms:
            den_pow = 0
        self.den_base = den_base if den_pow else MultiPoly.one(n)
        self.den_pow = den_pow
        self._d: Optional[MatrixForm] = None

    @classmethod
    def _from_parts(cls, n: int, k: int, degree: int, terms: Dict,
                    den_base: MultiPoly, den_pow: int):
        """A form of this class, `ScalarForm` too, by this constructor."""
        form = object.__new__(cls)
        MatrixForm.__init__(form, n, k, degree, terms, den_base, den_pow)
        return form

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def den(self) -> MultiPoly:
        return self.den_base ** self.den_pow

    def coefficient_num(self, index) -> PolyMatrix:
        """Numerator matrix for dz^index (over den_base**den_pow)."""
        index = check_multi_index(index, self.n)
        return self.terms.get(index, PolyMatrix.zero(self.n, self.k))

    def _lifted(self, factor, base: MultiPoly, pow_: int):
        """self's numerators times factor, over base**pow_."""
        return self._from_parts(self.n, self.k, self.degree,
                                {i: m * factor for i, m in self.terms.items()},
                                base, pow_)

    def _join_base(self, other: "MatrixForm", mix: bool = False) -> tuple:
        """(x, y, base): self and other as forms over one base. Unlike
        bases are multiplied out, as RatFn does: each side is lifted by the
        other's denominator onto base den(self) den(other). Matrix forms
        refuse that unless mix is set, which only comparison does."""
        if self.n != other.n or self.k != other.k:
            raise ValueError("mixed shapes or variable counts")
        if self.den_pow == 0:
            return self, other, other.den_base
        if other.den_pow == 0 or self.den_base == other.den_base:
            return self, other, self.den_base
        if self.k > 1 and not mix:
            raise ValueError("matrix forms carry different denominator bases")
        a_den, b_den = self.den(), other.den()
        base = a_den * b_den
        return self._lifted(b_den, base, 1), other._lifted(a_den, base, 1), base

    def _over_one_power(self, other: "MatrixForm", mix=False) -> tuple:
        """(x, y, base, hi): self and other over base**hi (`_join_base`)."""
        x, y, base = self._join_base(other, mix)
        hi = max(x.den_pow, y.den_pow)
        return (*(form if form.den_pow == hi else
                  form._lifted(base ** (hi - form.den_pow), base, hi)
                  for form in (x, y)), base, hi)

    def __add__(self, other):
        if not isinstance(other, MatrixForm):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError(f"mixed degrees: {self.degree} vs {other.degree}")
        x, y, base, hi = self._over_one_power(other)
        out: Dict[MultiIndex, PolyMatrix] = dict(x.terms)
        for index, mat in y.terms.items():
            out[index] = out[index] + mat if index in out else mat
        return self._from_parts(self.n, self.k, self.degree, out, base,
                                hi)._reduced()

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._from_parts(self.n, self.k, self.degree,
                                {i: -m for i, m in self.terms.items()},
                                self.den_base, self.den_pow)

    def __mul__(self, other):
        if isinstance(other, (MultiPoly, Scalar, int, Fraction)):
            return self._lifted(other, self.den_base, self.den_pow)._reduced()
        return NotImplemented

    __rmul__ = __mul__

    def wedge(self, other: "MatrixForm") -> "MatrixForm":
        """Wedge with matrix multiplication on the coefficients, each
        output coefficient one `PolyMatrix.dot` over its term pairs. A form
        of odd degree wedged with itself sums one commutator per unordered
        pair of its terms, entry by entry (`_commutator_pairs`)."""
        x, y, base = self._join_base(other)
        n = self.n
        if other is self and self.degree % 2:
            out = {index: _dot_grid(n, grid) for index, grid
                   in _commutator_pairs(x.terms, self.k).items()}
        else:
            out = {index: PolyMatrix.dot(n, pairs) for index, pairs
                   in _wedge_pairs(x.terms, y.terms).items()}
        return self._from_parts(n, self.k, self.degree + other.degree, out,
                                base, x.den_pow + y.den_pow)._reduced()

    def wedge_power(self, m: int) -> "MatrixForm":
        if m < 1:
            raise ValueError("wedge power must be >= 1")
        out = self
        for _ in range(m - 1):
            out = out.wedge(self)
        return out

    def _quotient_rule_pairs(self, lift: int) -> Dict:
        """The kernel pairs of d(self)'s numerators over base^(pow+1+lift):
        index -> k x k grid of pair lists.

        The dz_v part of d(M / base^pow) has numerator
        (d_v M) base - pow M d_v base over base^(pow+1), so each entry
        gathers the pairs (d_v e, +-base^(1+lift)) and
        (e, -+pow base^lift d_v base) of its contributions, the sign being
        that of placing dz_v. A form with pow 0 has base 1, so its d stays
        at pow 0.
        """
        n, k, pow_, base = self.n, self.k, self.den_pow, self.den_base
        groups: Dict[MultiIndex, list] = {}
        for index, mat in self.terms.items():
            for v in range(1, n + 1):
                placed = sort_index((v,) + index)
                if placed is None:
                    continue
                new_index, sign = placed
                contrib = (mat, mat.partial(v), v, sign)
                if new_index in groups:
                    groups[new_index].append(contrib)
                else:
                    groups[new_index] = [contrib]
        # the signed factors: +-base for d_v e, -+pow d_v base for e, each
        # times base^lift; at pow 0 the base is 1 and the tail is 0, which
        # the sum skips
        lifted = base ** lift if lift else None
        head = base * lifted if lift else base
        lead = {1: head, -1: -head}
        tail = {}
        for v in range(1, n + 1):
            # d_v base comes back packed, and scaling it reads its term
            # dict, so at pow 1 (omega's) it is not scaled
            scaled = base.partial(v)
            if pow_ != 1:
                scaled = scaled * pow_
            if lift:
                scaled = scaled * lifted
            tail[v, 1], tail[v, -1] = -scaled, scaled
        return {new_index: [[[pair for mat, dmat, v, sign in group
                              for pair in ((dmat.rows[r][c], lead[sign]),
                                           (mat.rows[r][c], tail[v, sign]))]
                             for c in range(k)] for r in range(k)]
                for new_index, group in groups.items()}

    def exterior_derivative(self) -> "MatrixForm":
        """d of each coefficient; a tracked power rises by one. Each entry
        of a new coefficient is one `MultiPoly.dot` over the quotient-rule
        pairs of its contributions (`_quotient_rule_pairs`). Built on the
        first call and kept: a second call returns the same form, which
        must not be changed."""
        if self._d is None:
            n, pow_ = self.n, self.den_pow
            out = {index: _dot_grid(n, grid)
                   for index, grid in self._quotient_rule_pairs(0).items()}
            self._d = self._from_parts(n, self.k, self.degree + 1, out,
                                       self.den_base,
                                       pow_ + 1 if pow_ else 0)._reduced()
        return self._d

    def curvature(self) -> "MatrixForm":
        """d self + self ^ self of a 1-form, over base^(2 pow).

        Each entry of the dz_u dz_v coefficient is one `MultiPoly.dot` over
        the quotient-rule pairs of d, lifted from base^(pow+1) to
        base^(2 pow), and the commutator pairs of [B_u, B_v], B_v being the
        dz_v numerator (`_commutator_pairs`); the sum is reduced once. For
        a Maurer-Cartan form it is zero.
        """
        if self.degree != 1:
            raise ValueError(f"curvature of a form of degree {self.degree}; "
                             "it needs a 1-form")
        n, pow_ = self.n, self.den_pow
        d = self._quotient_rule_pairs(pow_ - 1 if pow_ else 0)
        bracket = _commutator_pairs(self.terms, self.k)
        out = {index: _dot_grid(n, *(part[index] for part in (d, bracket)
                                     if index in part))
               for index in dict.fromkeys([*d, *bracket])}
        return self._from_parts(n, self.k, 2, out, self.den_base,
                                2 * pow_)._reduced()

    def trace(self, other: Optional["MatrixForm"] = None) -> "ScalarForm":
        """tr(self), or tr(self ^ other) without forming the wedge: one
        `PolyMatrix.trace_dot` over the term pairs of each index.

        A form of positive even degree traced against itself takes each
        unordered pair {I, J} of its terms once and doubles the sum. The
        entries commute, so tr(X_J X_I) = tr(X_I X_J), and at even degree
        the merge signs of the two orders agree. At odd degree they are
        opposite and the two orders cancel; that trace keeps both, so
        tr(omega ^ omega) = 0 is computed, not assumed. (A 0-form's one
        index pairs with itself, so it keeps the ordered path too.)
        """
        if other is None:
            return ScalarForm._over_power(self.n, self.degree, {
                index: mat.trace() for index, mat in self.terms.items()
            }, self.den_base, self.den_pow)._reduced()
        x, y, base = self._join_base(other)
        n = self.n
        if other is self and self.degree and self.degree % 2 == 0:
            nums = {index: PolyMatrix.trace_dot(n, pairs) * 2
                    for index, pairs in _self_pairs(x.terms).items()}
        else:
            nums = {index: PolyMatrix.trace_dot(n, pairs)
                    for index, pairs in _wedge_pairs(x.terms, y.terms).items()}
        return ScalarForm._over_power(n, self.degree + other.degree, nums,
                                      base, x.den_pow + y.den_pow)._reduced()

    def _reduced(self):
        """Strip base powers dividing every entry of every numerator.

        A round stops at the first entry that `exact_divide` refuses,
        whose own monomial test decides most refusals before any step."""
        terms, pow_ = self.terms, self.den_pow
        while pow_ > 0:
            divided = {}
            for index, mat in terms.items():
                rows = []
                for row in mat.rows:
                    new_row = []
                    for e in row:
                        q = e.exact_divide(self.den_base)
                        if q is None:
                            return self._from_parts(self.n, self.k,
                                                    self.degree, terms,
                                                    self.den_base, pow_)
                        new_row.append(q)
                    rows.append(new_row)
                divided[index] = PolyMatrix(self.n, rows)
            terms, pow_ = divided, pow_ - 1
        return self._from_parts(self.n, self.k, self.degree, terms,
                                self.den_base, pow_)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixForm):
            return NotImplemented
        if (self.n, self.k, self.degree) != (other.n, other.k, other.degree):
            return False
        x, y, _, _ = self._over_one_power(other, mix=True)
        return x.terms == y.terms

    __hash__ = None

    def __repr__(self) -> str:
        return (f"MatrixForm(n={self.n}, k={self.k}, degree={self.degree}, "
                f"{len(self.terms)} terms, den={self.den_base}^{self.den_pow})")


class ScalarForm(MatrixForm):
    """A scalar form: the k = 1 case of MatrixForm.

    Its numerators are 1 x 1 PolyMatrix over the form's one base**pow, and
    `coefficient` gives one back as a reduced RatFn.
    """

    __slots__ = ()

    def __init__(self, n: int, degree: int, terms: Optional[Dict] = None):
        """sum terms[I] dz^I, each value a RatFn, MultiPoly or scalar,
        over the one base that `_over_one_base` finds."""
        nums, base, pow_ = _over_one_base(n, {
            index: _as_ratfn(c, n) for index, c in (terms or {}).items()})
        super().__init__(n, 1, degree, {
            index: PolyMatrix(n, ((num,),)) for index, num in nums.items()
        }, base, pow_)

    @classmethod
    def _over_power(cls, n: int, degree: int, nums: Dict, base: MultiPoly,
                    pow_: int) -> "ScalarForm":
        """The form with polynomial numerators nums over base**pow_."""
        return cls._from_parts(n, 1, degree, {
            index: PolyMatrix(n, ((num,),)) for index, num in nums.items()
            if num}, base, pow_)

    @classmethod
    def zero(cls, n: int, degree: int) -> "ScalarForm":
        return cls(n, degree)

    # the algebra is MatrixForm's; these two are bound here as well because
    # perfbench/tracer.py looks them up in this class's own namespace
    wedge = MatrixForm.wedge
    exterior_derivative = MatrixForm.exterior_derivative

    def coefficient(self, index) -> RatFn:
        """The dz^index coefficient, reduced over the form's base."""
        mat = self.terms.get(check_multi_index(index, self.n))
        if mat is None:
            return RatFn.zero(self.n)
        return RatFn.over_power(mat[0][0], self.den_base,
                                self.den_pow).reduce()

    def __repr__(self) -> str:
        if self.is_zero:
            return f"ScalarForm(n={self.n}, degree={self.degree}, 0)"
        body = " + ".join(f"[{self.coefficient(index)}] dz{list(index)}"
                          for index in sorted(self.terms))
        return f"ScalarForm({body})"


@lru_cache(maxsize=1)
def maurer_cartan(f: PolyMatrix) -> MatrixForm:
    """The form f^{-1} df of an invertible polynomial matrix map.

    Coefficient of dz_i is adjugate(f) * (df/dz_i) over det(f). Requires
    det(f) nonzero as a polynomial; a pencil with identically vanishing
    determinant has an empty resolvent set and no Maurer-Cartan form.

    The last result is kept, keyed by f's content: a call with an equal
    matrix returns the same form object, so consecutive requests about one
    pencil build omega once. The form is shared and must not be changed;
    `maurer_cartan.cache_clear()` drops it. A ValueError is not kept.

    det(f) is the one f keeps (`PolyMatrix.det`, `PolyMatrix.adjugate`).
    """
    adj = f.adjugate()
    det = f.det()
    if det.is_zero:
        raise ValueError("det(f) vanishes identically: empty resolvent set")
    terms = {}
    for v in range(1, f.n + 1):
        num = adj * f.partial(v)
        if not num.is_zero:
            terms[(v,)] = num
    return MatrixForm(f.n, f.k, 1, terms, det, 1)._reduced()
