"""Trace powers of the Maurer-Cartan form and their factorizations.

`trace_power_form` computes tr(omega^m) by one route: omega^ceil(m/2) is
traced against omega^floor(m/2), so the last wedge is never formed, and
every coefficient of each wedge and of the trace is one fused kernel sum
(see `forms`). `anchored_trace_power` is a second route for odd m, a
signed sum of trace words in the dz_i coefficients with the first slot
pinned. No library call compares the two; the `theorem33.trace-routes`
suite check does, on the top form `factorize_top_form` returns with its
split.

For an n-variable pencil with n even, the top odd trace power factors
through the signed radial form ``s(z) = sum_j (-1)^j z_j dz_{jbar}``,
where dz_{jbar} wedges every differential except dz_j. `factorize_top_form`
divides the dz_{1bar} coefficient by -z_1 to get q and returns z_1 times
the residual of the top form minus q s, z_1 T + T_{1bar} s, whose
coefficients all stay over omega's denominator base. A zero residual makes
every coefficient q times (-1)^j z_j, so the cross relations
``z_i I_nbar = (-1)^i z_n I_ibar`` on the normalized coefficients follow
from it and are not checked apart.

For four-variable pencils `cubic_trace_data` takes tr(omega^3) from the
anchored sum. The dz_j coefficient of omega is adj(A) A_j / det, so the
dz_i dz_j dz_k coefficient is 3 I_(i,j,k): the antisymmetrized resolvent
trace tr(adj A_i adj A_j adj A_k - adj A_i adj A_k adj A_j) over det^3.
It also returns the z_1-scaled residual and p with
tr(omega^3) = (3 p / det^2) s and judges none of them; the `theorem33`
suite does. At k = 2 the constant p matches the signed 4x4 entry-matrix
determinant of `entry_matrix_constant` up to one global sign, calibrated
once on the matrix-unit tuple by `calibrated_sign`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Dict, Optional, Tuple

from pencilforms.cochains import TraceWord
from pencilforms.forms import MatrixForm, ScalarForm, maurer_cartan, sort_index
from pencilforms.linalg import MatrixTuple, PolyMatrix, grid_det
from pencilforms.ring import MultiPoly, RatFn, Scalar


def s_form(n: int) -> ScalarForm:
    """The degree-(n-1) form sum_j (-1)^j z_j dz_{jbar}; n must be even."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")
    terms = {}
    for j in range(1, n + 1):
        index = tuple(v for v in range(1, n + 1) if v != j)
        sign = 1 if j % 2 == 0 else -1
        terms[index] = MultiPoly.variable(n, j) * sign
    return ScalarForm(n, n - 1, terms)


def anchored_trace_power(f: PolyMatrix, m: int) -> ScalarForm:
    """tr(omega^m) for odd m, with the first slot pinned to each index minimum.

    Rotating an odd-length argument tuple leaves the wedge sign and the
    trace unchanged, so the m rotations of each permutation contribute
    equally and the anchored sum times m recovers the full expansion.
    """
    if m % 2 == 0:
        raise ValueError("anchored expansion requires odd m")
    if not 1 <= m <= f.n:
        raise ValueError(f"m must lie in 1..{f.n}")
    return _anchored_trace_power(maurer_cartan(f), m)


def _anchored_trace_power(omega: MatrixForm, m: int) -> ScalarForm:
    """The anchored trace-word sum of an already built omega."""
    n = omega.n
    word = TraceWord(m)
    nums = {v: omega.coefficient_num((v,)) for v in range(1, n + 1)}
    totals = {}
    for index in combinations(range(1, n + 1), m):
        anchor, rest = index[0], index[1:]
        total = None
        for pi in permutations(rest):
            seq = (anchor,) + pi
            val = word.evaluate([nums[v] for v in seq])
            if sort_index(seq)[1] < 0:
                val = -val
            total = val if total is None else total + val
        totals[index] = total * m
    return ScalarForm._over_power(n, m, totals, omega.den_base,
                                  m * omega.den_pow)._reduced()


def trace_power_form(f: PolyMatrix, m: int) -> ScalarForm:
    """tr(omega^m) as tr(omega^ceil(m/2) ^ omega^floor(m/2)).

    The last wedge is traced without being formed. This is the library's
    only route to a trace power.
    """
    if not 1 <= m <= f.n:
        raise ValueError(f"m must lie in 1..{f.n}")
    omega = maurer_cartan(f)
    if m == 1:
        return omega.trace()
    low = omega.wedge_power(m // 2)
    high = low.wedge(omega) if m % 2 else low
    return high.trace(low)


@dataclass(frozen=True)
class TopFormFactorization:
    """q, z_1 times the residual, the normalized coefficients, and the top
    form they split. The residual is only meant for ``is_zero``: scaled by
    z_1 its coefficients share the top form's denominator base."""

    q: RatFn
    residual: ScalarForm  # z_1 (top_form - q s)
    bar_i: Tuple[RatFn, ...]
    top_form: ScalarForm


def factorize_top_form(f: PolyMatrix) -> TopFormFactorization:
    """Split tr(omega^{n-1}) as q * s by exact coefficient division.

    Requires n even and entries homogeneous of one common degree. q is the
    dz_{1bar} coefficient over -z_1. The top form is q * s exactly when
    the returned residual (z_1 times top - q s) is zero; the caller decides
    what a nonzero one means. The split top form comes back with it.
    """
    n = f.n
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")
    if f.entry_degrees_homogeneous() is None:
        raise ValueError("entries must be homogeneous of one common degree")
    return _factor_top_form(trace_power_form(f, n - 1))


def _factor_top_form(big_t: ScalarForm) -> TopFormFactorization:
    """q and z_1 times the residual big_t - q * s of a top form.

    With q = -T_{2..n} / z_1, z_1 (T - q s) = z_1 T + T_{2..n} s: every
    coefficient stays over big_t's own denominator base, so the residual
    adds numerators and never multiplies out unlike denominators.
    """
    n = big_t.n
    first = tuple(range(2, n + 1))
    t_first = big_t.coefficient(first)
    z1 = MultiPoly.variable(n, 1)
    q = (t_first * RatFn(MultiPoly.constant(n, -1), z1)).reduce()
    inv = Fraction(1, n - 1)
    bar_i = tuple(
        big_t.coefficient(tuple(v for v in range(1, n + 1) if v != j)) * inv
        for j in range(1, n + 1))
    nums = {index: mat[0][0] * z1 for index, mat in big_t.terms.items()}
    if first in big_t.terms:  # plus T_{2..n} s_I, over big_t's base**pow
        top = big_t.terms[first][0][0]
        for index, s_mat in s_form(n).terms.items():
            nums[index] = nums.get(index, MultiPoly.zero(n)) + top * s_mat[0][0]
    residual = ScalarForm._over_power(n, n - 1, nums, big_t.den_base,
                                      big_t.den_pow)
    return TopFormFactorization(q=q, residual=residual, bar_i=bar_i,
                                top_form=big_t)


@dataclass(frozen=True)
class CubicTraceData:
    p: Optional[MultiPoly]
    i_values: Dict[Tuple[int, int, int], RatFn]
    residual: ScalarForm  # z_1 (tr(omega^3) - q s), read for is_zero


def cubic_trace_data(t: MatrixTuple) -> CubicTraceData:
    """p, the I values and the q s residual of tr(omega^3) for four matrices.

    Each I_(i,j,k) is the dz_i dz_j dz_k coefficient of the anchored sum
    over 3, reduced over a power of det. p = q det^2 / 3, or None when that
    is not a polynomial. The caller judges divisibility, the residual and
    the degree of p. ValueError unless t has four matrices and det != 0.
    """
    if t.n != 4:
        raise ValueError(f"needs a tuple of four matrices, got {t.n}")
    omega = maurer_cartan(t.pencil())
    # adj(A) A_j has entries of degree k-1 below deg det = k, so omega
    # keeps det as its denominator base
    det = omega.den_base
    trace_cubed = _anchored_trace_power(omega, 3)
    third = Fraction(1, 3)
    i_values = {index: trace_cubed.coefficient(index) * third
                for index in combinations(range(1, 5), 3)}
    fact = _factor_top_form(trace_cubed)
    p = (fact.q * det * det * third).reduce().as_polynomial()
    return CubicTraceData(p=p, i_values=i_values, residual=fact.residual)


_ENTRY_POSITIONS = ((0, 0), (0, 1), (1, 0), (1, 1))


def entry_matrix_constant(t: MatrixTuple) -> Scalar:
    """Minus the determinant of the 4x4 matrix of stacked 2x2 entries.

    Column j lists the entries of A_j in reading order. Linearly dependent
    tuples give 0.
    """
    if t.k != 2 or t.n != 4:
        raise ValueError("needs four 2x2 matrices")
    grid = tuple(
        tuple(t.matrix(j)[r][c] for j in range(1, 5))
        for (r, c) in _ENTRY_POSITIONS)
    return -grid_det(grid, Scalar(1))


@lru_cache(maxsize=None)
def calibrated_sign() -> Scalar:
    """The global sign relating cubic_trace_data's constant p to
    entry_matrix_constant, fixed once on the matrix-unit tuple."""
    units = MatrixTuple.matrix_units(2)
    p = cubic_trace_data(units).p
    c = entry_matrix_constant(units)
    if p is None or p.is_zero or c.is_zero:
        raise RuntimeError("matrix-unit calibration degenerated")
    eps = p.constant_value() * c.inverse()
    if eps not in (Scalar(1), Scalar(-1)):
        raise RuntimeError(f"calibration produced a non-sign ratio {eps}")
    return eps
