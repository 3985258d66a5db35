"""Trace powers of the Maurer-Cartan form and their factorizations.

`trace_power_form` computes tr(omega^m) by one route: omega^ceil(m/2) is
traced against omega^floor(m/2), so the last wedge is never formed.
`anchored_trace_power` is a second route for odd m, a signed sum of trace
words in the dz_i coefficients with the first slot pinned. No library call
compares the two; the `theorem33.trace-routes` suite check does.

For an n-variable pencil with n even, the top odd trace power factors
through the signed radial form ``s(z) = sum_j (-1)^j z_j dz_{jbar}``,
where dz_{jbar} wedges every differential except dz_j. `factorize_top_form`
performs that division exactly and verifies the cross relations
``z_i I_nbar = (-1)^i z_n I_ibar``.

For four-variable pencils `cubic_trace_data` extracts the polynomial p with
trace(omega^3) = (3 p / det^2) s, checks that p is homogeneous of degree
2k-4, and checks the companion divisibility: each antisymmetrized product
trace(adj A_i adj A_j adj A_k - adj A_i adj A_k adj A_j) is divisible
by det. Those traces are the coefficients of trace(omega^3) up to the
factor 3 / det^3, so the factorization reuses them. At k = 2 the constant p
matches the signed 4x4 entry-matrix determinant of `entry_matrix_constant`
up to one global sign, calibrated once on the matrix-unit tuple by
`calibrated_sign`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Dict, Optional, Tuple

from pencilforms.cochains import TraceWord
from pencilforms.forms import ScalarForm, maurer_cartan, sort_index
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
        terms[index] = RatFn(MultiPoly.variable(n, j) * sign)
    return ScalarForm(n, n - 1, terms)


def anchored_trace_power(f: PolyMatrix, m: int) -> ScalarForm:
    """tr(omega^m) for odd m, with the first slot pinned to each index minimum.

    Rotating an odd-length argument tuple leaves the wedge sign and the
    trace unchanged, so the m rotations of each permutation contribute
    equally and the anchored sum times m recovers the full expansion.
    """
    if m % 2 == 0:
        raise ValueError("anchored expansion requires odd m")
    n = f.n
    if not 1 <= m <= n:
        raise ValueError(f"m must lie in 1..{n}")
    word = TraceWord(m)
    omega = maurer_cartan(f)
    nums = {v: omega.coefficient_num((v,)) for v in range(1, n + 1)}
    terms = {}
    for index in combinations(range(1, n + 1), m):
        anchor, rest = index[0], index[1:]
        total = None
        for pi in permutations(rest):
            seq = (anchor,) + pi
            val = word.evaluate([nums[v] for v in seq])
            if sort_index(seq)[1] < 0:
                val = -val
            total = val if total is None else total + val
        if total is None or total.is_zero:
            continue
        coeff = RatFn.over_power(total * m, omega.den_base,
                                 m * omega.den_pow).reduce()
        if not coeff.is_zero:
            terms[index] = coeff
    return ScalarForm(n, m, terms)


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
    q: RatFn
    s: ScalarForm
    residual: ScalarForm
    bar_i: Tuple[RatFn, ...]
    q_denominator_power: int


def factorize_top_form(f: PolyMatrix) -> TopFormFactorization:
    """Split tr(omega^{n-1}) as q * s by exact coefficient division.

    Requires n even and entries homogeneous of one common degree. The
    ratio coefficient(dz_{jbar}) / ((-1)^j z_j) must be one and the same
    rational function for every j; the cross relations on the normalized
    coefficients I_jbar and the vanishing of the residual are verified
    before returning.
    """
    n = f.n
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")
    if f.entry_degrees_homogeneous() is None:
        raise ValueError("entries must be homogeneous of one common degree")
    if f.det().is_zero:
        raise ValueError("det(f) vanishes identically: empty resolvent set")
    return _factor_top_form(trace_power_form(f, n - 1))


def _factor_top_form(big_t: ScalarForm) -> TopFormFactorization:
    """q, the cross relations and the residual of a top form big_t = q * s."""
    n = big_t.n
    s = s_form(n)

    q: Optional[RatFn] = None
    witness: Optional[Tuple[int, ...]] = None
    for j in range(1, n + 1):
        index = tuple(v for v in range(1, n + 1) if v != j)
        sign = 1 if j % 2 == 0 else -1
        coeff = big_t.coefficient(index)
        ratio = coeff * RatFn(MultiPoly.constant(n, sign),
                              MultiPoly.variable(n, j))
        if q is None:
            q, witness = ratio, index
        elif ratio != q:
            raise RuntimeError(
                f"factorization ratios disagree between dz{list(witness)} "
                f"and dz{list(index)}; the top form is not a multiple of s")

    q = q.reduce()
    inv = Fraction(1, n - 1)
    bar_i = tuple(
        big_t.coefficient(tuple(v for v in range(1, n + 1) if v != j)) * inv
        for j in range(1, n + 1))

    zn = MultiPoly.variable(n, n)
    for i in range(1, n):
        zi = MultiPoly.variable(n, i)
        sign = 1 if i % 2 == 0 else -1
        if bar_i[n - 1] * zi != bar_i[i - 1] * zn * sign:
            raise RuntimeError(
                f"cross relation failed at i={i}: "
                f"z_i I_nbar != (-1)^i z_n I_ibar")

    residual = big_t - s * q
    return TopFormFactorization(q=q, s=s, residual=residual, bar_i=bar_i,
                                q_denominator_power=q.den_pow)


@dataclass(frozen=True)
class CubicTraceData:
    p: MultiPoly
    i_values: Dict[Tuple[int, int, int], RatFn]
    det_squared: MultiPoly
    q: RatFn
    trace_cubed: ScalarForm


def cubic_trace_data(t: MatrixTuple) -> CubicTraceData:
    """p and the antisymmetrized resolvent traces for a four-matrix tuple.

    Each trace ``adj A_i adj A_j adj A_k - adj A_i adj A_k adj A_j`` must
    be exactly divisible by det. Over det^3 it is I_(i,j,k), and by
    cyclicity of the trace 3 I_(i,j,k) is the dz_i dz_j dz_k coefficient
    of trace(omega^3), so ``trace_cubed`` is built from these values and
    not traced again. p is defined by exact division: trace(omega^3) = q s
    with q = 3 p / det^2, so p = q det^2 / 3, which must come out
    polynomial and homogeneous of degree 2k-4. Any failure falsifies the
    factorization on this input and raises.
    """
    if t.n != 4:
        raise ValueError(f"needs a tuple of four matrices, got {t.n}")
    f = t.pencil()
    det = f.det()
    if det.is_zero:
        raise ValueError("det vanishes identically: empty resolvent set")
    k = t.k
    adj = f.adjugate()
    # P_j = adj A_j, so each trace is tr(P_i (P_j P_m - P_m P_j))
    prods = {j: adj * PolyMatrix.constant(4, t.matrix(j)) for j in range(1, 5)}

    i_values: Dict[Tuple[int, int, int], RatFn] = {}
    for (i, j, m) in combinations(range(1, 5), 3):
        num = prods[i].trace(prods[j] * prods[m] - prods[m] * prods[j])
        if num.exact_divide(det) is None:
            raise RuntimeError(
                f"trace difference at ({i},{j},{m}) is not divisible by det")
        i_values[(i, j, m)] = RatFn.over_power(num, det, 3).reduce()

    trace_cubed = ScalarForm(4, 3, {index: value * 3
                                    for index, value in i_values.items()})
    fact = _factor_top_form(trace_cubed)
    p_rat = (fact.q * det * det * Fraction(1, 3)).reduce()
    p = p_rat.as_polynomial()
    if p is None:
        raise RuntimeError("q det^2 / 3 is not a polynomial")
    if not p.is_zero:
        degree = p.homogeneity_degree()
        if degree is None or degree != 2 * k - 4:
            raise RuntimeError(
                f"p has degree {degree}, expected {2 * k - 4}")
    return CubicTraceData(p=p, i_values=i_values, det_squared=det * det,
                          q=fact.q, trace_cubed=trace_cubed)


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


_CALIBRATED_SIGN: Optional[Scalar] = None


def calibrated_sign() -> Scalar:
    """The global sign relating cubic_trace_data's constant p to
    entry_matrix_constant, fixed once on the matrix-unit tuple."""
    global _CALIBRATED_SIGN
    if _CALIBRATED_SIGN is None:
        units = MatrixTuple.matrix_units(2)
        p = cubic_trace_data(units).p
        c = entry_matrix_constant(units)
        if p.is_zero or c.is_zero:
            raise RuntimeError("matrix-unit calibration degenerated")
        eps = p.constant_value() * c.inverse()
        if eps not in (Scalar(1), Scalar(-1)):
            raise RuntimeError(f"calibration produced a non-sign ratio {eps}")
        _CALIBRATED_SIGN = eps
    return _CALIBRATED_SIGN
