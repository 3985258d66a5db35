"""Trace powers of the Maurer-Cartan form and their factorizations.

`trace_power_form` computes tr(omega^m) by one route: omega^ceil(m/2) is
traced against omega^floor(m/2), so the last wedge is never formed, and
every coefficient of each wedge and of the trace is one fused kernel sum
(see `forms`). For even m that is omega^(m/2) traced against itself.
When m/2 is even too (m = 4, 8, ..) the form has even degree, and the
trace sums each unordered pair of its terms once (`MatrixForm.trace`);
at m = 2 and m = 6 the degree is odd and both orders of each pair are
summed, so tr(omega^2) = 0 is computed, not assumed. Like
`maurer_cartan`, it keeps its last result: a second call with an equal
matrix and the same m returns the same form, so `factorize_top_form`
right after a request for tr(omega^(n-1)) splits that form without
recomputing it.
`anchored_trace_power` is a second route for odd m, a signed sum of
trace words in the dz_i coefficients with the first slot pinned. Each
route asks `maurer_cartan` for omega by pencil, so a pencil's omega is
built once however many calls ask. No library call compares the two
routes; the `theorem33.trace-routes` suite check does, on the top form
`factorize_top_form` returns with its split.

For an n-variable pencil with n even and at least 4, the top odd trace
power factors through the signed radial form
``s(z) = sum_j (-1)^j z_j dz_{jbar}``, where dz_{jbar} wedges every
differential except dz_j. `factorize_top_form`
divides the dz_{1bar} coefficient by -z_1 to get q and returns z_1 times
the residual of the top form minus q s, z_1 T + T_{1bar} s, whose
coefficients all stay over omega's denominator base. A zero residual makes
every coefficient q times (-1)^j z_j, so the cross relations
``z_i I_nbar = (-1)^i z_n I_ibar`` on the normalized coefficients follow
from it and are not checked apart.

For four-variable pencils `cubic_trace_data` splits the anchored
tr(omega^3) the same way and returns the split with p, where
tr(omega^3) = (3 p / det^2) s. The dz_j coefficient of omega is
adj(A) A_j / det, so the dz_i dz_j dz_k coefficient is 3 I_(i,j,k), the
antisymmetrized resolvent trace
tr(adj A_i adj A_j adj A_k - adj A_i adj A_k adj A_j) over det^3, and the
split's normalized coefficient bar_i[j - 1] is the I of the triple that
leaves out j. It judges none of them; the `theorem33` suite does. At
k = 2 the constant p matches the signed 4x4 entry-matrix determinant of
`entry_matrix_constant` up to one global sign, calibrated once on the
matrix-unit tuple by `calibrated_sign`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Optional, Tuple

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
        terms[index] = MultiPoly.variable(n, j) * sign
    return ScalarForm(n, n - 1, terms)


def anchored_trace_power(f: PolyMatrix, m: int) -> ScalarForm:
    """tr(omega^m) for odd m, with the first slot pinned to each index minimum.

    Rotating an odd-length argument tuple leaves the wedge sign and the
    trace unchanged, so the m rotations of each permutation contribute
    equally and the anchored sum times m recovers the full expansion.

    The words walk a prefix tree: each prefix product B_a B_b .. of
    omega's dz coefficients is formed once, and index sets that share a
    prefix share its product. The signed words of one index set are one
    `PolyMatrix.trace_dot`, each sign folded into the word's last factor.
    """
    if m % 2 == 0:
        raise ValueError("anchored expansion requires odd m")
    if not 1 <= m <= f.n:
        raise ValueError(f"m must lie in 1..{f.n}")
    omega = maurer_cartan(f)
    n = omega.n
    nums = {v: omega.coefficient_num((v,)) for v in range(1, n + 1)}
    if m == 1:
        totals = {(v,): mat.trace() for v, mat in nums.items()}
    else:
        signed = {(v, sign): mat if sign > 0 else -mat
                  for v, mat in nums.items() for sign in (1, -1)}
        prefixes = {(v,): mat for v, mat in nums.items()}

        def prefix(seq):
            mat = prefixes.get(seq)
            if mat is None:
                mat = prefixes[seq] = prefix(seq[:-1]) * nums[seq[-1]]
            return mat

        totals = {}
        for index in combinations(range(1, n + 1), m):
            pairs = []
            for pi in permutations(index[1:]):
                seq = index[:1] + pi
                pairs.append((prefix(seq[:-1]),
                              signed[seq[-1], sort_index(seq)[1]]))
            totals[index] = PolyMatrix.trace_dot(n, pairs) * m
    return ScalarForm._over_power(n, m, totals, omega.den_base,
                                  m * omega.den_pow)._reduced()


@lru_cache(maxsize=1)
def trace_power_form(f: PolyMatrix, m: int) -> ScalarForm:
    """tr(omega^m) as tr(omega^ceil(m/2) ^ omega^floor(m/2)).

    The last wedge is traced without being formed. Every m is taken by
    this route; `anchored_trace_power` is the other one, for odd m.

    The last result is kept, keyed by f's content and m; it is shared and
    must not be changed, and `trace_power_form.cache_clear()` drops it. A
    ValueError is not kept.
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

    Requires n even and at least 4, and entries homogeneous of one common
    degree: at n = 2 the top form tr(omega) = d log det is never a multiple
    of s (the Euler field contracts it to deg det and s to 0). q is the
    dz_{1bar} coefficient over -z_1. The top form is q * s exactly when
    the returned residual (z_1 times top - q s) is zero; the caller decides
    what a nonzero one means. The split top form comes back with it.
    """
    n = f.n
    if n < 4 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 4, got {n}")
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


def cubic_trace_data(
        t: MatrixTuple) -> Tuple[TopFormFactorization, Optional[MultiPoly]]:
    """The split of tr(omega^3) and the constant p, for four matrices.

    The top form is the anchored sum. Its normalized coefficient
    bar_i[j - 1] is I_(jbar), the dz_jbar coefficient over 3, reduced over
    a power of det. p = q det^2 / 3, or None when that is not a
    polynomial. The caller judges divisibility, the residual and the
    degree of p. ValueError unless t has four matrices and det != 0.
    """
    if t.n != 4:
        raise ValueError(f"needs a tuple of four matrices, got {t.n}")
    f = t.pencil()
    fact = _factor_top_form(anchored_trace_power(f, 3))
    # adj(A) A_j has entries of degree k-1 below deg det = k, so omega
    # keeps det as its denominator base
    det = maurer_cartan(f).den_base
    p = (fact.q * det * det * Fraction(1, 3)).reduce().as_polynomial()
    return fact, p


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
    _, p = cubic_trace_data(units)
    c = entry_matrix_constant(units)
    if p is None or p.is_zero or c.is_zero:
        raise RuntimeError("matrix-unit calibration degenerated")
    eps = p.constant_value() * c.inverse()
    if eps not in (Scalar(1), Scalar(-1)):
        raise RuntimeError(f"calibration produced a non-sign ratio {eps}")
    return eps
