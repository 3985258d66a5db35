"""The map kappa from cochains to forms, and its exact identities.

``kappa(phi, f)`` expands phi(omega_f,..,omega_f) over increasing
multi-indices: for each size-a index I and each permutation pi of I it
accumulates sgn(pi) * phi(B_pi(1),..,B_pi(a)) * dz^I, where B_i is the
dz_i coefficient of the Maurer-Cartan form. `kappa_wedge_oracle` recomputes
the same form by brute multilinear extension over all coefficient tuples
and exists purely to cross-check the expansion.

The transgression identity for a cyclic cochain of arity a is
``(a/(a+1)) kappa(b phi) = -d kappa(phi)``, which decomposes as
``kappa(b phi) = -d kappa(phi) - phi(d omega, omega,..,omega)`` together
with ``phi(d omega,..) = -1/(a+1) kappa(b phi)``.

`tau` is kappa gated on conjugation invariance of the functional; on
simultaneously diagonal tuples `hyperplane_decomposition` realizes the
spectrum as a union of hyperplane zero sets with kappa of the coordinate
functionals giving logarithmic derivatives of the linear factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Dict, List, Optional, Sequence, Tuple

from pencilforms.cochains import (
    Cochain,
    DenseCochain,
    coboundary,
    invariance_test,
    is_cyclic,
)
from pencilforms.forms import MatrixForm, ScalarForm, maurer_cartan, sort_index
from pencilforms.linalg import MatrixTuple, PolyMatrix
from pencilforms.ring import MultiPoly, RatFn, Scalar


def kappa(phi: Cochain, f: PolyMatrix) -> ScalarForm:
    """phi(omega_f,..,omega_f) as a degree-a form, computed by expansion."""
    return _kappa_of(phi, maurer_cartan(f))


def _kappa_of(phi: Cochain, omega: MatrixForm) -> ScalarForm:
    """kappa's expansion on a Maurer-Cartan form the caller has built."""
    a = phi.arity
    n = omega.n
    if a > n:
        return ScalarForm.zero(n, a)
    nums = {v: omega.coefficient_num((v,)) for v in range(1, n + 1)}
    terms: Dict[Tuple[int, ...], RatFn] = {}
    for index in combinations(range(1, n + 1), a):
        total: Optional[MultiPoly] = None
        for pi in permutations(index):
            val = phi.evaluate([nums[v] for v in pi])
            if sort_index(pi)[1] < 0:
                val = -val
            total = val if total is None else total + val
        if total is None or total.is_zero:
            continue
        coeff = RatFn.over_power(total, omega.den_base,
                                 a * omega.den_pow).reduce()
        if not coeff.is_zero:
            terms[index] = coeff
    return ScalarForm(n, a, terms)


def apply_multilinear(phi: Cochain, forms: Sequence[MatrixForm]) -> ScalarForm:
    """Extend phi over matrix-coefficient forms slot by slot.

    phi(M1 dz^I1,..,Ma dz^Ia) := phi(M1,..,Ma) dz^I1 ^ .. ^ dz^Ia, summed
    over every choice of coefficient terms. All forms must share one
    denominator base (or carry none).
    """
    if len(forms) != phi.arity:
        raise ValueError(f"expected {phi.arity} forms, got {len(forms)}")
    n = forms[0].n
    base: Optional[MultiPoly] = None
    for fm in forms:
        if fm.n != n:
            raise ValueError("mixed variable counts")
        if fm.den_pow > 0:
            if base is None:
                base = fm.den_base
            elif base != fm.den_base:
                raise ValueError("matrix forms carry different denominator bases")
    if base is None:
        base = MultiPoly.one(n)
    total_pow = sum(fm.den_pow for fm in forms)
    degree = sum(fm.degree for fm in forms)

    nums: Dict[Tuple[int, ...], MultiPoly] = {}
    for combo in product(*[list(fm.terms.items()) for fm in forms]):
        flat: Tuple[int, ...] = ()
        for index, _ in combo:
            flat = flat + index
        placed = sort_index(flat)
        if placed is None:
            continue
        index, sign = placed
        val = phi.evaluate([mat for _, mat in combo])
        if sign < 0:
            val = -val
        nums[index] = nums[index] + val if index in nums else val

    terms = {}
    for index, num in nums.items():
        coeff = RatFn.over_power(num, base, total_pow).reduce()
        if not coeff.is_zero:
            terms[index] = coeff
    return ScalarForm(n, degree, terms)


def kappa_wedge_oracle(phi: Cochain, f: PolyMatrix) -> ScalarForm:
    """Independent recomputation of kappa by brute multilinear extension."""
    omega = maurer_cartan(f)
    return apply_multilinear(phi, [omega] * phi.arity)


@dataclass(frozen=True)
class TransgressionReport:
    arity: int
    main_equal: bool
    decomposition_equal: bool
    correction_equal: bool
    lhs: ScalarForm
    rhs: ScalarForm

    @property
    def all_hold(self) -> bool:
        return (self.main_equal and self.decomposition_equal
                and self.correction_equal)


def transgression_report(phi: Cochain, f: PolyMatrix,
                         require_cyclic: bool = True) -> TransgressionReport:
    """Check (a/(a+1)) kappa(b phi) = -d kappa(phi) and its two halves."""
    if require_cyclic and not is_cyclic(phi, k=f.k):
        raise ValueError("cochain is not cyclic; the identity needs cyclicity")
    a = phi.arity
    omega = maurer_cartan(f)
    d_kappa = _kappa_of(phi, omega).exterior_derivative()
    kappa_b = _kappa_of(coboundary(phi), omega)

    lhs = kappa_b * Fraction(a, a + 1)
    rhs = -d_kappa
    main_equal = lhs == rhs

    d_omega = omega.exterior_derivative()
    correction = apply_multilinear(phi, [d_omega] + [omega] * (a - 1))
    decomposition_equal = kappa_b == -d_kappa - correction
    correction_equal = correction == kappa_b * Fraction(-1, a + 1)

    return TransgressionReport(arity=a, main_equal=main_equal,
                               decomposition_equal=decomposition_equal,
                               correction_equal=correction_equal,
                               lhs=lhs, rhs=rhs)


def tau(functional, f: PolyMatrix, check_invariance: bool = True,
        trials: int = 12, seed: int = 0) -> ScalarForm:
    """kappa restricted to conjugation-invariant functionals.

    A plain number stands for a multiple of the empty product and maps to
    the constant 0-form, so the unit functional maps to 1.
    """
    if isinstance(functional, (int, Fraction, Scalar)):
        c = functional if isinstance(functional, Scalar) else Scalar(functional)
        return ScalarForm(f.n, 0, {(): RatFn(MultiPoly.constant(f.n, c))})
    if check_invariance and not invariance_test(functional, trials=trials,
                                                seed=seed, k=f.k):
        raise ValueError("functional failed the conjugation-invariance test")
    return kappa(functional, f)


@dataclass(frozen=True)
class HyperplaneDecomposition:
    lines: Tuple[MultiPoly, ...]
    multiplicities: Tuple[Tuple[MultiPoly, int], ...]
    zero_lines: Tuple[int, ...]
    det_matches: bool
    coordinate_forms: Dict[int, ScalarForm]
    kappa_matches: Optional[bool]


def hyperplane_decomposition(t: MatrixTuple) -> HyperplaneDecomposition:
    """Linear factors of a simultaneously diagonal pencil.

    Line i is ell_i(z) = sum_j (A_j)_{ii} z_j; their product is the pencil
    determinant, and kappa of the i-th coordinate functional is the
    logarithmic derivative d(ell_i)/ell_i. An identically zero line means
    the spectrum fills all of affine space; such lines are flagged and
    carry no form.
    """
    if not t.is_diagonal:
        raise ValueError("matrices are not simultaneously diagonal; "
                         "diagonalize the tuple before decomposing")
    n, k = t.n, t.k
    lines: List[MultiPoly] = []
    for i in range(k):
        terms = {}
        for j in range(n):
            exps = [0] * n
            exps[j] = 1
            terms[tuple(exps)] = t.matrix(j + 1)[i][i]
        lines.append(MultiPoly.from_terms(n, terms))

    grouped: List[Tuple[MultiPoly, int]] = []
    for line in lines:
        for pos, (rep, mult) in enumerate(grouped):
            if rep == line:
                grouped[pos] = (rep, mult + 1)
                break
        else:
            grouped.append((line, 1))

    zero_lines = tuple(i + 1 for i, line in enumerate(lines) if line.is_zero)

    prod = MultiPoly.one(n)
    for line in lines:
        prod = prod * line
    pencil = t.pencil()
    det = pencil.det()
    det_matches = prod == det

    coordinate_forms: Dict[int, ScalarForm] = {}
    for i, line in enumerate(lines, start=1):
        if line.is_zero:
            continue
        coordinate_forms[i] = ScalarForm(n, 1, {
            (v,): RatFn(line.partial(v), line)
            for v in range(1, n + 1) if not line.partial(v).is_zero
        })

    kappa_matches: Optional[bool] = None
    if not det.is_zero:
        omega = maurer_cartan(pencil)
        kappa_matches = True
        for i in range(1, k + 1):
            functional = DenseCochain.basis(1, k, ((i - 1, i - 1),))
            if _kappa_of(functional, omega) != coordinate_forms[i]:
                kappa_matches = False
                break

    return HyperplaneDecomposition(lines=tuple(lines),
                                   multiplicities=tuple(grouped),
                                   zero_lines=zero_lines,
                                   det_matches=det_matches,
                                   coordinate_forms=coordinate_forms,
                                   kappa_matches=kappa_matches)
