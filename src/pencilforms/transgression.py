"""The map kappa from cochains to forms, and its exact identities.

``kappa(phi, f)`` is phi(omega_f,..,omega_f): for each size-a index I it
sums sgn(pi) * phi(B_pi(1),..,B_pi(a)) * dz^I over the permutations pi of
I, where B_i is the dz_i coefficient of the Maurer-Cartan form. A dense
cochain is not evaluated per permutation: its key trie is contracted
against omega one slot at a time, each node's value a form, so the work a
node does is shared by every permutation through it, and each coefficient
of a node's form is one `MultiPoly.dot`. Other cochains are expanded over
permutations. `kappa_wedge_oracle` recomputes the same form by brute
multilinear extension over all coefficient tuples and exists purely to
cross-check kappa; `apply_multilinear`, which it uses, keeps its product
loop.

The transgression identity for a cyclic cochain of arity a is
``(a/(a+1)) kappa(b phi) = -d kappa(phi)``, which decomposes as
``kappa(b phi) = -d kappa(phi) - phi(d omega, omega,..,omega)`` together
with ``phi(d omega,..) = -1/(a+1) kappa(b phi)``. `transgression_report`
returns the three forms these identities relate; the theorem29 suite
compares them.

`tau` is kappa gated on conjugation invariance of the functional; on
simultaneously diagonal tuples `hyperplane_decomposition` returns the
linear factors whose zero sets make up the spectrum, their product next to
det, and kappa of the coordinate functionals next to the logarithmic
derivatives of the factors; the hyperplane suite compares each pair.
"""

from __future__ import annotations

from bisect import bisect_left
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
    """phi(omega_f,..,omega_f) as a degree-a form."""
    return _kappa_of(phi, maurer_cartan(f))


def _kappa_of(phi: Cochain, omega: MatrixForm) -> ScalarForm:
    """kappa on a Maurer-Cartan form the caller has built: contracted slot
    by slot for a dense cochain, expanded over permutations otherwise."""
    a = phi.arity
    n = omega.n
    if a > n:
        return ScalarForm.zero(n, a)
    nums = {v: omega.coefficient_num((v,)) for v in range(1, n + 1)}
    if isinstance(phi, DenseCochain):
        # the contraction reads entries without calling evaluate, which
        # is where a k that does not fit would be refused
        phi._check_args([nums[1]] * a)
        totals = _dense_kappa_nums(phi, omega)
    else:
        totals = {}
        for index in combinations(range(1, n + 1), a):
            total = None
            for pi in permutations(index):
                val = phi.evaluate([nums[v] for v in pi])
                if sort_index(pi)[1] < 0:
                    val = -val
                total = val if total is None else total + val
            totals[index] = total
    return ScalarForm._over_power(n, a, dict(sorted(totals.items())),
                                  omega.den_base, a * omega.den_pow)._reduced()


def _dense_kappa_nums(phi: DenseCochain, omega: MatrixForm) -> Dict:
    """The numerators of kappa(phi) over base^(a pow), by index.

    With B_v the dz_v numerator of omega, the value of a trie node of depth
    t is phi's subtensor there applied to omega in slots t..a-1: a form of
    degree a - t, kept as a dict from sorted index to numerator. At the
    last slot it is sum c B_v[i][j] dz_v. Above it a child (i, j) of value
    D adds (-1)^#{s in S : s < v} B_v[i][j] D[S] to S + {v} for each S in D
    and v not in S, so each (node, index) value is computed once for all
    the permutations that share it, and each coefficient is one
    `MultiPoly.dot`. The sign is folded into the entry of B_v, each B_v
    negated once.
    """
    n = omega.n
    rows = {v: mat.rows for (v,), mat in omega.terms.items()}
    negated = {v: (-mat).rows for (v,), mat in omega.terms.items()}

    def value(node: dict, t: int) -> Dict:
        pairs: Dict = {}
        if t == last:
            for (i, j), c in node.items():
                const = MultiPoly.constant(n, c)
                for v, b in rows.items():
                    if b[i][j]:
                        pairs.setdefault((v,), []).append((const, b[i][j]))
        else:
            for (i, j), child in node.items():
                for index, d in value(child, t + 1).items():
                    for v, b in rows.items():
                        if v in index or not b[i][j]:
                            continue
                        at = bisect_left(index, v)
                        merged = index[:at] + (v,) + index[at:]
                        pair = ((negated if at % 2 else rows)[v][i][j], d)
                        if merged in pairs:
                            pairs[merged].append(pair)
                        else:
                            pairs[merged] = [pair]
        out = {}
        for index, group in pairs.items():
            total = MultiPoly.dot(n, group)
            if total:
                out[index] = total
        return out

    last = phi.arity - 1
    return value(phi.trie, 0) if phi.trie else {}


def apply_multilinear(phi: Cochain, forms: Sequence[MatrixForm]) -> ScalarForm:
    """Extend phi over matrix-coefficient forms slot by slot.

    phi(M1 dz^I1,..,Ma dz^Ia) := phi(M1,..,Ma) dz^I1 ^ .. ^ dz^Ia, summed
    over every choice of coefficient terms. All forms must share one
    denominator base (or carry none).
    """
    if len(forms) != phi.arity:
        raise ValueError(f"expected {phi.arity} forms, got {len(forms)}")
    n = forms[0].n
    if any(fm.n != n for fm in forms):
        raise ValueError("mixed variable counts")
    bases = {fm.den_base for fm in forms if fm.den_pow}
    if len(bases) > 1:
        raise ValueError("matrix forms carry different denominator bases")
    base = bases.pop() if bases else MultiPoly.one(n)
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

    return ScalarForm._over_power(n, degree, nums, base, total_pow)._reduced()


def kappa_wedge_oracle(phi: Cochain, f: PolyMatrix) -> ScalarForm:
    """Independent recomputation of kappa by brute multilinear extension."""
    omega = maurer_cartan(f)
    return apply_multilinear(phi, [omega] * phi.arity)


@dataclass(frozen=True)
class TransgressionReport:
    """The forms of the transgression identity for one cochain and pencil."""

    arity: int
    kappa_b: ScalarForm  # kappa(b phi)
    d_kappa: ScalarForm  # d kappa(phi)
    correction: ScalarForm  # phi(d omega, omega,..,omega)


def transgression_report(phi: Cochain, f: PolyMatrix) -> TransgressionReport:
    """kappa(b phi), d kappa(phi) and the correction form of a cyclic phi."""
    if not is_cyclic(phi, k=f.k):
        raise ValueError("cochain is not cyclic; the identity needs cyclicity")
    a = phi.arity
    omega = maurer_cartan(f)
    d_omega = omega.exterior_derivative()
    return TransgressionReport(
        arity=a,
        kappa_b=_kappa_of(coboundary(phi), omega),
        d_kappa=_kappa_of(phi, omega).exterior_derivative(),
        correction=apply_multilinear(phi, [d_omega] + [omega] * (a - 1)))


def tau(functional, f: PolyMatrix) -> ScalarForm:
    """kappa restricted to conjugation-invariant functionals.

    A plain number stands for a multiple of the empty product and maps to
    the constant 0-form, so the unit functional maps to 1.
    """
    if isinstance(functional, (int, Fraction, Scalar)):
        return ScalarForm(f.n, 0, {(): functional})
    if not invariance_test(functional, k=f.k):
        raise ValueError("functional failed the conjugation-invariance test")
    return kappa(functional, f)


@dataclass(frozen=True)
class HyperplaneDecomposition:
    lines: Tuple[MultiPoly, ...]
    multiplicities: Tuple[Tuple[MultiPoly, int], ...]
    line_product: MultiPoly
    det: MultiPoly
    coordinate_forms: Dict[int, ScalarForm]
    kappa_forms: Optional[Dict[int, ScalarForm]]


def hyperplane_decomposition(t: MatrixTuple) -> HyperplaneDecomposition:
    """Linear factors of a simultaneously diagonal pencil.

    Line i is ell_i(z) = sum_j (A_j)_{ii} z_j; their product should be the
    pencil determinant, and kappa of the i-th coordinate functional (in
    `kappa_forms`, None when det is identically 0) the logarithmic
    derivative d(ell_i)/ell_i (in `coordinate_forms`). An identically zero
    line means the spectrum fills all of affine space; such a line carries
    no coordinate form.
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

    prod = MultiPoly.one(n)
    for line in lines:
        prod = prod * line
    pencil = t.pencil()
    det = pencil.det()

    coordinate_forms: Dict[int, ScalarForm] = {}
    for i, line in enumerate(lines, start=1):
        if line.is_zero:
            continue
        coordinate_forms[i] = ScalarForm(n, 1, {
            (v,): RatFn(line.partial(v), line)
            for v in range(1, n + 1) if not line.partial(v).is_zero
        })

    kappa_forms: Optional[Dict[int, ScalarForm]] = None
    if not det.is_zero:
        omega = maurer_cartan(pencil)
        kappa_forms = {
            i: _kappa_of(DenseCochain.basis(1, k, ((i - 1, i - 1),)), omega)
            for i in range(1, k + 1)}

    return HyperplaneDecomposition(lines=tuple(lines),
                                   multiplicities=tuple(grouped),
                                   line_product=prod, det=det,
                                   coordinate_forms=coordinate_forms,
                                   kappa_forms=kappa_forms)
