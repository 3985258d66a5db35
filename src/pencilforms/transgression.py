"""The map kappa from cochains to forms, and its exact identities.

``kappa(phi, f)`` is phi(omega_f,..,omega_f): for each size-a index I it
sums sgn(pi) * phi(B_pi(1),..,B_pi(a)) * dz^I over the permutations pi of
I, where B_i is the dz_i coefficient of the Maurer-Cartan form. phi is not
evaluated per permutation: its chain of dense factors (`Cochain.tensors`)
is contracted against omega one slot at a time, the last factor first,
each trie node's value a form, so the work a node does is shared by every
permutation through it, and each coefficient of a node's form is one
`MultiPoly.dot`. A cyclic cochain (Connes, Publ. IHES 62, 1985) has
phi o r = (-1)^(a-1) phi for the rotation r, and rotating a permutation pi
of I multiplies sgn(pi) by the same (-1)^(a-1), so the a rotations of pi
give one term a times: the kappa of a single dense factor that `is_cyclic`
accepts sums only the permutations with pi(1) = min I, anchoring the
first slot, and multiplies by a. A product's factors stay apart, their
outer product never formed, and its kappa is not the wedge of the
factors' kappa, which tau's multiplicativity check compares it with. The
one exception is a trace word tr(x_1..x_a): its kappa is tr(omega^a),
which `trace_power_form` computes (by the anchored sum at a = 3, by
wedges otherwise) and keeps, so kappa returns that kept form, shared with
the trace power and top-form split on the same pencil, and it must not be
changed.
Its dense tensor (`TraceWord.tensors`) still takes the chain, and
`is_cyclic` and `invariance_test` still read it. `kappa_wedge_oracle`
recomputes the same form by brute multilinear extension over all
coefficient tuples and exists purely to cross-check kappa;
`apply_multilinear`, which it uses, evaluates phi once per tuple of
coefficient terms.

The transgression identity for a cyclic cochain of arity a is
``(a/(a+1)) kappa(b phi) = -d kappa(phi)``, which decomposes as
``kappa(b phi) = -d kappa(phi) - phi(d omega, omega,..,omega)`` together
with ``phi(d omega,..) = -1/(a+1) kappa(b phi)``. `transgression_report`
returns the three forms these identities relate; the theorem29 suite
compares them.

`tau` is kappa gated on conjugation invariance of the functional, which
`invariance_test` decides exactly on the same chain; on
simultaneously diagonal tuples `hyperplane_decomposition` returns the
linear factors whose zero sets make up the spectrum (the diagonal entries
of the pencil), their product next to det, and kappa of the coordinate
functionals next to the logarithmic derivatives of the factors; the
hyperplane suite compares each pair.

Every call here takes omega by pencil: `kappa` asks `maurer_cartan`, which
keeps the last omega it built, so the kappa forms of one report or one
decomposition share one omega without passing it around.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from pencilforms.cochains import (
    Cochain,
    DenseCochain,
    TraceWord,
    coboundary,
    invariance_test,
    is_cyclic,
)
from pencilforms.forms import MatrixForm, ScalarForm, maurer_cartan, sort_index
from pencilforms.jacobi import trace_power_form
from pencilforms.linalg import MatrixTuple, PolyMatrix
from pencilforms.ring import MultiPoly, RatFn, Scalar


def kappa(phi: Cochain, f: PolyMatrix) -> ScalarForm:
    """phi(omega_f,..,omega_f) as a degree-a form.

    For a trace word of arity a <= n that is tr(omega^a), and the form
    returned is the one `trace_power_form` keeps: it is shared with the
    trace-power and top-factor requests on f and must not be changed.
    """
    omega = maurer_cartan(f)
    a = phi.arity
    n = omega.n
    if a > n:
        return ScalarForm.zero(n, a)
    if isinstance(phi, TraceWord):
        return trace_power_form(f, a)
    totals = _kappa_nums(phi.tensors(omega.k), omega)
    return ScalarForm._over_power(n, a, dict(sorted(totals.items())),
                                  omega.den_base, a * omega.den_pow)._reduced()


def _kappa_nums(chain: List[DenseCochain], omega: MatrixForm) -> Dict:
    """The numerators of kappa over base^(a pow), by index, for the outer
    product of `chain`, its last factor contracted first.

    With B_v the dz_v numerator of omega, a trie node of depth t has as
    value its subtensor applied to omega in slots t..: a form, as a dict
    from sorted index to numerator. A node at a factor's last slot is the
    1-form with L_v = sum c B_v[i][j]; before the last factor it is then
    followed by the next factor's value D, adding +-L_v D[S] to S + {v}.
    Above it a child (i, j) of value D adds (-1)^#{s in S : s < v}
    B_v[i][j] D[S] to S + {v} for each S in D and v not in S. Each (node,
    index) value serves every permutation through it, each coefficient is
    one `MultiPoly.dot`, and each B_v and L_v is negated once.

    A chain of one factor of arity a >= 2 that `is_cyclic` accepts is
    anchored: the root slot takes only v < min S, which puts v first in
    S + {v} with sign +1, and the totals are multiplied by a. The rotation
    (pi(a), pi(1),.., pi(a-1)) of a permutation has sign (-1)^(a-1) sgn(pi)
    and phi(B_pi(a), B_pi(1),..) = (-1)^(a-1) phi(B_pi(1),..), so each of
    the a rotations of the anchored permutation gives its term unchanged.
    The least variable then fills the root slot only, and the slots below
    it contract omega without it. Products, cochains that are not cyclic
    and trace words (whose kappa `kappa` takes from `trace_power_form`)
    keep the full sum.
    """
    n = omega.n
    terms = [(v, mat.rows, (-mat).rows) for (v,), mat in omega.terms.items()]

    def entries_of(terms) -> Dict:
        # the nonzero B_v[i][j] by v, and their negations, for each slot pair
        return {(i, j): ({v: b[i][j] for v, b, _ in terms if b[i][j]},
                         {v: nb[i][j] for v, b, nb in terms if b[i][j]})
                for i in range(omega.k) for j in range(omega.k)}

    entries = entries_of(terms)

    def dots(pairs: Dict) -> Dict:
        return {index: total for index, group in pairs.items()
                if (total := MultiPoly.dot(n, group))}

    def spread(pairs: Dict, left: Dict, neg: Dict, after: Dict) -> None:
        for index, d in after.items():
            for v, x in left.items():
                if v not in index:
                    at = bisect_left(index, v)
                    pairs.setdefault(index[:at] + (v,) + index[at:], []).append(
                        (neg[v] if at % 2 else x, d))

    def value(node: dict, t: int, last: int, after: Optional[Dict]) -> Dict:
        pairs: Dict = {}
        if t < last:
            for pair, child in node.items():
                spread(pairs, *entries[pair], value(child, t + 1, last, after))
            return dots(pairs)
        for pair, c in node.items():
            const = MultiPoly.constant(n, c)
            for v, b in entries[pair][0].items():
                pairs.setdefault((v,), []).append((const, b))
        if after is None:
            return dots(pairs)
        lin = {v: total for (v,), total in dots(pairs).items()}
        pairs = {}
        spread(pairs, lin, {v: -x for v, x in lin.items()}, after)
        return dots(pairs)

    if len(chain) == 1 and chain[0].arity > 1 and is_cyclic(chain[0]):
        phi, a = chain[0], chain[0].arity
        # the least variable fills the root slot only, so the slots below
        # it, which `value` contracts, read the entries without it
        root = entries
        least = min(v for v, _, _ in terms) if terms else 0
        entries = entries_of([t for t in terms if t[0] != least])
        pairs = {}
        for pair, child in phi.trie.items():
            left = root[pair][0]
            for index, d in value(child, 1, a - 1, None).items():
                for v, x in left.items():
                    if v < index[0]:
                        pairs.setdefault((v,) + index, []).append((x, d))
        return {index: total * a for index, total in dots(pairs).items()}
    after = None
    for phi in reversed(chain):
        if not phi.trie:
            return {}
        after = value(phi.trie, 0, phi.arity - 1, after)
    return after


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
        kappa_b=kappa(coboundary(phi), f),
        d_kappa=kappa(phi, f).exterior_derivative(),
        correction=apply_multilinear(phi, [d_omega] + [omega] * (a - 1)))


def tau(functional, f: PolyMatrix) -> ScalarForm:
    """kappa restricted to conjugation-invariant functionals.

    The gate is `invariance_test`, exact on the functional's chain of dense
    factors on f's matrix size; a functional it refuses raises ValueError.
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
    pencil = t.pencil()
    lines = tuple(pencil.rows[i][i] for i in range(k))
    prod = math.prod(lines, start=MultiPoly.one(n))
    det = pencil.det()

    coordinate_forms = {
        i: ScalarForm(n, 1, {(v,): RatFn(line.partial(v), line)
                             for v in range(1, n + 1)
                             if not line.partial(v).is_zero})
        for i, line in enumerate(lines, start=1) if not line.is_zero}
    kappa_forms = None if det.is_zero else {
        i: kappa(DenseCochain.basis(1, k, ((i - 1, i - 1),)), pencil)
        for i in range(1, k + 1)}

    return HyperplaneDecomposition(
        lines=lines, multiplicities=tuple(Counter(lines).items()),
        line_product=prod, det=det, coordinate_forms=coordinate_forms,
        kappa_forms=kappa_forms)
