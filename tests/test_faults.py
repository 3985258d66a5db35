"""Faults that each identity check must see.

Each row monkeypatches one fault into the package and names the report
lines that must then FAIL. A line that no fault fails has no content.

The pencil rows. Each runs only the suites it names, at seed 1.

- q with the wrong sign: `jacobi._factor_top_form` builds q from
  +1 / z_1 in place of -1 / z_1, so p = q det^2 / 3 changes sign. Since
  epsilon is the constant -1 and not calibrated from p,
  `example35.entry-matrix` fails at its first tuple. No `theorem33` line
  can see this fault: `p-constant-k2` and `p-quadratic-k3` check only the
  degree of p, `divisibility` and `top-factorization` the normalized
  coefficients and the residual, which do not use q, and `trace-routes`
  the top form itself.

The two rows that spoil the anchored route, `jacobi.anchored_trace_power`,
which gives tr(omega^3) to `trace_power_form`, `cubic_trace_data` and
kappa of `traceword:3`. Each runs over theorem33, example35 and tau.

- The commutator built as B_b B_c + B_c B_b: the second pair of its dot
  loses its minus sign. The anticommutator's trace against B_a is no
  multiple of s and not divisible by det, so it fails all five
  `theorem33` lines, `example35.entry-matrix` (q det^2 / 3 is no
  polynomial) and `tau.multiplicative` (tau of a traceword:3 factor is
  that trace). `tau.closed` passes.
- The factor 3 dropped: tr(omega^3) / 3 is still q s with q det^2 / 3 a
  polynomial of the right degree, so the `theorem33` lines that judge the
  split alone pass. It fails `theorem33.trace-routes`, which compares with
  the wedge route, `example35.entry-matrix`, where p is off by 3 from
  -C, and `tau.multiplicative`. `tau.closed` passes: d of a third of a
  closed form is 0.

The three rows that spoil the Maurer-Cartan curvature pairs of `forms`:
the commutator pairs that `MatrixForm.curvature` and the odd self wedge
omega ^ omega share (`forms._commutator_pairs`), and the quotient-rule
pairs that `curvature` and `exterior_derivative` share
(`MatrixForm._quotient_rule_pairs`). Each runs over flatness, parity,
theorem33, tau, example35 and theorem29.

- A gap product with the wrong sign: in each off-diagonal entry the
  product y_rc (x_rr - x_cc) of every pair of terms enters negated. It
  fails `flatness.linear` and `flatness.quadratic`, `parity.even-powers`
  (tr(omega^4) traces the faulty omega ^ omega against itself) and
  `theorem33.trace-routes` (its wedge route wedges omega with itself);
  the anchored route forms its own commutators, so the other theorem33
  lines, example35 and tau pass. Negating both gap products of an entry
  would not do: that is the true omega~ ^ omega~ of omega with its
  diagonal negated, whose even trace powers still vanish.
- A diagonal entry that drops one commutator pair: the first product of
  entry (0, 0) of each coefficient is left out. It fails exactly the
  same four lines.
- A wrong tail sign in the quotient-rule pairs: the product with
  pow d_v base enters with the sign of the lead. d is then wrong on every
  form with a denominator, so it fails both flatness lines, `tau.closed`
  (d of tau) and `theorem29.correction`, `.decomposition` and `.main`,
  which all take d of a kappa form. parity, theorem33 and example35 take
  no d and pass.

The torus rows. Both factorization lines, `torus.factorization.pinned`
and `.sampled`, check two equalities of the truncated resolvent,

    z1 phi_j(W1, W2) - z3 phi_j(W2, W3) + phi_j(E, W2) = 0,
    z2 phi_j(W1, W2) + z3 phi_j(W1, W3) + phi_j(W1, E) = 0,

exactly at q in {3, 4, 5} (`verify --suite torus`) and against a rounding
bound in numeric mode (`torus --check factorization`). Each fault below
fails both lines in both modes:

- phi_1 plus tr(x y): phi_1(1, y) = tr(y) is no longer 0;
- `TorusElement.trace` plus a constant: phi_j(1, y) is that constant;
- delta_1 with a wrong weight on the monomial U: phi_1 is no longer
  cyclic, so phi_1(W2, W2) != 0.

The equalities use only that phi_j is bilinear, vanishes with a unit in
either slot, and is cyclic. Three faults keep all three properties, so
these lines cannot see them (all three pass at q = 5):

- delta_1 and delta_2 swapped: phi_1 and phi_2 trade places;
- delta moved to the left slot, tr(delta_j(x) y) = -phi_j(x, y): a
  multiple of phi_j;
- a trace with no twist, sum x_{a,b} y_{-a,-b}: the cocycle of the
  commutative torus, still normalized and cyclic.

The twist stays covered by `torus.algebra` and the cocycle lines.
"""

import dataclasses
from fractions import Fraction
from types import SimpleNamespace

import pytest

from pencilforms import forms, jacobi, torus
from pencilforms.cochains import FunctionalCochain
from pencilforms.linalg import PolyMatrix
from pencilforms.suites import (run_suite, suite_torus,
                                torus_factorization_checks)
from pencilforms.torus import TorusElement

FACTORIZATION_LINES = ("torus.factorization.pinned",
                       "torus.factorization.sampled")


def phi1_plus_trace(monkeypatch):
    inner = torus.phi_cochain

    def faulty(which):
        phi = inner(which)
        if which != 1:
            return phi
        return FunctionalCochain(2, lambda args: phi(args)
                                 + args[0].trace(args[1]), label="phi1")

    monkeypatch.setattr(torus, "phi_cochain", faulty)


def trace_plus_constant(monkeypatch):
    inner = TorusElement.trace

    def faulty(self, other=None):
        return inner(self, other) + self.config.one_coeff()

    monkeypatch.setattr(TorusElement, "trace", faulty)


def delta1_wrong_weight(monkeypatch):
    # the coefficient of U is scaled by 2 in place of 1
    inner = TorusElement.delta

    def faulty(self, which):
        out = inner(self, which)
        if which == 1 and (1, 0) in self.coeffs:
            out = out + TorusElement._of(self.config,
                                         {(1, 0): self.coeffs[(1, 0)]})
        return out

    monkeypatch.setattr(TorusElement, "delta", faulty)


def factorization_verdicts(seed=1):
    """{line: passed} of the exact suite and of the numeric check."""
    exact = {r.name: r.passed for r in suite_torus(seed)
             if r.name in FACTORIZATION_LINES}
    numeric = {r.name: r.passed for r in torus_factorization_checks(seed)}
    return exact, numeric


def test_the_factorization_lines_pass_without_a_fault():
    exact, numeric = factorization_verdicts()
    assert exact == numeric == dict.fromkeys(FACTORIZATION_LINES, True)


@pytest.mark.parametrize("fault", [phi1_plus_trace, trace_plus_constant,
                                   delta1_wrong_weight],
                         ids=lambda fault: fault.__name__)
def test_each_torus_fault_fails_both_factorization_lines(monkeypatch, fault):
    fault(monkeypatch)
    exact, numeric = factorization_verdicts()
    assert exact == numeric == dict.fromkeys(FACTORIZATION_LINES, False)


def commutator_plus(monkeypatch):
    # jacobi forms [B_b, B_c] as one dot over (B_b, B_c) and (-B_c, B_b);
    # the second pair loses its minus sign, so the bracket is B_b B_c +
    # B_c B_b
    def faulty_dot(n, pairs):
        (x, y), (neg_z, w) = pairs
        return PolyMatrix.dot(n, [(x, y), (-neg_z, w)])

    monkeypatch.setattr(jacobi, "PolyMatrix", SimpleNamespace(
        dot=faulty_dot, trace_dot=PolyMatrix.trace_dot))


def factor_three_dropped(monkeypatch):
    inner = jacobi.anchored_trace_power
    monkeypatch.setattr(jacobi, "anchored_trace_power",
                        lambda f: inner(f) * Fraction(1, 3))


def q_sign_flipped(monkeypatch):
    inner = jacobi._factor_top_form

    def faulty(big_t):
        fact = inner(big_t)
        return dataclasses.replace(fact, q=-fact.q)

    monkeypatch.setattr(jacobi, "_factor_top_form", faulty)


def gap_product_sign_flipped(monkeypatch):
    # each off-diagonal entry holds, per pair of terms, its two gap
    # products and then 2(k - 2) others; the first, y_rc (x_rr - x_cc),
    # is negated
    inner = forms._commutator_pairs

    def faulty(terms, k):
        out = inner(terms, k)
        step = 2 * (k - 1)
        for grid in out.values():
            for r, row in enumerate(grid):
                for c, pairs in enumerate(row):
                    if r != c:
                        pairs[::step] = [(y, -gap) for y, gap in pairs[::step]]
        return out

    monkeypatch.setattr(forms, "_commutator_pairs", faulty)


def diagonal_pair_dropped(monkeypatch):
    inner = forms._commutator_pairs

    def faulty(terms, k):
        out = inner(terms, k)
        for grid in out.values():
            if grid[0][0]:  # at k = 1 the commutator has no pairs
                del grid[0][0][0]
        return out

    monkeypatch.setattr(forms, "_commutator_pairs", faulty)


def tail_sign_flipped(monkeypatch):
    # each entry's pairs alternate (d_v e, lead) and (e, tail)
    inner = forms.MatrixForm._quotient_rule_pairs

    def faulty(self, lift):
        out = inner(self, lift)
        for grid in out.values():
            for row in grid:
                for pairs in row:
                    pairs[1::2] = [(e, -tail) for e, tail in pairs[1::2]]
        return out

    monkeypatch.setattr(forms.MatrixForm, "_quotient_rule_pairs", faulty)


CURVATURE_SUITES = ("flatness", "parity", "theorem33", "tau", "example35",
                    "theorem29")
COMMUTATOR_LINES = {"flatness.linear", "flatness.quadratic",
                    "parity.even-powers", "theorem33.trace-routes"}

PENCIL_ROWS = [
    (q_sign_flipped, ("theorem33", "example35"), {"example35.entry-matrix"}),
    (commutator_plus, ("theorem33", "example35", "tau"),
     {"theorem33.p-constant-k2", "theorem33.p-quadratic-k3",
      "theorem33.divisibility", "theorem33.top-factorization",
      "theorem33.trace-routes", "example35.entry-matrix",
      "tau.multiplicative"}),
    (factor_three_dropped, ("theorem33", "example35", "tau"),
     {"theorem33.trace-routes", "example35.entry-matrix",
      "tau.multiplicative"}),
    (gap_product_sign_flipped, CURVATURE_SUITES, COMMUTATOR_LINES),
    (diagonal_pair_dropped, CURVATURE_SUITES, COMMUTATOR_LINES),
    (tail_sign_flipped, CURVATURE_SUITES,
     {"flatness.linear", "flatness.quadratic", "tau.closed",
      "theorem29.correction", "theorem29.decomposition", "theorem29.main"}),
]


@pytest.mark.parametrize("fault, suites, failing", PENCIL_ROWS,
                         ids=[row[0].__name__ for row in PENCIL_ROWS])
def test_each_pencil_fault_fails_its_lines(monkeypatch, fault, suites,
                                           failing):
    fault(monkeypatch)
    verdicts = {r.name: r.passed for suite in suites
                for r in run_suite(suite, 1).results}
    assert {name for name, passed in verdicts.items() if not passed} \
        == failing
