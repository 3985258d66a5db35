"""Independent references that only the tests use.

Each helper recomputes a library value by a second route: the adjugate
against the double-minor identity, a trace word as the dense tensor of
its matrix-entry products, a dense cochain's value key by key, a cochain
rotated one slot as a new tensor, kappa by its permutation expansion,
cyclicity on every tuple of matrix units,
conjugation invariance on seeded exact conjugations, the anchored trace sum one trace word per
permutation, the wedge, trace and exterior derivative of
matrix forms one ordered term pair at a time (a trace also with each
product formed), the sum, wedge and exterior
derivative of scalar forms one RatFn coefficient at a time (d by the
quotient rule), the top-form residual by subtraction, polynomials,
rational functions, polynomial matrices and form coefficients at a point
in floats, the identity and constant polynomial matrices, cyclotomic
arithmetic on dense coefficient vectors, a difference of term dicts by
the dict kernel's addition, exact division by leading-term cancellation
alone, the text of a polynomial through one `Scalar` per term, a
polynomial power as repeated products from
one, the JSON of form coefficients rendered one
coefficient at a time, and every zero-sum torus degree tuple of a box,
against which the torus cocycle checks' degree grid is tested.
`random_grid` draws the random matrix arguments those tests evaluate on.
"""

from itertools import combinations, permutations, product
from typing import Sequence

from pencilforms._core import (Q_ZERO, poly_add, poly_mul_term, qadd, qinv,
                               qmul, qneg)
from pencilforms.cochains import DenseCochain, TraceWord
from pencilforms.forms import MatrixForm, ScalarForm, sort_index
from pencilforms.jacobi import s_form
from pencilforms.linalg import (PolyMatrix, grid_adjugate, grid_det,
                                grid_mul, grid_scale)
from pencilforms.ring import (CycloElement, MultiPoly, RatFn, Scalar,
                              _frac_str, grlex_key)
from pencilforms.sampling import random_scalar, rng_for


def random_grid(rng, k: int) -> tuple:
    """A k x k grid of Gaussian integers with parts in -3..3."""
    return tuple(tuple(random_scalar(rng, 3) for _ in range(k))
                 for _ in range(k))


def grid_minor(a: Sequence, drop_rows, drop_cols) -> tuple:
    """Submatrix with the given 1-based rows and columns removed."""
    dr, dc = set(drop_rows), set(drop_cols)
    return tuple(
        tuple(x for c, x in enumerate(row, start=1) if c not in dc)
        for r, row in enumerate(a, start=1) if r not in dr
    )


def grid_double_minor(a: Sequence, rows: tuple, cols: tuple, one):
    """det of the grid with 1-based rows (i, p) and columns (j, q) removed."""
    i, p = rows
    j, q = cols
    k = len(a)
    for idx in (i, p, j, q):
        if not 1 <= idx <= k:
            raise ValueError(f"index {idx} outside 1..{k}")
    if i == p or j == q:
        raise ValueError("row and column pairs must be distinct")
    return grid_det(grid_minor(a, (i, p), (j, q)), one)


def adjugate_double_minor_check(a: Sequence, one) -> bool:
    """Verify the adjugate 2x2-minor identity on every ordered index pair.

    With adj = adjugate(a) and 1-based indices i != p, j != q:

        adj[i,j]*adj[p,q] - adj[i,q]*adj[p,j]
            = s * (-1)^(i+p+j+q) * det(a) * det(a minus rows {j,q}, cols {i,p})

    where s flips once for each descending pair (i>p, j>q). Note the deleted
    rows are the adjugate's *column* indices and vice versa; statements of
    this identity that delete rows {i,p} and columns {j,q}, or omit the sign,
    fail on generic matrices.
    """
    k = len(a)
    adj = grid_adjugate(a, one)
    det = grid_det(a, one)
    for i in range(1, k + 1):
        for p in range(1, k + 1):
            if p == i:
                continue
            for j in range(1, k + 1):
                for q in range(1, k + 1):
                    if q == j:
                        continue
                    lhs = (adj[i - 1][j - 1] * adj[p - 1][q - 1]
                           + -(adj[i - 1][q - 1] * adj[p - 1][j - 1]))
                    comp = grid_det(grid_minor(a, (j, q), (i, p)), one)
                    sign = 1 if (i + p + j + q) % 2 == 0 else -1
                    if i > p:
                        sign = -sign
                    if j > q:
                        sign = -sign
                    if lhs != det * comp * sign:
                        return False
    return True


def trace_word_dense(arity: int, k: int) -> DenseCochain:
    """tr(x_1 .. x_a) on k x k matrices as a dense tensor.

    The key of a product of entries (x_1)[i_1][i_2] (x_2)[i_2][i_3] ..
    (x_a)[i_a][i_1] gets coefficient 1 for every index tuple.
    """
    tensor = {}
    for idx in product(range(k), repeat=arity):
        key = tuple((idx[t], idx[(t + 1) % arity]) for t in range(arity))
        tensor[key] = tensor.get(key, Scalar(0)) + Scalar(1)
    return DenseCochain(arity, k, tensor)


def dense_evaluate_reference(phi: DenseCochain, args):
    """phi(x_1,..,x_a) as the sum over keys of c * prod_t (x_t)[i_t][j_t],
    each key multiplied out on its own; zero of the entry type when the
    tensor is empty."""
    total = None
    for key, c in phi.tensor.items():
        term = c
        for t, (i, j) in enumerate(key):
            term = term * args[t][i][j]
        total = term if total is None else total + term
    if total is None:
        total = args[0][0][0] * 0
    return total


def kappa_permutation_reference(phi, omega: MatrixForm) -> ScalarForm:
    """kappa(phi) on omega as sum over increasing I and permutations pi of
    I of sgn(pi) phi(B_pi(1), .., B_pi(a)) dz^I, phi evaluated once per
    permutation."""
    a, n = phi.arity, omega.n
    if a > n:
        return ScalarForm.zero(n, a)
    nums = {v: omega.coefficient_num((v,)) for v in range(1, n + 1)}
    terms = {}
    for index in combinations(range(1, n + 1), a):
        total = None
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


def rotated_reference(phi: DenseCochain) -> DenseCochain:
    """Tensor of phi o r, r(x_1,..,x_a) = (x_a, x_1,..,x_{a-1}), built
    and validated as a new DenseCochain."""
    # (phi o r)(x_1,..,x_a) = phi(x_a, x_1,..,x_{a-1}): the pair that
    # phi assigns to slot 1 lands on x_a, slots 2.. land on x_1..
    out = {}
    for key, c in phi.tensor.items():
        out[key[1:] + (key[0],)] = c
    return DenseCochain(phi.arity, phi.k, out)


def unit_grid(k: int, i: int, j: int) -> tuple:
    """The matrix unit E_{ij} (0-based) as a Scalar grid."""
    return tuple(tuple(Scalar(1) if (r, c) == (i, j) else Scalar(0)
                       for c in range(k)) for r in range(k))


def is_cyclic_spanning_reference(phi, k: int) -> bool:
    """phi(x_1,..,x_a) = (-1)^{a-1} phi(x_a, x_1,..,x_{a-1}) on every tuple
    of k x k matrix units, which decides it by multilinearity."""
    a = phi.arity
    units = [unit_grid(k, i, j) for i in range(k) for j in range(k)]
    for combo in product(range(len(units)), repeat=a):
        args = [units[c] for c in combo]
        lhs = phi.evaluate(args)
        rhs = phi.evaluate([args[-1]] + args[:-1])
        if a % 2 == 0:
            rhs = -rhs
        if lhs != rhs:
            return False
    return True


def random_basis_change(rng, k: int):
    """An exactly invertible pair (g, g^{-1}) over the Gaussian rationals.

    g is unit upper-triangular times lower-triangular with +-1 diagonal, so
    det(g) = +-1 and the adjugate gives the exact inverse.
    """
    def small():
        re = rng.randint(-2, 2)
        im = rng.randint(-1, 1) if rng.random() < 0.3 else 0
        return Scalar(re, im)

    upper = [[Scalar(1) if r == c else (small() if c > r else Scalar(0))
              for c in range(k)] for r in range(k)]
    lower = [[Scalar(rng.choice((-1, 1))) if r == c
              else (small() if c < r else Scalar(0))
              for c in range(k)] for r in range(k)]
    g = grid_mul(upper, lower)
    det = grid_det(g, Scalar(1))
    # det is +-1, hence equal to its own inverse
    ginv = grid_scale(grid_adjugate(g, Scalar(1)), det)
    return g, ginv


def invariance_probe_reference(phi, k: int) -> bool:
    """phi(g x g^{-1}, ..) = phi(x, ..) on 12 seeded exact conjugations."""
    for t in range(12):
        rng = rng_for(0, "invariance", t)
        args = [random_grid(rng, k) for _ in range(phi.arity)]
        g, ginv = random_basis_change(rng, k)
        conj = [grid_mul(grid_mul(g, x), ginv) for x in args]
        if phi.evaluate(conj) != phi.evaluate(args):
            return False
    return True


def anchored_trace_power_reference(omega: MatrixForm, m: int) -> ScalarForm:
    """The anchored trace-word sum of omega, one `TraceWord` evaluation per
    permutation of each index set's non-anchor slots."""
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


def _pairwise_sums(left: dict, right: dict, product) -> dict:
    """sign * product(a, b) added up per merged index, one term pair of
    `left` and `right` at a time."""
    out = {}
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


def matrix_wedge_reference(x: MatrixForm, y: MatrixForm) -> MatrixForm:
    """x ^ y with one PolyMatrix product per term pair."""
    base = x.den_base if x.den_pow else y.den_base
    out = _pairwise_sums(x.terms, y.terms, lambda a, b: a * b)
    return MatrixForm(x.n, x.k, x.degree + y.degree, out, base,
                      x.den_pow + y.den_pow)._reduced()


def matrix_trace_reference(x: MatrixForm, y: MatrixForm,
                           formed: bool = False) -> ScalarForm:
    """tr(x ^ y) with one PolyMatrix trace per ordered term pair; with
    `formed`, each product X_I X_J is formed and then traced."""
    base = x.den_base if x.den_pow else y.den_base
    nums = _pairwise_sums(x.terms, y.terms, (lambda a, b: (a * b).trace())
                          if formed else PolyMatrix.trace)
    pow_ = x.den_pow + y.den_pow
    return ScalarForm(x.n, x.degree + y.degree, {
        index: RatFn.over_power(num, base, pow_).reduce()
        for index, num in nums.items()})


def matrix_d_reference(x: MatrixForm) -> MatrixForm:
    """d x with one quotient-rule numerator per (term, variable) pair."""
    pow_, base = x.den_pow, x.den_base
    out = {}
    for index, mat in x.terms.items():
        for v in range(1, x.n + 1):
            placed = sort_index((v,) + index)
            if placed is None:
                continue
            new_index, sign = placed
            if pow_ == 0:
                num = mat.partial(v)
            else:
                num = (mat.partial(v) * base
                       + mat * (base.partial(v) * -pow_))
            num = num * sign
            out[new_index] = out[new_index] + num \
                if new_index in out else num
    return MatrixForm(x.n, x.k, x.degree + 1, out, base,
                      pow_ + 1 if pow_ else 0)._reduced()


def identity_matrix(n: int, k: int) -> PolyMatrix:
    """The k x k identity over polynomials in n variables."""
    z, o = MultiPoly.zero(n), MultiPoly.one(n)
    return PolyMatrix(n, [[o if r == c else z for c in range(k)]
                          for r in range(k)])


def constant_matrix(n: int, grid: Sequence) -> PolyMatrix:
    """A grid of Scalar/int entries lifted to constant polynomials."""
    return PolyMatrix(n, [[MultiPoly.constant(n, x) for x in row]
                          for row in grid])


def poly_value(p: MultiPoly, point: Sequence[complex]) -> complex:
    """p at a complex point of length n, in floats, summed in the order of
    its term dict."""
    if len(point) != p.n:
        raise ValueError(f"expected {p.n} coordinates, got {len(point)}")
    total = 0j
    for exps, c in p._terms.items():
        term = Scalar.from_q4(c).to_complex()
        for z, e in zip(point, exps):
            if e:
                term *= z ** e
        total += term
    return total


def ratfn_value(r: RatFn, point: Sequence[complex]) -> complex:
    """r at a complex point, in floats; raises where its denominator
    vanishes."""
    d = poly_value(r.den, point)
    if d == 0:
        raise ZeroDivisionError(f"denominator vanishes at {list(point)}")
    return poly_value(r.num, point) / d


def matrix_value(m: PolyMatrix, point: Sequence[complex]) -> tuple:
    """Every entry of a polynomial matrix at a complex point, in floats."""
    return tuple(tuple(poly_value(e, point) for e in row) for row in m.rows)


def matrix_form_values(form: MatrixForm, point: Sequence[complex]) -> dict:
    """Every coefficient matrix of a matrix form at a point, in floats;
    raises at a zero of the form's denominator."""
    d = poly_value(form.den(), point)
    if d == 0:
        raise ZeroDivisionError(f"denominator vanishes at {list(point)}")
    return {index: tuple(tuple(e / d for e in row)
                         for row in matrix_value(mat, point))
            for index, mat in sorted(form.terms.items())}


def scalar_form_values(form: ScalarForm, point: Sequence[complex]) -> dict:
    """Every coefficient of a scalar form at a point, each reduced first;
    raises at a pole of any coefficient."""
    return {index: ratfn_value(form.coefficient(index), point)
            for index in sorted(form.terms)}


def ratfn_partial(r: RatFn, var: int) -> RatFn:
    """Quotient-rule derivative of r in z_var; the tracked power rises by
    one."""
    if r.den_pow == 0:
        return RatFn(r.num.partial(var))
    num = (r.num.partial(var) * r.den_base
           + r.num * r.den_base.partial(var) * -r.den_pow)
    return RatFn.over_power(num, r.den_base, r.den_pow + 1).reduce()


def scalar_coefficients(form: ScalarForm) -> dict:
    """index -> RatFn coefficient of a scalar form."""
    return {index: form.coefficient(index) for index in form.terms}


def scalar_add_reference(x: dict, y: dict) -> dict:
    """The sum of two coefficient dicts, one RatFn sum per index."""
    out = dict(x)
    for index, coeff in y.items():
        out[index] = out[index] + coeff if index in out else coeff
    return out


def scalar_wedge_reference(x: dict, y: dict) -> dict:
    """x ^ y for coefficient dicts, one RatFn product per term pair."""
    return _pairwise_sums(x, y, lambda a, b: a * b)


def scalar_d_reference(x: dict, n: int) -> dict:
    """d x for a coefficient dict, each coefficient by the quotient rule."""
    out = {}
    for index, coeff in x.items():
        for v in range(1, n + 1):
            placed = sort_index((v,) + index)
            if placed is None:
                continue
            new_index, sign = placed
            contrib = ratfn_partial(coeff, v) * sign
            out[new_index] = out[new_index] + contrib \
                if new_index in out else contrib
    return out


def poly_sub_reference(p: dict, q: dict) -> dict:
    """p - q of term dicts, as the dict kernel's `poly_add` of p and q
    negated: p's terms that survive, then q's new ones."""
    return poly_add(p, {e: qneg(c) for e, c in q.items()})


def exact_divide_reference(p: MultiPoly, d: MultiPoly):
    """p / d by leading-term cancellation in graded-lex order and nothing
    else, or None when a leading term does not divide: the quotient's
    terms in the order the steps find them."""
    p_terms, d_terms = p._terms, d._terms
    d_lead = max(d_terms, key=grlex_key)
    d_lead_inv = qinv(d_terms[d_lead])
    rem = dict(p_terms)
    quo = {}
    while rem:
        r_lead = max(rem, key=grlex_key)
        exps = tuple(a - b for a, b in zip(r_lead, d_lead))
        if any(e < 0 for e in exps):
            return None
        coeff = qmul(rem[r_lead], d_lead_inv)
        quo[exps] = coeff
        rem = poly_add(rem, poly_mul_term(d_terms, exps, qneg(coeff)))
    return MultiPoly(p.n, quo)


def terms_reference(p: MultiPoly):
    """Yield (exponent tuple, Scalar) pairs in descending graded-lex order."""
    for exps in sorted(p._terms, key=grlex_key, reverse=True):
        yield exps, Scalar.from_q4(p._terms[exps])


def term_str_reference(coeff: Scalar, mono: str, first: bool) -> str:
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


def multipoly_str_reference(p: MultiPoly) -> str:
    """The text of p with one `Scalar` per term (`term_str_reference`)."""
    if p.is_zero:
        return "0"
    parts = []
    for exps, coeff in terms_reference(p):
        mono = "*".join(
            f"z{k + 1}" if e == 1 else f"z{k + 1}^{e}"
            for k, e in enumerate(exps) if e
        )
        parts.append(term_str_reference(coeff, mono, first=not parts))
    return "".join(parts)


def poly_power_reference(p: MultiPoly, m: int) -> MultiPoly:
    """p**m as m products starting from one; one * p copies p, term order
    included."""
    out = MultiPoly.one(p.n)
    for _ in range(m):
        out = out * p
    return out


def ratfn_json_reference(c: RatFn) -> dict:
    """{"num", "den"} of one coefficient, its denominator multiplied out
    for it alone."""
    return {"num": str(c.num), "den": str(c.den)}


def scalar_form_json_reference(form: ScalarForm) -> dict:
    """The scalar-form JSON, each reduced coefficient rendered on its own."""
    return {"degree": form.degree, "n": form.n, "terms": [
        {"index": list(index), **ratfn_json_reference(form.coefficient(index))}
        for index in sorted(form.terms)]}


def top_factor_json_reference(fact) -> dict:
    """The top-factor payload, q and each bar I_j rendered on its own."""
    return {
        "q": ratfn_json_reference(fact.q),
        "q_denominator_power": fact.q.den_pow,
        "residual_zero": fact.residual.is_zero,
        "normalized_coefficients": [ratfn_json_reference(b)
                                    for b in fact.bar_i],
    }


def top_form_residual_reference(big_t: ScalarForm) -> ScalarForm:
    """big_t - q s with q = -T_{2..n} / z_1, by rational-function
    subtraction over unlike denominators."""
    n = big_t.n
    q = (big_t.coefficient(tuple(range(2, n + 1)))
         * RatFn(MultiPoly.constant(n, -1), MultiPoly.variable(n, 1))).reduce()
    return big_t - s_form(n).wedge(ScalarForm(n, 0, {(): q}))


def cyclo_dense(x: CycloElement) -> tuple:
    """The q coefficients of x as kernel 4-tuples, t^0 first."""
    out = [Q_ZERO] * x.q
    for e, c in x._terms:
        out[e] = c
    return tuple(out)


def convolve(x: tuple, y: tuple) -> tuple:
    """Cyclic convolution of two dense coefficient tuples over their nonzeros."""
    q = len(x)
    out = [Q_ZERO] * q
    ys = [(b, cb) for b, cb in enumerate(y) if cb != Q_ZERO]
    for a, ca in enumerate(x):
        if ca == Q_ZERO:
            continue
        for b, cb in ys:
            k = (a + b) % q
            out[k] = qadd(out[k], qmul(ca, cb))
    return tuple(out)


def cyclo_dense_str(coeffs: tuple) -> str:
    """Text of a dense coefficient tuple, highest t-power first."""
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == Q_ZERO:
            continue
        mono = "" if e == 0 else ("t" if e == 1 else f"t^{e}")
        parts.append(term_str_reference(Scalar.from_q4(c), mono,
                                        first=not parts))
    return "".join(parts) if parts else "0"


def box(radius: int) -> list:
    """The torus degrees (m, n) with |m|, |n| <= radius, m-major."""
    span = range(-radius, radius + 1)
    return [(m, n) for m in span for n in span]


def zero_sum_tuples(radius: int, arity: int):
    """Degree tuples inside the box whose components sum to zero.

    The first slot is solved from the rest, so the enumeration is complete
    for the box once the dependent slot also lands inside it. The slots
    between run over the box (arity >= 2); the last one runs only over the
    degrees that keep the first slot inside it, in box order, so the
    tuples come in the order of filtering all of product(box, repeat=a-1).
    """
    degrees = box(radius)
    for middle in product(degrees, repeat=arity - 2):
        sm = sn = 0
        for m, n in middle:
            sm += m
            sn += n
        ms = range(max(-radius, -radius - sm), min(radius, radius - sm) + 1)
        ns = range(max(-radius, -radius - sn), min(radius, radius - sn) + 1)
        for m in ms:
            for n in ns:
                yield ((-sm - m, -sn - n),) + middle + ((m, n),)
