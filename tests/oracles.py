"""Independent references that only the tests use.

Each helper recomputes a library value by a second route: the adjugate
against the double-minor identity, a trace word as the dense tensor of
its matrix-entry products, a dense cochain's value key by key, and
cyclotomic arithmetic on dense coefficient vectors.
"""

from itertools import product
from typing import Sequence

from pencilforms._core import Q_ZERO, qadd, qmul
from pencilforms.cochains import DenseCochain
from pencilforms.linalg import grid_adjugate, grid_det, grid_minor
from pencilforms.ring import CycloElement, Scalar, _term_str


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
                           - adj[i - 1][q - 1] * adj[p - 1][j - 1])
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
        parts.append(_term_str(Scalar.from_q4(c), mono, first=not parts))
    return "".join(parts) if parts else "0"
