"""Exact matrices: generic grid algebra, matrix tuples, polynomial matrices.

Grids are rectangular tuples-of-tuples over any exact coefficient type that
supports ``+``, ``*``, and unary ``-`` (Scalar, MultiPoly, RatFn, complex).
`PolyMatrix` wraps a square grid of MultiPoly entries and carries the
variable count; `MatrixTuple` is an ordered tuple (A_1, ..., A_n) of k x k
Scalar matrices whose linear pencil is ``A(z) = z_1 A_1 + ... + z_n A_n``.

`PolyMatrix.dot` builds each entry of a sum of matrix products, and
`PolyMatrix.trace_dot` the sum of their traces, as one `MultiPoly.dot`: a
single kernel accumulator over all the entry products of the sum (see
`_core.poly_dot`), not one product and one addition per entry pair. A
product is the one-pair sum and ``trace(other)`` its one-pair trace; the
matrix forms pass every term pair that lands on one form coefficient at
once. `grid_mul` and `grid_trace` stay generic for the plain grid
arguments of cochains (`cochains.alg_mul` and `alg_trace`).

Determinants and adjugates use first-row expansion memoized over (row
subset, column subset), which is exact over any commutative ring and
comfortably fast for the k <= 5 range this package targets; an adjugate's
minors share that memo. Over polynomials each minor is one `MultiPoly.dot`
over its signed (entry, sub-minor) pairs, the same kernel sum as a
product's entry; over Scalar and other grids the same expansion sums its
products by ``*`` and ``+``.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Optional, Sequence

from pencilforms.ring import MultiPoly, Scalar

# -- generic grid algebra ------------------------------------------------------


def grid_mul(a: Sequence, b: Sequence) -> tuple:
    rows = len(a)
    inner = len(b)
    if any(len(r) != inner for r in a):
        raise ValueError("incompatible grid shapes")
    cols = len(b[0])
    out = []
    for r in range(rows):
        row = []
        for c in range(cols):
            acc = a[r][0] * b[0][c]
            for t in range(1, inner):
                acc = acc + a[r][t] * b[t][c]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def grid_add(a: Sequence, b: Sequence) -> tuple:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def grid_scale(a: Sequence, c) -> tuple:
    return tuple(tuple(x * c for x in row) for row in a)


def grid_trace(a: Sequence, b: Optional[Sequence] = None):
    """tr(a), or tr(a b) as sum_{r,t} a[r][t] b[t][r] without forming a b."""
    if b is None:
        acc = a[0][0]
        for r in range(1, len(a)):
            acc = acc + a[r][r]
        return acc
    if len(b) != len(a[0]) or any(len(row) != len(a) for row in b):
        raise ValueError("incompatible grid shapes")
    acc = None
    for row, col in zip(a, zip(*b)):
        for x, y in zip(row, col):
            acc = x * y if acc is None else acc + x * y
    return acc


def _sum_of_products(pairs):
    """The sum of x * y over the (x, y) pairs, by ``*`` and ``+``."""
    (x, y), *rest = pairs
    acc = x * y
    for x, y in rest:
        acc = acc + x * y
    return acc


def _minor_dets(a: Sequence, one):
    """A function det(rows, cols) of the square subgrid of a on the given
    0-based row and column tuples, each the signed first-row expansion
    sum_t (-1)^t a[rows[0]][cols[t]] det(rows[1:], cols without cols[t]),
    memoized over (rows, cols) so the determinants of all minors share
    their sub-minors. A 1x1 subgrid is its entry and the empty one is one.

    Over polynomials (one a MultiPoly) each expansion is one
    `MultiPoly.dot` over its (signed entry, sub-minor) pairs: one kernel
    accumulator per minor, not a dict product and sum per pair. A negated
    entry shares the entry's keys (`MultiPoly.__neg__`). Any other exact
    grid sums its products by ``*`` and ``+``.
    """
    k = len(a)
    if any(len(row) != k for row in a):
        raise ValueError("determinant of a non-square grid")
    if isinstance(one, MultiPoly):
        total = functools.partial(MultiPoly.dot, one.n)
    else:
        total = _sum_of_products
    signed = (a, [[-x for x in row] for row in a])
    memo: dict = {}

    def det(rows: tuple, cols: tuple):
        if len(cols) < 2:
            return a[rows[0]][cols[0]] if cols else one
        key = (rows, cols)
        value = memo.get(key)
        if value is None:
            r, rest = rows[0], rows[1:]
            value = memo[key] = total([
                (signed[t % 2][r][c], det(rest, cols[:t] + cols[t + 1:]))
                for t, c in enumerate(cols)])
        return value

    return det


def grid_det(a: Sequence, one):
    """Determinant by memoized first-row expansion (`_minor_dets`); the
    empty grid has det = one."""
    full = tuple(range(len(a)))
    return _minor_dets(a, one)(full, full)


def grid_adjugate(a: Sequence, one) -> tuple:
    """Transposed cofactor grid, satisfying adj(A) * A = det(A) * Id.

    Its k^2 minors are expanded together (`_minor_dets`), so each
    sub-minor they share is computed once.
    """
    k = len(a)
    if k == 1:
        return ((one,),)
    det = _minor_dets(a, one)
    full = tuple(range(k))
    out = []
    for i in range(k):
        cols = full[:i] + full[i + 1:]
        row = []
        for j in range(k):
            cof = det(full[:j] + full[j + 1:], cols)
            row.append(cof if (i + j) % 2 == 0 else -cof)
        out.append(tuple(row))
    return tuple(out)


# -- polynomial matrices -------------------------------------------------------


class PolyMatrix:
    """A square matrix of MultiPoly entries in shared variables z1..zn."""

    __slots__ = ("n", "k", "rows", "_det")

    def __init__(self, n: int, rows: Sequence):
        self._det: Optional[MultiPoly] = None
        self.n = n
        self.rows = tuple(tuple(row) for row in rows)
        self.k = len(self.rows)
        if self.k == 0 or any(len(r) != self.k for r in self.rows):
            raise ValueError("expected a nonempty square grid")
        for row in self.rows:
            for e in row:
                if not isinstance(e, MultiPoly) or e.n != n:
                    raise ValueError("entries must be MultiPoly in n variables")

    @classmethod
    def zero(cls, n: int, k: int) -> "PolyMatrix":
        z = MultiPoly.zero(n)
        return cls(n, [[z] * k for _ in range(k)])

    @classmethod
    def parse(cls, entries: Sequence, n: int) -> "PolyMatrix":
        """Build from a grid of polynomial text entries."""
        return cls(n, [[MultiPoly.parse(e, n) for e in row]
                       for row in entries])

    def __getitem__(self, r: int) -> tuple:
        return self.rows[r]

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.rows for e in row)

    def _check(self, other: "PolyMatrix") -> None:
        if self.n != other.n or self.k != other.k:
            raise ValueError("mixed matrix shapes or variable counts")

    def __add__(self, other):
        if isinstance(other, PolyMatrix):
            self._check(other)
            return PolyMatrix(self.n, grid_add(self.rows, other.rows))
        return NotImplemented

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix(self.n, [[-e for e in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, PolyMatrix):
            self._check(other)
            return PolyMatrix.dot(self.n, ((self, other),))
        if isinstance(other, (MultiPoly, Scalar, int, Fraction)):
            return PolyMatrix(self.n, grid_scale(self.rows, other))
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.n, self.k, self.rows) == (other.n, other.k, other.rows)

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def trace(self, other: Optional["PolyMatrix"] = None) -> MultiPoly:
        """tr(self), or tr(self * other) without forming the product."""
        if other is None:
            return grid_trace(self.rows)
        self._check(other)
        return PolyMatrix.trace_dot(self.n, ((self, other),))

    @staticmethod
    def dot(n: int, pairs) -> "PolyMatrix":
        """The sum of x * y over the (x, y) pairs of equally sized matrices,
        each entry one `MultiPoly.dot` over the entry products of all pairs;
        the caller checks the shapes."""
        pairs = [(x.rows, tuple(zip(*y.rows))) for x, y in pairs]
        k = len(pairs[0][0])
        dot = MultiPoly.dot
        return PolyMatrix(n, [
            [dot(n, [pair for rows, cols in pairs
                     for pair in zip(rows[r], cols[c])]) for c in range(k)]
            for r in range(k)])

    @staticmethod
    def trace_dot(n: int, pairs) -> MultiPoly:
        """The sum of tr(x * y) over the (x, y) pairs, as one `MultiPoly.dot`
        and without forming any product; the caller checks the shapes."""
        return MultiPoly.dot(n, [
            pair for x, y in pairs
            for row, col in zip(x.rows, zip(*y.rows))
            for pair in zip(row, col)])

    def det(self) -> MultiPoly:
        """The determinant, kept once found (`adjugate` finds it too):
        sampling takes it to reject a singular draw, and the suite that
        drew the matrix reads the same det."""
        if self._det is None:
            self._det = grid_det(self.rows, MultiPoly.one(self.n))
        return self._det

    def adjugate(self) -> "PolyMatrix":
        """The adjugate; keeps det = sum_j f[0][j] adj[j][0] if none is."""
        adj = grid_adjugate(self.rows, MultiPoly.one(self.n))
        if self._det is None:
            self._det = MultiPoly.dot(self.n, zip(self.rows[0],
                                                  next(zip(*adj))))
        return PolyMatrix(self.n, adj)

    def partial(self, var: int) -> "PolyMatrix":
        return PolyMatrix(self.n, [[e.partial(var) for e in row]
                                   for row in self.rows])

    def entry_degrees_homogeneous(self) -> Optional[int]:
        """Common homogeneity degree of the nonzero entries, else None."""
        degrees = {e.homogeneity_degree()
                   for row in self.rows for e in row if not e.is_zero}
        if len(degrees) != 1:
            return None
        return degrees.pop()

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(e) for e in row) for row in self.rows)
        return f"PolyMatrix(n={self.n}, k={self.k}, [{body}])"


class MatrixTuple:
    """An ordered tuple (A_1, ..., A_n) of k x k matrices over Scalar."""

    __slots__ = ("n", "k", "mats", "_pencil")

    def __init__(self, mats: Sequence):
        self._pencil: Optional[PolyMatrix] = None
        self.n = len(mats)
        if self.n == 0:
            raise ValueError("need at least one matrix")
        norm = []
        for m in mats:
            grid = tuple(
                tuple(x if isinstance(x, Scalar) else Scalar(x) for x in row)
                for row in m
            )
            norm.append(grid)
        self.mats = tuple(norm)
        self.k = len(self.mats[0])
        if self.k == 0:
            raise ValueError("matrices must be nonempty")
        for grid in self.mats:
            if len(grid) != self.k or any(len(r) != self.k for r in grid):
                raise ValueError("matrices must be square and equally sized")

    @classmethod
    def matrix_units(cls, k: int) -> "MatrixTuple":
        """The n = k*k tuple of matrix units in row-major order."""
        mats = []
        for r in range(k):
            for c in range(k):
                mats.append([[1 if (r, c) == (i, j) else 0 for j in range(k)]
                             for i in range(k)])
        return cls(mats)

    def matrix(self, j: int) -> tuple:
        """The 1-based j-th matrix as a Scalar grid."""
        return self.mats[j - 1]

    def pencil(self) -> PolyMatrix:
        """The linear pencil A(z) = z_1 A_1 + ... + z_n A_n, built once per
        tuple: sampling builds it to reject a draw whose det vanishes, and
        the suite that drew the tuple reads the same pencil."""
        if self._pencil is not None:
            return self._pencil
        n, k = self.n, self.k
        rows = []
        for r in range(k):
            row = []
            for c in range(k):
                terms = {}
                for j, grid in enumerate(self.mats):
                    v = grid[r][c]
                    if not v.is_zero:
                        exps = tuple(1 if t == j else 0 for t in range(n))
                        terms[exps] = v
                row.append(MultiPoly.from_terms(n, terms))
            rows.append(row)
        self._pencil = PolyMatrix(n, rows)
        return self._pencil

    @property
    def is_diagonal(self) -> bool:
        return all(grid[r][c].is_zero
                   for grid in self.mats
                   for r in range(self.k) for c in range(self.k) if r != c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixTuple):
            return NotImplemented
        return self.mats == other.mats

    def __repr__(self) -> str:
        return f"MatrixTuple(n={self.n}, k={self.k})"
