"""Exact matrices: generic grid algebra, matrix tuples, polynomial matrices.

Grids are rectangular tuples-of-tuples over any exact coefficient type that
supports ``+``, ``*``, and unary ``-`` (Scalar, MultiPoly, RatFn, complex).
`PolyMatrix` wraps a square grid of MultiPoly entries and carries the
variable count; `MatrixTuple` is an ordered tuple (A_1, ..., A_n) of k x k
Scalar matrices whose linear pencil is ``A(z) = z_1 A_1 + ... + z_n A_n``.

A `PolyMatrix` product builds each entry, and ``trace(other)`` builds
tr(self * other), as one `MultiPoly.dot`: a single kernel accumulator over
all the entry products of the sum (see `_core.poly_dot`), not one product
and one addition per entry pair. `grid_mul` and `grid_trace` stay generic
for the Scalar, RatFn and complex grids of cochains and sampling.

Determinants use first-row expansion memoized over column subsets, which is
exact over any commutative ring and comfortably fast for the k <= 5 range
this package targets.
"""

from __future__ import annotations

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


def grid_sub(a: Sequence, b: Sequence) -> tuple:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


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


def grid_minor(a: Sequence, drop_rows, drop_cols) -> tuple:
    """Submatrix with the given 1-based rows and columns removed."""
    dr, dc = set(drop_rows), set(drop_cols)
    return tuple(
        tuple(x for c, x in enumerate(row, start=1) if c not in dc)
        for r, row in enumerate(a, start=1) if r not in dr
    )


def grid_det(a: Sequence, one):
    """Determinant by memoized row expansion; the empty grid has det = one."""
    k = len(a)
    if any(len(row) != k for row in a):
        raise ValueError("determinant of a non-square grid")
    memo: dict = {}

    def rec(cols: tuple):
        if not cols:
            return one
        if cols in memo:
            return memo[cols]
        r = k - len(cols)
        total = None
        for idx, c in enumerate(cols):
            term = a[r][c] * rec(cols[:idx] + cols[idx + 1:])
            if idx % 2:
                term = -term
            total = term if total is None else total + term
        memo[cols] = total
        return total

    return rec(tuple(range(k)))


def grid_adjugate(a: Sequence, one) -> tuple:
    """Transposed cofactor grid, satisfying adj(A) * A = det(A) * Id."""
    k = len(a)
    if k == 1:
        return ((one,),)
    out = []
    for i in range(1, k + 1):
        row = []
        for j in range(1, k + 1):
            cof = grid_det(grid_minor(a, (j,), (i,)), one)
            row.append(cof if (i + j) % 2 == 0 else -cof)
        out.append(tuple(row))
    return tuple(out)


# -- polynomial matrices -------------------------------------------------------


class PolyMatrix:
    """A square matrix of MultiPoly entries in shared variables z1..zn."""

    __slots__ = ("n", "k", "rows")

    def __init__(self, n: int, rows: Sequence):
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
    def identity(cls, n: int, k: int) -> "PolyMatrix":
        z, o = MultiPoly.zero(n), MultiPoly.one(n)
        return cls(n, [[o if r == c else z for c in range(k)]
                       for r in range(k)])

    @classmethod
    def constant(cls, n: int, grid: Sequence) -> "PolyMatrix":
        """Lift a grid of Scalar/int entries to constant polynomials."""
        return cls(n, [[MultiPoly.constant(n, x) for x in row]
                       for row in grid])

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

    def __sub__(self, other):
        if isinstance(other, PolyMatrix):
            self._check(other)
            return PolyMatrix(self.n, grid_sub(self.rows, other.rows))
        return NotImplemented

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix(self.n, [[-e for e in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, PolyMatrix):
            self._check(other)
            n, dot = self.n, MultiPoly.dot
            cols = tuple(zip(*other.rows))
            return PolyMatrix(n, [[dot(n, zip(row, col)) for col in cols]
                                  for row in self.rows])
        if isinstance(other, (MultiPoly, Scalar, int, Fraction)):
            return PolyMatrix(self.n, grid_scale(self.rows, other))
        return NotImplemented

    def __rmul__(self, other):
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
        return MultiPoly.dot(self.n, [
            pair for row, col in zip(self.rows, zip(*other.rows))
            for pair in zip(row, col)])

    def det(self) -> MultiPoly:
        return grid_det(self.rows, MultiPoly.one(self.n))

    def adjugate(self) -> "PolyMatrix":
        return PolyMatrix(self.n, grid_adjugate(self.rows, MultiPoly.one(self.n)))

    def partial(self, var: int) -> "PolyMatrix":
        return PolyMatrix(self.n, [[e.partial(var) for e in row]
                                   for row in self.rows])

    def evaluate(self, point: Sequence[complex]) -> tuple:
        return tuple(tuple(e.evaluate(point) for e in row)
                     for row in self.rows)

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

    __slots__ = ("n", "k", "mats")

    def __init__(self, mats: Sequence):
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
        """The linear pencil A(z) = z_1 A_1 + ... + z_n A_n."""
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
        return PolyMatrix(n, rows)

    @property
    def is_diagonal(self) -> bool:
        return all(grid[r][c].is_zero
                   for grid in self.mats
                   for r in range(self.k) for c in range(self.k) if r != c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixTuple):
            return NotImplemented
        return self.mats == other.mats

    def __hash__(self) -> int:
        return hash(self.mats)

    def __repr__(self) -> str:
        return f"MatrixTuple(n={self.n}, k={self.k})"
