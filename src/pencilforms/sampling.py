"""Deterministic random generators shared by tests, suites, and the CLI.

Every randomized check derives its per-trial stream from a master seed plus
context labels, so reports are reproducible byte for byte. Seeds go through
sha256 rather than Python's default hashing, which is salted per process.
"""

from __future__ import annotations

import hashlib
import random
from typing import Tuple

from pencilforms.linalg import (
    MatrixTuple,
    PolyMatrix,
    grid_adjugate,
    grid_det,
    grid_mul,
    grid_scale,
)
from pencilforms.ring import MultiPoly, Scalar


def derive_seed(seed: int, *parts) -> int:
    """A stable 64-bit stream seed from a master seed plus context labels."""
    text = repr((int(seed),) + tuple(str(p) for p in parts))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def rng_for(seed: int, *parts) -> random.Random:
    return random.Random(derive_seed(seed, *parts))


def random_scalar(rng: random.Random, span: int) -> Scalar:
    """Real and imaginary parts in -span..span; imaginary with chance 0.3."""
    re = rng.randint(-span, span)
    im = rng.randint(-span, span) if rng.random() < 0.3 else 0
    return Scalar(re, im)


def random_grid(rng: random.Random, k: int) -> tuple:
    return tuple(tuple(random_scalar(rng, 3) for _ in range(k))
                 for _ in range(k))


def random_matrix_tuple(rng: random.Random, n: int, k: int) -> MatrixTuple:
    """A matrix tuple whose pencil determinant is not identically zero."""
    while True:
        t = MatrixTuple([[[rng.randint(-3, 3) for _ in range(k)]
                          for _ in range(k)] for _ in range(n)])
        if not t.pencil().det().is_zero:
            return t


def random_diagonal_tuple(rng: random.Random, n: int, k: int) -> MatrixTuple:
    mats = []
    for _ in range(n):
        m = [[0] * k for _ in range(k)]
        for i in range(k):
            m[i][i] = rng.randint(-3, 3)
        mats.append(m)
    return MatrixTuple(mats)


def random_homogeneous_poly(rng: random.Random, n: int,
                            degree: int) -> MultiPoly:
    terms = {}
    for _ in range(3):
        exps = [0] * n
        for _ in range(degree):
            exps[rng.randrange(n)] += 1
        c = rng.randint(-2, 2)
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + c
    return MultiPoly.from_terms(n, terms)


def random_poly_matrix(rng: random.Random, n: int, k: int,
                       degree: int = 2) -> PolyMatrix:
    """Homogeneous entries of a fixed degree, nonzero determinant."""
    while True:
        rows = [[random_homogeneous_poly(rng, n, degree) for _ in range(k)]
                for _ in range(k)]
        m = PolyMatrix(n, rows)
        if not m.det().is_zero:
            return m


def random_basis_change(rng: random.Random, k: int) -> Tuple[tuple, tuple]:
    """An exactly invertible pair (g, g^{-1}) over the Gaussian rationals.

    g is unit upper-triangular times lower-triangular with ±1 diagonal, so
    det(g) = ±1 and the adjugate gives the exact inverse.
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
    # det is ±1, hence equal to its own inverse
    ginv = grid_scale(grid_adjugate(g, Scalar(1)), det)
    return g, ginv
