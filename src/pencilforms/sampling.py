"""Deterministic random generators shared by tests, suites, and the CLI.

Every randomized check derives its per-trial stream from a master seed plus
context labels, so reports are reproducible byte for byte. Seeds go through
sha256 rather than Python's default hashing, which is salted per process.
"""

from __future__ import annotations

import hashlib
import random

from pencilforms.linalg import MatrixTuple, PolyMatrix
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


def random_matrix_tuple(rng: random.Random, n: int, k: int) -> MatrixTuple:
    """A matrix tuple whose pencil determinant is not identically zero."""
    while True:
        t = MatrixTuple([[[rng.randint(-3, 3) for _ in range(k)]
                          for _ in range(k)] for _ in range(n)])
        if not t.pencil().det().is_zero:
            return t


def random_diagonal_tuple(rng: random.Random, n: int, k: int) -> MatrixTuple:
    """A diagonal tuple whose pencil determinant is not identically zero."""
    while True:
        mats = []
        for _ in range(n):
            m = [[0] * k for _ in range(k)]
            for i in range(k):
                m[i][i] = rng.randint(-3, 3)
            mats.append(m)
        t = MatrixTuple(mats)
        if not t.pencil().det().is_zero:
            return t


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
