"""Multilinear functionals on matrix algebras and the coboundary b.

A cochain of arity a eats a matrix arguments and returns a ring element.
Arguments may be plain grids (tuples of tuples over Scalar, MultiPoly, or
RatFn) or any objects with * and a ``.trace(other=None)`` that returns
tr(self) or tr(self * other), such as PolyMatrix and TorusElement.

The coboundary is
``(b phi)(x_1,..,x_{a+1}) = sum_{j=1}^{a} (-1)^{j-1} phi(x_1,..,x_j x_{j+1},..,x_{a+1})
+ (-1)^a phi(x_{a+1} x_1, x_2,..,x_a)``
and a cochain is cyclic when ``phi(x_1,..,x_a) = (-1)^{a-1} phi(x_a, x_1,..,x_{a-1})``.

A dense cochain is evaluated by contracting one slot at a time,
``phi(x_1,..,x_a) = sum_{(i,j)} x_1[i][j] * phi_{(i,j)}(x_2,..,x_a)``, over a
trie of its tensor keys: the last slot is a linear combination of entries
of x_a, and each slot above it multiplies one entry by the value of a
subtrie, so keys that share a prefix share its products.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Callable, Dict, Optional, Tuple

from pencilforms import sampling
from pencilforms.linalg import grid_mul, grid_trace
from pencilforms.ring import Scalar

PairKey = Tuple[Tuple[int, int], ...]


def alg_mul(x, y):
    if isinstance(x, (tuple, list)):
        return grid_mul(x, y)
    return x * y


def alg_trace(x, y=None):
    """tr(x), or tr(x y) without forming the product."""
    if isinstance(x, (tuple, list)):
        return grid_trace(x, y)
    return x.trace(y)


def unit_grid(k: int, i: int, j: int) -> tuple:
    """The matrix unit E_{ij} (0-based) as a Scalar grid."""
    return tuple(tuple(Scalar(1) if (r, c) == (i, j) else Scalar(0)
                       for c in range(k)) for r in range(k))


class Cochain:
    """Base class; subclasses fix arity, optional k, and evaluation.

    ``evaluate(args)`` takes the argument list, checks it with `_check_args`,
    and neither changes nor keeps the list: `FormulaCoboundary` passes one
    list to all the terms of its sum, changing it between them.
    """

    arity: int
    k: Optional[int]

    def evaluate(self, args):
        raise NotImplementedError

    def __call__(self, *args):
        """phi(x_1, .., x_a) or phi([x_1, .., x_a])."""
        if len(args) == 1 and isinstance(args[0], list):
            return self.evaluate(args[0])
        return self.evaluate(list(args))

    def coboundary(self) -> "Cochain":
        return coboundary(self)

    def _check_args(self, args) -> None:
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        if self.k is not None:
            for x in args:
                rows = x.rows if hasattr(x, "rows") else x
                if isinstance(rows, (tuple, list)) and len(rows) != self.k:
                    raise ValueError(f"argument size {len(rows)} != k={self.k}")


class TraceWord(Cochain):
    """phi(x_1,..,x_a) = trace(x_1 x_2 .. x_a)."""

    def __init__(self, arity: int):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.arity = arity
        self.k = None

    def evaluate(self, args):
        self._check_args(args)
        if len(args) == 1:
            return alg_trace(args[0])
        acc = args[0]
        for x in args[1:-1]:
            acc = alg_mul(acc, x)
        return alg_trace(acc, args[-1])

    def __repr__(self) -> str:
        return f"TraceWord(arity={self.arity})"


class DenseCochain(Cochain):
    """Tensor representation: keys are a-tuples of (row, col) pairs, 0-based.

    phi(x_1,..,x_a) = sum over keys of c[key] * prod_t (x_t)[i_t][j_t].
    Entries given twice (as 0 and "0", say) are summed, and a key whose
    sum is zero is dropped. `evaluate` works on a trie of the keys, built
    once here, so the tensor is not changed afterwards: nested dicts keyed
    by the pair of each slot in turn, with the coefficient at the last
    slot. That is one product per trie node instead of a - 1 per key.
    """

    def __init__(self, arity: int, k: int, tensor: Dict):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.arity = arity
        self.k = k
        self.tensor: Dict[PairKey, Scalar] = {}
        for key, value in tensor.items():
            key = tuple((int(i), int(j)) for i, j in key)
            if len(key) != arity:
                raise ValueError(f"key {key} has wrong length for arity {arity}")
            if any(not (0 <= i < k and 0 <= j < k) for i, j in key):
                raise ValueError(f"key {key} outside a {k}x{k} algebra")
            if not isinstance(value, Scalar):
                value = Scalar(value)
            if key in self.tensor:
                value = self.tensor[key] + value
            if value.is_zero:
                self.tensor.pop(key, None)
            else:
                self.tensor[key] = value
        self._trie: dict = {}
        for key, c in self.tensor.items():
            node = self._trie
            for pair in key[:-1]:
                node = node.setdefault(pair, {})
            node[key[-1]] = c

    @classmethod
    def basis(cls, arity: int, k: int, pairs) -> "DenseCochain":
        """The functional picking out one product of matrix entries."""
        return cls(arity, k, {tuple(pairs): Scalar(1)})

    @classmethod
    def random(cls, rng, arity: int, k: int,
               density: float = 0.5) -> "DenseCochain":
        tensor = {}
        for key in product(product(range(k), repeat=2), repeat=arity):
            if rng.random() < density:
                tensor[key] = sampling.random_scalar(rng, 2)
        return cls(arity, k, tensor)

    def evaluate(self, args):
        self._check_args(args)
        if not self._trie:
            return args[0][0][0] * 0
        return _contract(self._trie, args, 0)

    def rotated(self) -> "DenseCochain":
        """Tensor of phi o r, r(x_1,..,x_a) = (x_a, x_1,..,x_{a-1})."""
        # (phi o r)(x_1,..,x_a) = phi(x_a, x_1,..,x_{a-1}): the pair that
        # phi assigns to slot 1 lands on x_a, slots 2.. land on x_1..
        out = {}
        for key, c in self.tensor.items():
            out[key[1:] + (key[0],)] = c
        return DenseCochain(self.arity, self.k, out)

    def __repr__(self) -> str:
        return (f"DenseCochain(arity={self.arity}, k={self.k}, "
                f"{len(self.tensor)} entries)")


def _contract(node: dict, args, t: int):
    """The value on args[t:] of the subtrie at `node`: the sum over its
    children (i, j) of x_t[i][j] times the child's value, which is the
    coefficient at the last slot and the contraction of the later slots
    above it."""
    x = args[t]
    total = None
    if t == len(args) - 1:
        for (i, j), c in node.items():
            term = c * x[i][j]
            total = term if total is None else total + term
    else:
        for (i, j), child in node.items():
            term = x[i][j] * _contract(child, args, t + 1)
            total = term if total is None else total + term
    return total


class ProductCochain(Cochain):
    """(F1 x F2)(x_1,..,x_{a1+a2}) = F1(x_1,..,x_{a1}) * F2(rest)."""

    def __init__(self, first: Cochain, second: Cochain):
        if first.k is not None and second.k is not None and first.k != second.k:
            raise ValueError("factors live on different matrix sizes")
        self.first = first
        self.second = second
        self.arity = first.arity + second.arity
        self.k = first.k if first.k is not None else second.k

    def evaluate(self, args):
        self._check_args(args)
        a1 = self.first.arity
        return self.first.evaluate(args[:a1]) * self.second.evaluate(args[a1:])

    def __repr__(self) -> str:
        return f"ProductCochain({self.first!r}, {self.second!r})"


def functional_product(first: Cochain, second: Cochain) -> ProductCochain:
    return ProductCochain(first, second)


class FunctionalCochain(Cochain):
    """Wraps an arbitrary evaluation function taking the argument list."""

    def __init__(self, arity: int, fn: Callable, label: str = "functional"):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.arity = arity
        self.fn = fn
        self.k = None
        self.label = label

    def evaluate(self, args):
        self._check_args(args)
        return self.fn(args)

    def __repr__(self) -> str:
        return f"FunctionalCochain({self.label}, arity={self.arity})"


class FormulaCoboundary(Cochain):
    """b phi evaluated straight from the defining alternating sum."""

    def __init__(self, base: Cochain):
        self.base = base
        self.arity = base.arity + 1
        self.k = base.k

    def evaluate(self, args):
        self._check_args(args)
        a = self.base.arity
        base = self.base.evaluate
        # term j reads (x_1, .., x_j x_{j+1}, .., x_{a+1}); the next term
        # differs from it in slots j and j + 1 only
        merged = list(args[1:])
        merged[0] = alg_mul(args[0], args[1])
        total = base(merged)
        for j in range(2, a + 1):
            merged[j - 2] = args[j - 2]
            merged[j - 1] = alg_mul(args[j - 1], args[j])
            val = base(merged)
            if j % 2 == 0:
                val = -val
            total = total + val
        # the wrap term reads (x_{a+1} x_1, x_2, .., x_a)
        merged[a - 1] = args[a - 1]
        merged[0] = alg_mul(args[a], args[0])
        wrap = base(merged)
        if a % 2 == 1:
            wrap = -wrap
        return total + wrap

    def __repr__(self) -> str:
        return f"FormulaCoboundary({self.base!r})"


def coboundary(phi: Cochain) -> Cochain:
    """b phi; dense inputs contract against matrix-unit structure constants."""
    if isinstance(phi, DenseCochain):
        return _dense_coboundary(phi)
    return FormulaCoboundary(phi)


def _dense_coboundary(phi: DenseCochain) -> DenseCochain:
    a, k = phi.arity, phi.k
    out: Dict[PairKey, Scalar] = {}

    def bump(key: PairKey, val: Scalar) -> None:
        cur = out.get(key)
        cur = val if cur is None else cur + val
        if cur.is_zero:
            out.pop(key, None)
        else:
            out[key] = cur

    for key, c in phi.tensor.items():
        for j in range(1, a + 1):
            u, v = key[j - 1]
            val = c if j % 2 == 1 else -c
            for m in range(k):
                bump(key[:j - 1] + ((u, m), (m, v)) + key[j:], val)
        u1, v1 = key[0]
        val = c if a % 2 == 0 else -c
        for m in range(k):
            bump(((m, v1),) + key[1:] + ((u1, m),), val)
    return DenseCochain(a + 1, k, out)


def is_cyclic(phi: Cochain, k: Optional[int] = None) -> bool:
    """Whether phi(x_1,..,x_a) = (-1)^{a-1} phi(x_a, x_1,..,x_{a-1}).

    Dense cochains are checked exactly on the tensor. Structured cochains
    are checked on the spanning set of all matrix-unit argument tuples,
    which decides the identity by multilinearity; that needs a concrete k,
    taken from the cochain or the argument.
    """
    a = phi.arity
    if a == 1:
        return True
    negate = a % 2 == 0

    if isinstance(phi, DenseCochain):
        def value(key):
            return phi.tensor.get(key, Scalar(0))

        seen = set()
        for key in phi.tensor:
            cur = key
            for _ in range(a):
                seen.add(cur)
                cur = (cur[-1],) + cur[:-1]
        for key in seen:
            rot = (key[-1],) + key[:-1]
            want = -value(rot) if negate else value(rot)
            if value(key) != want:
                return False
        return True

    k = k if k is not None else phi.k
    if k is None:
        raise ValueError("need a matrix size k to span a structured cochain")
    units = [unit_grid(k, i, j) for i in range(k) for j in range(k)]
    for combo in product(range(len(units)), repeat=a):
        args = [units[c] for c in combo]
        lhs = phi.evaluate(args)
        rhs = phi.evaluate([args[-1]] + args[:-1])
        if negate:
            rhs = -rhs
        if lhs != rhs:
            return False
    return True


def cyclic_symmetrize(phi: DenseCochain) -> DenseCochain:
    """(1/a) sum_t eps^t phi o r^t with eps = (-1)^{a-1}; always cyclic."""
    if not isinstance(phi, DenseCochain):
        raise TypeError("cyclic_symmetrize needs a DenseCochain, got "
                        f"{type(phi).__name__}")
    a = phi.arity
    eps = 1 if a % 2 == 1 else -1
    inv_a = Scalar(Fraction(1, a))
    out: Dict[PairKey, Scalar] = {}
    rotated = phi
    sign = 1
    for _ in range(a):
        for key, c in rotated.tensor.items():
            add = c if sign == 1 else -c
            out[key] = out[key] + add if key in out else add
        rotated = rotated.rotated()
        sign *= eps
    return DenseCochain(a, phi.k, {key: c * inv_a for key, c in out.items()})


def invariance_test(phi: Cochain, k: Optional[int] = None) -> bool:
    """Probe phi(g x g^{-1}, ...) = phi(x, ...) on 12 seeded exact
    conjugations."""
    k = k if k is not None else phi.k
    if k is None:
        k = 2
    for t in range(12):
        rng = sampling.rng_for(0, "invariance", t)
        args = [sampling.random_grid(rng, k) for _ in range(phi.arity)]
        g, ginv = sampling.random_basis_change(rng, k)
        conj = [grid_mul(grid_mul(g, x), ginv) for x in args]
        if phi.evaluate(conj) != phi.evaluate(args):
            return False
    return True
