"""Output checks, run outside the timed region.

`verify`/`torus` reports must pass every check and keep every check name the
suites had when the benchmark was written (later additions are allowed).

Form outputs are compared with complex floating-point values computed here,
at a seeded point z, from the input matrices alone: det A(z) for `spectrum`,
B_v = A(z)^-1 A_v for `mc`, and for degree-3 trace forms the dz_I coefficient
sum_sigma sgn(sigma) tr(B_I(sigma1) B_I(sigma2) B_I(sigma3)). The text of the
exact output is parsed and evaluated by this module, without pencilforms.
The `cyclic-random` kappa outputs are checked against
`transgression.kappa_wedge_oracle`, the package's independent expansion.
"""

from __future__ import annotations

import json
import re
from itertools import combinations, permutations

REQUIRED_CHECKS = {
    "flatness": {"flatness.linear", "flatness.quadratic"},
    "theorem29": {"theorem29.main", "theorem29.decomposition",
                  "theorem29.correction"},
    "jacobi-classic": {"jacobi.cross-multiplied"},
    "parity": {"parity.even-powers"},
    "theorem33": {"theorem33.p-constant-k2", "theorem33.p-quadratic-k3",
                  "theorem33.divisibility", "theorem33.top-factorization"},
    "example35": {"example35.entry-matrix"},
    "tau": {"tau.multiplicative", "tau.closed"},
    "hyperplane": {"hyperplane.det-product", "hyperplane.kappa-lines"},
    "torus": {"torus.algebra", "torus.cocycles.q3", "torus.cocycles.q4",
              "torus.cocycles.q5", "torus.factorization.pinned",
              "torus.factorization.sampled"},
    "torus-factorization": {"torus.factorization.pinned",
                            "torus.factorization.sampled"},
}

REL_TOL = 1e-7


def check_report(text: str, required: set) -> str | None:
    """None when the JSON suite report passes; otherwise the reason."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    names = set()
    for item in report.get("results", []):
        names.add(item.get("name"))
        if item.get("passed") is not True:
            return f"check {item.get('name')} did not pass"
    if report.get("passed") is not True:
        return "report not passed"
    missing = required - names
    if missing:
        return f"checks missing: {sorted(missing)}"
    return None


# -- exact text forms, evaluated numerically -------------------------------------

_RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?\Z")
_VARIABLE = re.compile(r"z(\d+)(?:\^(\d+))?\Z")


def _split_top(text: str, seps: str) -> list:
    """Split at separator characters outside parentheses (kept on the right
    for signs)."""
    parts, depth, start = [], 0, 0
    for pos, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in seps and pos > start:
            if ch in "+-" and text[pos - 1] in "*/^":
                continue
            parts.append(text[start:pos])
            start = pos if ch in "+-" else pos + 1
    parts.append(text[start:])
    return parts


def _rational(text: str) -> float:
    m = _RATIONAL.match(text)
    if m is None:
        raise ValueError(f"bad rational {text!r}")
    num = int(m.group(1))
    return num / int(m.group(2)) if m.group(2) else float(num)


def parse_scalar(text: str) -> complex:
    """``a/b``, ``c/d*i``, ``i``, ``a/b+c/d*i`` with signs."""
    total = 0j
    for chunk in _split_top(text.replace(" ", ""), "+-"):
        if not chunk:
            continue
        sign = -1 if chunk[0] == "-" else 1
        body = chunk.lstrip("+-")
        if body == "i":
            total += sign * 1j
        elif body.endswith("*i"):
            total += sign * 1j * _rational(body[:-2])
        elif body.endswith("i"):
            total += sign * 1j * _rational(body[:-1])
        else:
            total += sign * _rational(body)
    return total


def eval_poly(text: str, z) -> tuple:
    """(value, sum of |term|) of a polynomial text at the point z."""
    value, mag = 0j, 0.0
    for chunk in _split_top(text.replace(" ", ""), "+-"):
        if not chunk:
            continue
        sign = -1.0 if chunk[0] == "-" else 1.0
        term = complex(sign)
        for factor in _split_top(chunk.lstrip("+-"), "*"):
            if factor.startswith("("):
                term *= parse_scalar(factor[1:-1])
            elif factor == "i":
                term *= 1j
            else:
                var = _VARIABLE.match(factor)
                if var is not None:
                    term *= z[int(var.group(1)) - 1] ** int(var.group(2) or 1)
                else:
                    term *= _rational(factor)
        value += term
        mag += abs(term)
    return value, mag


def eval_ratio(num: str, den: str, z) -> tuple:
    """(value, absolute rounding scale) of num/den at z."""
    vn, mn = eval_poly(num, z)
    vd, md = eval_poly(den, z)
    value = vn / vd
    scale = abs(value) * (mn / max(abs(vn), 1e-300) + md / abs(vd))
    return value, scale


def _close(got: complex, scale: float, want: complex) -> bool:
    return abs(got - want) <= REL_TOL * (scale + abs(want)) + 1e-12


# -- reference values from the matrices -------------------------------------------------


def _matmul(a, b):
    k = len(a)
    return [[sum(a[r][t] * b[t][c] for t in range(k)) for c in range(k)]
            for r in range(k)]


def _solve(a, b):
    """a^-1 b by Gauss-Jordan elimination with partial pivoting."""
    k = len(a)
    aug = [list(a[r]) + list(b[r]) for r in range(k)]
    for col in range(k):
        piv = max(range(col, k), key=lambda r: abs(aug[r][col]))
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


def _det(a) -> complex:
    k = len(a)
    m = [list(row) for row in a]
    det = 1 + 0j
    for col in range(k):
        piv = max(range(col, k), key=lambda r: abs(m[r][col]))
        if m[piv][col] == 0:
            return 0j
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, k):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def _perm_sign(seq) -> int:
    sign = 1
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                sign = -sign
    return sign


def _matrices(tuple_json: dict) -> list:
    return [[[parse_scalar(x) for x in row] for row in m]
            for m in tuple_json["matrices"]]


def _pencil_at(mats: list, z) -> list:
    """A(z) = sum_v z_v A_v."""
    k = len(mats[0])
    return [[sum(zv * m[r][c] for zv, m in zip(z, mats)) for c in range(k)]
            for r in range(k)]


class Reference:
    """Numeric values of the pencil of one input tuple at one point z."""

    def __init__(self, tuple_json: dict, z):
        self.n = tuple_json["n"]
        self.k = tuple_json["k"]
        self.z = z
        mats = _matrices(tuple_json)
        a = _pencil_at(mats, z)
        self.det = _det(a)
        self.b = [_solve(a, m) for m in mats]

    def trace_form(self, m: int) -> dict:
        """dz_I coefficient of tr(omega^m) for every increasing I."""
        out = {}
        for index in combinations(range(1, self.n + 1), m):
            total = 0j
            for perm in permutations(index):
                prod = self.b[perm[0] - 1]
                for v in perm[1:]:
                    prod = _matmul(prod, self.b[v - 1])
                total += _perm_sign(perm) * sum(prod[r][r]
                                                for r in range(self.k))
            out[index] = total
        return out


def well_conditioned_point(rng, tuple_json: dict, tries: int = 50):
    """A seeded point z where A(z) is comfortably invertible."""
    mats = _matrices(tuple_json)
    for _ in range(tries):
        z = [complex(rng.uniform(0.5, 1.5) * rng.choice((-1, 1)),
                     rng.uniform(-1.0, 1.0)) for _ in range(tuple_json["n"])]
        a = _pencil_at(mats, z)
        size = max(abs(x) for row in a for x in row)
        if abs(_det(a)) > 1e-2 * size ** tuple_json["k"]:
            return z
    raise RuntimeError("no well-conditioned point found")


# -- per-kind checks ----------------------------------------------------------------------------


def _check_scalar_form(data: dict, want: dict, degree: int, z) -> str | None:
    if data.get("degree") != degree:
        return f"degree {data.get('degree')} != {degree}"
    got = {tuple(t["index"]): t for t in data["terms"]}
    for index, value in want.items():
        term = got.get(index)
        if term is None:
            if not _close(0j, 0.0, value):
                return f"missing coefficient dz{list(index)}"
            continue
        val, scale = eval_ratio(term["num"], term["den"], z)
        if not _close(val, scale, value):
            return f"dz{list(index)}: {val} != {value}"
    extra = set(got) - set(want)
    if extra:
        return f"unexpected coefficients {sorted(extra)}"
    return None


def check_spectrum(text: str, ref: Reference) -> str | None:
    data = json.loads(text)
    val, mag = eval_poly(data["det"], ref.z)
    if not _close(val, mag, ref.det):
        return f"det(z) {val} != {ref.det}"
    if data["degree"] != ref.k:
        return f"degree {data['degree']} != {ref.k}"
    return None


def check_mc(text: str, ref: Reference) -> str | None:
    data = json.loads(text)
    if data["degree"] != 1 or data["n"] != ref.n or data["k"] != ref.k:
        return "wrong shape"
    base, base_mag = eval_poly(data["den_base"], ref.z)
    den = base ** data["den_pow"]
    den_rel = data["den_pow"] * base_mag / abs(base)
    got = {tuple(t["index"]): t["entries"] for t in data["terms"]}
    for v in range(1, ref.n + 1):
        entries = got.get((v,))
        for r in range(ref.k):
            for c in range(ref.k):
                want = ref.b[v - 1][r][c]
                if entries is None:
                    val, scale = 0j, 0.0
                else:
                    num, mag = eval_poly(entries[r][c], ref.z)
                    val = num / den
                    scale = abs(val) * den_rel + mag / abs(den)
                if not _close(val, scale, want):
                    return f"B_{v}[{r}][{c}]: {val} != {want}"
    return None


def check_trace3(text: str, ref: Reference) -> str | None:
    return _check_scalar_form(json.loads(text), ref.trace_form(3), 3, ref.z)


def check_top_factor(text: str, ref: Reference) -> str | None:
    data = json.loads(text)
    if data["residual_zero"] is not True:
        return "nonzero residual"
    n = ref.n
    big_t = ref.trace_form(n - 1)
    q, q_scale = eval_ratio(data["q"]["num"], data["q"]["den"], ref.z)
    coeffs = data["normalized_coefficients"]
    for j in range(1, n + 1):
        index = tuple(v for v in range(1, n + 1) if v != j)
        sign = 1 if j % 2 == 0 else -1
        want = big_t[index]
        if not _close(q * sign * ref.z[j - 1],
                      q_scale * abs(ref.z[j - 1]), want):
            return f"T dz{list(index)} != q s"
        bar, bar_scale = eval_ratio(coeffs[j - 1]["num"], coeffs[j - 1]["den"],
                                    ref.z)
        if not _close(bar, bar_scale, want / (n - 1)):
            return f"normalized coefficient {j} != T/(n-1)"
    return None


def check_cyclic_kappa(text: str, tuple_json: dict, spec: str) -> str | None:
    from pencilforms import cli, serialize, transgression

    f = serialize.tuple_from_json(tuple_json).pencil()
    phi = cli.parse_cochain_spec(spec)
    oracle = transgression.kappa_wedge_oracle(phi, f)
    got = serialize.scalar_form_from_json(json.loads(text))
    return None if got == oracle else "kappa differs from the wedge oracle"
