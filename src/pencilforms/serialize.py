"""JSON schemas for tuples, polynomial matrices, and differential forms.

Text forms delegate to the ring classes, whose str/parse pairs round-trip
exactly; this module only fixes the surrounding JSON shape, key order, and
term ordering so that serialized output is byte-stable.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List

from .forms import MatrixForm, ScalarForm
from .linalg import MatrixTuple, PolyMatrix
from .ring import MultiPoly, RatFn, Scalar


def canonical_json(data) -> str:
    """One canonical dump: sorted keys, two-space indent, trailing newline."""
    return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


# ---------------------------------------------------------------------------
# matrix tuples: {"n": int, "k": int, "matrices": [[[scalar-string]]]}


def tuple_to_json(t: MatrixTuple) -> Dict:
    return {
        "n": t.n,
        "k": t.k,
        "matrices": [[[str(x) for x in row] for row in t.matrix(j)]
                     for j in range(1, t.n + 1)],
    }


def _grid_rows(grid, where: str) -> List:
    """grid, or ValueError unless it and each of its rows are lists."""
    if isinstance(grid, list) and all(isinstance(r, list) for r in grid):
        return grid
    raise ValueError(f"{where}: expected a list of rows, each a list")


def tuple_from_json(data: Dict) -> MatrixTuple:
    if not isinstance(data, dict) or "matrices" not in data:
        raise ValueError("expected an object with a 'matrices' key")
    mats = data["matrices"]
    if not isinstance(mats, list) or not mats:
        raise ValueError("'matrices' must be a nonempty list")
    parsed = []
    for j, grid in enumerate(mats):
        rows = []
        for r, row in enumerate(_grid_rows(grid, f"matrices[{j}]")):
            cells = []
            for c, text in enumerate(row):
                try:
                    cells.append(Scalar.parse(str(text)))
                except ValueError as exc:
                    raise ValueError(
                        f"matrices[{j}][{r}][{c}]: {exc}") from exc
            rows.append(cells)
        parsed.append(rows)
    t = MatrixTuple(parsed)
    if "n" in data and data["n"] != t.n:
        raise ValueError(f"declared n={data['n']} but found {t.n} matrices")
    if "k" in data and data["k"] != t.k:
        raise ValueError(f"declared k={data['k']} but matrices are {t.k}x{t.k}")
    return t


# ---------------------------------------------------------------------------
# polynomial matrices: {"entries": [[poly-string]]} with optional "n"


def poly_matrix_to_json(m: PolyMatrix) -> Dict:
    return {
        "n": m.n,
        "entries": [[str(e) for e in row] for row in m.rows],
    }


def _max_variable_index(text: str) -> int:
    best = 0
    for match in re.finditer(r"z(\d+)", text):
        best = max(best, int(match.group(1)))
    return best


def poly_matrix_from_json(data: Dict) -> PolyMatrix:
    if not isinstance(data, dict) or "entries" not in data:
        raise ValueError("expected an object with an 'entries' key")
    entries = data["entries"]
    if not isinstance(entries, list) or not entries:
        raise ValueError("'entries' must be a nonempty grid")
    _grid_rows(entries, "entries")
    if "n" in data:
        n = data["n"]
        if type(n) is not int:
            raise ValueError(f"'n' must be an integer, got {n!r}")
    else:
        # infer the smallest ring containing every named variable
        n = max((_max_variable_index(str(e)) for row in entries for e in row),
                default=0)
        if n == 0:
            raise ValueError("cannot infer variable count from constant "
                             "entries; provide 'n'")
    try:
        return PolyMatrix.parse([[str(e) for e in row] for row in entries], n)
    except ValueError as exc:
        raise ValueError(f"entries: {exc}") from exc


def pencil_input_from_json(data: Dict):
    """Accept either input schema; returns MatrixTuple or PolyMatrix."""
    if isinstance(data, dict) and "matrices" in data:
        return tuple_from_json(data)
    if isinstance(data, dict) and "entries" in data:
        return poly_matrix_from_json(data)
    raise ValueError("expected 'matrices' (tuple) or 'entries' (poly matrix)")


# ---------------------------------------------------------------------------
# scalar forms: {"degree": r, "terms": [{"index": [..], "num": .., "den": ..}]}


def scalar_form_to_json(form: ScalarForm) -> Dict:
    terms: List[Dict] = []
    for index in sorted(form.terms):
        coeff = form.terms[index]
        terms.append({
            "index": list(index),
            "num": str(coeff.num),
            "den": str(coeff.den),
        })
    return {"degree": form.degree, "n": form.n, "terms": terms}


def scalar_form_from_json(data: Dict) -> ScalarForm:
    if not isinstance(data, dict) or "degree" not in data:
        raise ValueError("expected an object with 'degree' and 'terms'")
    try:
        n = int(data.get("n", 0))
        if n < 1:
            raise ValueError("scalar-form JSON needs a positive 'n'")
        terms = {}
        for item in data.get("terms", ()):
            index = tuple(int(v) for v in item["index"])
            num = MultiPoly.parse(str(item["num"]), n)
            den = MultiPoly.parse(str(item.get("den", "1")), n)
            terms[index] = RatFn(num, den)
        return ScalarForm(n, int(data["degree"]), terms)
    except (TypeError, KeyError, AttributeError) as exc:
        raise ValueError(f"malformed scalar-form JSON: {exc!r}")


# matrix-valued forms share one denominator base**power; the entry grid per
# index replaces the single "num" of the scalar schema


def matrix_form_to_json(form: MatrixForm) -> Dict:
    terms = []
    for index in sorted(form.terms):
        mat = form.terms[index]
        terms.append({
            "index": list(index),
            "entries": [[str(e) for e in row] for row in mat.rows],
        })
    return {
        "degree": form.degree,
        "n": form.n,
        "k": form.k,
        "den_base": str(form.den_base),
        "den_pow": form.den_pow,
        "terms": terms,
    }


def matrix_form_from_json(data: Dict) -> MatrixForm:
    if not isinstance(data, dict) or "degree" not in data:
        raise ValueError("expected an object with 'degree' and 'terms'")
    try:
        n = int(data.get("n", 0))
        k = int(data.get("k", 0))
        if n < 1 or k < 1:
            raise ValueError("matrix-form JSON needs positive 'n' and 'k'")
        terms = {}
        for item in data.get("terms", ()):
            index = tuple(int(v) for v in item["index"])
            terms[index] = PolyMatrix.parse(
                [[str(e) for e in row] for row in item["entries"]], n)
        base = MultiPoly.parse(str(data.get("den_base", "1")), n)
        pow_ = int(data.get("den_pow", 0))
        return MatrixForm(n, k, int(data["degree"]), terms,
                          den_base=None if pow_ == 0 else base, den_pow=pow_)
    except (TypeError, KeyError, AttributeError) as exc:
        raise ValueError(f"malformed matrix-form JSON: {exc!r}")


# ---------------------------------------------------------------------------
# dense cochains: {"arity": a, "k": k,
#                  "terms": [{"pairs": [[i, j], ...], "coeff": scalar-string}]}


def dense_cochain_to_json(phi) -> Dict:
    terms = []
    for key in sorted(phi.tensor):
        terms.append({
            "pairs": [[i, j] for (i, j) in key],
            "coeff": str(phi.tensor[key]),
        })
    return {"arity": phi.arity, "k": phi.k, "terms": terms}


def dense_cochain_from_json(data: Dict):
    from .cochains import DenseCochain

    if not isinstance(data, dict) or "arity" not in data or "k" not in data:
        raise ValueError("expected an object with 'arity', 'k', and 'terms'")
    try:
        arity = int(data["arity"])
        k = int(data["k"])
    except (TypeError, ValueError):
        raise ValueError("'arity' and 'k' must be integers")
    items = data.get("terms", [])
    if not isinstance(items, list):
        raise ValueError("'terms' must be a list")
    tensor = {}
    for pos, item in enumerate(items):
        try:
            key = tuple((int(i), int(j)) for i, j in item["pairs"])
        except (TypeError, ValueError, KeyError):
            raise ValueError(f"terms[{pos}].pairs: expected [[i, j], ...]")
        try:
            coeff = Scalar.parse(str(item.get("coeff", "1")))
        except ValueError as exc:
            raise ValueError(f"terms[{pos}].coeff: {exc}")
        tensor[key] = tensor.get(key, Scalar(0)) + coeff
    try:
        return DenseCochain(arity, k, tensor)
    except ValueError as exc:
        raise ValueError(f"cochain JSON: {exc}")


# ---------------------------------------------------------------------------
# torus configurations: {"mode": "exact", "q": int, "p_prime": int}
#                    or {"mode": "numeric", "theta": float}


def torus_config_to_json(config) -> Dict:
    if config.mode == "exact":
        return {"mode": "exact", "q": config.q, "p_prime": config.p_prime}
    return {"mode": "numeric", "theta": config.theta}


def torus_config_from_json(data: Dict):
    from .torus import TorusConfig

    if not isinstance(data, dict) or "mode" not in data:
        raise ValueError("expected an object with a 'mode' key")
    mode = data["mode"]
    try:
        if mode == "exact":
            return TorusConfig.exact(data["q"], data.get("p_prime", 1))
        if mode == "numeric":
            return TorusConfig.numeric(data["theta"])
    except KeyError as exc:
        raise ValueError(f"torus config: missing key {exc}")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"torus config: {exc}")
    raise ValueError(f"torus config: unknown mode {mode!r}")
