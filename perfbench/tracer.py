"""Per-layer tracing of pencilforms, installed from outside the package.

`Tracer.install()` replaces each traced function by a timing wrapper at
every place the function object is bound: module attributes (so from-imports
such as ``ring.poly_mul`` or ``jacobi.maurer_cartan`` are covered), values of
module-level dicts (the suite registry), and class attributes (so aliases such
as ``MultiPoly.__rmul__ = __mul__`` are covered). The kernel modules
themselves are left alone, so ``core.*`` counts the entry points bound into
the consumers, and calls inside the kernel stay internal to it.

Every wrapper keeps per-request aggregates: calls, self time (duration minus
the time covered by traced calls beneath it) and total time (outermost calls
only, so recursion is not counted twice). Wrappers of the hot functions
(the ``core.*`` kernel entry points, the torus and cyclotomic products, the
torus derivations, the cochain evaluations and rational-function arithmetic)
stop there: one verify-torus pass makes about 6 million such calls. Every
other wrapper also records a span (name, start, end, parent span, request
id) in compact arrays that are written out when the run ends.

`uninstall()` restores every binding, so the package source is never changed.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array

# name -> [(owner, attribute), ...]; owner is "module" or "module:Class".
# A name listing several functions aggregates them into one metric.
SPAN_TARGETS = {
    "ring.MultiPoly.mul": [("ring:MultiPoly", "__mul__")],
    "ring.MultiPoly.exact_divide": [("ring:MultiPoly", "exact_divide")],
    "ring.RatFn.reduce": [("ring:RatFn", "reduce")],
    "linalg.det": [("linalg:PolyMatrix", "det")],
    "linalg.adjugate": [("linalg:PolyMatrix", "adjugate")],
    "linalg.PolyMatrix.mul": [("linalg:PolyMatrix", "__mul__")],
    "forms.maurer_cartan": [("forms", "maurer_cartan")],
    "forms.wedge": [("forms:ScalarForm", "wedge"), ("forms:MatrixForm", "wedge")],
    "forms.exterior_derivative": [("forms:ScalarForm", "exterior_derivative"),
                                  ("forms:MatrixForm", "exterior_derivative")],
    "forms.trace": [("forms:MatrixForm", "trace")],
    "cochains.cyclic_symmetrize": [("cochains", "cyclic_symmetrize")],
    "cochains.is_cyclic": [("cochains", "is_cyclic")],
    "transgression.kappa": [("transgression", "kappa")],
    "transgression.apply_multilinear": [("transgression", "apply_multilinear")],
    "transgression.transgression_report": [("transgression",
                                            "transgression_report")],
    "transgression.hyperplane_decomposition": [("transgression",
                                                "hyperplane_decomposition")],
    "jacobi.trace_power_form": [("jacobi", "trace_power_form")],
    "jacobi.anchored_trace_power": [("jacobi", "anchored_trace_power")],
    "jacobi.factorize_top_form": [("jacobi", "factorize_top_form")],
    "jacobi.cubic_trace_data": [("jacobi", "cubic_trace_data")],
    "torus.cyclicity_check": [("torus", "cyclicity_check")],
    "torus.coboundary_check": [("torus", "coboundary_check")],
    "torus.factorization_report": [("torus", "factorization_report")],
    "torus.neumann_resolvent": [("torus", "neumann_resolvent")],
    "serialize.parse": [("serialize", n) for n in (
        "pencil_input_from_json", "tuple_from_json", "poly_matrix_from_json",
        "scalar_form_from_json", "matrix_form_from_json",
        "dense_cochain_from_json", "torus_config_from_json")],
    "serialize.emit": [("serialize", n) for n in (
        "canonical_json", "tuple_to_json", "poly_matrix_to_json",
        "scalar_form_to_json", "matrix_form_to_json", "dense_cochain_to_json",
        "torus_config_to_json")],
    "cli": [("cli", "main")],
}

HOT_TARGETS = {
    "core.poly_mul": [("_core", "poly_mul")],
    "core.poly_add": [("_core", "poly_add")],
    "core.poly_mul_term": [("_core", "poly_mul_term")],
    "ring.CycloElement.mul": [("ring:CycloElement", "__mul__")],
    "ring.RatFn.arith": [("ring:RatFn", n) for n in (
        "__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__truediv__", "__rtruediv__")],
    "torus.TorusElement.mul": [("torus:TorusElement", "__mul__")],
    "torus.delta": [("torus:TorusElement", "delta")],
    "cochains.evaluate": [("cochains:" + c, "evaluate") for c in (
        "TraceWord", "DenseCochain", "ProductCochain", "FunctionalCochain",
        "FormulaCoboundary")],
}

# Two-argument kernel leaves: counted without a stack frame of their own.
LEAF_TARGETS = {
    "core.qmul": [("_core", "qmul")],
    "core.qadd": [("_core", "qadd")],
}

# Registry dicts whose values are traced under the key's name.
REGISTRY_TARGETS = {"suites.SUITES": "suites."}

KERNEL_MODULES = ("pencilforms._core", "pencilforms._core_py",
                  "pencilforms._core_cy")

# slot layout
CALLS, SELF_NS, TOTAL_NS, DEPTH = range(4)


def _resolve(owner: str, attr: str):
    mod_name, _, cls_name = owner.partition(":")
    mod = sys.modules["pencilforms." + mod_name]
    if cls_name:
        return getattr(mod, cls_name).__dict__[attr]
    return getattr(mod, attr)


def _coeff_bits(poly: dict) -> int:
    best = 0
    for an, ad, bn, bd in poly.values():
        best = max(best, abs(an).bit_length(), ad.bit_length(),
                   abs(bn).bit_length(), bd.bit_length())
    return best


def _gauss_int(poly: dict) -> bool:
    for c in poly.values():
        if c[1] != 1 or c[3] != 1:
            return False
    return True


class Tracer:
    """Spans and per-request counters for one traced pass."""

    def __init__(self):
        self.names = []            # name id -> metric name
        self._slots = {}           # metric name -> [calls, self, total, depth]
        self._stack = [[0]]        # covered-ns accumulators; index 0 = root
        self._open = []            # indices of open recorded spans
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.span_req = array("l")
        self.request = -1
        self.per_request = {}      # request id -> {name: (calls, self, total)}
        # extra statistics, per run
        self.term_pairs = 0
        self.gauss_int_calls = 0
        self.max_terms = 0
        self.max_coeff_bits = 0
        self.divide_fails = 0
        self._seen = {"forms.maurer_cartan": set(), "linalg.adjugate": set()}
        self.repeats = {"forms.maurer_cartan": 0, "linalg.adjugate": 0}
        self._bindings = []        # (container, key, original, is_dict)

    # -- requests -----------------------------------------------------------

    def begin_request(self, request_id: int) -> None:
        self.request = request_id
        for seen in self._seen.values():
            seen.clear()

    def end_request(self) -> None:
        snap = {}
        for name, slot in self._slots.items():
            if slot[CALLS]:
                snap[name] = (slot[CALLS], slot[SELF_NS], slot[TOTAL_NS])
                slot[CALLS] = slot[SELF_NS] = slot[TOTAL_NS] = 0
        self.per_request[self.request] = snap
        self.request = -1

    def totals(self) -> dict:
        """name -> [calls, self_s, total_s] summed over requests."""
        out = {name: [0, 0.0, 0.0] for name in self._slots}
        for snap in self.per_request.values():
            for name, (calls, self_ns, total_ns) in snap.items():
                agg = out[name]
                agg[0] += calls
                agg[1] += self_ns / 1e9
                agg[2] += total_ns / 1e9
        return out

    # -- wrappers -------------------------------------------------------------

    def _slot(self, name: str) -> list:
        if name not in self._slots:
            self._slots[name] = [0, 0, 0, 0]
            self.names.append(name)
        return self._slots[name]

    def _leaf(self, name: str, fn):
        slot = self._slot(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(a, b):
            t0 = clock()
            out = fn(a, b)
            dt = clock() - t0
            slot[CALLS] += 1
            slot[SELF_NS] += dt
            slot[TOTAL_NS] += dt
            stack[-1][0] += dt
            return out
        return wrapper

    def _wrapper(self, name: str, fn, record: bool, post=None):
        slot = self._slot(name)
        name_id = self.names.index(name)
        stack = self._stack
        open_spans = self._open
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0]
            if record:
                idx = len(tracer.span_start)
                tracer.span_name.append(name_id)
                tracer.span_parent.append(open_spans[-1] if open_spans else -1)
                tracer.span_req.append(tracer.request)
                tracer.span_start.append(0)
                tracer.span_end.append(0)
                open_spans.append(idx)
            stack.append(frame)
            slot[DEPTH] += 1
            t0 = clock()
            if record:
                tracer.span_start[idx] = t0
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                slot[DEPTH] -= 1
                dur = t1 - t0
                slot[CALLS] += 1
                slot[SELF_NS] += dur - frame[0]
                if slot[DEPTH] == 0:
                    slot[TOTAL_NS] += dur
                if record:
                    tracer.span_end[idx] = t1
                    open_spans.pop()
                if post is not None:
                    post(args, out)
                    # statistics time is tracing overhead: keep it out of
                    # the caller's self time
                    dur = clock() - t0
                stack[-1][0] += dur
        return wrapper

    # -- statistics hooks -------------------------------------------------------

    def _post_poly_mul(self, args, out):
        p, q = args
        self.term_pairs += len(p) * len(q)
        if _gauss_int(p) and _gauss_int(q):
            self.gauss_int_calls += 1
        if out is not None:
            self.max_terms = max(self.max_terms, len(p), len(q), len(out))
            self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(out))

    def _post_divide(self, args, out):
        if out is None:
            self.divide_fails += 1

    def _repeat_hook(self, name: str):
        """Counts calls whose first argument (the matrix) was seen before in
        the same request."""
        seen = self._seen[name]

        def post(args, out):
            key = hash(args[0])
            if key in seen:
                self.repeats[name] += 1
            else:
                seen.add(key)
        return post

    # -- install / uninstall ------------------------------------------------------

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        posts = {
            "core.poly_mul": self._post_poly_mul,
            "ring.MultiPoly.exact_divide": self._post_divide,
            "forms.maurer_cartan": self._repeat_hook("forms.maurer_cartan"),
            "linalg.adjugate": self._repeat_hook("linalg.adjugate"),
        }
        replace = {}  # id(original) -> (original, wrapper)
        for table, kind in ((LEAF_TARGETS, "leaf"), (HOT_TARGETS, "hot"),
                            (SPAN_TARGETS, "span")):
            for name, targets in table.items():
                for owner, attr in targets:
                    fn = _resolve(owner, attr)
                    if kind == "leaf":
                        wrapped = self._leaf(name, fn)
                    else:
                        wrapped = self._wrapper(name, fn, kind == "span",
                                                posts.get(name))
                    replace[id(fn)] = (fn, wrapped)
        for dict_path, prefix in REGISTRY_TARGETS.items():
            mod_name, _, var = dict_path.partition(".")
            registry = getattr(sys.modules["pencilforms." + mod_name], var)
            for key, fn in registry.items():
                replace[id(fn)] = (fn, self._wrapper(prefix + key, fn, True))

        for mod_name, mod in sorted(sys.modules.items()):
            if not mod_name.startswith("pencilforms") or mod is None:
                continue
            if mod_name in KERNEL_MODULES:
                continue
            for key, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(mod, key, value, hit[1], False)
                elif isinstance(value, dict):
                    for dkey, dval in list(value.items()):
                        dhit = replace.get(id(dval))
                        if dhit is not None and dhit[0] is dval:
                            self._rebind(value, dkey, dval, dhit[1], True)
                elif (inspect.isclass(value)
                      and value.__module__ == mod_name):
                    for ckey, cval in list(vars(value).items()):
                        chit = replace.get(id(cval))
                        if chit is not None and chit[0] is cval:
                            self._rebind(value, ckey, cval, chit[1], False)
        bound = {id(orig) for _, _, orig, _ in self._bindings}
        missing = [fn for fn, _ in replace.values() if id(fn) not in bound]
        if missing:
            self.uninstall()
            raise RuntimeError(f"traced functions bound nowhere: {missing}")

    def _rebind(self, container, key, original, wrapper, is_dict) -> None:
        if is_dict:
            container[key] = wrapper
        else:
            setattr(container, key, wrapper)
        self._bindings.append((container, key, original, is_dict))

    def uninstall(self) -> None:
        for container, key, original, is_dict in reversed(self._bindings):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)
        self._bindings = []

    # -- output ----------------------------------------------------------------------

    def write_spans(self, path) -> int:
        """Gzipped TSV: id, name, start_ns, end_ns, parent id, request id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\trequest\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{names[self.span_name[i]]}\t"
                         f"{self.span_start[i]}\t{self.span_end[i]}\t"
                         f"{self.span_parent[i]}\t{self.span_req[i]}\n")
        return len(self.span_start)
