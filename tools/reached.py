"""Package functions that no benchmark request reaches.

    python3 tools/reached.py [--check]

Run from anywhere; the package is imported from this checkout's ``src/``.
It lists every function and method defined in ``src/pencilforms`` (nested
ones too), then runs 205 requests through in-process ``cli.main`` under a
``sys.setprofile`` hook that records each function entered:

- one pass of each workload of ``perfbench/workloads.py`` at seeds 1, 2
  and 3, each output checked as the benchmark checks it (``run.check``,
  which parses some outputs with the package's own readers);
- the extra requests of ``tools/output_digest.py``;
- ``verify --suite all --seed 2`` and
  ``torus --check factorization --trials 75 --seed 1``.

The hook is installed before ``pencilforms`` is imported, so import-time
calls count, and again for each request; a request after which the hook
is gone stops the run, since it would hide every later call. Every
function that ``perfbench/tracer.py`` names also counts as reached: the
benchmark rebinds it by name.

It prints the unreached functions that are missing from `KEPT`, and the
`KEPT` entries that are reached or name no function. ``--check`` exits 1
when either list is non-empty. Input files go to a temporary directory
outside the repository; nothing is written under ``perfbench/``, not even
bytecode caches.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

from output_digest import EXTRA_REQUESTS, ROOT, run  # noqa: E402

PACKAGE = ROOT / "src" / "pencilforms"
SEEDS = (1, 2, 3)
MORE_REQUESTS = (["verify", "--suite", "all", "--seed", "2"],
                 ["torus", "--check", "factorization", "--trials", "75",
                  "--seed", "1"])

# Unreached functions that stay, each with the reason it stays.
_REPR = "repr of a value, for interactive use and assertion messages"
_EQ = ("== of a value type; without it == tests identity, and a "
       "test's != would pass silently")
KEPT = {
    "cli._default_seed":
        "the seed when a request has no --seed (PENCILFORMS_SEED)",
    "cochains.Cochain.evaluate":
        "the base class's abstract evaluation; every cochain overrides it",
    "cochains.Cochain.tensors":
        "the refusal of a cochain without a tensor (FunctionalCochain) by "
        "kappa, is_cyclic and invariance_test",
    "cochains.DenseCochain.__repr__": _REPR,
    "cochains.FormulaCoboundary.__repr__": _REPR,
    "cochains.FunctionalCochain.__repr__": _REPR,
    "cochains.ProductCochain.__repr__": _REPR,
    "cochains.TraceWord.__repr__": _REPR,
    "forms.MatrixForm.__repr__": _REPR,
    "forms.ScalarForm.__repr__": _REPR,
    "forms._flip":
        "_self_pairs negates a term with it for a pair that merges with "
        "sign -1; the curvature of a 1-form has none",
    "forms._root":
        "_over_one_base folds unlike denominator bases with it; the "
        "requests' forms have one base",
    "linalg.MatrixTuple.__eq__": _EQ,
    "linalg.MatrixTuple.__repr__": _REPR,
    "linalg.MatrixTuple.matrix_units": "README's library example",
    "linalg.PolyMatrix.__repr__": _REPR,
    "linalg.PolyMatrix.parse":
        "the polynomial-matrix input ({\"entries\": ...}) of spectrum and "
        "form, which no workload sends",
    "linalg.grid_mul":
        "cochains.alg_mul on plain grid arguments; the requests pass "
        "PolyMatrix and torus elements",
    "ring.CycloElement.__init__":
        "the constructor from dense coefficients, which the tests build "
        "their references with",
    "ring.CycloElement.__neg__":
        "FormulaCoboundary negates CycloElement values, of exact torus "
        "arguments; the torus suite evaluates twist-free ones",
    "ring.CycloElement.__repr__": _REPR,
    "ring.MultiPoly.__repr__": _REPR,
    "ring.RatFn.__bool__":
        "truth is the zero test; without it every RatFn would be true",
    "ring.RatFn.__eq__": _EQ,
    "ring.RatFn.__repr__": _REPR,
    "ring.RatFn.__str__": "the text form of a RatFn",
    "ring.RatFn._aligned":
        "RatFn.__add__ calls it, which perfbench/tracer.py names",
    "ring.RatFn.is_zero":
        "the zero test of RatFn.__bool__ and of RatFn.__truediv__, which "
        "perfbench/tracer.py names",
    "ring.Scalar.__repr__": _REPR,
    "ring.Scalar.inverse":
        "RatFn._init_parts divides by a constant denominator with it",
    "ring._neg_terms": "CycloElement.__neg__ negates with it",
    "serialize._max_variable_index":
        "infers n of a polynomial-matrix input that gives none",
    "suites._counterexample":
        "formats the witness of a failing check; every request passes",
    "torus.TorusConfig.__repr__": _REPR,
    "torus.TorusElement.__repr__": _REPR,
    "torus.TorusElement.is_zero":
        "the zero test that every value type has; the checks read the "
        "coefficient dict",
    "torus._TwistFree.__repr__":
        "names the two terms of a _MixedTwist error, which a passing "
        "check never raises",
    "torus.format_element": "TorusElement.__repr__ prints with it",
}


class ProfileLost(RuntimeError):
    """The profile hook was removed while a request ran."""


def defined() -> dict:
    """'module.Qual.name' -> (file, first line) of every def in the
    package; the first line is a decorator's when there is one, as in
    the function's code object."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    key = f"{module}.{name}"
                    if key in out:
                        key += f":{first}"
                    out[key] = (str(path), first)
                    visit(child, name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "")
    return out


def tracer_codes() -> set:
    """Code objects of the functions that perfbench/tracer.py rebinds."""
    import tracer

    codes = set()
    for table in (tracer.SPAN_TARGETS, tracer.HOT_TARGETS,
                  tracer.LEAF_TARGETS):
        for targets in table.values():
            for owner, attr in targets:
                fn = inspect.unwrap(tracer._resolve(owner, attr))
                codes.add(fn.__code__)
    for dict_path in tracer.REGISTRY_TARGETS:
        mod_name, _, var = dict_path.partition(".")
        registry = getattr(sys.modules["pencilforms." + mod_name], var)
        codes.update(inspect.unwrap(fn).__code__
                     for fn in registry.values())
    return codes


def profile_requests() -> tuple:
    """(request count, code objects entered) over the requests above."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    def profiled(what, fn, *args):
        sys.setprofile(hook)
        try:
            return fn(*args)
        finally:
            lost = sys.getprofile() is not hook
            sys.setprofile(None)
            if lost:
                raise ProfileLost(f"the profile hook was removed during "
                                  f"{what}")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    profiled("the package import", __import__, "pencilforms.cli")
    cli = sys.modules["pencilforms.cli"]
    import run as bench
    import workloads

    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for workload in workloads.WORKLOADS:
                requests = workloads.build(workload, seed, 1,
                                           Path(tmp) / f"{workload}-{seed}")[0]
                for request in requests:
                    code, out, err = profiled(request.argv, run, cli,
                                              request.argv)
                    result = {"code": code, "stdout": out, "stderr": err}
                    reason = profiled(f"the check of {request.argv}",
                                      bench.check, request, result)
                    if reason is not None:
                        raise RuntimeError(f"{request.argv}: {reason}")
                    count += 1
        for argv in [list(a) for a in EXTRA_REQUESTS + MORE_REQUESTS]:
            code, _, err = profiled(argv, run, cli, argv)
            if code != 0:
                raise RuntimeError(f"{argv}: exit code {code}: {err[-300:]}")
            count += 1
    return count, entered | tracer_codes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when either list is non-empty")
    args = parser.parse_args(argv)
    functions = defined()
    try:
        count, codes = profile_requests()
    except RuntimeError as exc:  # a lost hook or a failed request
        print(f"error: {exc}", file=sys.stderr)
        return 2
    entered = {(c.co_filename, c.co_firstlineno) for c in codes}
    unreached = sorted(name for name, where in functions.items()
                       if where not in entered)
    missing = [name for name in unreached if name not in KEPT]
    reached = sorted(name for name in KEPT
                     if name in functions and name not in unreached)
    unknown = sorted(name for name in KEPT if name not in functions)
    print(f"{count} requests; {len(functions)} package functions, "
          f"{len(unreached)} unreached, {len(KEPT)} kept")
    for title, names in (("unreached and not kept", missing),
                         ("kept but reached", reached),
                         ("kept but not defined", unknown)):
        if names:
            print(f"{title}:")
            for name in names:
                where = functions.get(name)
                at = f"  ({Path(where[0]).name}:{where[1]})" if where else ""
                print(f"  {name}{at}")
    return 1 if args.check and (missing or reached or unknown) else 0


if __name__ == "__main__":
    sys.exit(main())
