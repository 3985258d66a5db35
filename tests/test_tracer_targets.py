"""Every function the benchmark tracer wraps still exists under its name,
and is bound where the tracer rebinds it.

`perfbench/tracer.py` rebinds package functions by (module, attribute)
name for `perfbench/run.py --trace 1`. Deleting or renaming one of them
breaks traced runs without failing any other test, so this test resolves
every target with the tracer's own lookup. `Tracer.install` then refuses
a target that no module outside the kernel binds, as a module attribute,
a value of a module-level dict or an attribute of a class the module
defines; so does this test. The tracer source is only read and executed
here, never imported from or written to its directory.

A target can also resolve and still go uncalled: `perfbench/selftest.py`
fails when a traced count is 0 on the workload meant to exercise it, so
the last test runs it in a child process that writes no bytecode.
"""

import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pencilforms.cli  # noqa: F401  (loads every traced module)
import pencilforms.suites  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def load_tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_target_resolves():
    tracer = load_tracer()
    for table in (tracer.SPAN_TARGETS, tracer.HOT_TARGETS,
                  tracer.LEAF_TARGETS):
        for name, targets in table.items():
            for owner, attr in targets:
                assert callable(tracer._resolve(owner, attr)), (name, attr)
    for dict_path in tracer.REGISTRY_TARGETS:
        mod_name, _, var = dict_path.partition(".")
        registry = getattr(sys.modules["pencilforms." + mod_name], var)
        assert registry and all(callable(fn) for fn in registry.values())


def _bound_ids(tracer) -> set:
    """ids of the values `Tracer.install` can rebind: the attributes of
    every non-kernel pencilforms module, the values of its dicts, and the
    attributes of the classes it defines."""
    ids = set()
    for mod_name, mod in list(sys.modules.items()):
        if (not mod_name.startswith("pencilforms") or mod is None
                or mod_name in tracer.KERNEL_MODULES):
            continue
        for value in vars(mod).values():
            ids.add(id(value))
            if isinstance(value, dict):
                ids.update(map(id, value.values()))
            elif inspect.isclass(value) and value.__module__ == mod_name:
                ids.update(map(id, vars(value).values()))
    return ids


def test_every_traced_target_is_bound_outside_the_kernel():
    tracer = load_tracer()
    bound = _bound_ids(tracer)
    for table in (tracer.SPAN_TARGETS, tracer.HOT_TARGETS,
                  tracer.LEAF_TARGETS):
        for name, targets in table.items():
            for owner, attr in targets:
                assert id(tracer._resolve(owner, attr)) in bound, (name, attr)


def test_benchmark_selftest_passes():
    # each workload at small sizes, untraced and traced twice; its only
    # file is a temporary directory that it removes
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, env=env,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert "selftest passed" in done.stdout
