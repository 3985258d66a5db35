"""Only `ring` knows the packed polynomial format.

No package module but `ring` imports from the kernel `_core`, except that
the package's `__init__` reads `BACKEND` from it; and no module but `ring`
and `_core` itself names `MultiPoly._of_packed`, a `.packed` form or a
`packed_*` kernel function. Every other module works on `MultiPoly`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pencilforms"
KERNEL = "pencilforms._core"


def kernel_imports(source: str) -> list:
    """(line, imported names) of each import from the kernel, absolute or
    relative, whole module or names from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "pencilforms" + ("." + module if module else "")
            names = [alias.name for alias in node.names]
            if module == KERNEL or (module == "pencilforms"
                                    and "_core" in names):
                found.append((node.lineno, names))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, [alias.name]) for alias in node.names
                      if alias.name == KERNEL]
    return found


def packed_names(source: str) -> list:
    """(line, name) of each use of the packed format: `_of_packed`, a
    `.packed` attribute, or a name beginning with `packed_`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
            if name == "packed":
                found.append((node.lineno, ".packed"))
                continue
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name == "_of_packed" or name.startswith("packed_"):
            found.append((getattr(node, "lineno", 0), name))
    return found


def _modules(*skip) -> dict:
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE.glob("*.py"))
            if path.stem not in skip}


def test_the_checks_find_what_they_look_for():
    source = ("from pencilforms._core import packed_sub, qadd\n"
              "from . import _core\n"
              "from ._core import BACKEND\n"
              "import pencilforms._core\n"
              "y = x.packed()\n"
              "z = MultiPoly._of_packed(n, packed_neg(y))\n"
              "w = x.packed_scale\n")
    assert [line for line, _ in kernel_imports(source)] == [1, 2, 3, 4]
    assert sorted(name for _, name in packed_names(source)) == [
        ".packed", "_of_packed", "packed_neg", "packed_scale", "packed_sub"]
    assert kernel_imports("from pencilforms.ring import MultiPoly\n") == []
    assert packed_names("packed = x.packing(packedness)\n") == []


def test_only_ring_imports_the_kernel():
    modules = _modules("ring", "_core")
    assert "forms.py" in modules and "linalg.py" in modules
    found = [f"{name}:{line} {names}" for name, source in modules.items()
             for line, names in kernel_imports(source)
             if not (name == "__init__.py" and names == ["BACKEND"])]
    assert not found


def test_only_ring_reads_the_packed_format():
    found = [f"{name}:{line} {use}"
             for name, source in _modules("ring", "_core").items()
             for line, use in packed_names(source)]
    assert not found
