"""The documented examples run as written: every doctest in the package,
and the code block of README's "Library" section."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import pencilforms

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(info.name for info in pkgutil.iter_modules(
    pencilforms.__path__, "pencilforms."))


@pytest.mark.parametrize("name", ["pencilforms"] + MODULES)
def test_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_the_scalar_doctest_runs():
    # a doctest that stopped being collected would pass without running
    assert doctest.testmod(importlib.import_module("pencilforms.ring"),
                           report=False).attempted >= 1


def library_example() -> str:
    """The first python code block of README's "Library" section."""
    section = README.read_text(encoding="utf-8").split(
        "\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    assert capsys.readouterr().out == "z1*z4-z2*z3\n"
