"""Helpers shared by several test modules."""

import pytest

from pencilforms import cli, ring
from pencilforms.forms import maurer_cartan
from pencilforms.jacobi import trace_power_form


@pytest.fixture(autouse=True)
def cold_memos():
    """Each test starts with no pencil, omega or trace power kept.

    The CLI's `_pencil_of_text`, `maurer_cartan` and `trace_power_form`
    keep their last result, so a test that counts work on an input an
    earlier test used would otherwise count nothing.
    """
    cli._pencil_of_text.cache_clear()
    maurer_cartan.cache_clear()
    trace_power_form.cache_clear()


def count_poly_mul(monkeypatch):
    """Count kernel work made through MultiPoly from here on.

    ``calls[0]`` counts products: each `poly_mul` call, and each pair of a
    fused `poly_dot` sum. ``calls[1]`` counts kernel calls: `poly_mul` and
    `poly_dot` calls alike, so fusing more pairs into one sum lowers it.
    ``calls[2]`` counts term pairs: len(p) * len(q) for each product, read
    from the term dicts (a packed operand's numerator list `re`), so it
    shows work saved on large products that the product count barely sees.
    """
    calls = [0, 0, 0]
    inner_mul, inner_dot = ring.poly_mul, ring.poly_dot

    def counting_mul(p, q):
        calls[0] += 1
        calls[1] += 1
        calls[2] += len(p) * len(q)
        return inner_mul(p, q)

    def counting_dot(pairs):
        pairs = list(pairs)
        calls[0] += len(pairs)
        calls[1] += 1
        calls[2] += sum(len(p[4]) * len(q[4]) for p, q in pairs)
        return inner_dot(pairs)

    monkeypatch.setattr(ring, "poly_mul", counting_mul)
    monkeypatch.setattr(ring, "poly_dot", counting_dot)
    return calls
