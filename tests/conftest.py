"""Helpers shared by several test modules."""

from pencilforms import ring


def count_poly_mul(monkeypatch):
    """Count kernel products made through MultiPoly from here on: each
    `poly_mul` call, and each pair of a fused `poly_dot` sum."""
    calls = [0]
    inner_mul, inner_dot = ring.poly_mul, ring.poly_dot

    def counting_mul(p, q):
        calls[0] += 1
        return inner_mul(p, q)

    def counting_dot(pairs):
        pairs = list(pairs)
        calls[0] += len(pairs)
        return inner_dot(pairs)

    monkeypatch.setattr(ring, "poly_mul", counting_mul)
    monkeypatch.setattr(ring, "poly_dot", counting_dot)
    return calls
