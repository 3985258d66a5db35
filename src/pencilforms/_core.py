"""Compute kernel: Gaussian-rational and monomial-dict arithmetic.

A Gaussian rational is a 4-tuple of ints ``(an, ad, bn, bd)`` standing for
``an/ad + (bn/bd)*i``, kept in lowest terms with positive denominators.
A polynomial is a dict mapping exponent tuples to nonzero Gaussian rationals.
Every function returns fresh objects and never mutates its arguments.

Gaussian integers (both denominators 1) take a fast path in `qadd` and
`qmul` that skips the gcd reductions. `poly_dot` returns a sum of
polynomial products from one accumulator on packed exponents, the exponent
and coefficient specialisation of Monagan & Pearce (CASC 2007): it clears
the denominators of every operand to one common denominator, adds plain
ints when no operand has an imaginary part (the real-integer lane) and
``(re, im)`` int pairs otherwise, and reduces each result coefficient
once. `poly_mul` multiplies coefficient by coefficient up to
`_DIRECT_MAX_PAIRS` term pairs and is a one-pair `poly_dot` above that.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import add, itemgetter

BACKEND = "python"

Q_ZERO = (0, 1, 0, 1)
Q_ONE = (1, 1, 0, 1)


def _frac(n, d):
    """Reduce n/d to lowest terms with a positive denominator."""
    if d == 0:
        raise ZeroDivisionError("zero denominator")
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    return n // g, d // g


def _reduce(rn, rd, sn, sd):
    """rn/rd + (sn/sd)*i in lowest terms, for positive rd and sd."""
    g = gcd(rn, rd)  # gcd(0, rd) == rd turns a zero part into 0/1
    h = gcd(sn, sd)
    return (rn // g, rd // g, sn // h, sd // h)


def qnorm(an, ad, bn, bd):
    ra, da = _frac(an, ad)
    rb, db = _frac(bn, bd)
    return (ra, da, rb, db)


def qadd(a, b):
    an, ad, bn, bd = a
    cn, cd, dn, dd = b
    if ad == 1 and bd == 1 and cd == 1 and dd == 1:
        return (an + cn, 1, bn + dn, 1)
    return _reduce(an * cd + cn * ad, ad * cd, bn * dd + dn * bd, bd * dd)


def qneg(a):
    return (-a[0], a[1], -a[2], a[3])


def qsub(a, b):
    return qadd(a, qneg(b))


def qmul(a, b):
    an, ad, bn, bd = a
    cn, cd, dn, dd = b
    # (x + yi)(u + vi) = (xu - yv) + (xv + yu)i
    if ad == 1 and bd == 1 and cd == 1 and dd == 1:
        return (an * cn - bn * dn, 1, an * dn + bn * cn, 1)
    den = ad * cd * bd * dd
    return _reduce(an * cn * bd * dd - bn * dn * ad * cd, den,
                   an * dn * bd * cd + bn * cn * ad * dd, den)


def qinv(a):
    an, ad, bn, bd = a
    if an == 0 and bn == 0:
        raise ZeroDivisionError("inverse of zero")
    # 1/(x + yi) = (x - yi) / (x^2 + y^2)
    nn = an * an * bd * bd + bn * bn * ad * ad
    return _reduce(an * ad * bd * bd, nn, -bn * ad * ad * bd, nn)


def poly_add(p, q):
    out = dict(p)
    for e, c in q.items():
        old = out.get(e)
        if old is None:
            out[e] = c
        else:
            s = qadd(old, c)
            if s[0] == 0 and s[2] == 0:
                del out[e]
            else:
                out[e] = s
    return out


def poly_neg(p):
    return {e: qneg(c) for e, c in p.items()}


def poly_sub(p, q):
    return poly_add(p, poly_neg(q))


def poly_scale(p, c):
    if c[0] == 0 and c[2] == 0:
        return {}
    return {e: qmul(v, c) for e, v in p.items()}


def poly_mul_term(p, exps, c):
    """p times the single term c * z^exps."""
    if c[0] == 0 and c[2] == 0:
        return {}
    return {tuple(map(add, e, exps)): qmul(v, c) for e, v in p.items()}


def _denominator(p):
    """The least common denominator of p's coefficients."""
    return lcm(*[c[1] for c in p.values()], *[c[3] for c in p.values()])


def _pack(exps, width):
    """Exponent tuples as ints with `width` bits per variable, first variable
    lowest; adding two packed keys adds the tuples while no field overflows."""
    if width == 8:  # the usual case; bytes() packs it far faster than shifts
        return [int.from_bytes(bytes(e), "little") for e in exps]
    return [sum(x << (width * i) for i, x in enumerate(e)) for e in exps]


def _unpack(keys, n, width):
    """Exponent tuples of length n from packed keys, one at a time."""
    if width == 8:
        return (tuple(k.to_bytes(n, "little")) for k in keys)
    mask = (1 << width) - 1
    return (tuple(k >> (width * i) & mask for i in range(n)) for k in keys)


# Below this many term pairs, setting up a packed product costs more than it
# saves, and `poly_mul` multiplies coefficient by coefficient.
_DIRECT_MAX_PAIRS = 32

_IMAG_NUM = itemgetter(2)


def poly_mul(p, q):
    if len(p) > len(q):
        p, q = q, p
    if len(p) * len(q) > _DIRECT_MAX_PAIRS:
        return poly_dot(((p, q),))
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(map(add, e1, e2))
            c = qmul(c1, c2)
            old = out.get(e)
            if old is None:
                out[e] = c
            else:
                s = qadd(old, c)
                if s[0] == 0 and s[2] == 0:
                    del out[e]
                else:
                    out[e] = s
    return out


def poly_dot(pairs):
    """The sum of p*q over the (p, q) pairs, in one packed pass.

    The term pairs of all products feed one accumulator keyed by packed
    exponents: ints wide enough for the largest exponent sum, so adding
    monomials is one int add. Each product's operands are scaled to
    integers, and to one common denominator for the whole sum, which
    divides each result coefficient once at the end. When no operand has
    an imaginary part the accumulator holds plain ints, else ``(re, im)``
    int pairs. A sum that cancels leaves the dict at once, so a later term
    at that exponent is inserted at the end: the result has the term order
    of running `poly_mul`'s coefficient-by-coefficient loop over every
    pair in turn, the shorter operand of each pair outside.
    """
    work = []
    top = 0
    real = True
    for p, q in pairs:
        if not p or not q:
            continue
        if len(p) > len(q):
            p, q = q, p
        top = max(top, max(map(max, p)) + max(map(max, q)))
        if real and (any(map(_IMAG_NUM, p.values()))
                     or any(map(_IMAG_NUM, q.values()))):
            real = False
        work.append((p, q, _denominator(p), _denominator(q)))
    if not work:
        return {}
    den = lcm(*[dp * dq for _, _, dp, dq in work])
    width = max(8, top.bit_length())
    acc = {}
    get = acc.get
    for p, q, dp, dq in work:
        # p's coefficients carry the factor den / (dp * dq) as well
        sp = den // dq
        if real:
            qs = list(zip(_pack(q, width),
                          [c * (dq // cd) for c, cd, _, _ in q.values()]))
            for k1, (a, ad, _, _) in zip(_pack(p, width), p.values()):
                a *= sp // ad
                for k2, c in qs:
                    k = k1 + k2
                    v = get(k, 0) + a * c
                    if v:
                        acc[k] = v
                    else:
                        del acc[k]
            continue
        qs = [(k, c * (dq // cd), d * (dq // dd))
              for k, (c, cd, d, dd) in zip(_pack(q, width), q.values())]
        for k1, (a, ad, b, bd) in zip(_pack(p, width), p.values()):
            a *= sp // ad
            b *= sp // bd
            for k2, c, d in qs:
                k = k1 + k2
                old = get(k)
                if old is None:
                    acc[k] = (a * c - b * d, a * d + b * c)
                else:
                    re = old[0] + a * c - b * d
                    im = old[1] + a * d + b * c
                    if re or im:
                        acc[k] = (re, im)
                    else:
                        del acc[k]
    exps = _unpack(acc, len(next(iter(work[0][0]))), width)
    if real:
        if den == 1:
            return {e: (re, 1, 0, 1) for e, re in zip(exps, acc.values())}
        return {e: _reduce(re, den, 0, 1) for e, re in zip(exps, acc.values())}
    if den == 1:
        return {e: (re, 1, im, 1) for e, (re, im) in zip(exps, acc.values())}
    return {e: _reduce(re, den, im, den)
            for e, (re, im) in zip(exps, acc.values())}
