"""Compute kernel: Gaussian-rational and monomial-dict arithmetic.

A Gaussian rational is a 4-tuple of ints ``(an, ad, bn, bd)`` standing for
``an/ad + (bn/bd)*i``, kept in lowest terms with positive denominators.
A polynomial is a dict mapping exponent tuples to nonzero Gaussian rationals,
or its packed form (below). Every function returns fresh objects, except
that `packed_neg` and `packed_scale` share their argument's key list and
`poly_integral` and `poly_primitive` return a term dict already over Z[i]
(for the latter, one whose ints have gcd 1) as it is, and never mutates its
arguments. Only `ring.MultiPoly` calls it. Term
dicts are added, scaled and multiplied; negation and subtraction are
packed only.

Gaussian integers (both denominators 1) take a fast path in `qadd` and
`qmul` that skips the gcd reductions. `poly_dot` returns a sum of
polynomial products from one accumulator on packed exponents, the exponent
and coefficient specialisation of Monagan & Pearce (CASC 2007): it brings
every operand's numerators to one common denominator, adds plain ints when
no operand has an imaginary part (the real-integer lane) and otherwise (the
Gaussian lane) keeps each exponent's real and imaginary int parts in one
mutable ``[re, im]`` list that it adds into in place, and reduces the
result's denominator once. Its operands and its result are packed
polynomials ``(n, top, den, keys, re, im)``: the variable count, a bound
on the largest exponent, the denominator, the exponents packed into ints
and the numerators over den (`poly_pack` builds one from a term dict,
`poly_unpack` the term dict from one). So a sum whose result enters the
next sum is never unpacked and packed again in between. `ring.MultiPoly`
keeps each polynomial's packed form for its lifetime, which holds because
neither form is changed after construction. `packed_neg`, `packed_scale`
and `packed_partial` negate, scale by an int and differentiate a packed
polynomial, `packed_sub` subtracts two and `packed_equal` compares two,
without unpacking them; `packed_exponents` reads the exponents alone.
`poly_mul` multiplies coefficient by coefficient; `ring.MultiPoly` uses it
for small products and a one-pair `poly_dot` for the rest.

`poly_integral` and `packed_integral` give a polynomial times the lcm of
its denominators, over Z[i], and that lcm; `poly_primitive` divides one
over Z[i] by the gcd of its ints. `ring.MultiPoly.exact_divide` takes its
steps on those, on the fast path.

`poly_dot` has two accumulators, the two sides of the dense/hash trade-off
(Fateman, ACM SIGSAM Bull. 37(1), 2003). A dict keyed by packed exponents
takes every sum but the largest, and its result has the term order of
`poly_mul`'s loop run over every pair in turn. A sum of at least
`_DENSE_MIN_PAIRS` term pairs whose exponent sums fit 8 bits adds into
list slots indexed by a dense box of its exponents, when that box has at
most a quarter as many slots as the sum has pairs and at most
`_DENSE_MAX_SLOTS`; its result has its terms in ascending packed-key
order. The threshold is the measured crossover: on the box-eligible sums
of one pass each of verify-pencil and form-requests at seeds 1 and 2, the
dense path took 1.17, 0.98 and 1.11 times the dict path's time in the
bands of 1,024-2,047, 2,048-4,095 and 4,096-8,191 term pairs, and 0.76
and 0.55 times at 8,192-32,767 and from 32,768 on (best of 7 runs, 2 vCPU,
Python 3.11.7). Values never depend on which accumulator ran.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd, lcm
from operator import add, itemgetter, mul

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


def poly_integral(p):
    """(den, p * den) of a term dict p: the lcm of its denominators and p
    over Z[i], in p's term order; p itself when den is 1."""
    den = _denominator(p)
    if den == 1:
        return 1, p
    return den, {e: (a * (den // ad), 1, b * (den // bd), 1)
                 for e, (a, ad, b, bd) in p.items()}


def poly_primitive(p):
    """(g, p / g) of a nonzero term dict p over Z[i]: the gcd of its ints
    and p divided by it, in p's term order; p itself when g is 1."""
    values = p.values()
    g = gcd(*[c[0] for c in values], *[c[2] for c in values])
    if g == 1:
        return 1, p
    return g, {e: (a // g, 1, b // g, 1) for e, (a, _, b, _) in p.items()}


def _width(top):
    """Bits per variable of packed exponents whose largest is top."""
    return max(8, top.bit_length())


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


_IMAG_NUM = itemgetter(2)


def poly_mul(p, q):
    """p*q coefficient by coefficient, the shorter operand outside; for
    small products, where setting up a packed one costs more than it saves."""
    if len(p) > len(q):
        p, q = q, p
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


def poly_pack(p):
    """The packed form of the term dict p, a tuple
    ``(n, top, den, keys, re, im)``: the length of p's exponent tuples (0
    when p is empty), its largest exponent, the lcm of its denominators,
    its exponents packed `_width(top)` bits per variable, and the
    numerators of its real and imaginary parts over den (im is None when p
    is real), all in p's term order. At den 1 the numerator lists hold p's
    own coefficient ints. `poly_dot` takes and returns this form; its
    results may carry a larger top, a bound rather than the maximum.
    """
    values = p.values()
    den = _denominator(p)
    imag = any(map(_IMAG_NUM, values))
    if den == 1:
        re = [c[0] for c in values]
        im = [c[2] for c in values] if imag else None
    else:
        re = [a * (den // ad) for a, ad, _, _ in values]
        im = [b * (den // bd) for _, _, b, bd in values] if imag else None
    top = max(map(max, p), default=0)
    n = len(next(iter(p))) if p else 0
    return (n, top, den, _pack(p, _width(top)), re, im)


def poly_unpack(packed):
    """The term dict of a packed polynomial (`poly_pack`), in its order."""
    n, top, den, keys, re, im = packed
    if den == 1:
        return packed_integral(packed)[1]
    exps = _unpack(keys, n, _width(top))
    if im is None:
        return {e: _reduce(a, den, 0, 1) for e, a in zip(exps, re)}
    return {e: _reduce(a, den, b, den) for e, a, b in zip(exps, re, im)}


def packed_integral(packed):
    """(den, p * den) of a packed polynomial p: its denominator and its
    numerators as a term dict over Z[i], in its term order, with no
    fraction reduced; `poly_integral` of its term dict."""
    n, top, den, keys, re, im = packed
    exps = _unpack(keys, n, _width(top))
    if im is None:
        return den, {e: (a, 1, 0, 1) for e, a in zip(exps, re)}
    return den, {e: (a, 1, b, 1) for e, a, b in zip(exps, re, im)}


def packed_neg(packed):
    """-p of a packed polynomial p: its numerators negated, its keys shared."""
    n, top, den, keys, re, im = packed
    return (n, top, den, keys, [-a for a in re],
            None if im is None else [-b for b in im])


def packed_sub(p, q):
    """p - q of packed polynomials, as a packed polynomial, without
    unpacking either: the numerators of both are brought to the lcm of
    their denominators and merged on keys of one width. The result has
    the term order of `poly_add` on p and -q and is normalized as
    `poly_dot`'s is (`_packed_result`)."""
    n = p[0] or q[0]
    top = max(p[1], q[1])
    width = _width(top)
    den = lcm(p[2], q[2])
    real = p[5] is None and q[5] is None
    acc = {}
    get = acc.get
    for sign, (_, t, d, keys, re, im) in ((1, p), (-1, q)):
        if _width(t) != width:
            keys = _pack(_unpack(keys, n, _width(t)), width)
        f = sign * (den // d)
        if real:
            for k, a in zip(keys, re):
                v = get(k, 0) + a * f
                if v:
                    acc[k] = v
                else:
                    del acc[k]
            continue
        for k, a, b in zip(keys, re, repeat(0) if im is None else im):
            old = get(k, (0, 0))
            v = (old[0] + a * f, old[1] + b * f)
            if v[0] or v[1]:
                acc[k] = v
            else:
                del acc[k]
    if not acc:
        return (0, 0, 1, [], [], None)
    if real:
        re, im = list(acc.values()), None
    else:
        re = [v[0] for v in acc.values()]
        im = [v[1] for v in acc.values()]
    return _packed_result(n, top, den, list(acc), re, im)


def packed_scale(packed, c):
    """c * p of a packed polynomial p and an int c, as a packed polynomial:
    p's numerators times c over p's den, its keys shared, in its term
    order, normalized as `poly_dot`'s result is (`_packed_result`)."""
    if not c:
        return (0, 0, 1, [], [], None)
    n, top, den, keys, re, im = packed
    return _packed_result(n, top, den, keys, [a * c for a in re],
                          None if im is None else [b * c for b in im])


def packed_equal(p, q):
    """p == q of packed polynomials, without unpacking them when both keep
    8-bit keys: then den and the numerators by key decide it, since
    `poly_pack` and `_packed_result` both leave gcd(den, numerators) = 1
    and im None exactly when every imaginary part is 0. A pair with a
    wider key is compared on its term dicts."""
    if _width(p[1]) != 8 or _width(q[1]) != 8:
        return poly_unpack(p) == poly_unpack(q)
    if (p[2] != q[2] or len(p[3]) != len(q[3])
            or (p[5] is None) != (q[5] is None)):
        return False
    return (dict(zip(p[3], p[4])) == dict(zip(q[3], q[4]))
            and (p[5] is None
                 or dict(zip(p[3], p[5])) == dict(zip(q[3], q[5]))))


def packed_partial(packed, var):
    """d/dz of a packed polynomial in its variable of 0-based index var, as
    a packed polynomial in its term order.

    A term z^e with e_var > 0 keeps its place: its key loses one in that
    field and its numerators are multiplied by e_var; no two terms merge.
    The result is normalized as `poly_dot`'s is (`_packed_result`).
    """
    n, top, den, keys, re, im = packed
    if var >= n:  # the zero polynomial packs with n = 0
        return (0, 0, 1, [], [], None)
    width = _width(top)
    shift = width * var
    mask = (1 << width) - 1
    step = 1 << shift
    exps = [k >> shift & mask for k in keys]
    out_keys = [k - step for k, e in zip(keys, exps) if e]
    if not out_keys:
        return (0, 0, 1, [], [], None)
    return _packed_result(
        n, top, den, out_keys, [a * e for a, e in zip(re, exps) if e],
        None if im is None else [b * e for b, e in zip(im, exps) if e])


def packed_exponents(packed):
    """The exponent tuples of a packed polynomial, read from its keys one
    at a time, with no term dict built."""
    n, top, _, keys, _, _ = packed
    return _unpack(keys, n, _width(top))


def _packed_result(n, top, den, keys, re, im):
    """A kernel result packed as `poly_pack` would pack its terms: den and
    the numerators divided by their gcd, im None when every imaginary part
    is 0, and a result wider than 8 bits packed again from its terms, with
    its exact top; an 8-bit top may stay a bound."""
    if im is not None and not any(im):
        im = None
    if den != 1:
        g = gcd(den, *re, *(im or ()))
        if g != 1:
            den //= g
            re = [a // g for a in re]
            if im is not None:
                im = [b // g for b in im]
    out = (n, top, den, keys, re, im)
    if _width(top) > 8:
        return poly_pack(poly_unpack(out))
    return out


# A sum of at least this many term pairs whose exponent sums fit 8 bits
# takes the dense accumulator (`_dense_dot`) when its box is small enough:
# below it the dense path was no faster (see the module docstring).
_DENSE_MIN_PAIRS = 8192
# The dense box has at most this many slots, and at most a quarter as many
# as the sum has term pairs, so the lists stay small and mostly hit.
_DENSE_MAX_SLOTS = 16384


def poly_dot(pairs):
    """The sum of p*q over the (p, q) pairs of packed polynomials
    (`poly_pack`), in one packed pass, as a packed polynomial.

    The term pairs of all products feed one accumulator, of one of two
    kinds. Each product's numerators are scaled to one common denominator
    for the whole sum. When no operand has an imaginary part the
    accumulator holds plain ints, else real and imaginary int parts.

    The dict accumulator, which takes every sum but the largest, is keyed
    by packed exponents: ints wide enough for the largest exponent sum, so
    adding monomials is one int add. An operand's keys are used as they
    are when their width is the sum's, and packed again here otherwise. A
    sum that cancels leaves the dict at once, so a later term at that
    exponent is inserted at the end: the result has the term order of
    running `poly_mul`'s coefficient-by-coefficient loop over every pair
    in turn, the shorter operand of each pair outside.

    The dense accumulator (`_dense_dot`) takes a sum of at least
    `_DENSE_MIN_PAIRS` term pairs, the measured crossover (see the module
    docstring), whose exponent sums fit 8 bits, when its box of result
    exponents fits; its result has its terms in ascending packed-key
    order. Only the dict accumulator's order depends on the pairs' order.

    The result is packed as `poly_pack` would pack its terms: the common
    denominator and the numerators are divided by their gcd, and im is
    None when every imaginary part cancelled. Its top is the bound
    max(p.top + q.top) when that fits 8 bits, and the accumulator's keys
    are its keys; a wider sum is unpacked at once and packed again, with
    its exact top.
    """
    work = []
    top = 0
    real = True
    size = 0
    for p, q in pairs:
        if not p[4] or not q[4]:
            continue
        if len(p[4]) > len(q[4]):
            p, q = q, p
        top = max(top, p[1] + q[1])
        size += len(p[4]) * len(q[4])
        if real and (p[5] is not None or q[5] is not None):
            real = False
        work.append((p, q))
    if not work:
        return (0, 0, 1, [], [], None)
    n = work[0][0][0]
    den = lcm(*[p[2] * q[2] for p, q in work])
    width = _width(top)
    if size >= _DENSE_MIN_PAIRS and width == 8:
        out = _dense_dot(work, n, top, den, real, size)
        if out is not None:
            return out
    acc = {}
    get = acc.get
    for (_, tp, dp, keys_p, re_p, im_p), (_, tq, dq, keys_q, re_q, im_q) in work:
        if _width(tp) != width:
            keys_p = _pack(_unpack(keys_p, n, _width(tp)), width)
        if _width(tq) != width:
            keys_q = _pack(_unpack(keys_q, n, _width(tq)), width)
        # p's numerators carry the factor den / (dp * dq) as well
        f = den // (dp * dq)
        if f != 1:
            re_p = [a * f for a in re_p]
            if im_p is not None:
                im_p = [b * f for b in im_p]
        if real:
            qs = list(zip(keys_q, re_q))
            for k1, a in zip(keys_p, re_p):
                for k2, c in qs:
                    k = k1 + k2
                    v = get(k, 0) + a * c
                    if v:
                        acc[k] = v
                    else:
                        del acc[k]
            continue
        qs = list(zip(keys_q, re_q, repeat(0) if im_q is None else im_q))
        for k1, a, b in zip(keys_p, re_p, repeat(0) if im_p is None else im_p):
            for k2, c, d in qs:
                k = k1 + k2
                cell = get(k)
                if cell is None:
                    acc[k] = [a * c - b * d, a * d + b * c]
                else:
                    cell[0] += a * c - b * d
                    cell[1] += a * d + b * c
                    if not (cell[0] or cell[1]):
                        del acc[k]
    if real:
        re, im = list(acc.values()), None
    else:
        re = [v[0] for v in acc.values()]
        im = [v[1] for v in acc.values()]
    return _packed_result(n, top, den, list(acc), re, im)


def _dense_dot(work, n, top, den, real, size):
    """`poly_dot`'s sum of the (p, q) pairs of `work` (p the shorter, both
    nonzero, every exponent sum under 256) over the common denominator
    den, on a dense accumulator: one list slot per exponent in the box of
    result exponents, or None when that box has more than
    min(size // 4, `_DENSE_MAX_SLOTS`) slots, size being the term pairs.

    The box is a mixed radix, first variable lowest: each variable's radix
    is its largest exponent sum over the pairs, plus 1. When every product
    is homogeneous of one degree the last variable is dropped, as the
    others fix it. A term's slot is then linear in its exponents, so a
    term pair adds a * c at the sum of its factors' slots: into one list
    of ints on the real-integer lane, into a real and an imaginary list
    otherwise. The nonzero slots are decoded to 8-bit keys, and the result
    has its terms in ascending key order, normalized and with top as in
    `poly_dot`.
    """
    # per key list, which operands may share: its exponents as bytes, the
    # largest exponent of each variable, and its degree when homogeneous
    ops = {}
    for pair in work:
        for x in pair:
            if id(x[3]) not in ops:
                e = [k.to_bytes(n, "little") for k in x[3]]
                d = set(map(sum, e))
                ops[id(x[3])] = (e, list(map(max, zip(*e))),
                                 d.pop() if len(d) == 1 else None)
    bound = [0] * n
    degrees = set()
    for p, q in work:
        _, mp, dp = ops[id(p[3])]
        _, mq, dq = ops[id(q[3])]
        bound = list(map(max, bound, map(add, mp, mq)))
        degrees.add(None if dp is None or dq is None else dp + dq)
    homogeneous = len(degrees) == 1 and None not in degrees
    radix = [b + 1 for b in bound[:n - 1 if homogeneous else n]]
    strides = []
    slots = 1
    for r in radix:
        strides.append(slots)
        slots *= r
    if slots > min(size // 4, _DENSE_MAX_SLOTS):
        return None
    slot = {key: [sum(map(mul, e, strides)) for e in op[0]]
            for key, op in ops.items()}
    acc = [0] * slots
    acc_im = None if real else [0] * slots
    for (_, _, dp, keys_p, re_p, im_p), (_, _, dq, keys_q, re_q, im_q) in work:
        # p's numerators carry the factor den / (dp * dq) as well
        f = den // (dp * dq)
        if f != 1:
            re_p = [a * f for a in re_p]
            if im_p is not None:
                im_p = [b * f for b in im_p]
        if real:
            qs = list(zip(slot[id(keys_q)], re_q))
            for i1, a in zip(slot[id(keys_p)], re_p):
                for i2, c in qs:
                    acc[i1 + i2] += a * c
            continue
        qs = list(zip(slot[id(keys_q)], re_q,
                      repeat(0) if im_q is None else im_q))
        for i1, a, b in zip(slot[id(keys_p)], re_p,
                            repeat(0) if im_p is None else im_p):
            for i2, c, d in qs:
                i = i1 + i2
                acc[i] += a * c - b * d
                acc_im[i] += a * d + b * c
    if real:
        hits = [i for i, v in enumerate(acc) if v]
    else:
        hits = [i for i, (a, b) in enumerate(zip(acc, acc_im)) if a or b]
    degree = degrees.pop() if homogeneous else None
    terms = []
    for i in hits:
        e = []
        rest = i
        for r in radix:
            rest, x = divmod(rest, r)
            e.append(x)
        if homogeneous:
            e.append(degree - sum(e))
        terms.append((int.from_bytes(bytes(e), "little"), i))
    terms.sort()
    keys = [k for k, _ in terms]
    re = [acc[i] for _, i in terms]
    im = None if real else [acc_im[i] for _, i in terms]
    return _packed_result(n, top, den, keys, re, im)
