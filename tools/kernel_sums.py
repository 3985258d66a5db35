"""Kernel sums and exact divisions of one workload pass.

    python3 tools/kernel_sums.py [--workload verify-pencil] [--seed 1]

Run from anywhere; the package is imported from this checkout's ``src/``.
It builds one pass of a workload of ``perfbench/workloads.py`` at the
seed, runs its requests through in-process ``cli.main`` with
``ring.poly_dot`` wrapped, and prints, for each band of term pairs per
sum, each accumulator of `_core.poly_dot` (dict or dense) and each lane
(real-int when no operand has an imaginary part, else gaussian), the
calls, the term pairs and the seconds spent in those sums.

A last line counts the pass's `MultiPoly.exact_divide` calls, the ones
that gave None, the failures that took no division step (counted as
``ring.poly_mul_term`` calls), which the monomial test decided, and the
successful divisions that `MatrixForm._reduced` made and threw away
because a later entry of the same round failed. Input files go to a
temporary directory outside the repository; nothing is written under
``perfbench/``, not even bytecode caches.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

from output_digest import ROOT, run

BANDS = ((64, "<64"), (512, "64-511"), (4096, "512-4,095"),
         (32768, "4,096-32,767"), (None, ">=32,768"))


def band(pairs: int) -> str:
    return next(name for limit, name in BANDS
                if limit is None or pairs < limit)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="verify-pencil")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from pencilforms import _core, cli, forms, ring

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    dense_dot, poly_dot = _core._dense_dot, ring.poly_dot
    dense_hits = []

    def counted_dense_dot(*a):
        out = dense_dot(*a)
        dense_hits.append(out is not None)
        return out

    rows = {}  # (band, accumulator, lane) -> [calls, term pairs, seconds]

    def timed_poly_dot(pairs):
        pairs = list(pairs)
        size = sum(len(p[4]) * len(q[4]) for p, q in pairs)
        real = all(p[5] is None and q[5] is None for p, q in pairs
                   if p[4] and q[4])
        del dense_hits[:]
        start = time.perf_counter()
        out = poly_dot(pairs)
        seconds = time.perf_counter() - start
        row = rows.setdefault(
            (band(size), "dense" if any(dense_hits) else "dict",
             "real-int" if real else "gaussian"), [0, 0, 0.0])
        row[0] += 1
        row[1] += size
        row[2] += seconds
        return out

    exact_divide, mul_term = ring.MultiPoly.exact_divide, ring.poly_mul_term
    reduced = forms.MatrixForm._reduced
    steps = [0]
    divided = [0]  # successful divisions
    division = dict.fromkeys(("calls", "failed", "failed by monomial test",
                              "discarded by _reduced"), 0)

    def counted_mul_term(*a):
        steps[0] += 1
        return mul_term(*a)

    def counted_divide(self, d):
        division["calls"] += 1
        before = steps[0]
        out = exact_divide(self, d)
        if out is None:
            division["failed"] += 1
            division["failed by monomial test"] += steps[0] == before
        else:
            divided[0] += 1
        return out

    def counted_reduced(self):
        before = divided[0]
        out = reduced(self)
        # each round that took a power off divided every entry once
        entries = sum(m.k * m.k for m in self.terms.values())
        kept = (self.den_pow - out.den_pow) * entries
        division["discarded by _reduced"] += divided[0] - before - kept
        return out

    patches = ((_core, "_dense_dot", counted_dense_dot),
               (ring, "poly_dot", timed_poly_dot),
               (ring, "poly_mul_term", counted_mul_term),
               (ring.MultiPoly, "exact_divide", counted_divide),
               (forms.MatrixForm, "_reduced", counted_reduced))
    saved = [(owner, name, getattr(owner, name))
             for owner, name, _ in patches]
    for owner, name, value in patches:
        setattr(owner, name, value)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            requests = workloads.build(args.workload, args.seed, 1,
                                       Path(tmp))[0]
            for request in requests:
                run(cli, request.argv)
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)

    print(f"{args.workload} seed {args.seed}: one pass, {len(requests)} "
          "requests")
    print(f"{'term pairs':<14}{'accumulator':<13}{'lane':<10}{'calls':>8}"
          f"{'term pairs':>13}{'seconds':>10}")
    total = [0, 0, 0.0]
    for _, name in BANDS:
        for acc in ("dict", "dense"):
            for lane in ("real-int", "gaussian"):
                if (name, acc, lane) in rows:
                    calls, size, seconds = rows[name, acc, lane]
                    print(f"{name:<14}{acc:<13}{lane:<10}{calls:>8,}"
                          f"{size:>13,}{seconds:>10.3f}")
                    total = [a + b for a, b in
                             zip(total, rows[name, acc, lane])]
    print(f"{'all':<14}{'':<13}{'':<10}{total[0]:>8,}{total[1]:>13,}"
          f"{total[2]:>10.3f}")
    print("divisions: " + ", ".join(f"{name} {count:,}"
                                    for name, count in division.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
