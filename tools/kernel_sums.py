"""Kernel sums of one workload pass, by size band and accumulator.

    python3 tools/kernel_sums.py [--workload verify-pencil] [--seed 1]

Run from anywhere; the package is imported from this checkout's ``src/``.
It builds one pass of a workload of ``perfbench/workloads.py`` at the
seed, runs its requests through in-process ``cli.main`` with
``ring.poly_dot`` wrapped, and prints, for each band of term pairs per
sum and each accumulator of `_core.poly_dot` (dict or dense), the calls,
the term pairs and the seconds spent in those sums. Input files go to a
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
    from pencilforms import _core, cli, ring

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    dense_dot, poly_dot = _core._dense_dot, ring.poly_dot
    dense_hits = []

    def counted_dense_dot(*a):
        out = dense_dot(*a)
        dense_hits.append(out is not None)
        return out

    rows = {}  # (band, accumulator) -> [calls, term pairs, seconds]

    def timed_poly_dot(pairs):
        pairs = list(pairs)
        size = sum(len(p[4]) * len(q[4]) for p, q in pairs)
        del dense_hits[:]
        start = time.perf_counter()
        out = poly_dot(pairs)
        seconds = time.perf_counter() - start
        row = rows.setdefault(
            (band(size), "dense" if any(dense_hits) else "dict"), [0, 0, 0.0])
        row[0] += 1
        row[1] += size
        row[2] += seconds
        return out

    _core._dense_dot, ring.poly_dot = counted_dense_dot, timed_poly_dot
    with tempfile.TemporaryDirectory() as tmp:
        requests = workloads.build(args.workload, args.seed, 1, Path(tmp))[0]
        for request in requests:
            run(cli, request.argv)
    _core._dense_dot, ring.poly_dot = dense_dot, poly_dot

    print(f"{args.workload} seed {args.seed}: one pass, {len(requests)} "
          "requests")
    print(f"{'term pairs':<14}{'accumulator':<13}{'calls':>8}"
          f"{'term pairs':>13}{'seconds':>10}")
    total = [0, 0, 0.0]
    for _, name in BANDS:
        for acc in ("dict", "dense"):
            if (name, acc) in rows:
                calls, size, seconds = rows[name, acc]
                print(f"{name:<14}{acc:<13}{calls:>8,}{size:>13,}"
                      f"{seconds:>10.3f}")
                total = [a + b for a, b in zip(total, rows[name, acc])]
    print(f"{'all':<14}{'':<13}{total[0]:>8,}{total[1]:>13,}"
          f"{total[2]:>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
