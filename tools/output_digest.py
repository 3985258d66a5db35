"""One sha256 over the outputs of the benchmark workloads' requests.

    python3 tools/output_digest.py [--seeds 1 2 3]

Run from anywhere; the package is imported from this checkout's ``src/``.
It builds one pass of each workload of ``perfbench/workloads.py`` at every
given seed (default 1, 2 and 3), adds ``verify --suite all --seed 1`` and
``torus --check cocycles --seed 1``, runs every request through in-process
``cli.main`` and prints one line: the request count and a sha256 over each
request's exit code, stdout and stderr, in order. A request that raises
counts as its exception's type and message.

Input files go to a temporary directory outside the repository, and its
path is replaced by a fixed token before hashing, so the digests of two
checkouts are equal exactly when their outputs are. Nothing is written
under ``perfbench/``, not even bytecode caches.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXTRA_REQUESTS = (["verify", "--suite", "all", "--seed", "1"],
                  ["torus", "--check", "cocycles", "--seed", "1"])
TMP_TOKEN = "<tmp>"


def requests(seeds, input_dir: Path) -> list:
    """argv lists: each workload's one pass per seed, then the extras."""
    import workloads

    out = []
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            pass_dir = input_dir / f"{workload}-seed{seed}"
            out += [r.argv for r in workloads.build(workload, seed, 1,
                                                    pass_dir)[0]]
    return out + [list(argv) for argv in EXTRA_REQUESTS]


def run(cli, argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process request."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"exception {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from pencilforms import cli

    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        argvs = requests(args.seeds, Path(tmp))
        for request in argvs:
            code, out, err = run(cli, request)
            record = [code, out.replace(tmp, TMP_TOKEN),
                      err.replace(tmp, TMP_TOKEN)]
            digest.update(json.dumps(record).encode() + b"\n")
    print(f"{len(argvs)} requests sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
