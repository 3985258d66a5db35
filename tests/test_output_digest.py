"""`tools/output_digest.py` runs and prints one digest line."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _files(directory: Path) -> set:
    return {p.relative_to(directory) for p in directory.rglob("*")}


def test_output_digest_prints_one_digest_line():
    # seed 1: one pass of each workload (14 + 2 + 51 requests) and the two
    # extra requests; the run leaves no file under perfbench/
    before = _files(ROOT / "perfbench")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digest.py"),
         "--seeds", "1"], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-3000:]
    assert re.fullmatch(r"69 requests sha256 [0-9a-f]{64}\n", done.stdout)
    assert _files(ROOT / "perfbench") == before
