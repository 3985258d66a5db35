"""`tools/kernel_sums.py` runs one form-requests pass and prints its kernel
sums by band, accumulator and lane, and one line of division counts."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _files(directory: Path) -> dict:
    return {p.relative_to(directory): p.stat().st_mtime_ns
            for p in directory.rglob("*")}


def test_kernel_sums_prints_both_lanes_and_the_division_line():
    # one pass of 51 requests; nothing is written under perfbench/
    before = _files(ROOT / "perfbench")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "kernel_sums.py"),
         "--workload", "form-requests", "--seed", "1"],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.splitlines()
    assert lines[0] == "form-requests seed 1: one pass, 51 requests"
    lanes = {line.split()[2] for line in lines[2:-2]}
    assert lanes == {"real-int", "gaussian"}
    counts = re.fullmatch(
        r"divisions: calls ([\d,]+), failed ([\d,]+), failed by monomial "
        r"test ([\d,]+), discarded by _reduced ([\d,]+)", lines[-1])
    assert counts, lines[-1]
    calls, failed, by_test, _ = (int(g.replace(",", ""))
                                 for g in counts.groups())
    assert calls >= failed >= by_test > 0
    assert _files(ROOT / "perfbench") == before
