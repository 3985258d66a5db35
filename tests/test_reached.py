"""`tools/reached.py --check` passes: every package function that the
benchmark's requests never reach is listed, with its reason, in its KEPT
table, and no KEPT entry is reached."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _files(directory: Path) -> set:
    return {p.relative_to(directory) for p in directory.rglob("*")}


def test_unreached_package_functions_are_all_kept():
    # about 16 s: 205 requests under a profile hook; nothing is written
    # under perfbench/
    before = _files(ROOT / "perfbench")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "reached.py"), "--check"],
        capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert done.stdout.startswith("205 requests; ")
    assert _files(ROOT / "perfbench") == before
