"""`tools/output_digest.py` prints the recorded output digests: seed 1,
the default seeds 1, 2 and 3, and seeds 4 to 7."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The digest of the seed-1 outputs, the same under any PYTHONHASHSEED.
# Re-record it only together with a CHANGES.md entry that declares which
# output bytes changed and why.
SEED_1_DIGEST = (
    "69 requests sha256 "
    "8ca5e9be333ef710a5aba720125043ac1af88fe9c2498e4434c776539bae9bb3\n")
# The digest at the default seeds 1, 2 and 3; re-record it, too, only
# with a declared output change.
DEFAULT_SEEDS_DIGEST = (
    "203 requests sha256 "
    "97a3f47b00609c6eec9943d919db4c728791fadbd69d8947828d9c079e229091\n")
# The digest at seeds 4 to 7, where values an element or a form keeps would
# show if they went stale at inputs the two pins above miss; re-record it,
# too, only with a declared output change.
SEEDS_4_TO_7_DIGEST = (
    "270 requests sha256 "
    "433f9a2f0c2c042ac526be64a341fec05b246e15005738b02a15b72c5c7944f5\n")


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
    assert done.stdout == SEED_1_DIGEST
    assert _files(ROOT / "perfbench") == before


def test_output_digest_at_the_default_seeds():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digest.py")],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-3000:]
    assert done.stdout == DEFAULT_SEEDS_DIGEST


def test_output_digest_at_seeds_4_to_7():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digest.py"),
         "--seeds", "4", "5", "6", "7"],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-3000:]
    assert done.stdout == SEEDS_4_TO_7_DIGEST
