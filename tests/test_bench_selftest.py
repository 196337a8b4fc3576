"""The benchmark's own self-test passes: its oracles on known values, and a
miniature of every workload through the harness, output checks and tracer.

A `src/` change that breaks the bench's output readers, a traced function's
name or a miniature's check fails here, in tier-1. The self-test writes only
under the git-ignored `bench/out/`.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
