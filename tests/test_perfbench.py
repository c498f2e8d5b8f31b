"""The benchmark's independent output checks accept the program's output.

perfbench/selftest.py runs small scenarios of the program and holds their
CSVs against numbers computed apart from it, so a change that the
benchmark would reject fails here first.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    failed = [line for line in proc.stdout.splitlines() if line.startswith("FAIL")]
    assert proc.returncode == 0, "\n".join(failed) or proc.stderr[-2000:]
