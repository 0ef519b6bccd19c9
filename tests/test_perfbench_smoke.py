"""The benchmark runs end to end against the program as it is.

perfbench/run.py --smoke runs every workload at minimal size, traced and
untraced, and checks each metric and output. It reads program attributes
(HMM parameters, mask frames, bundle members) that unit tests do not pin,
so a refactor that renames one fails here instead of only in a full
benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_run_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    tail = (proc.stdout + proc.stderr)[-4000:]
    assert proc.returncode == 0, tail
    assert "smoke: ok" in proc.stdout.splitlines()[-1], tail
