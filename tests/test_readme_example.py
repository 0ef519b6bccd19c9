"""The README's Python API example runs as documented.

The block under "## Python API" in README.md is the documented use of
`sf.items_from_corpus`, `sf.train_pipeline`, `sf.evaluate_pipeline`,
`sf.predict_item` and `pred.gesture.values`. It is taken from the README
as it stands and run in a fresh interpreter with src/ on the path.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_python_api_example_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Python API\s+```python\n(.*?)```", readme, re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", block], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    # the first line prints the macro-F, then the total time
    assert float(proc.stdout.split()[0]) == 1.0, proc.stdout
