"""The README's library example runs against the source tree, so a doc
example that names a removed function fails here first."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks, "README.md has no ```python block"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for block in blocks:
        run = subprocess.run([sys.executable, "-c", block], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
