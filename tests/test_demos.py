"""Smoke tests: every demo runs to completion against the current API.

The two demos that train a detector (``detect_poisoning.py``,
``end_to_end_loop.py``) take seconds, not minutes (about 3 s and 9 s on a
2-vCPU x86-64 host), so all four run here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["inspect_messages.py", "attest_xapp.py",
                                  "detect_poisoning.py", "end_to_end_loop.py"])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
