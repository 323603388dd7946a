"""Smoke test of the demos: each script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    # demos write their figures to the working directory
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)}, timeout=300)
    assert proc.returncode == 0, proc.stderr
