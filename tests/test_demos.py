"""Smoke test: the demo scripts run to completion against this source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaugecert

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", ["gauge_zoo.py", "certify_line.py"])
def test_demo_runs(script):
    src = str(Path(gaugecert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(DEMOS / script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
